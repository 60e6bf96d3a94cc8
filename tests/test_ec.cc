// Tests for erasure-coded redundancy (src/recovery/ec.*): GF(2^8) codec
// round-trips, stripe layout invariants, degraded reads under node loss,
// parity consistency across cleaner write-backs, and rebuild-from-parity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/recovery/ec.h"

namespace dilos {
namespace {

DilosConfig EcConfig(int k, int m) {
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.recovery.enabled = true;
  cfg.ec.enabled = true;
  cfg.ec.k = k;
  cfg.ec.m = m;
  return cfg;
}

void Populate(DilosRuntime& rt, uint64_t region, uint64_t pages, uint64_t salt = 0xD15C0) {
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p ^ salt);
  }
}

uint64_t VerifySweep(DilosRuntime& rt, uint64_t region, uint64_t pages,
                     uint64_t salt = 0xD15C0) {
  uint64_t errors = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ salt)) {
      ++errors;
    }
  }
  return errors;
}

void DriveUntilIdle(DilosRuntime& rt, uint64_t max_ms = 50) {
  for (uint64_t i = 0; i < max_ms && !rt.RecoveryIdle(); ++i) {
    rt.DriveRecovery(1'000'000);
  }
}

// Encodes a (k, m) stripe of pseudo-random data blocks plus parity built with
// the delta primitive — the same call the cleaner's read-modify-write uses.
std::vector<std::vector<uint8_t>> MakeStripe(const ECCodec& codec, size_t n) {
  int k = codec.k();
  int m = codec.m();
  std::vector<std::vector<uint8_t>> blocks(static_cast<size_t>(k + m),
                                           std::vector<uint8_t>(n, 0));
  uint32_t x = 0x5EED;
  for (int j = 0; j < k; ++j) {
    for (size_t i = 0; i < n; ++i) {
      x = x * 1664525u + 1013904223u;
      blocks[static_cast<size_t>(j)][i] = static_cast<uint8_t>(x >> 16);
    }
  }
  for (int p = 0; p < m; ++p) {
    for (int j = 0; j < k; ++j) {
      ECCodec::XorMulInto(blocks[static_cast<size_t>(k + p)].data(),
                          blocks[static_cast<size_t>(j)].data(), codec.Coef(k + p, j), n);
    }
  }
  return blocks;
}

TEST(ECCodec, GfFieldArithmetic) {
  for (int a = 1; a < 256; ++a) {
    uint8_t inv = ECCodec::GfInv(static_cast<uint8_t>(a));
    EXPECT_EQ(ECCodec::GfMul(static_cast<uint8_t>(a), inv), 1) << a;
  }
  EXPECT_EQ(ECCodec::GfPow(2, 0), 1);
  EXPECT_EQ(ECCodec::GfMul(0, 0xAB), 0);
  EXPECT_EQ(ECCodec::GfMul(3, 7), ECCodec::GfMul(7, 3));
}

TEST(ECCodec, ReconstructsAnySingleLostMember) {
  const int k = 4, m = 2;
  ECCodec codec(k, m);
  const size_t n = 128;
  auto blocks = MakeStripe(codec, n);
  for (int lost = 0; lost < k + m; ++lost) {
    std::vector<int> members;
    std::vector<const uint8_t*> ptrs;
    for (int j = 0; j < k + m && static_cast<int>(members.size()) < k; ++j) {
      if (j == lost) {
        continue;
      }
      members.push_back(j);
      ptrs.push_back(blocks[static_cast<size_t>(j)].data());
    }
    std::vector<uint8_t> out(n);
    ASSERT_TRUE(codec.Reconstruct(lost, members.data(), ptrs.data(), k, out.data(), n))
        << "lost member " << lost;
    EXPECT_EQ(std::memcmp(out.data(), blocks[static_cast<size_t>(lost)].data(), n), 0)
        << "lost member " << lost;
  }
}

TEST(ECCodec, ReconstructsDoubleLossFromKSurvivors) {
  const int k = 4, m = 2;
  ECCodec codec(k, m);
  const size_t n = 96;
  auto blocks = MakeStripe(codec, n);
  // Lose data member 1 and parity member 5: survivors {0, 2, 3, 4}.
  int members[] = {0, 2, 3, 4};
  const uint8_t* ptrs[] = {blocks[0].data(), blocks[2].data(), blocks[3].data(),
                           blocks[4].data()};
  for (int lost : {1, 5}) {
    std::vector<uint8_t> out(n);
    ASSERT_TRUE(codec.Reconstruct(lost, members, ptrs, k, out.data(), n));
    EXPECT_EQ(std::memcmp(out.data(), blocks[static_cast<size_t>(lost)].data(), n), 0);
  }
}

TEST(ECCodec, CauchyMatrixIsMdsForTripleParity) {
  // (4, 3): every choice of 3 lost members out of 7 must be recoverable from
  // the 4 survivors — the MDS property the Cauchy construction guarantees
  // for arbitrary (k, m), where the old Vandermonde-row generator went
  // singular beyond m = 2. All C(7,3) = 35 loss patterns, every lost member.
  const int k = 4, m = 3;
  ECCodec codec(k, m);
  const size_t n = 64;
  auto blocks = MakeStripe(codec, n);
  int patterns = 0;
  for (int a = 0; a < k + m; ++a) {
    for (int b = a + 1; b < k + m; ++b) {
      for (int c = b + 1; c < k + m; ++c) {
        ++patterns;
        std::vector<int> members;
        std::vector<const uint8_t*> ptrs;
        for (int j = 0; j < k + m && static_cast<int>(members.size()) < k; ++j) {
          if (j == a || j == b || j == c) {
            continue;
          }
          members.push_back(j);
          ptrs.push_back(blocks[static_cast<size_t>(j)].data());
        }
        ASSERT_EQ(static_cast<int>(members.size()), k);
        for (int lost : {a, b, c}) {
          std::vector<uint8_t> out(n);
          ASSERT_TRUE(codec.Reconstruct(lost, members.data(), ptrs.data(), k, out.data(), n))
              << "lost {" << a << "," << b << "," << c << "}, decoding " << lost;
          EXPECT_EQ(std::memcmp(out.data(), blocks[static_cast<size_t>(lost)].data(), n), 0)
              << "lost {" << a << "," << b << "," << c << "}, decoding " << lost;
        }
      }
    }
  }
  EXPECT_EQ(patterns, 35);
}

TEST(ECCodec, RefusesFewerThanKSurvivors) {
  const int k = 3, m = 1;
  ECCodec codec(k, m);
  const size_t n = 32;
  auto blocks = MakeStripe(codec, n);
  int members[] = {0, 2};
  const uint8_t* ptrs[] = {blocks[0].data(), blocks[2].data()};
  std::vector<uint8_t> out(n);
  EXPECT_FALSE(codec.Reconstruct(1, members, ptrs, 2, out.data(), n));
}

TEST(ECCodec, DeltaUpdateKeepsParityConsistent) {
  const int k = 3, m = 2;
  ECCodec codec(k, m);
  const size_t n = 64;
  auto blocks = MakeStripe(codec, n);
  // Overwrite data member 1 and fold delta = old ^ new into every parity —
  // exactly the cleaner's write-back path.
  std::vector<uint8_t> fresh(n);
  for (size_t i = 0; i < n; ++i) {
    fresh[i] = static_cast<uint8_t>(0xC3 ^ i);
  }
  std::vector<uint8_t> delta(n);
  for (size_t i = 0; i < n; ++i) {
    delta[i] = blocks[1][i] ^ fresh[i];
  }
  blocks[1] = fresh;
  for (int p = 0; p < m; ++p) {
    ECCodec::XorMulInto(blocks[static_cast<size_t>(k + p)].data(), delta.data(),
                        codec.Coef(k + p, 1), n);
  }
  // The updated member must decode from the untouched members plus parity.
  int members[] = {0, 2, 3};
  const uint8_t* ptrs[] = {blocks[0].data(), blocks[2].data(), blocks[3].data()};
  std::vector<uint8_t> out(n);
  ASSERT_TRUE(codec.Reconstruct(1, members, ptrs, k, out.data(), n));
  EXPECT_EQ(std::memcmp(out.data(), fresh.data(), n), 0);
}

TEST(ECCodec, XorMulKernelsMatchGfMul) {
  // Both kernels against a per-byte GfMul reference: every coefficient,
  // lengths on both sides of the 16- and 32-byte SIMD steps up to a whole
  // page, and source and destination offsets 0-3, so unaligned loads and
  // every tail path run. Bytes outside the destination range must not move.
  // The portable loop is called directly, so it is covered on AVX2 CPUs too.
  struct Kernel {
    const char* name;
    void (*fn)(uint8_t*, const uint8_t*, uint8_t, size_t);
  };
  const Kernel kernels[] = {{ECCodec::XorMulKernel(), ECCodec::XorMulInto},
                            {"portable", ECCodec::XorMulIntoPortable}};
  const size_t kLens[] = {0, 1, 15, 16, 17, 31, 32, 33, 4095, 4096};
  const size_t kBuf = kPageSize + 3;
  std::vector<uint8_t> src(kBuf), dst0(kBuf), prod(kPageSize), want(kBuf), got(kBuf);
  uint32_t x = 0xEC;
  for (size_t i = 0; i < kBuf; ++i) {
    x = x * 1664525u + 1013904223u;
    src[i] = static_cast<uint8_t>(x >> 24);
    dst0[i] = static_cast<uint8_t>(x >> 16);
  }
  for (int c = 0; c < 256; ++c) {
    uint8_t coef = static_cast<uint8_t>(c);
    for (size_t so = 0; so < 4; ++so) {
      for (size_t i = 0; i < kPageSize; ++i) {
        prod[i] = ECCodec::GfMul(coef, src[so + i]);
      }
      for (size_t dofs = 0; dofs < 4; ++dofs) {
        for (size_t len : kLens) {
          want = dst0;
          for (size_t i = 0; i < len; ++i) {
            want[dofs + i] ^= prod[i];
          }
          for (const Kernel& k : kernels) {
            got = dst0;
            k.fn(got.data() + dofs, src.data() + so, coef, len);
            ASSERT_EQ(std::memcmp(got.data(), want.data(), kBuf), 0)
                << k.name << " kernel, coef " << c << ", src offset " << so
                << ", dst offset " << dofs << ", length " << len;
          }
        }
      }
    }
  }
}

TEST(EcLayout, StripeMembersLandOnDistinctNodesAndRoundTrip) {
  Fabric fabric(CostModel::Default(), 6);
  ECConfig ec;
  ec.enabled = true;
  ec.k = 4;
  ec.m = 2;
  ShardRouter router(fabric, 1, /*replication=*/3, false, 0, ec);
  EXPECT_EQ(router.replication(), 1) << "EC replaces replication";
  uint64_t g0 = kFarBase >> kShardGranuleShift;
  for (uint64_t g = g0; g < g0 + 64; ++g) {
    uint64_t s = router.EcStripeOf(g);
    std::vector<int> nodes;
    for (int j = 0; j < 6; ++j) {
      uint64_t member_granule = router.EcMemberGranule(s, j);
      EXPECT_EQ(router.EcStripeOf(member_granule), s);
      EXPECT_EQ(router.EcMemberOf(member_granule), j);
      nodes.push_back(router.EcNode(s, j));
      uint64_t member_va = member_granule << kShardGranuleShift;
      if (j >= 4) {
        EXPECT_GE(member_va, kEcParityBase) << "parity lives in the upper half";
      } else {
        EXPECT_LT(member_va, kEcParityBase);
      }
    }
    std::sort(nodes.begin(), nodes.end());
    EXPECT_EQ(std::unique(nodes.begin(), nodes.end()), nodes.end())
        << "stripe " << s << " co-locates two members";
  }
}

TEST(EcLayout, ClampsToFabricSize) {
  Fabric fabric(CostModel::Default(), 3);
  ECConfig ec;
  ec.enabled = true;
  ec.k = 4;
  ec.m = 2;
  ShardRouter router(fabric, 1, 1, false, 0, ec);
  EXPECT_EQ(router.ec().m, 2);
  EXPECT_EQ(router.ec().k, 1) << "k shrinks so k + m fits the 3 nodes";
}

TEST(EcRuntime, DegradedReadsSurviveSingleNodeCrash) {
  // The acceptance shape: (k=4, m=2) over 6 nodes, one node crashes under no
  // oracle, every read still verifies via reconstruction.
  Fabric fabric(CostModel::Default(), 6);
  DilosRuntime rt(fabric, EcConfig(4, 2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(1);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.router().state(1), NodeState::kDead);
  EXPECT_GT(rt.stats().ec_degraded_reads, 0u);
  EXPECT_GT(rt.stats().ec_reconstructed_pages, 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
  EXPECT_EQ(rt.stats().ec_decode_failures, 0u);
}

TEST(EcRuntime, SurvivesMConcurrentNodeLosses) {
  Fabric fabric(CostModel::Default(), 4);
  DilosRuntime rt(fabric, EcConfig(2, 2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(0);
  fabric.CrashNode(3);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(EcRuntime, MorePthanMLossesAreReportedNotSilent) {
  // (2, 1) tolerates one loss; crash two of three nodes and the unlucky
  // stripes must fail loudly (failed_fetches / ec_decode_failures), never
  // serve wrong data silently as a success.
  Fabric fabric(CostModel::Default(), 3);
  DilosRuntime rt(fabric, EcConfig(2, 1), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(0);
  fabric.CrashNode(1);
  VerifySweep(rt, region, pages);  // Some reads fail; that is the point.
  EXPECT_GT(rt.stats().failed_fetches, 0u);
  EXPECT_GT(rt.stats().ec_decode_failures, 0u);
}

TEST(EcRuntime, ParityStaysConsistentAcrossCleanerWriteBacks) {
  // Two full write generations: the second one exercises the cleaner's
  // read-modify-write path (old content exists remotely). A crash afterwards
  // must reconstruct the *second* generation everywhere.
  Fabric fabric(CostModel::Default(), 5);
  DilosRuntime rt(fabric, EcConfig(3, 2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages, 0xD15C0);
  Populate(rt, region, pages, 0xBEEF);

  EXPECT_GT(rt.stats().ec_parity_updates, 0u);
  fabric.CrashNode(0);
  EXPECT_EQ(VerifySweep(rt, region, pages, 0xBEEF), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(EcRuntime, ParityDeltaSkipsUnchangedPagesAndCatchesTheLastByte) {
  // The write-back folds delta = old ^ new into parity a word at a time and
  // skips the round when every word is zero. Re-cleaning identical bytes
  // must cost no parity update; a change in the page's last byte (the top
  // byte of its last word) must cost exactly one and decode after the
  // page's home node is lost.
  Fabric fabric(CostModel::Default(), 6);
  DilosRuntime rt(fabric, EcConfig(4, 2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  // Reads every page but the first: 255 faults cycle the 64 local frames,
  // so every dirty page, page 0 included, is written back clean.
  auto sweep_others = [&] {
    for (uint64_t p = 1; p < pages; ++p) {
      rt.Read<uint64_t>(region + p * kPageSize);
    }
  };
  sweep_others();

  uint64_t updates = rt.stats().ec_parity_updates;
  uint64_t writebacks = rt.stats().writebacks;
  rt.Write<uint64_t>(region, 0xD15C0);  // The bytes page 0 already holds.
  sweep_others();
  EXPECT_EQ(rt.stats().writebacks, writebacks + 1) << "page 0 is re-cleaned";
  EXPECT_EQ(rt.stats().ec_parity_updates, updates);

  rt.Write<uint8_t>(region + kPageSize - 1, 0x5A);
  sweep_others();
  EXPECT_EQ(rt.stats().ec_parity_updates, updates + 1);

  uint64_t granule = ShardRouter::GranuleOf(region);
  uint64_t stripe = rt.router().EcStripeOf(granule);
  fabric.CrashNode(rt.router().EcNode(stripe, rt.router().EcMemberOf(granule)));
  uint64_t degraded = rt.stats().ec_degraded_reads;
  EXPECT_EQ(rt.Read<uint8_t>(region + kPageSize - 1), 0x5A);
  EXPECT_EQ(rt.Read<uint64_t>(region), 0xD15C0u);
  EXPECT_GT(rt.stats().ec_degraded_reads, degraded);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(EcRuntime, FlipOnTheOldContentReadOfANeverWrittenPageNeverReachesParity) {
  // A page's first write-back reads its old content from the home node,
  // which never stored the page and serves its zero page. A bit flipped on
  // that read must be judged corrupt — a never-stored page must arrive as
  // zeros — and not folded into both parity pages as old content: then
  // every later decode of the page would return the flip.
  Fabric fabric(CostModel::Default(), 4);
  DilosConfig cfg = EcConfig(2, 2);
  cfg.local_mem_bytes = 16 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t granules = 16;
  uint64_t region = rt.AllocRegion(granules * kPagesPerGranule * kPageSize);
  std::vector<uint8_t> page(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    page[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  rt.WriteBytes(region, page.data(), kPageSize);
  auto home_of = [&rt](uint64_t va) {
    uint64_t granule = ShardRouter::GranuleOf(va);
    return rt.router().EcNode(rt.router().EcStripeOf(granule), rt.router().EcMemberOf(granule));
  };
  const int home = home_of(region);

  // Every op to the home node flips a bit while the page is evicted by
  // writes to granules homed elsewhere.
  FaultPlan plan;
  plan.specs.push_back({home, FaultKind::kBitFlip, 1.0, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  for (uint64_t g = 1; g < granules; ++g) {
    uint64_t base = region + g * kPagesPerGranule * kPageSize;
    if (home_of(base) == home) {
      continue;
    }
    for (uint64_t p = 0; p < 8; ++p) {
      rt.Write<uint64_t>(base + p * kPageSize, g * 100 + p);
    }
  }
  ASSERT_EQ(PteTagOf(rt.page_table().Get(region)), PteTag::kRemote) << "the page was not evicted";
  ASSERT_GT(fabric.injector().injected_bit_flips(), 0u);

  // Decode the page from the survivors alone: its other data member and
  // the two parity pages, none of which ever saw a flip.
  fabric.set_fault_plan(FaultPlan{});
  rt.router().FailNode(home);
  std::vector<uint8_t> back(kPageSize);
  rt.ReadBytes(region, back.data(), kPageSize);
  size_t wrong = 0;
  size_t first = kPageSize;
  for (size_t i = 0; i < kPageSize; ++i) {
    if (back[i] != page[i]) {
      ++wrong;
      first = std::min(first, i);
    }
  }
  EXPECT_EQ(wrong, 0u) << "first wrong byte " << first;
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(EcRuntime, RepairRebuildsLostMemberFromParity) {
  // Six nodes but (2, 1) stripes use only three each: healthy off-stripe
  // nodes exist, so the repair manager can regenerate the dead node's
  // members from parity instead of leaving reads degraded forever.
  Fabric fabric(CostModel::Default(), 6);
  DilosRuntime rt(fabric, EcConfig(2, 1), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(2);
  rt.DriveRecovery(2'000'000);
  ASSERT_EQ(rt.router().state(2), NodeState::kDead);
  DriveUntilIdle(rt);
  ASSERT_TRUE(rt.RecoveryIdle());
  EXPECT_GT(rt.stats().repairs_issued, 0u);
  EXPECT_GT(rt.stats().repair_granules, 0u);

  // Once rebuilt, reads are healthy again: no new reconstruction happens.
  uint64_t degraded_before = rt.stats().ec_degraded_reads;
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.stats().ec_degraded_reads, degraded_before);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(EcRuntime, SmallFabricRepairFallsBackToBoundedCoLocation) {
  // (4, 2) over exactly 6 nodes: every healthy node holds a member of every
  // stripe, so after one death a strictly-spread rebuild target is pigeonhole
  // impossible. The placement must fall back to bounded co-location (the
  // resulting member count on the chosen node stays within the parity budget
  // m) instead of leaving stripes degraded forever.
  Fabric fabric(CostModel::Default(), 6);
  DilosConfig cfg = EcConfig(4, 2);
  cfg.telemetry.check_invariants = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;  // One full (4, 2) stripe of data granules.
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(1);
  rt.DriveRecovery(2'000'000);
  ASSERT_EQ(rt.router().state(1), NodeState::kDead);
  DriveUntilIdle(rt, 300);
  ASSERT_TRUE(rt.RecoveryIdle());
  EXPECT_GT(rt.stats().ec_colocated_placements, 0u);
  EXPECT_EQ(rt.stats().repair_no_target, 0u) << "no stripe may stay degraded";
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);

  // The fallback's bound is the point: some survivor now holds two members,
  // and losing that very node is still only m = 2 erasures — every stripe
  // keeps k readable members and stays decodable.
  uint64_t stripe = rt.router().EcStripeOf(ShardRouter::GranuleOf(region));
  int colocated = -1;
  for (int n = 0; n < fabric.num_nodes(); ++n) {
    if (n != 1 && rt.router().EcMembersOnNode(stripe, n) >= 2) {
      colocated = n;
    }
  }
  ASSERT_GE(colocated, 0) << "the fallback should have doubled up somewhere";
  EXPECT_LE(rt.router().EcMembersOnNode(stripe, colocated), rt.router().ec().m);
  fabric.CrashNode(colocated);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u)
      << "losing the co-located node must stay within the parity budget";
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

}  // namespace
}  // namespace dilos
