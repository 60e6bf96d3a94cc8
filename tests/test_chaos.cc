// Chaos-fabric tests: deterministic fault injection (src/memnode/
// fault_injector.h), end-to-end page integrity (src/recovery/integrity.h +
// the scrubber), gray-failure handling (failure_detector.cc), and the
// multi-seed soak that runs crash + delay + corruption + partition mixes
// under both replication and erasure coding, asserting no read ever returns
// corrupt or lost data.
//
// Every probabilistic fault derives from DilosConfig::fault_seed; failures
// print the seed so `DILOS_CHAOS_SEED_BASE=<seed>` (or editing the seed in
// the repro) replays the exact schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/memnode/fault_injector.h"
#include "src/recovery/integrity.h"
#include "src/sim/rng.h"

namespace dilos {
namespace {

constexpr uint64_t kMs = 1'000'000;

DilosConfig ChaosConfig(int replication) {
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.replication = replication;
  cfg.recovery.enabled = true;
  return cfg;
}

void Populate(DilosRuntime& rt, uint64_t region, uint64_t pages) {
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xD15C0);
  }
}

uint64_t VerifySweep(DilosRuntime& rt, uint64_t region, uint64_t pages) {
  uint64_t errors = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ 0xD15C0)) {
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

// Unconditionally drives the recovery/background clock forward (probes,
// readmission, scrubbing) even when the repair queue is empty — unlike
// DriveUntilIdle, which returns immediately on an idle repair manager.
void DriveMs(DilosRuntime& rt, uint64_t ms) {
  for (uint64_t i = 0; i < ms; ++i) {
    rt.DriveRecovery(1'000'000);
  }
}

uint64_t Pct(std::vector<uint64_t>& lat, double p) {
  if (lat.empty()) {
    return 0;
  }
  std::sort(lat.begin(), lat.end());
  return lat[static_cast<size_t>(p * static_cast<double>(lat.size() - 1))];
}

// -- Deterministic injection --------------------------------------------------

struct RunFingerprint {
  uint64_t injected = 0, timeouts = 0, flips = 0;
  uint64_t mismatches = 0, retries = 0, end_ns = 0;
  bool operator==(const RunFingerprint& o) const {
    return injected == o.injected && timeouts == o.timeouts && flips == o.flips &&
           mismatches == o.mismatches && retries == o.retries && end_ns == o.end_ns;
  }
};

RunFingerprint FingerprintRun(uint64_t seed) {
  Fabric fabric(CostModel::Default(), 3);
  FaultPlan plan;
  plan.specs.push_back({2, FaultKind::kTransient, 0.05, 1.0, 0, UINT64_MAX});
  plan.specs.push_back({-1, FaultKind::kBitFlip, 0.02, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  DilosConfig cfg = ChaosConfig(2);
  cfg.fault_seed = seed;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u) << "fault_seed=" << seed;
  RunFingerprint f;
  f.injected = fabric.injector().injected_faults();
  f.timeouts = fabric.injector().injected_timeouts();
  f.flips = fabric.injector().injected_bit_flips();
  f.mismatches = rt.stats().checksum_mismatches;
  f.retries = rt.stats().fetch_retries;
  f.end_ns = rt.MaxWorkerTimeNs();
  return f;
}

TEST(ChaosInjector, SameSeedReplaysIdenticalFaultSchedule) {
  RunFingerprint a = FingerprintRun(42);
  RunFingerprint b = FingerprintRun(42);
  EXPECT_TRUE(a == b) << "same seed must replay the same schedule";
  EXPECT_GT(a.injected, 0u) << "the plan should actually inject faults";
}

// The page a kStorageRot draw rots on a one-node fabric whose store holds
// checksummed pages `pages`, inserted in the given order, plus unchecksummed
// ones that are never eligible. Returns 0 when nothing rotted.
uint64_t RotVictim(const std::vector<uint64_t>& pages, uint64_t seed) {
  Fabric fabric(CostModel::Default(), 1);
  PageStore& store = fabric.node(0).store();
  for (uint64_t page : pages) {
    store.PageData(page);
    store.PageData(page + 1);  // Stored without a checksum.
    StoredPage& rec = *store.Find(page);
    rec.checksum = PageChecksum(rec.bytes);
    rec.has_checksum = true;
  }
  FaultPlan plan;
  plan.seed = seed;
  plan.specs.push_back({0, FaultKind::kStorageRot, 1.0, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  fabric.injector().Decide(/*node=*/0, /*is_write=*/false, /*now_ns=*/0, /*bytes=*/0);
  EXPECT_EQ(fabric.injector().injected_rots(), 1u);
  uint64_t victim = 0;
  for (const auto& [page, rec] : store.pages()) {
    if (std::memcmp(rec.bytes, PageStore::ZeroPage(), kPageSize) != 0) {
      EXPECT_EQ(victim, 0u) << "one rot flips one page";
      EXPECT_TRUE(rec.has_checksum) << "only checksummed pages rot";
      victim = page;
    }
  }
  return victim;
}

TEST(ChaosInjector, RotVictimIsDrawnInPageOrderNotHashOrder) {
  // The same checksummed pages, inserted in opposite orders: under one seed
  // both stores rot the same page, the draw's index into ascending page order.
  std::vector<uint64_t> ascending;
  for (uint64_t i = 0; i < 96; ++i) {
    ascending.push_back(0x100000 + i * 37 * 2);
  }
  std::vector<uint64_t> descending(ascending.rbegin(), ascending.rend());
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    rng.NextDouble();  // The rot's probability draw comes first.
    uint64_t expected = ascending[rng.NextBelow(ascending.size())];
    EXPECT_EQ(RotVictim(ascending, seed), expected) << "seed " << seed;
    EXPECT_EQ(RotVictim(descending, seed), expected) << "seed " << seed;
  }
}

TEST(ChaosInjector, TransientTimeoutsAreRetriedWithoutDataLoss) {
  // Faults scoped to node 2: nodes 0 and 1 stay healthy, so every page
  // always has a live, verified replica no matter how node 2 flaps.
  Fabric fabric(CostModel::Default(), 3);
  FaultPlan plan;
  plan.specs.push_back({2, FaultKind::kTransient, 0.05, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  DilosConfig cfg = ChaosConfig(2);
  cfg.fault_seed = 7;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u) << "fault_seed=" << cfg.fault_seed;
  EXPECT_GT(fabric.injector().injected_timeouts(), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u) << "fault_seed=" << cfg.fault_seed;
}

TEST(ChaosInjector, CrashWindowIsDetectedAndNodeReadmitted) {
  Fabric fabric(CostModel::Default(), 2);
  FaultPlan plan;
  // Node 1 is unreachable for the first 5 ms of the run, then recovers —
  // exactly what CrashNode + RestoreNode did, now as one plan entry.
  plan.specs.push_back({1, FaultKind::kCrash, 1.0, 1.0, 0, 5 * kMs});
  fabric.set_fault_plan(plan);
  DilosConfig cfg = ChaosConfig(2);
  cfg.fault_seed = 3;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.router().state(1), NodeState::kDead) << "crash window must strike node 1 out";

  // Past the window the node answers probes again: readmitted as rebuilding,
  // refilled from the survivor, and eventually serving reads.
  DriveMs(rt, 20);
  DriveUntilIdle(rt, 100);
  EXPECT_GT(rt.stats().nodes_readmitted, 0u);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);

  // The refilled copies must be real: crash the survivor and read everything
  // through node 1 alone.
  fabric.CrashNode(0);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u) << "refilled node must carry the data";
}

// -- Integrity ----------------------------------------------------------------

TEST(ChaosIntegrity, WireBitFlipsAreCaughtAndRefetched) {
  Fabric fabric(CostModel::Default(), 2);
  FaultPlan plan;
  plan.specs.push_back({-1, FaultKind::kBitFlip, 0.05, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  DilosConfig cfg = ChaosConfig(2);
  cfg.fault_seed = 11;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  for (int sweep = 0; sweep < 3; ++sweep) {
    EXPECT_EQ(VerifySweep(rt, region, pages), 0u)
        << "fault_seed=" << cfg.fault_seed << " sweep=" << sweep;
  }
  EXPECT_GT(fabric.injector().injected_bit_flips(), 0u);
  EXPECT_GT(rt.stats().checksum_mismatches, 0u) << "flips must be noticed, not absorbed";
  EXPECT_GT(rt.stats().refetches, 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u) << "fault_seed=" << cfg.fault_seed;
}

TEST(ChaosIntegrity, StorageRotIsHealedFromTheGoodReplica) {
  Fabric fabric(CostModel::Default(), 2);
  DilosRuntime rt(fabric, ChaosConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  ASSERT_EQ(VerifySweep(rt, region, pages), 0u);

  // Find an evicted page whose copies are checksummed on both replicas.
  std::vector<int> replicas;
  uint64_t victim_va = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    uint64_t va = region + p * kPageSize;
    if (PteTagOf(rt.page_table().Get(va)) == PteTag::kLocal) {
      continue;
    }
    rt.router().ReplicaNodes(va, &replicas);
    if (replicas.size() == 2 &&
        fabric.node(replicas[0]).store().HasChecksum(va >> kPageShift) &&
        fabric.node(replicas[1]).store().HasChecksum(va >> kPageShift)) {
      victim_va = va;
      break;
    }
  }
  ASSERT_NE(victim_va, 0u) << "no evicted checksummed page found";
  uint64_t expect = ((victim_va - region) / kPageSize) ^ 0xD15C0;

  // Rot a bit *inside the value being read* on the primary copy.
  PageStore& primary = fabric.node(replicas[0]).store();
  primary.PageData(victim_va >> kPageShift)[3] ^= 0x10;

  // The demand read must detect the mismatch, fetch the good replica, and
  // rewrite the rotted copy.
  EXPECT_EQ(rt.Read<uint64_t>(victim_va), expect);
  EXPECT_GE(rt.stats().checksum_mismatches, 2u) << "same-node retry, then exclusion";
  EXPECT_GE(rt.stats().checksum_heals, 1u);
  EXPECT_EQ(PageChecksum(primary.PageData(victim_va >> kPageShift)),
            primary.Checksum(victim_va >> kPageShift))
      << "the stored copy must have been rewritten, not just re-read around";
}

TEST(ChaosIntegrity, ScrubberRepairsLatentRotWithoutADemandRead) {
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg = ChaosConfig(2);
  cfg.pm.scrub_pages_per_tick = 64;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;  // 4 granules.
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  ASSERT_EQ(VerifySweep(rt, region, pages), 0u);

  // Rot a checksummed copy of a page in the first granule.
  std::vector<int> replicas;
  uint64_t victim_va = 0;
  for (uint64_t p = 0; p < kPagesPerGranule; ++p) {
    uint64_t va = region + p * kPageSize;
    rt.router().ReplicaNodes(va, &replicas);
    if (fabric.node(replicas[0]).store().HasChecksum(va >> kPageShift)) {
      victim_va = va;
      break;
    }
  }
  ASSERT_NE(victim_va, 0u);
  PageStore& store = fabric.node(replicas[0]).store();
  store.PageData(victim_va >> kPageShift)[100] ^= 0x01;

  // Drive background ticks with traffic that never touches the victim's
  // granule: only the scrubber can find the rot.
  uint64_t start = rt.stats().scrub_repairs;
  for (int round = 0; round < 64 && rt.stats().scrub_repairs == start; ++round) {
    for (uint64_t p = kPagesPerGranule; p < pages; ++p) {
      rt.Read<uint64_t>(region + p * kPageSize);
    }
  }
  EXPECT_GT(rt.stats().scrub_repairs, start) << "scrubber never found the rot";
  EXPECT_EQ(PageChecksum(store.PageData(victim_va >> kPageShift)),
            store.Checksum(victim_va >> kPageShift));
  EXPECT_GT(rt.stats().scrub_pages, 0u);
}

std::vector<uint8_t> RandomPage(uint64_t seed) {
  std::vector<uint8_t> page(kPageSize);
  Rng rng(seed);
  for (uint8_t& b : page) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return page;
}

TEST(ChaosIntegrity, PageChecksumCatchesEverySingleBitFlip) {
  std::vector<uint8_t> random_page = RandomPage(7);
  std::vector<uint8_t> zero_page(kPageSize, 0);
  for (auto checksum : {PageChecksum, PageChecksumPortable}) {
    const char* kernel = checksum == PageChecksum ? PageChecksumKernel() : "portable";
    for (std::vector<uint8_t>* page : {&random_page, &zero_page}) {
      const uint64_t sum = checksum(page->data());
      uint64_t missed = 0;
      for (uint32_t bit = 0; bit < kPageSize * 8; ++bit) {
        (*page)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        missed += checksum(page->data()) == sum ? 1 : 0;
        (*page)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      EXPECT_EQ(missed, 0u) << kernel << (page == &zero_page ? " zero page" : " random page");
      EXPECT_EQ(checksum(page->data()), sum);
    }
  }
}

// The dispatched kernel (AVX2 where the CPU has it) and the portable loop
// return the same value: on whole pages, and on each of a random page's 512
// single-word changes, which reach every lane of every vector step.
TEST(ChaosIntegrity, PageChecksumKernelsAgree) {
  std::vector<uint8_t> random_page = RandomPage(13);
  for (const std::vector<uint8_t>& page :
       {random_page, std::vector<uint8_t>(kPageSize, 0), std::vector<uint8_t>(kPageSize, 0xFF)}) {
    EXPECT_EQ(PageChecksum(page.data()), PageChecksumPortable(page.data()))
        << PageChecksumKernel();
  }
  Rng rng(17);
  std::set<uint64_t> sums{PageChecksumPortable(random_page.data())};
  for (uint32_t word = 0; word < kPageSize / 8; ++word) {
    std::vector<uint8_t> changed = random_page;
    uint64_t w = rng.Next() | 1;  // Nonzero: the word really changes.
    for (uint32_t b = 0; b < 8; ++b) {
      changed[word * 8 + b] ^= static_cast<uint8_t>(w >> (8 * b));
    }
    const uint64_t sum = PageChecksumPortable(changed.data());
    ASSERT_EQ(PageChecksum(changed.data()), sum) << PageChecksumKernel() << " word " << word;
    sums.insert(sum);
  }
  EXPECT_EQ(sums.size(), kPageSize / 8 + 1) << "every one-word change moves the checksum";
}

// One checked write of a random page to node 0 under a bit-flip plan of
// probability `flip_p`. Reports the posts it made through `posts`.
struct CheckedWrite {
  Fabric fabric{CostModel::Default(), 1};
  RuntimeStats stats;
  std::vector<uint8_t> source = RandomPage(11);
  uint64_t page_va = kFarBase + 5 * kPageSize;
  uint64_t posts = 0;

  explicit CheckedWrite(double flip_p) {
    FaultPlan plan;
    plan.specs.push_back({0, FaultKind::kBitFlip, flip_p, 1.0, 0, UINT64_MAX});
    fabric.set_fault_plan(plan);
    uint64_t wr_id = 0;
    Completion c = WritePageChecked(fabric.CreateQp(0), store(), page_va, source.data(),
                                    /*issue_ns=*/0, &wr_id, stats, /*tracer=*/nullptr);
    EXPECT_EQ(c.status, WcStatus::kSuccess);
    posts = wr_id;  // One wr_id per post.
  }
  PageStore& store() { return fabric.node(0).store(); }
  bool stored_matches() {
    return std::memcmp(store().PageData(page_va >> kPageShift), source.data(), kPageSize) == 0;
  }
};

TEST(ChaosIntegrity, WritePageCheckedRetriesEveryFlippedPost) {
  // Every post flips one stored bit: the write is posted once plus the three
  // default retries, each mismatch is counted, and the checksum of the
  // source stays installed so every later read detects the bad copy.
  CheckedWrite w(/*flip_p=*/1.0);
  EXPECT_EQ(w.posts, 4u);
  EXPECT_EQ(w.stats.checksum_write_retries, 4u);
  EXPECT_EQ(w.stats.checksum_mismatches, 4u);
  EXPECT_EQ(w.fabric.injector().injected_bit_flips(), 4u);
  EXPECT_FALSE(w.stored_matches());
  EXPECT_EQ(w.store().Checksum(w.page_va >> kPageShift), PageChecksum(w.source.data()));
  const StoredPage* rec = w.store().Find(w.page_va >> kPageShift);
  EXPECT_EQ(JudgeBytes(rec, rec->bytes, /*expected_gen=*/0), CopyVerdict::kCorrupt);
}

TEST(ChaosIntegrity, WritePageCheckedPostsOnceWithoutFlips) {
  CheckedWrite w(/*flip_p=*/0.0);
  EXPECT_EQ(w.posts, 1u);
  EXPECT_EQ(w.stats.checksum_write_retries, 0u);
  EXPECT_EQ(w.stats.checksum_mismatches, 0u);
  EXPECT_TRUE(w.stored_matches());
  EXPECT_EQ(w.store().Checksum(w.page_va >> kPageShift), PageChecksum(w.source.data()));
}

// The verdict on a copy read, row by row: what JudgeCopy returns, what it
// counts and what it traces.
TEST(ChaosIntegrity, JudgeCopyVerdictTable) {
  PageStore store;
  const uint64_t tagged_va = kFarBase + 3 * kPageSize;  // Checksummed, generation 2.
  const uint64_t bare_va = kFarBase + 4 * kPageSize;    // Stored without a checksum.
  const uint64_t absent_va = kFarBase + 5 * kPageSize;  // Never stored.
  const std::vector<uint8_t> good = RandomPage(21);
  std::vector<uint8_t> flipped = good;
  flipped[100] ^= 0x04;
  const std::vector<uint8_t> zeros(kPageSize, 0);
  std::vector<uint8_t> flipped_zeros = zeros;
  flipped_zeros[2178] ^= 0x02;
  std::memcpy(store.PageData(tagged_va >> kPageShift), good.data(), kPageSize);
  StoredPage& tagged = *store.Find(tagged_va >> kPageShift);
  tagged.checksum = PageChecksum(good.data());
  tagged.has_checksum = true;
  tagged.generation = 2;
  std::memcpy(store.PageData(bare_va >> kPageShift), good.data(), kPageSize);

  constexpr CopyVerdict kFresh = CopyVerdict::kFresh;
  constexpr CopyVerdict kCorrupt = CopyVerdict::kCorrupt;
  constexpr CopyVerdict kStale = CopyVerdict::kStale;
  struct Row {
    const char* name;
    uint64_t page_va;
    const uint8_t* bytes;
    uint32_t expected_gen;
    CopyVerdict verdict;
  };
  const Row rows[] = {
      {"fresh copy", tagged_va, good.data(), 2, kFresh},
      {"copy ahead of the expected generation", tagged_va, good.data(), 1, kFresh},
      {"stored copy with no checksum", bare_va, flipped.data(), 0, kFresh},
      {"corrupt copy", tagged_va, flipped.data(), 2, kCorrupt},
      {"corrupt and stale copy: content first", tagged_va, flipped.data(), 3, kCorrupt},
      {"stale copy", tagged_va, good.data(), 3, kStale},
      {"never stored, arriving as zeros", absent_va, zeros.data(), 0, kFresh},
      {"never stored, arriving flipped", absent_va, flipped_zeros.data(), 0, kCorrupt},
      {"never stored, a generation expected", absent_va, zeros.data(), 1, kStale},
      {"null bytes on a current copy", tagged_va, nullptr, 2, kFresh},
      {"null bytes on a stale copy", tagged_va, nullptr, 3, kStale},
      {"null bytes, never stored", absent_va, nullptr, 0, kFresh},
      {"expected_gen 0 on an old copy", tagged_va, good.data(), 0, kFresh},
  };
  for (const Row& row : rows) {
    RuntimeStats stats;
    Tracer tracer(/*capacity=*/8);
    CopyVerdict v = JudgeCopy(store, /*node=*/3, row.page_va, row.bytes, row.expected_gen,
                              /*at_ns=*/77, stats, &tracer);
    EXPECT_EQ(v, row.verdict) << row.name;
    EXPECT_EQ(stats.checksum_mismatches, row.verdict == kCorrupt ? 1u : 0u) << row.name;
    EXPECT_EQ(stats.stale_copies_detected, row.verdict == kStale ? 1u : 0u) << row.name;
    EXPECT_EQ(stats.refetches, 0u) << row.name << ": refetches are the caller's to count";
    std::vector<TraceRecord> trace = tracer.Snapshot();
    if (row.verdict == kFresh) {
      EXPECT_TRUE(trace.empty()) << row.name;
      continue;
    }
    ASSERT_EQ(trace.size(), 1u) << row.name;
    EXPECT_EQ(trace[0].event, row.verdict == kCorrupt ? TraceEvent::kChecksumMismatch
                                                      : TraceEvent::kStaleCopy)
        << row.name;
    EXPECT_EQ(trace[0].detail, row.verdict == kCorrupt ? 0u : 3u) << row.name;
    EXPECT_EQ(trace[0].page_va, row.page_va) << row.name;
    EXPECT_EQ(trace[0].time_ns, 77u) << row.name;
  }
  EXPECT_EQ(store.page_count(), 2u) << "judging a never-stored page stores nothing";
}

// -- Gray failures ------------------------------------------------------------

TEST(ChaosGray, SlowNodeIsSuspectedSteeredAroundAndNeverDeclaredDead) {
  Fabric fabric(CostModel::Default(), 3);
  FaultPlan plan;
  // Node 0 turns gray at 3 ms: alive, answering, but 20x slower.
  plan.specs.push_back({0, FaultKind::kDelay, 1.0, 20.0, 3 * kMs, 60 * kMs});
  fabric.set_fault_plan(plan);
  DilosConfig cfg = ChaosConfig(2);
  cfg.fault_seed = 5;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  uint64_t rng = 0x1234567;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  auto sample = [&](std::vector<uint64_t>* lat) {
    uint64_t t0 = rt.clock(0).now();
    volatile uint64_t v = rt.Read<uint64_t>(region + (next() % pages) * kPageSize);
    (void)v;
    lat->push_back(rt.clock(0).now() - t0);
  };

  std::vector<uint64_t> healthy;
  for (int i = 0; i < 500; ++i) {
    sample(&healthy);
  }
  ASSERT_LT(rt.clock(0).now(), 3 * kMs) << "healthy phase ran into the delay window";

  // Cross into the window; a few delayed probe RTTs trip the EWMA.
  rt.DriveRecovery(2 * kMs);
  ASSERT_TRUE(rt.detector() != nullptr);
  EXPECT_TRUE(rt.detector()->gray(0)) << "EWMA should have tripped";
  EXPECT_EQ(rt.router().state(0), NodeState::kSuspect);
  EXPECT_GE(rt.stats().gray_suspects, 1u);

  // Reads steer to the healthy replicas: p99 stays near the healthy p99
  // instead of inflating toward 20x.
  std::vector<uint64_t> gray;
  for (int i = 0; i < 500; ++i) {
    sample(&gray);
  }
  EXPECT_LT(Pct(gray, 0.99), 4 * Pct(healthy, 0.99))
      << "demand p99 did not recover under gray steering";
  EXPECT_GT(rt.stats().degraded_reads, 0u) << "steering should serve non-primary replicas";

  // Slow is not dead: answered (late) probes keep renewing the lease, and a
  // successful op must not clear the latency suspicion either.
  rt.DriveRecovery(10 * kMs);
  EXPECT_NE(rt.router().state(0), NodeState::kDead);
  EXPECT_EQ(rt.stats().nodes_failed, 0u);
  EXPECT_TRUE(rt.detector()->gray(0)) << "still slow => still suspect";
}

TEST(ChaosGray, SuspicionClearsWhenLatencyRecovers) {
  Fabric fabric(CostModel::Default(), 3);
  FaultPlan plan;
  plan.specs.push_back({0, FaultKind::kDelay, 1.0, 20.0, 0, 4 * kMs});
  fabric.set_fault_plan(plan);
  DilosConfig cfg = ChaosConfig(2);
  cfg.fault_seed = 6;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 64;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  rt.DriveRecovery(2 * kMs);
  ASSERT_TRUE(rt.detector()->gray(0));

  // Past the window the EWMA decays back under the clear threshold
  // (hysteresis: 2x baseline, vs the 4x trip).
  rt.DriveRecovery(10 * kMs);
  EXPECT_FALSE(rt.detector()->gray(0));
  EXPECT_EQ(rt.router().state(0), NodeState::kLive);
  ASSERT_EQ(rt.stats().nodes_failed, 0u);
}

// -- Partitions ---------------------------------------------------------------

TEST(ChaosPartition, OutboundDropFailsReadsOverToTheReplica) {
  Fabric fabric(CostModel::Default(), 2);
  FaultPlan plan;
  // One-way partition: nothing gets *out* of node 0 (reads), writes land.
  plan.specs.push_back({0, FaultKind::kPartitionOut, 1.0, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  DilosConfig cfg = ChaosConfig(2);
  cfg.fault_seed = 9;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u) << "fault_seed=" << cfg.fault_seed;
  EXPECT_GT(fabric.injector().injected_partition_drops(), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(ChaosPartition, InboundDropNeverServesTheStaleCopy) {
  Fabric fabric(CostModel::Default(), 2);
  FaultPlan plan;
  // Nothing gets *into* node 0: every write-back toward it is lost, so its
  // store holds zeros with no checksum. The surviving replica's checksum is
  // the tell — an arrival from node 0 with no checksum installed, while
  // node 1 holds one, is a missed write-back and must be steered around
  // (probe successes keep resetting the strike counter, so the node is
  // *not* reliably declared dead — integrity cannot depend on that).
  plan.specs.push_back({0, FaultKind::kPartitionIn, 1.0, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  DilosConfig cfg = ChaosConfig(2);
  cfg.fault_seed = 10;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u) << "fault_seed=" << cfg.fault_seed;
  EXPECT_GT(fabric.injector().injected_partition_drops(), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(ChaosPartition, StaleButVerifiedCopyIsDetectedByGeneration) {
  // The nastier partition shape: node 0 is reachable and holds *verified*
  // copies — checksums installed by write-backs that landed before the
  // partition — but misses every write-back after it. Checksum verification
  // alone passes those stale bytes; the per-page write generation is what
  // exposes them (the router's expected generation was bumped by each
  // write-back round node 0 never saw). Recovery stays disabled: detection
  // must not depend on the failure detector ever condemning the node.
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg = ChaosConfig(2);
  cfg.recovery.enabled = false;
  cfg.pm.scrub_pages_per_tick = 64;  // Phase 3: the scrubber heals the laggards.
  cfg.fault_seed = 11;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize);

  auto populate_salted = [&](uint64_t salt) {
    for (uint64_t p = 0; p < pages; ++p) {
      rt.Write<uint64_t>(region + p * kPageSize, p ^ salt);
    }
  };
  auto sweep_salted = [&](uint64_t salt) {
    uint64_t errors = 0;
    for (uint64_t p = 0; p < pages; ++p) {
      if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ salt)) {
        ++errors;
      }
    }
    return errors;
  };
  // Node-0 copies that would pass checksum verification but lag the
  // expected write generation — the exact copies this test is about.
  auto stale_verified_on_node0 = [&]() {
    uint64_t n = 0;
    const PageStore& store = fabric.node(0).store();
    for (uint64_t p = 0; p < pages; ++p) {
      uint64_t va = region + p * kPageSize;
      const StoredPage* rec = store.Find(va >> kPageShift);
      if (rec != nullptr && rec->has_checksum &&
          !CopyIsCurrent(rec, rt.router().PageGeneration(va))) {
        ++n;
      }
    }
    return n;
  };

  // Phase 1: healthy fabric. 128 pages over 64 frames: evictions write both
  // replicas back verified, installing checksum + generation on node 0 too.
  populate_salted(0xAAAA);
  ASSERT_EQ(sweep_salted(0xAAAA), 0u);

  // Phase 2: partition node 0 inbound and overwrite everything. Each
  // write-back round bumps the expected generation; node 0 drops the bytes
  // and keeps serving its old — still checksum-valid — phase-1 copies.
  FaultPlan plan;
  plan.specs.push_back({0, FaultKind::kPartitionIn, 1.0, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  populate_salted(0xBBBB);
  EXPECT_EQ(sweep_salted(0xBBBB), 0u)
      << "a verified-but-stale arrival from node 0 leaked through";
  EXPECT_GT(rt.stats().stale_copies_detected, 0u)
      << "the sweep should have tripped over node 0's lagging copies";
  EXPECT_GT(stale_verified_on_node0(), 0u)
      << "the partition should have left checksum-valid stale copies behind";
  EXPECT_EQ(rt.stats().failed_fetches, 0u);

  // Phase 3: partition lifts. Reads still never see phase-2 ghosts, and the
  // scrubber (driven by the sweeps' background hook) rewrites node 0's
  // laggards with current bytes and generations.
  fabric.set_fault_plan(FaultPlan{});
  uint64_t stale_before = stale_verified_on_node0();
  for (int round = 0; round < 6 && stale_verified_on_node0() > 0; ++round) {
    EXPECT_EQ(sweep_salted(0xBBBB), 0u) << "round " << round;
  }
  EXPECT_LT(stale_verified_on_node0(), stale_before)
      << "scrub repairs should freshen node 0's stale copies";
  EXPECT_GT(rt.stats().scrub_repairs, 0u);
  EXPECT_EQ(sweep_salted(0xBBBB), 0u);
}

TEST(ChaosPartition, TotalPartitionNeverEvictsTheOnlyCopy) {
  // Every replica of every page refuses writes (single node, inbound
  // partition): a dirty page's frame is then the only current copy of the
  // page. The reclaimer must keep such victims resident — clean pages,
  // whose remote copy is current, are the only legal victims — because an
  // eviction would resurface the pre-partition bytes (or zeros) on the
  // refault.
  Fabric fabric(CostModel::Default(), 1);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);  // Phase 1: healthy write-backs land.
  ASSERT_EQ(VerifySweep(rt, region, pages), 0u);

  FaultPlan plan;  // Phase 2: nothing written reaches the node anymore.
  plan.specs.push_back({0, FaultKind::kPartitionIn, 1.0, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  const uint64_t dirtied = 24;
  for (uint64_t p = 0; p < dirtied; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xFEED);
  }
  // Eviction pressure: sweep the remaining pages twice through 64 frames.
  for (int round = 0; round < 2; ++round) {
    for (uint64_t p = dirtied; p < pages; ++p) {
      rt.Read<uint64_t>(region + p * kPageSize);
    }
  }
  for (uint64_t p = 0; p < dirtied; ++p) {
    EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p ^ 0xFEED)
        << "page " << p << " was evicted while its write-back could not land";
  }

  fabric.set_fault_plan(FaultPlan{});  // Phase 3: the partition lifts.
  for (int round = 0; round < 3; ++round) {
    for (uint64_t p = dirtied; p < pages; ++p) {
      rt.Read<uint64_t>(region + p * kPageSize);  // Background drains cleans.
    }
  }
  for (uint64_t p = 0; p < dirtied; ++p) {
    EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p ^ 0xFEED);
  }
  for (uint64_t p = dirtied; p < pages; ++p) {
    EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p ^ 0xD15C0);
  }
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

// Guide that reports the same live segments for every page: drives the
// vectored write-back / action-PTE eviction path without the full
// allocator machinery. Segment 0 covers the test payload at offset 0.
class FixedSegsGuide : public Guide {
 public:
  bool LiveSegments(uint64_t, std::vector<PageSegment>* segs) override {
    segs->assign({{0, 64}, {256, 64}});
    return true;
  }
};

TEST(ChaosPartition, TotalPartitionKeepsVectoredDirtyPagesResident) {
  // The same durability bar for guided (vectored) write-backs: when every
  // replica drops the segment writes, Clean() must neither clear the dirty
  // bit nor record an action vector — an eviction would then install an
  // action PTE whose segments were never written remotely, and the refault
  // would read the pre-partition bytes.
  Fabric fabric(CostModel::Default(), 1);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  FixedSegsGuide guide;
  rt.set_guide(&guide);
  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);  // Phase 1: vectored write-backs land.
  ASSERT_EQ(VerifySweep(rt, region, pages), 0u);
  ASSERT_GT(rt.stats().vectored_ops, 0u) << "the guide must force the vectored path";

  FaultPlan plan;  // Phase 2: every segment write toward the node drops.
  plan.specs.push_back({0, FaultKind::kPartitionIn, 1.0, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  const uint64_t dirtied = 24;
  for (uint64_t p = 0; p < dirtied; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xFEED);
  }
  for (int round = 0; round < 2; ++round) {
    for (uint64_t p = dirtied; p < pages; ++p) {
      rt.Read<uint64_t>(region + p * kPageSize);
    }
  }
  for (uint64_t p = 0; p < dirtied; ++p) {
    EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p ^ 0xFEED)
        << "page " << p << ": a vectored clean that landed nowhere licensed eviction";
  }

  fabric.set_fault_plan(FaultPlan{});  // Phase 3: the partition lifts.
  for (int round = 0; round < 3; ++round) {
    for (uint64_t p = dirtied; p < pages; ++p) {
      rt.Read<uint64_t>(region + p * kPageSize);
    }
  }
  for (uint64_t p = 0; p < dirtied; ++p) {
    EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p ^ 0xFEED);
  }
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

// -- Repair observability + pipelining ----------------------------------------

TEST(ChaosRepair, NoLegalTargetIsCountedAndTraced) {
  // Replication 3 on 3 nodes: after a death every survivor is already in
  // the replica set, so there is nowhere legal to rebuild.
  Fabric fabric(CostModel::Default(), 3);
  DilosConfig cfg = ChaosConfig(3);
  cfg.trace_capacity = 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  ASSERT_EQ(VerifySweep(rt, region, pages), 0u);

  fabric.CrashNode(2);
  for (int i = 0; i < 50 && rt.router().state(2) != NodeState::kDead; ++i) {
    rt.DriveRecovery(1'000'000);
  }
  DriveMs(rt, 5);  // Let the repair scan run (and find nowhere to rebuild).
  EXPECT_EQ(rt.router().state(2), NodeState::kDead);
  EXPECT_GT(rt.stats().repair_no_target, 0u);
  EXPECT_GT(rt.tracer().Count(TraceEvent::kRepairNoTarget), 0u);
  EXPECT_EQ(rt.stats().repair_granules, 0u) << "nothing should have been rebuilt";
  // The data is still there — just at reduced redundancy.
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
}

// Rebuild-throughput probe: crash node 0, let detection settle with no app
// load, then drain the whole rebuild unthrottled. The repair stream's cursor
// (the serialized issue/completion frontier of the copy pipeline) is the
// honest throughput measure — a wall-clock span under mixed load is
// dominated by demand traffic queueing behind the repair transfers, which
// costs both depths the same and dilutes the ratio.
uint64_t RebuildSpanNs(size_t pipeline_depth) {
  Fabric fabric(CostModel::Default(), 3);
  DilosConfig cfg = ChaosConfig(2);
  cfg.local_mem_bytes = 1ULL << 20;
  cfg.recovery.repair.bytes_per_tick = 1ULL << 30;  // Unthrottled drain.
  cfg.recovery.repair.pipeline_depth = pipeline_depth;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 2048;  // 8 MB working set.
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(0);
  for (int i = 0; i < 50 && rt.router().state(0) != NodeState::kDead; ++i) {
    rt.DriveRecovery(1'000'000);
  }
  EXPECT_EQ(rt.router().state(0), NodeState::kDead);
  uint64_t start_ns = rt.clock(0).now();
  DriveMs(rt, 1);  // Let the death scan queue the rebuild jobs.
  DriveUntilIdle(rt, 2'000);
  EXPECT_TRUE(rt.RecoveryIdle()) << "repair did not converge (depth " << pipeline_depth << ")";
  EXPECT_GT(rt.stats().repair_granules, 0u);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  return rt.repair()->stream_cursor_ns() - start_ns;
}

TEST(ChaosRepair, PipelinedCopiesRebuildAtLeastTwiceAsFastAsSerial) {
  uint64_t serial = RebuildSpanNs(1);
  uint64_t pipelined = RebuildSpanNs(8);
  EXPECT_GE(serial, 2 * pipelined)
      << "serial span " << serial << " ns vs pipelined " << pipelined << " ns";
}

// -- Retry budget -------------------------------------------------------------

TEST(ChaosRetryBudget, UnreachableNodeBurnsBoundedRetriesThenSuppresses) {
  // An exhausted per-core token bucket turns a would-be retry storm into
  // fail-fast: the timeout still feeds the detector its strike (the node is
  // steered around a moment later), but no retry traffic is spent. With a
  // zero-depth bucket every timed-out demand fetch must suppress instead of
  // retrying — fetch_retries stays exactly 0 for the whole run.
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg = ChaosConfig(2);
  cfg.telemetry.check_invariants = true;
  cfg.recovery.retry_burst = 0;
  cfg.recovery.retry_refill_ns = 50 * kMs;  // Nothing refills mid-test.
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  ASSERT_EQ(VerifySweep(rt, region, pages), 0u);

  // Partition node 1 away and read a page whose primary copy it holds before
  // any probe notices. That fetch times out; with an empty bucket it is
  // suppressed (and surfaces as a failed fetch — the documented budget
  // semantics). Its strike marks the node suspect, so the following storm
  // steers to the healthy replica without burning a single retry.
  fabric.CrashNode(1);
  std::vector<int> reps;
  uint64_t victim = pages;
  for (uint64_t p = 0; p + 64 < pages; ++p) {  // Tail pages are still cached.
    rt.router().ReplicaNodes(region + p * kPageSize, &reps);
    if (reps[0] == 1) {
      victim = p;
      break;
    }
  }
  ASSERT_LT(victim, pages) << "no granule homed on the partitioned node";
  rt.Read<uint64_t>(region + victim * kPageSize);
  VerifySweep(rt, region, pages);
  EXPECT_GT(rt.stats().fault_retries_suppressed, 0u);
  EXPECT_EQ(rt.stats().fetch_retries, 0u) << "every retry must be suppressed";
  EXPECT_GE(rt.stats().failed_fetches, rt.stats().fault_retries_suppressed);

  // Heal: the node is readmitted and the poisoned (zeroed, clean) pages age
  // out of the cache — after that every read verifies again.
  fabric.RestoreNode(1);
  DriveMs(rt, 20);
  DriveUntilIdle(rt, 100);
  VerifySweep(rt, region, pages);  // Cycle any cached zero page out.
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
}

// -- Multi-seed soak ----------------------------------------------------------

uint64_t SeedBase() {
  const char* env = std::getenv("DILOS_CHAOS_SEED_BASE");
  if (env != nullptr && env[0] != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

// One chaos run: a crash window, a gray window, a flaky window, a one-way
// partition window, and continuous wire bit flips plus storage rot — under
// replication or EC — with a mixed read/write load across the whole
// timeline. The liveness faults are scoped so only one node is in trouble
// at a time (that is the redundancy budget replication=2 / m=2 is specified
// to tolerate; overlapping two node-level faults would make data loss the
// *correct* outcome). Integrity faults (flips, rot) hit every node
// throughout. Asserts no read ever returned wrong bytes and no fetch was
// ever abandoned.
void ChaosSoak(uint64_t seed, bool ec) {
  Fabric fabric(CostModel::Default(), ec ? 5 : 3);
  FaultPlan plan;
  plan.specs.push_back({1, FaultKind::kCrash, 1.0, 1.0, 2 * kMs, 11 * kMs});
  plan.specs.push_back({2, FaultKind::kDelay, 1.0, 8.0, 4 * kMs, 14 * kMs});
  plan.specs.push_back({2, FaultKind::kTransient, 0.02, 1.0, 14'500'000, 17 * kMs});
  plan.specs.push_back({0, FaultKind::kPartitionOut, 1.0, 1.0, 18 * kMs, 20'500'000});
  plan.specs.push_back({-1, FaultKind::kBitFlip, 0.01, 1.0, 0, UINT64_MAX});
  // Rot scoped to the redundancy budget: under replication=2, rot on a live
  // copy while its only partner is crashed, flapping, or partitioned is
  // *two* concurrent faults on one page — data loss would be the specified
  // outcome, so rot runs only in the node-fault-free gap between node 1's
  // readmission and node 2's transient window. (Node 2's delay window
  // overlaps, but gray nodes stay readable.) EC with m=2 tolerates the
  // double fault, so there it runs across every window.
  plan.specs.push_back({-1, FaultKind::kStorageRot, 0.0005, 1.0,
                        ec ? 1 * kMs : 12 * kMs, ec ? UINT64_MAX : 14'500'000});
  fabric.set_fault_plan(plan);

  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.recovery.enabled = true;
  cfg.fault_seed = seed;
  cfg.pm.scrub_pages_per_tick = 64;
  if (ec) {
    cfg.ec.enabled = true;
    cfg.ec.k = 2;
    cfg.ec.m = 2;
  } else {
    cfg.replication = 2;
  }
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  // Mixed load until the whole fault timeline has played out.
  uint64_t rng = seed * 0x9E3779B97F4A7C15ULL + 1;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  uint64_t wrong_reads = 0;
  uint64_t ops = 0;
  while (rt.clock(0).now() < 22 * kMs && ops < 600'000) {
    uint64_t p = next() % pages;
    if (next() % 4 == 0) {
      rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xD15C0);
    } else if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ 0xD15C0)) {
      ++wrong_reads;
    }
    ++ops;
  }
  // Settle: every window over, flapped nodes re-admitted and refilled.
  DriveMs(rt, 10);
  DriveUntilIdle(rt, 100);

  EXPECT_EQ(wrong_reads, 0u) << "fault_seed=" << seed << (ec ? " (ec)" : " (replication)");
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u)
      << "fault_seed=" << seed << (ec ? " (ec)" : " (replication)");
  EXPECT_EQ(rt.stats().failed_fetches, 0u)
      << "fault_seed=" << seed << (ec ? " (ec)" : " (replication)");
  EXPECT_GT(fabric.injector().injected_faults(), 0u) << "fault_seed=" << seed;
}

TEST(ChaosSoak, ReplicationSurvives32SeedsOfMixedFaults) {
  uint64_t base = SeedBase();
  for (uint64_t s = base; s < base + 32; ++s) {
    ChaosSoak(s, /*ec=*/false);
    if (::testing::Test::HasFailure()) {
      break;  // First failing seed is the repro; don't bury it.
    }
  }
}

TEST(ChaosSoak, ErasureCodingSurvives32SeedsOfMixedFaults) {
  uint64_t base = SeedBase();
  for (uint64_t s = base; s < base + 32; ++s) {
    ChaosSoak(s, /*ec=*/true);
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

}  // namespace
}  // namespace dilos
