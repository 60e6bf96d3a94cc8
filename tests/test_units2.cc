// Second batch of focused unit tests: dict incremental rehashing, Zipfian
// benchmark driver, Fastswap's adaptive readahead, page-manager internals,
// heap allocations per steady-state fault on both paged runtimes, graph
// algorithms against hand-computed references, dataframe operations against
// host-side recomputation, and quicksort adversarial inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "src/apps/dataframe.h"
#include "src/apps/graph.h"
#include "src/apps/quicksort.h"
#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/fastswap/fastswap.h"
#include "src/memnode/fault_injector.h"
#include "src/redis/dict.h"
#include "src/redis/redis.h"
#include "src/redis/redis_bench.h"
#include "src/sim/rng.h"
#include "tests/alloc_count.h"

namespace dilos {
namespace {

std::unique_ptr<DilosRuntime> BigRt(Fabric& fabric, uint64_t local = 32 << 20) {
  DilosConfig cfg;
  cfg.local_mem_bytes = local;
  return std::make_unique<DilosRuntime>(fabric, cfg, std::make_unique<NullPrefetcher>());
}

// ---------------------------------------------------------------- FarDict --

TEST(DictRehash, GrowsPastInitialCapacityWithoutLosingKeys) {
  Fabric fabric;
  auto rt = BigRt(fabric);
  FarHeap heap(*rt);
  FarDict dict(heap, 16);  // Tiny initial table.
  for (int i = 0; i < 2000; ++i) {
    dict.Insert("key" + std::to_string(i), static_cast<uint64_t>(i) + 1, kValString);
  }
  EXPECT_EQ(dict.size(), 2000u);
  EXPECT_GT(dict.rehash_steps(), 0u);  // Rehashing actually happened.
  EXPECT_GE(dict.buckets(), 1024u);    // The table grew.
  for (int i = 0; i < 2000; ++i) {
    uint64_t e = dict.Find("key" + std::to_string(i));
    ASSERT_NE(e, 0u) << i;
    EXPECT_EQ(dict.EntryVal(e), static_cast<uint64_t>(i) + 1);
  }
}

TEST(DictRehash, LookupsCorrectMidRehash) {
  Fabric fabric;
  auto rt = BigRt(fabric);
  FarHeap heap(*rt);
  FarDict dict(heap, 8);
  // Insert past the load factor so rehash is in progress, then verify
  // lookups while incrementally migrating.
  for (int i = 0; i < 12; ++i) {
    dict.Insert("k" + std::to_string(i), static_cast<uint64_t>(i), kValString);
  }
  EXPECT_TRUE(dict.rehashing());
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_NE(dict.Find("k" + std::to_string(i)), 0u) << round << "," << i;
    }
  }
  EXPECT_FALSE(dict.rehashing());  // Lookups drove migration to completion.
}

TEST(DictRehash, RemoveDuringRehash) {
  Fabric fabric;
  auto rt = BigRt(fabric);
  FarHeap heap(*rt);
  FarDict dict(heap, 8);
  for (int i = 0; i < 64; ++i) {
    dict.Insert("k" + std::to_string(i), static_cast<uint64_t>(i), kValString);
  }
  uint64_t val = 0;
  uint32_t flags = 0;
  for (int i = 0; i < 64; i += 2) {
    ASSERT_TRUE(dict.Remove("k" + std::to_string(i), &val, &flags)) << i;
    EXPECT_EQ(val, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(dict.size(), 32u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(dict.Find("k" + std::to_string(i)) != 0, i % 2 == 1) << i;
  }
}

// ------------------------------------------------------------- RedisBench --

TEST(RedisZipf, SkewedGetsHitHotKeysAndStayCorrect) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 2 << 20;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  RedisLite redis(rt, 4096);
  RedisBench bench(redis);
  bench.PopulateStrings(4096, {1024});
  RedisBenchResult uni = bench.RunGet(2000);
  RedisBenchResult zipf = bench.RunGetZipf(2000);
  EXPECT_EQ(uni.ops, 2000u);
  EXPECT_EQ(zipf.ops, 2000u);
  // Skew concentrates on few (cached) keys: Zipfian throughput is higher
  // under memory pressure.
  EXPECT_GT(zipf.OpsPerSec(), uni.OpsPerSec());
}

// ------------------------------------------------------ Fastswap readahead --

TEST(FastswapAdaptive, WindowShrinksOnRandomAccess) {
  Fabric fabric;
  FastswapConfig cfg;
  cfg.local_mem_bytes = 64 * 4096;
  FastswapRuntime rt(fabric, cfg);
  const uint64_t pages = 2048;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint8_t>(region + p * kPageSize, 1);
  }
  // Random sweep: most readahead fills die unused; the window must adapt
  // down, so prefetch issue per fault approaches zero.
  Rng rng(7);
  rt.stats().prefetch_issued = 0;
  rt.stats().major_faults = 0;
  for (int i = 0; i < 4000; ++i) {
    rt.Read<uint8_t>(region + rng.NextBelow(pages) * kPageSize);
  }
  double issued_per_major = static_cast<double>(rt.stats().prefetch_issued) /
                            static_cast<double>(rt.stats().major_faults);
  EXPECT_LT(issued_per_major, 3.0);  // Far below the full 7-page cluster.
}

TEST(FastswapAdaptive, WindowStaysWideOnSequentialAccess) {
  Fabric fabric;
  FastswapConfig cfg;
  cfg.local_mem_bytes = 64 * 4096;
  FastswapRuntime rt(fabric, cfg);
  const uint64_t pages = 2048;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint8_t>(region + p * kPageSize, 1);
  }
  rt.stats().prefetch_issued = 0;
  rt.stats().major_faults = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Read<uint8_t>(region + p * kPageSize);
  }
  double issued_per_major = static_cast<double>(rt.stats().prefetch_issued) /
                            static_cast<double>(rt.stats().major_faults);
  EXPECT_GT(issued_per_major, 5.0);  // Near the full cluster.
}

// ------------------------------------------------------------ PageManager --

TEST(PageManagerUnit, CleanerClearsDirtyBitsInBackground) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 256 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(128 * kPageSize);
  for (uint64_t p = 0; p < 128; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  uint64_t wb0 = rt.stats().writebacks;
  // Touch other memory to trigger background ticks; the cleaner should
  // write back cold dirty pages even without eviction pressure.
  uint64_t other = rt.AllocRegion(512 * kPageSize);
  for (uint64_t p = 0; p < 512; ++p) {
    rt.Write<uint8_t>(other + p * kPageSize, 1);
  }
  EXPECT_GT(rt.stats().writebacks, wb0);
  // Cleaned (now clean) pages are still readable with their data.
  for (uint64_t p = 0; p < 128; ++p) {
    ASSERT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p);
  }
}

TEST(PageManagerUnit, ActionLogSlotsAreRecycled) {
  Fabric fabric;
  auto rt = BigRt(fabric, 1 << 20);
  PageManager& pm = rt->page_manager();
  // Directly exercise the action log API.
  EXPECT_EQ(pm.ActionSegments(999), nullptr);
  pm.ReleaseAction(999);  // Out-of-range release is a no-op.
}

// Cleaner queue (page_manager.h): each of the next three tests fails without
// the admission point, or the rule for refused write-backs, that it names.

// Prefetches the page after each major fault's page, and nothing else.
class NextPagePrefetcher : public Prefetcher {
 public:
  void OnFault(const FaultInfo& info, std::vector<uint64_t>* out) override {
    if (info.major) {
      out->push_back((info.vaddr & ~static_cast<uint64_t>(kPageSize - 1)) + kPageSize);
    }
  }
  std::string_view name() const override { return "next-page"; }
  std::unique_ptr<Prefetcher> Clone() const override {
    return std::make_unique<NextPagePrefetcher>();
  }
};

Pte PteOf(DilosRuntime& rt, uint64_t va) { return *rt.page_table().Entry(va, /*create=*/false); }

// Clears the accessed bits of `pages` resident pages the way the hit
// tracker's scan does, which makes the dirty ones cleaner candidates.
void ClearAccessed(DilosRuntime& rt, uint64_t region, uint64_t pages) {
  for (uint64_t p = 0; p < pages; ++p) {
    uint64_t va = region + p * kPageSize;
    Pte* e = rt.page_table().Entry(va, /*create=*/false);
    *e &= ~kPteAccessed;
    rt.page_manager().OnAccessCleared(*e);
  }
}

TEST(PageManagerUnit, HitTrackerScanQueuesAWrittenPrefetchForTheSameTick) {
  // A prefetched page the application writes is dirty and accessed, so the
  // cleaner skips it until something clears the accessed bit. The next
  // major fault's hit-tracker scan does, and that fault's own background
  // tick must write the page back while it stays resident.
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 256 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NextPagePrefetcher>());
  // Push region `a` out by streaming a larger region through local memory,
  // then free that one so no eviction runs below.
  const uint64_t pages = 64;
  uint64_t a = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(a + p * kPageSize, p);
  }
  uint64_t b = rt.AllocRegion(512 * kPageSize);
  for (uint64_t p = 0; p < 512; ++p) {
    rt.Write<uint64_t>(b + p * kPageSize, p);
  }
  rt.FreeRegion(b, 512 * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_EQ(PteTagOf(PteOf(rt, a + p * kPageSize)), PteTag::kRemote) << "page " << p;
  }

  const uint64_t page1 = a + kPageSize;
  uint64_t prefetches = rt.stats().prefetch_issued;
  ASSERT_EQ(rt.Read<uint64_t>(a), 0u);  // Major fault; prefetches page 1.
  ASSERT_EQ(rt.stats().prefetch_issued, prefetches + 1);
  rt.Write<uint64_t>(page1, 0xF00D);
  ASSERT_NE(PteOf(rt, page1) & kPteDirty, 0u);

  uint64_t writebacks = rt.stats().writebacks;
  ASSERT_EQ(rt.Read<uint64_t>(a + 32 * kPageSize), 32u);  // Scans page 1.
  Pte e = PteOf(rt, page1);
  EXPECT_EQ(PteTagOf(e), PteTag::kLocal) << "page 1 must stay resident";
  EXPECT_EQ(e & (kPteDirty | kPteAccessed), 0u) << "page 1 was not written back";
  EXPECT_EQ(rt.stats().writebacks, writebacks + 1);
  EXPECT_EQ(rt.Read<uint64_t>(page1), 0xF00Du);
}

TEST(PageManagerUnit, QuotaReclaimQueuesTheReDirtiedPageForTheNextTick) {
  // Under kReclaimOwnColdest a write-back past the quota drops the remote
  // copy of the tenant's coldest clean page and marks that page dirty again
  // without touching its accessed bit. The next tick must write it back.
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 256 * kPageSize;
  cfg.tenants.enabled = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  TenantSpec spec;
  spec.name = "reclaimer";
  spec.quota_pages = 4;
  spec.policy = QuotaPolicy::kReclaimOwnColdest;
  int t = rt.CreateTenant(spec);
  const uint64_t pages = 5;
  uint64_t region = rt.AllocRegion(pages * kPageSize, t);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  ClearAccessed(rt, region, pages);

  // Pages 0-3 fill the quota; page 4 then reclaims page 0, the coldest.
  uint64_t now = rt.clock(0).now() + 100'000;
  rt.page_manager().BackgroundTick(now);
  ASSERT_EQ(rt.tenants()->quota_reclaims(t), 1u);
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_EQ((PteOf(rt, region + p * kPageSize) & kPteDirty) != 0, p == 0) << "page " << p;
  }

  // Freeing page 4 makes room, so page 0's write-back needs no reclaim.
  rt.FreeRegion(region + 4 * kPageSize, kPageSize);
  uint64_t writebacks = rt.stats().writebacks;
  rt.page_manager().BackgroundTick(now + 100'000);
  EXPECT_EQ(rt.stats().writebacks, writebacks + 1);
  EXPECT_EQ(PteOf(rt, region) & kPteDirty, 0u);
  EXPECT_EQ(rt.tenants()->ChargeOwner(region), t);
  EXPECT_EQ(rt.tenants()->quota_reclaims(t), 1u);
  for (uint64_t p = 0; p < 4; ++p) {
    EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p);
  }
  rt.FreeRegion(region, pages * kPageSize);
  rt.RetireTenant(t);
}

TEST(PageManagerUnit, RefusedWriteBackStaysQueuedUntilThePartitionHeals) {
  // A write-back no replica accepts leaves the page dirty. It must stay in
  // the cleaner queue, so the first tick after the partition lifts cleans it.
  Fabric fabric(CostModel::Default(), 1);
  DilosConfig cfg;
  cfg.local_mem_bytes = 256 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 8;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  ClearAccessed(rt, region, pages);

  FaultPlan plan;  // Every write toward the only node drops.
  plan.specs.push_back({0, FaultKind::kPartitionIn, 1.0, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);
  uint64_t now = rt.clock(0).now() + 100'000;
  rt.page_manager().BackgroundTick(now);
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_NE(PteOf(rt, region + p * kPageSize) & kPteDirty, 0u) << "page " << p;
  }

  fabric.set_fault_plan(FaultPlan{});
  rt.page_manager().BackgroundTick(now + 1'000'000);
  for (uint64_t p = 0; p < pages; ++p) {
    EXPECT_EQ(PteOf(rt, region + p * kPageSize) & kPteDirty, 0u) << "page " << p;
    EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p);
  }
}

// Claims one 64-byte live extent per page, so every clean is vectored and
// records an action-log slot.
class OneExtentGuide : public Guide {
 public:
  bool LiveSegments(uint64_t, std::vector<PageSegment>* segs) override {
    segs->assign({{0, 64}});
    return true;
  }
};

size_t ActionLogSlots(const PageManager& pm) {
  size_t n = 0;
  while (pm.ActionSegments(n) != nullptr) {
    ++n;
  }
  return n;
}

TEST(PageManagerUnit, FreeRegionReleasesVectorCleanedActionSlots) {
  // A resident page a vectored clean left clean holds an action-log slot
  // until it is evicted. Freeing its region must release the slot, or the
  // log grows with every region written and freed.
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 256 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  OneExtentGuide guide;
  rt.set_guide(&guide);
  const uint64_t pages = 512;
  std::vector<size_t> slots;
  for (int cycle = 0; cycle < 8; ++cycle) {
    uint64_t region = rt.AllocRegion(pages * kPageSize);
    for (uint64_t p = 0; p < pages; ++p) {
      rt.Write<uint64_t>(region + p * kPageSize, p);
    }
    rt.FreeRegion(region, pages * kPageSize);
    slots.push_back(ActionLogSlots(rt.page_manager()));
  }
  ASSERT_GT(rt.stats().vectored_ops, 0u) << "the guide must force the vectored path";
  EXPECT_EQ(slots.back(), slots.front()) << "the action log grew by "
                                         << slots.back() - slots.front() << " slots";
}

// ------------------------------------------------- Steady-state allocations --

// The one allocation a steady-state fault may still make: the link's rx and
// tx meters grow their bucket vectors once per 100 ms of simulated traffic.
size_t MeterBuckets(Fabric& fabric) {
  return fabric.link().rx().buckets().size() + fabric.link().tx().buckets().size();
}

// Writes a 16 MB region through 4 MB of local memory, warms up with 20,000
// uniform 8-byte reads, then counts the heap allocations of 10,000 more.
void ExpectSteadyStateFaultsAllocateNothing(FarRuntime& rt, Fabric& fabric) {
  const uint64_t pages = (16 << 20) / kPageSize;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  Rng rng(25);
  uint64_t wrong = 0;
  auto read_some = [&](int reads) {
    for (int i = 0; i < reads; ++i) {
      uint64_t p = rng.NextBelow(pages);
      wrong += rt.Read<uint64_t>(region + p * kPageSize) != p ? 1 : 0;
    }
  };
  read_some(20'000);
  const uint64_t faults = rt.stats().major_faults;
  const size_t buckets = MeterBuckets(fabric);
  const uint64_t allocations = g_allocations;
  read_some(10'000);
  const uint64_t made = g_allocations - allocations;
  const uint64_t window_faults = rt.stats().major_faults - faults;
  ASSERT_EQ(wrong, 0u);
  ASSERT_GT(window_faults, 5'000u) << "the window must fault, not hit";
  EXPECT_LE(made, MeterBuckets(fabric) - buckets)
      << made << " allocations over " << window_faults << " faults";
}

TEST(DilosAllocations, SteadyStateFaultsAllocateNothing) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 4 << 20;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  ExpectSteadyStateFaultsAllocateNothing(rt, fabric);
}

TEST(FastswapAllocations, SteadyStateFaultsAllocateNothing) {
  Fabric fabric;
  FastswapConfig cfg;
  cfg.local_mem_bytes = 4 << 20;
  cfg.readahead_enabled = false;
  FastswapRuntime rt(fabric, cfg);
  ExpectSteadyStateFaultsAllocateNothing(rt, fabric);
}

// ------------------------------------------------------------------ Graph --

TEST(GraphReference, BfsDistancesOnHandGraph) {
  // 0->1, 0->2, 1->3, 2->3, 3->4: BC from source 0 must credit vertex 3
  // (the bridge to 4) and vertices 1/2 with half credit each.
  std::vector<std::pair<uint32_t, uint32_t>> edges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}};
  Fabric fabric;
  auto rt = BigRt(fabric);
  FarGraph g(*rt, 5, edges);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(3), 1u);
  EXPECT_EQ(g.OutDegree(4), 0u);
  std::vector<uint32_t> nbrs;
  g.Neighbors(0, &nbrs);
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(nbrs, (std::vector<uint32_t>{1, 2}));
}

TEST(GraphReference, PageRankOnTwoCliquesFavorsSink) {
  // Star graph: every vertex points at 0. Vertex 0 must dominate.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t v = 1; v < 32; ++v) {
    edges.emplace_back(v, 0);
  }
  Fabric fabric;
  auto rt = BigRt(fabric);
  FarGraph in_csr(*rt, 32, FarGraph::Transpose(edges));
  PageRankResult res = RunPageRank(in_csr, FarGraph::OutDegrees(32, edges), 10);
  EXPECT_NEAR(res.sum, 1.0, 0.01);
  // The sink absorbs far more rank than any leaf (leaves share the rest).
  EXPECT_GT(res.top_ranks[0], 0.35);
  EXPECT_GT(res.top_ranks[0], res.top_ranks[1] * 10);
}

TEST(GraphReference, TransposeReversesEdges) {
  std::vector<std::pair<uint32_t, uint32_t>> edges = {{1, 2}, {3, 4}};
  auto rev = FarGraph::Transpose(edges);
  EXPECT_EQ(rev[0], (std::pair<uint32_t, uint32_t>{2, 1}));
  EXPECT_EQ(rev[1], (std::pair<uint32_t, uint32_t>{4, 3}));
  auto deg = FarGraph::OutDegrees(5, edges);
  EXPECT_EQ(deg[1], 1u);
  EXPECT_EQ(deg[2], 0u);
}

// -------------------------------------------------------------- DataFrame --

TEST(DataFrameReference, OpsMatchHostRecomputation) {
  Fabric fabric;
  auto rt = BigRt(fabric);
  FarDataFrame df(*rt, 1000);
  size_t key = df.AddI32("key");
  size_t val = df.AddF64("val");
  size_t val2 = df.AddF64("val2");
  std::vector<int32_t> keys(1000);
  std::vector<double> vals(1000);
  Rng rng(5);
  for (uint64_t r = 0; r < 1000; ++r) {
    keys[r] = static_cast<int32_t>(rng.NextBelow(4));
    vals[r] = rng.NextDouble() * 10;
    df.SetI32(key, r, keys[r]);
    df.SetF64(val, r, vals[r]);
    df.SetF64(val2, r, vals[r] * 2 + 1);
  }
  // MeanF64.
  double host_mean = std::accumulate(vals.begin(), vals.end(), 0.0) / 1000.0;
  EXPECT_NEAR(df.MeanF64(val), host_mean, 1e-9);
  // CountIfGreater.
  auto host_count = static_cast<uint64_t>(
      std::count_if(vals.begin(), vals.end(), [](double v) { return v > 5.0; }));
  EXPECT_EQ(df.CountIfGreater(val, 5.0), host_count);
  // GroupMean.
  std::vector<double> sums(4, 0);
  std::vector<uint64_t> counts(4, 0);
  for (int r = 0; r < 1000; ++r) {
    sums[static_cast<size_t>(keys[static_cast<size_t>(r)])] += vals[static_cast<size_t>(r)];
    counts[static_cast<size_t>(keys[static_cast<size_t>(r)])]++;
  }
  std::vector<double> gm = df.GroupMean(key, val, 4);
  for (int g = 0; g < 4; ++g) {
    EXPECT_NEAR(gm[static_cast<size_t>(g)],
                sums[static_cast<size_t>(g)] / static_cast<double>(counts[static_cast<size_t>(g)]),
                1e-9);
  }
  // Correlation of val with 2*val+1 is exactly 1.
  EXPECT_NEAR(df.Correlation(val, val2), 1.0, 1e-9);
  // TopK descending.
  std::vector<double> sorted = vals;
  std::sort(sorted.rbegin(), sorted.rend());
  std::vector<double> topk = df.TopK(val, 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(topk[static_cast<size_t>(i)], sorted[static_cast<size_t>(i)]);
  }
  // ColumnIndex resolves by name.
  EXPECT_EQ(df.ColumnIndex("val"), val);
  EXPECT_EQ(df.ColumnIndex("nope"), SIZE_MAX);
}

// -------------------------------------------------------------- Quicksort --

class QuicksortAdversarial : public ::testing::TestWithParam<int> {};

TEST_P(QuicksortAdversarial, SortsHostileInputs) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  const uint64_t n = 50'000;
  QuicksortWorkload wl(rt, n);
  // Overwrite the random data with a hostile pattern.
  for (uint64_t i = 0; i < n; ++i) {
    int32_t v = 0;
    switch (GetParam()) {
      case 0:  // Already sorted.
        v = static_cast<int32_t>(i);
        break;
      case 1:  // Reverse sorted.
        v = static_cast<int32_t>(n - i);
        break;
      case 2:  // All equal.
        v = 7;
        break;
      case 3:  // Organ pipe.
        v = static_cast<int32_t>(i < n / 2 ? i : n - i);
        break;
      case 4:  // Few distinct values.
        v = static_cast<int32_t>(i % 3);
        break;
      default:
        break;
    }
    wl.data().Set(i, v);
  }
  wl.Run();
  EXPECT_TRUE(wl.IsSorted());
}

INSTANTIATE_TEST_SUITE_P(Patterns, QuicksortAdversarial, ::testing::Range(0, 5));

}  // namespace
}  // namespace dilos
