// Integration tests for the DiLOS runtime: fault taxonomy, data integrity
// across eviction, prefetch mechanics, hidden reclamation, and the TCP
// emulation knob.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/dilos/trend.h"

namespace dilos {
namespace {

std::unique_ptr<DilosRuntime> MakeRuntime(Fabric& fabric, uint64_t local_bytes,
                                          std::unique_ptr<Prefetcher> pf = nullptr) {
  DilosConfig cfg;
  cfg.local_mem_bytes = local_bytes;
  if (!pf) {
    pf = std::make_unique<NullPrefetcher>();
  }
  return std::make_unique<DilosRuntime>(fabric, cfg, std::move(pf));
}

TEST(DilosRuntime, FirstTouchIsZeroFill) {
  Fabric fabric;
  auto rt = MakeRuntime(fabric, 1 << 20);
  uint64_t region = rt->AllocRegion(64 * 4096);
  EXPECT_EQ(rt->Read<uint64_t>(region), 0u);
  EXPECT_EQ(rt->stats().zero_fill_faults, 1u);
  EXPECT_EQ(rt->stats().major_faults, 0u);
  EXPECT_EQ(rt->stats().bytes_fetched, 0u);  // No network for anonymous pages.
}

TEST(DilosRuntime, ReadAfterWriteSamePage) {
  Fabric fabric;
  auto rt = MakeRuntime(fabric, 1 << 20);
  uint64_t a = rt->AllocRegion(4096);
  rt->Write<uint32_t>(a + 100, 0xDEADBEEF);
  EXPECT_EQ(rt->Read<uint32_t>(a + 100), 0xDEADBEEFu);
  EXPECT_EQ(rt->stats().total_faults(), 1u);  // One zero-fill; then local hits.
}

TEST(DilosRuntime, DataSurvivesEvictionRoundTrip) {
  Fabric fabric;
  // 32 frames of local memory; a 256-page working set forces eviction.
  auto rt = MakeRuntime(fabric, 32 * 4096);
  const uint64_t pages = 256;
  uint64_t region = rt->AllocRegion(pages * 4096);
  for (uint64_t p = 0; p < pages; ++p) {
    rt->Write<uint64_t>(region + p * 4096 + 8, p * 31 + 7);
  }
  EXPECT_GT(rt->stats().evictions, 0u);
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_EQ(rt->Read<uint64_t>(region + p * 4096 + 8), p * 31 + 7) << p;
  }
}

TEST(DilosRuntime, RefaultIsMajorFault) {
  Fabric fabric;
  auto rt = MakeRuntime(fabric, 16 * 4096);
  uint64_t region = rt->AllocRegion(128 * 4096);
  for (uint64_t p = 0; p < 128; ++p) {
    rt->Write<uint8_t>(region + p * 4096, static_cast<uint8_t>(p));
  }
  uint64_t majors_before = rt->stats().major_faults;
  // Page 0 was certainly evicted by now.
  EXPECT_EQ(rt->Read<uint8_t>(region), 0u);
  EXPECT_GT(rt->stats().major_faults, majors_before);
  EXPECT_GT(rt->stats().bytes_fetched, 0u);
}

TEST(DilosRuntime, ReclamationIsHiddenFromFaultPath) {
  Fabric fabric;
  auto rt = MakeRuntime(fabric, 64 * 4096);
  uint64_t region = rt->AllocRegion(1024 * 4096);
  for (uint64_t p = 0; p < 1024; ++p) {
    rt->Write<uint8_t>(region + p * 4096, 1);
  }
  for (uint64_t p = 0; p < 1024; ++p) {
    rt->Read<uint8_t>(region + p * 4096);
  }
  // Eager background eviction means the fault handler never direct-reclaims
  // and the breakdown has no reclaim component (paper Fig. 6).
  EXPECT_EQ(rt->page_manager().direct_reclaims(), 0u);
  EXPECT_EQ(rt->stats().fault_breakdown.total_ns(LatComp::kReclaim), 0u);
  EXPECT_GT(rt->stats().evictions, 0u);
}

TEST(DilosRuntime, MajorFaultLatencyMatchesFig6Shape) {
  Fabric fabric;
  auto rt = MakeRuntime(fabric, 32 * 4096);
  uint64_t region = rt->AllocRegion(512 * 4096);
  for (uint64_t p = 0; p < 512; ++p) {
    rt->Write<uint8_t>(region + p * 4096, 1);
  }
  for (uint64_t p = 0; p < 512; ++p) {
    rt->Read<uint8_t>(region + p * 4096);
  }
  const LatencyBreakdown& bd = rt->stats().fault_breakdown;
  ASSERT_GT(bd.events(), 0u);
  double total_us = bd.TotalMeanNs() / 1000.0;
  // DiLOS page fault handling is ~3.2 us: exception + fetch + map, nothing
  // else of consequence.
  EXPECT_GT(total_us, 2.5);
  EXPECT_LT(total_us, 4.2);
  // Fetch dominates.
  EXPECT_GT(bd.MeanNs(LatComp::kFetch) / bd.TotalMeanNs(), 0.5);
}

TEST(DilosRuntime, SequentialReadNoPrefetchAllMajor) {
  Fabric fabric;
  auto rt = MakeRuntime(fabric, 32 * 4096);
  const uint64_t pages = 256;
  uint64_t region = rt->AllocRegion(pages * 4096);
  for (uint64_t p = 0; p < pages; ++p) {
    rt->Write<uint8_t>(region + p * 4096, 1);
  }
  // Force everything out, then re-read sequentially.
  uint64_t scratch = rt->AllocRegion(64 * 4096);
  for (uint64_t p = 0; p < 64; ++p) {
    rt->Write<uint8_t>(scratch + p * 4096, 1);
  }
  rt->stats().major_faults = 0;
  rt->stats().minor_faults = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    rt->Read<uint8_t>(region + p * 4096);
  }
  // Without a prefetcher every fetched page is a major fault (Table 3 row 2).
  EXPECT_GE(rt->stats().major_faults, pages - 64);
  EXPECT_EQ(rt->stats().minor_faults, 0u);
}

TEST(DilosRuntime, ReadaheadConvertsMajorsToMinorsAndHits) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * 4096);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint8_t>(region + p * 4096, 1);
  }
  uint64_t scratch = rt.AllocRegion(128 * 4096);
  for (uint64_t p = 0; p < 128; ++p) {
    rt.Write<uint8_t>(scratch + p * 4096, 1);
  }
  rt.stats().major_faults = 0;
  rt.stats().minor_faults = 0;
  rt.stats().prefetch_mapped_early = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Read<uint8_t>(region + p * 4096);
  }
  // Majors collapse to roughly one per readahead window (Table 3 row 3:
  // 655k majors for 5.2M pages = 1/8).
  EXPECT_LT(rt.stats().major_faults, pages / 4);
  EXPECT_GE(rt.stats().major_faults, pages / 10);
  // The rest are minor (in-flight) faults or silently mapped-ahead pages.
  EXPECT_GT(rt.stats().minor_faults + rt.stats().prefetch_mapped_early, pages / 2);
}

TEST(DilosRuntime, PrefetcherSkipsResidentAndEmptyPages) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 1 << 20;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  uint64_t region = rt.AllocRegion(64 * 4096);
  // All pages are kEmpty: sequential touch must not issue any prefetch
  // (nothing is on the memory node yet).
  for (uint64_t p = 0; p < 64; ++p) {
    rt.Write<uint8_t>(region + p * 4096, 1);
  }
  EXPECT_EQ(rt.stats().prefetch_issued, 0u);
  EXPECT_EQ(rt.stats().bytes_fetched, 0u);
}

TEST(DilosRuntime, TcpEmulationSlowsFaults) {
  uint64_t plain_ns = 0;
  uint64_t tcp_ns = 0;
  for (bool tcp : {false, true}) {
    Fabric fabric;
    DilosConfig cfg;
    cfg.local_mem_bytes = 16 * 4096;
    cfg.tcp_emulation = tcp;
    DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
    uint64_t region = rt.AllocRegion(128 * 4096);
    for (uint64_t p = 0; p < 128; ++p) {
      rt.Write<uint8_t>(region + p * 4096, 1);
    }
    for (uint64_t p = 0; p < 128; ++p) {
      rt.Read<uint8_t>(region + p * 4096);
    }
    (tcp ? tcp_ns : plain_ns) = rt.clock().now();
  }
  EXPECT_GT(tcp_ns, plain_ns + 100 * CostModel::Default().tcp_delay_ns / 2);
}

TEST(DilosRuntime, MultiCoreClocksAreIndependent) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 1 << 20;
  cfg.num_cores = 2;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(16 * 4096);
  rt.Write<uint8_t>(region, 1, /*core=*/0);
  EXPECT_GT(rt.clock(0).now(), 0u);
  EXPECT_EQ(rt.clock(1).now(), 0u);
  rt.Write<uint8_t>(region + 4096, 1, /*core=*/1);
  EXPECT_GT(rt.clock(1).now(), 0u);
  EXPECT_EQ(rt.MaxWorkerTimeNs(), std::max(rt.clock(0).now(), rt.clock(1).now()));
}

TEST(DilosRuntime, PageCrossingAccessWorks) {
  Fabric fabric;
  auto rt = MakeRuntime(fabric, 1 << 20);
  uint64_t region = rt->AllocRegion(2 * 4096);
  uint64_t straddle = region + 4096 - 4;
  rt->Write<uint64_t>(straddle, 0x1122334455667788ULL);
  EXPECT_EQ(rt->Read<uint64_t>(straddle), 0x1122334455667788ULL);
}

TEST(DilosRuntime, RegionsDoNotOverlap) {
  Fabric fabric;
  auto rt = MakeRuntime(fabric, 1 << 20);
  uint64_t a = rt->AllocRegion(10 * 4096);
  uint64_t b = rt->AllocRegion(10 * 4096);
  EXPECT_GE(b, a + 10 * 4096);
  rt->Write<uint64_t>(a, 1);
  rt->Write<uint64_t>(b, 2);
  EXPECT_EQ(rt->Read<uint64_t>(a), 1u);
  EXPECT_EQ(rt->Read<uint64_t>(b), 2u);
}

TEST(TrendPrefetcher, DetectsForwardStride) {
  TrendPrefetcher pf;
  std::vector<uint64_t> out;
  uint64_t base = 1ULL << 40;
  // Feed a stride-2-page fault pattern.
  for (int i = 0; i < 6; ++i) {
    out.clear();
    pf.OnFault({base + static_cast<uint64_t>(i) * 2 * 4096, false, true, 1.0}, &out);
  }
  ASSERT_FALSE(out.empty());
  // Predictions continue the stride.
  EXPECT_EQ(out[0], base + 5 * 2 * 4096 + 2 * 4096);
}

TEST(TrendPrefetcher, DetectsBackwardStride) {
  TrendPrefetcher pf;
  std::vector<uint64_t> out;
  uint64_t base = (1ULL << 40) + 100 * 4096;
  for (int i = 0; i < 6; ++i) {
    out.clear();
    pf.OnFault({base - static_cast<uint64_t>(i) * 4096, false, true, 1.0}, &out);
  }
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], base - 5 * 4096 - 4096);
}

TEST(TrendPrefetcher, NoMajorityMeansMinimalWindow) {
  TrendPrefetcher pf;
  std::vector<uint64_t> out;
  uint64_t base = 1ULL << 40;
  // Random-ish deltas: no majority.
  const uint64_t offs[] = {0, 7, 3, 21, 9, 40, 2, 33};
  for (uint64_t o : offs) {
    out.clear();
    pf.OnFault({base + o * 4096, false, true, 0.1}, &out);
  }
  EXPECT_LE(out.size(), 2u);
}

TEST(ReadaheadPrefetcher, EmitsForwardWindow) {
  ReadaheadPrefetcher pf;
  std::vector<uint64_t> out;
  uint64_t base = 1ULL << 40;
  pf.OnFault({base, false, true, 1.0}, &out);
  size_t w0 = out.size();
  EXPECT_GE(w0, 1u);
  out.clear();
  pf.OnFault({base + 4096 * (w0 + 1), false, true, 1.0}, &out);
  EXPECT_GE(out.size(), w0);  // Window grows on (near-)sequential faults.
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i], out[i - 1] + 4096);
  }
}

}  // namespace
}  // namespace dilos
