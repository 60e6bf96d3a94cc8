// Edge-case tests for the DiLOS runtime: region teardown with in-flight
// IO, guide/replication interplay, shared-queue mode correctness, zero-byte
// and boundary accesses, stats consistency after mixed activity, and the
// abort when no frame can be freed.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/guides/allocator_guide.h"
#include "src/sim/rng.h"

namespace dilos {
namespace {

TEST(RuntimeEdge, FreeRegionWithInFlightPrefetches) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint8_t>(region + p * kPageSize, 1);
  }
  // Touch the head so readahead has pages in flight, then free everything.
  rt.Read<uint8_t>(region);
  rt.FreeRegion(region, pages * kPageSize);
  // All frames are recoverable and the region reads as zero afterwards.
  for (uint64_t p = 0; p < pages; p += 17) {
    ASSERT_EQ(rt.Read<uint8_t>(region + p * kPageSize), 0u);
  }
}

TEST(RuntimeEdge, FreeRegionReleasesAllFrames) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 128 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(64 * kPageSize);
  for (uint64_t p = 0; p < 64; ++p) {
    rt.Write<uint8_t>(region + p * kPageSize, 1);
  }
  size_t used_before = rt.frame_pool().used();
  EXPECT_GE(used_before, 64u);
  rt.FreeRegion(region, 64 * kPageSize);
  EXPECT_EQ(rt.frame_pool().used(), used_before - 64);
}

TEST(RuntimeEdge, SharedQueueModeIsCorrectJustSlower) {
  // The HoL ablation config must still produce exact data.
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 32 * 4096;
  cfg.shared_queue = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p * 11);
  }
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p * 11);
  }
}

TEST(RuntimeEdge, GuidedPagingWithReplicationStaysConsistent) {
  // Vectorized cleaning must reach every replica; after failover the live
  // chunks still read back through action PTEs.
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg;
  cfg.local_mem_bytes = 96 * 4096;
  cfg.replication = 2;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  FarHeap heap(rt);
  AllocatorGuide guide(heap);
  rt.set_guide(&guide);

  std::vector<uint64_t> addrs;
  for (int i = 0; i < 8000; ++i) {
    uint64_t a = heap.Malloc(128);
    rt.Write<uint64_t>(a, static_cast<uint64_t>(i) * 5 + 1);
    addrs.push_back(a);
  }
  for (size_t i = 0; i < addrs.size(); ++i) {
    if (i % 4 != 0) {
      heap.Free(addrs[i]);
      addrs[i] = 0;
    }
  }
  // Spill, fail a node, verify the survivors through vectorized re-fetch.
  uint64_t filler = rt.AllocRegion(256 * kPageSize);
  for (int p = 0; p < 256; ++p) {
    rt.Write<uint8_t>(filler + static_cast<uint64_t>(p) * kPageSize, 1);
  }
  rt.router().FailNode(1);
  for (size_t i = 0; i < addrs.size(); ++i) {
    if (addrs[i] != 0) {
      ASSERT_EQ(rt.Read<uint64_t>(addrs[i]), static_cast<uint64_t>(i) * 5 + 1) << i;
    }
  }
}

// Reports the first 64 bytes of a page live for its next `armed` evictions
// only; every other eviction moves the whole page (kRemote PTE).
class OneShotLiveGuide : public Guide {
 public:
  bool LiveSegments(uint64_t, std::vector<PageSegment>* segs) override {
    if (armed == 0) {
      return false;
    }
    --armed;
    segs->assign({{0, 64}});
    return true;
  }
  int armed = 0;
};

TEST(RuntimeEdge, ActionFaultUnderDirectReclaimReadsItsOwnSegments) {
  // An action-PTE fault whose frame allocation falls into direct reclaim:
  // the eviction it runs records a new action slot, which grows the action
  // log from one entry to two and moves the fault's own segment list. The
  // fault must fetch through the list as it is after the allocation.
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  OneShotLiveGuide guide;
  rt.set_guide(&guide);
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p * 13 + 7);
  }
  for (uint64_t p = 0; p < pages; ++p) {
    ASSERT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p * 13 + 7);
  }
  auto action_pages = [&] {
    std::vector<uint64_t> out;
    for (uint64_t p = 0; p < pages; ++p) {
      if (PteTagOf(rt.page_table().Get(region + p * kPageSize)) == PteTag::kAction) {
        out.push_back(p);
      }
    }
    return out;
  };
  ASSERT_TRUE(action_pages().empty());

  // One background eviction records action slot 0.
  guide.armed = 1;
  ASSERT_EQ(rt.Read<uint64_t>(region), 7u);
  std::vector<uint64_t> first = action_pages();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(guide.armed, 0);

  // Empty the free pool so the action fault's frame comes from direct
  // reclaim, whose eviction records action slot 1.
  std::vector<uint32_t> held;
  while (std::optional<uint32_t> f = rt.frame_pool().Alloc()) {
    held.push_back(*f);
  }
  uint64_t reclaims0 = rt.page_manager().direct_reclaims();
  guide.armed = 1;
  EXPECT_EQ(rt.Read<uint64_t>(region + first[0] * kPageSize), first[0] * 13 + 7);
  EXPECT_EQ(rt.page_manager().direct_reclaims(), reclaims0 + 1);
  EXPECT_EQ(guide.armed, 0) << "the direct-reclaim eviction must record an action slot";
  for (uint32_t f : held) {
    rt.frame_pool().Free(f);
  }
  std::vector<uint64_t> second = action_pages();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(second[0], first[0]);
  EXPECT_EQ(rt.Read<uint64_t>(region + second[0] * kPageSize), second[0] * 13 + 7);
}

TEST(RuntimeEdgeDeathTest, OutOfFramesAbortsNamingThePage) {
  // The only memory node is down, so no write-back lands and a dirty page
  // can never leave its frame: the ninth page written finds all eight
  // frames unevictable.
  Fabric fabric;
  fabric.CrashNode(0);
  DilosConfig cfg;
  cfg.local_mem_bytes = 8 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 64;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  char expected[96];
  std::snprintf(expected, sizeof(expected),
                "DiLOS out of frames at page 0x%llx: all 8 frames unevictable",
                static_cast<unsigned long long>(region + 8 * kPageSize));
  EXPECT_DEATH(
      {
        for (uint64_t p = 0; p < pages; ++p) {
          rt.Write<uint64_t>(region + p * kPageSize, p);
        }
      },
      expected);
}

TEST(RuntimeEdge, SingleByteAndFullPagePins) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 16 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(4 * kPageSize);
  // A full-page write/read through the byte interface.
  std::vector<uint8_t> page(kPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i * 7);
  }
  rt.WriteBytes(region, page.data(), kPageSize);
  std::vector<uint8_t> back(kPageSize);
  rt.ReadBytes(region, back.data(), kPageSize);
  EXPECT_EQ(back, page);
  // Single bytes at the extreme offsets of a page.
  rt.Write<uint8_t>(region + kPageSize, 0xA5);
  rt.Write<uint8_t>(region + 2 * kPageSize - 1, 0x5A);
  EXPECT_EQ(rt.Read<uint8_t>(region + kPageSize), 0xA5);
  EXPECT_EQ(rt.Read<uint8_t>(region + 2 * kPageSize - 1), 0x5A);
}

TEST(RuntimeEdge, StatsConsistentAfterMixedActivity) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 48 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    uint64_t p = rng.NextBelow(pages);
    if (rng.NextDouble() < 0.5) {
      rt.Write<uint32_t>(region + p * kPageSize, static_cast<uint32_t>(i));
    } else {
      rt.Read<uint32_t>(region + p * kPageSize);
    }
  }
  const RuntimeStats& st = rt.stats();
  // Bytes fetched must cover all majors; evictions can't exceed the pages
  // that ever became resident.
  EXPECT_GE(st.bytes_fetched / kPageSize, st.major_faults);
  EXPECT_LE(st.evictions, st.total_faults() + st.prefetch_issued);
  EXPECT_EQ(st.bytes_written % kPageSize, 0u);  // No guide: page-granular.
  // The breakdown's event count equals the major faults recorded.
  EXPECT_EQ(st.fault_breakdown.events(), st.major_faults);
}

TEST(RuntimeEdge, ManyRegionsInterleaved) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 32 * 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  std::vector<uint64_t> regions;
  for (int r = 0; r < 16; ++r) {
    regions.push_back(rt.AllocRegion(16 * kPageSize));
  }
  for (int round = 0; round < 4; ++round) {
    for (size_t r = 0; r < regions.size(); ++r) {
      for (uint64_t p = 0; p < 16; ++p) {
        rt.Write<uint64_t>(regions[r] + p * kPageSize, (r << 8) | p | (round << 16));
      }
    }
  }
  for (size_t r = 0; r < regions.size(); ++r) {
    for (uint64_t p = 0; p < 16; ++p) {
      ASSERT_EQ(rt.Read<uint64_t>(regions[r] + p * kPageSize), (r << 8) | p | (3u << 16));
    }
  }
}

}  // namespace
}  // namespace dilos
