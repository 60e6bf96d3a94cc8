// Tests for the unified page table: PTE tag encoding, 4-level walk, frame
// pool, the frame-indexed LRU, and the PTE hit tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/memnode/page_arena.h"
#include "src/pt/frame_lru.h"
#include "src/pt/frame_pool.h"
#include "src/pt/hit_tracker.h"
#include "src/pt/page_table.h"
#include "src/pt/pte.h"

namespace dilos {
namespace {

TEST(Pte, TagEncodingRoundTrips) {
  EXPECT_EQ(PteTagOf(0), PteTag::kEmpty);
  EXPECT_EQ(PteTagOf(MakeLocalPte(42, true)), PteTag::kLocal);
  EXPECT_EQ(PteTagOf(MakeRemotePte(42)), PteTag::kRemote);
  EXPECT_EQ(PteTagOf(MakeFetchingPte(42)), PteTag::kFetching);
  EXPECT_EQ(PteTagOf(MakeActionPte(42)), PteTag::kAction);
  EXPECT_EQ(PteTagOf(MakeTierPte(42)), PteTag::kTier);
}

TEST(Pte, PayloadPreserved) {
  EXPECT_EQ(PtePayload(MakeLocalPte(123456, false)), 123456u);
  EXPECT_EQ(PtePayload(MakeRemotePte(0xFFFFFFFF)), 0xFFFFFFFFu);
  EXPECT_EQ(PtePayload(MakeFetchingPte(7)), 7u);
  EXPECT_EQ(PtePayload(MakeActionPte(0)), 0u);
  EXPECT_EQ(PtePayload(MakeTierPte(0xABCDEF)), 0xABCDEFu);
}

TEST(Pte, TagsUseOnlyLowThreeBitsPlusPayload) {
  // Accessed/dirty bits must not disturb the tag.
  Pte p = MakeLocalPte(9, true) | kPteAccessed | kPteDirty;
  EXPECT_EQ(PteTagOf(p), PteTag::kLocal);
  EXPECT_EQ(PtePayload(p & ~(kPteAccessed | kPteDirty)), 9u);
}

TEST(Pte, TierTagIsDistinctFromEveryOtherState) {
  // kTier is a non-present software state: it must never read as local
  // (mapped), and sticky accessed/dirty bits must not morph it into one.
  Pte t = MakeTierPte(42);
  EXPECT_NE(PteTagOf(t), PteTag::kLocal);
  EXPECT_NE(PteTagOf(t), PteTag::kRemote);
  EXPECT_NE(PteTagOf(t), PteTag::kFetching);
  EXPECT_NE(PteTagOf(t), PteTag::kAction);
  EXPECT_EQ(PteTagOf(t | kPteAccessed | kPteDirty), PteTag::kTier);
}

TEST(PageTable, GetOnEmptyReturnsZero) {
  PageTable pt;
  EXPECT_EQ(pt.Get(0x12345000), 0u);
  EXPECT_EQ(pt.leaf_count(), 0u);
}

TEST(PageTable, EntryWithoutCreateDoesNotMaterialize) {
  PageTable pt;
  EXPECT_EQ(pt.Entry(0x12345000, false), nullptr);
  EXPECT_EQ(pt.leaf_count(), 0u);
}

TEST(PageTable, SetGetRoundTrip) {
  PageTable pt;
  uint64_t va = (1ULL << 40) + 17 * 4096;
  pt.Set(va, MakeRemotePte(99));
  EXPECT_EQ(PteTagOf(pt.Get(va)), PteTag::kRemote);
  EXPECT_EQ(PtePayload(pt.Get(va)), 99u);
  // Offsets within the page resolve to the same PTE.
  EXPECT_EQ(pt.Get(va + 4095), pt.Get(va));
}

TEST(PageTable, DistinctPagesDistinctEntries) {
  PageTable pt;
  uint64_t va = 1ULL << 40;
  pt.Set(va, MakeRemotePte(1));
  pt.Set(va + 4096, MakeRemotePte(2));
  EXPECT_EQ(PtePayload(pt.Get(va)), 1u);
  EXPECT_EQ(PtePayload(pt.Get(va + 4096)), 2u);
}

TEST(PageTable, SharesLeavesWithin2MB) {
  PageTable pt;
  uint64_t base = 1ULL << 40;
  for (int i = 0; i < 512; ++i) {
    pt.Set(base + static_cast<uint64_t>(i) * 4096, MakeRemotePte(static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(pt.leaf_count(), 1u);
  pt.Set(base + 512 * 4096, MakeRemotePte(512));
  EXPECT_EQ(pt.leaf_count(), 2u);
}

TEST(PageTable, CoversFull48BitSpace) {
  PageTable pt;
  uint64_t hi = (1ULL << 47) - 4096;
  pt.Set(hi, MakeLocalPte(3, true));
  EXPECT_EQ(PteTagOf(pt.Get(hi)), PteTag::kLocal);
  EXPECT_EQ(pt.Get(0), 0u);
}

TEST(FramePool, AllocFreeCycle) {
  FramePool pool(4);
  EXPECT_EQ(pool.free_count(), 4u);
  auto a = pool.Alloc();
  auto b = pool.Alloc();
  ASSERT_TRUE(a && b);
  EXPECT_NE(*a, *b);
  EXPECT_EQ(pool.used(), 2u);
  pool.Free(*a);
  EXPECT_EQ(pool.free_count(), 3u);
}

TEST(FramePool, ExhaustionReturnsNullopt) {
  FramePool pool(2);
  EXPECT_TRUE(pool.Alloc().has_value());
  EXPECT_TRUE(pool.Alloc().has_value());
  EXPECT_FALSE(pool.Alloc().has_value());
}

TEST(FramePool, FramesAreDistinctWritableMemory) {
  FramePool pool(3);
  auto a = pool.Alloc();
  auto b = pool.Alloc();
  pool.Data(*a)[0] = 0x11;
  pool.Data(*b)[0] = 0x22;
  EXPECT_EQ(pool.Data(*a)[0], 0x11);
  EXPECT_EQ(pool.Data(*b)[0], 0x22);
  EXPECT_EQ(pool.Addr(*a), reinterpret_cast<uint64_t>(pool.Data(*a)));
}

TEST(FramePool, FramesAreDistinctAlignedAndZeroBeforeFirstWrite) {
  // One whole 2 MB span plus a 4 KB-paged tail.
  FramePool pool(PageArena::kSlotsPerSlab + 88);
  std::set<uint64_t> addrs;
  while (auto fid = pool.Alloc()) {
    uint64_t addr = pool.Addr(*fid);
    EXPECT_EQ(addr % kPageSize, 0u);
    EXPECT_TRUE(addrs.insert(addr).second);
    const uint8_t* p = pool.Data(*fid);
    EXPECT_EQ(std::count(p, p + kPageSize, 0), static_cast<long>(kPageSize)) << *fid;
    pool.Data(*fid)[kPageSize - 1] = 0xEE;
  }
  EXPECT_EQ(addrs.size(), pool.total());
}

// The queued frames, walked from front() through next(): oldest first.
std::vector<uint32_t> Order(const FrameLru& lru) {
  std::vector<uint32_t> frames;
  for (uint32_t f = lru.front(); f != FrameLru::kNone; f = lru.next(f)) {
    frames.push_back(f);
  }
  return frames;
}

TEST(FrameLru, WalkKeepsPushOrderAcrossHeadMiddleAndTailErases) {
  FrameLru lru(8);
  for (uint32_t f : {5u, 2u, 7u, 0u, 3u}) {
    lru.PushBack(f, (f + 1) * kPageSize);
  }
  EXPECT_EQ(Order(lru), (std::vector<uint32_t>{5, 2, 7, 0, 3}));
  EXPECT_EQ(lru.size(), 5u);
  lru.Erase(5);  // Head.
  EXPECT_EQ(Order(lru), (std::vector<uint32_t>{2, 7, 0, 3}));
  EXPECT_EQ(lru.size(), 4u);
  lru.Erase(0);  // Middle.
  EXPECT_EQ(Order(lru), (std::vector<uint32_t>{2, 7, 3}));
  EXPECT_EQ(lru.size(), 3u);
  lru.Erase(3);  // Tail.
  EXPECT_EQ(Order(lru), (std::vector<uint32_t>{2, 7}));
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.va(2), 3 * kPageSize);
  EXPECT_EQ(lru.va(7), 8 * kPageSize);
}

TEST(FrameLru, ReQueuedFrameLandsAtTheTailWithItsNewVa) {
  FrameLru lru(4);
  lru.PushBack(0, 0xA000);
  lru.PushBack(1, 0xB000);
  lru.PushBack(2, 0xC000);
  lru.Erase(1);
  lru.PushBack(1, 0xD000);
  EXPECT_EQ(Order(lru), (std::vector<uint32_t>{0, 2, 1}));
  EXPECT_EQ(lru.va(1), 0xD000u);
  EXPECT_EQ(lru.size(), 3u);
  lru.Erase(0);  // The clock's second chance: the head rotates to the tail.
  lru.PushBack(0, 0xA000);
  EXPECT_EQ(Order(lru), (std::vector<uint32_t>{2, 1, 0}));
  EXPECT_EQ(lru.size(), 3u);
}

TEST(FrameLru, EmptiedQueueTakesNewPushes) {
  FrameLru lru(3);
  EXPECT_EQ(lru.front(), FrameLru::kNone);
  lru.PushBack(1, 0x1000);
  lru.PushBack(2, 0x2000);
  lru.Erase(1);
  lru.Erase(2);
  EXPECT_EQ(lru.front(), FrameLru::kNone);
  EXPECT_EQ(lru.size(), 0u);
  lru.PushBack(2, 0x3000);
  lru.PushBack(0, 0x4000);
  EXPECT_EQ(Order(lru), (std::vector<uint32_t>{2, 0}));
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.va(2), 0x3000u);
}

TEST(HitTracker, AllHitsGivesRatioOne) {
  PageTable pt;
  HitTracker tracker;
  uint64_t base = 1ULL << 40;
  for (int i = 0; i < 8; ++i) {
    uint64_t va = base + static_cast<uint64_t>(i) * 4096;
    pt.Set(va, MakeLocalPte(static_cast<uint64_t>(i), true) | kPteAccessed);
    tracker.Observe(va);
  }
  tracker.Scan(pt);
  EXPECT_DOUBLE_EQ(tracker.hit_ratio(), 1.0);
  EXPECT_EQ(tracker.scans(), 1u);
  // Scan clears accessed bits.
  EXPECT_EQ(pt.Get(base) & kPteAccessed, 0u);
}

TEST(HitTracker, MissesLowerTheRatio) {
  PageTable pt;
  HitTracker tracker;
  uint64_t base = 1ULL << 40;
  for (int i = 0; i < 8; ++i) {
    uint64_t va = base + static_cast<uint64_t>(i) * 4096;
    // Half the prefetched pages were never touched.
    Pte pte = MakeLocalPte(static_cast<uint64_t>(i), true);
    if (i % 2 == 0) {
      pte |= kPteAccessed;
    }
    pt.Set(va, pte);
    tracker.Observe(va);
  }
  tracker.Scan(pt);
  EXPECT_LT(tracker.hit_ratio(), 1.0);
  EXPECT_GT(tracker.hit_ratio(), 0.5);  // EWMA from initial 1.0 toward 0.5.
}

TEST(HitTracker, WindowIsBounded) {
  HitTracker tracker(4);
  for (int i = 0; i < 100; ++i) {
    tracker.Observe(static_cast<uint64_t>(i) * 4096);
  }
  EXPECT_LE(tracker.tracked_count(), 4u);
}

TEST(HitTracker, ScanOnEmptyWindowIsNoop) {
  PageTable pt;
  HitTracker tracker;
  tracker.Scan(pt);
  EXPECT_EQ(tracker.scans(), 0u);
  EXPECT_DOUBLE_EQ(tracker.hit_ratio(), 1.0);
}

}  // namespace
}  // namespace dilos
