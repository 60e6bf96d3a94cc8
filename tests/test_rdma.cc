// Tests for the simulated RDMA fabric: data movement, protection keys,
// scatter/gather validation, link serialization, completion ordering, that
// a post keeps nothing once it returns, and the memory node's page store.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "src/memnode/fabric.h"
#include "src/memnode/memory_node.h"
#include "src/memnode/page_arena.h"
#include "src/rdma/link.h"
#include "src/rdma/queue_pair.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

// Every global allocation in this binary is counted, so a test can bound the
// allocations an operation makes. The binary is single-threaded. None of the
// replacements is inlined: GCC would otherwise see malloc() paired with
// operator delete, or operator new with free(), at the call sites and warn
// (-Wmismatched-new-delete) about the replacement itself.
namespace {
uint64_t g_allocations = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = CountedAlloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dilos {
namespace {

class RdmaTest : public ::testing::Test {
 protected:
  Fabric fabric_;
  QueuePair* qp_ = fabric_.CreateQp();
  std::array<uint8_t, kPageSize> buf_{};
};

TEST_F(RdmaTest, WriteThenReadRoundTrips) {
  std::memset(buf_.data(), 0xAB, buf_.size());
  uint64_t remote = kFarBase + 10 * kPageSize;
  Completion w =
      qp_->PostWrite(1, reinterpret_cast<uint64_t>(buf_.data()), remote, kPageSize, 0);
  EXPECT_EQ(w.status, WcStatus::kSuccess);

  std::array<uint8_t, kPageSize> back{};
  Completion r =
      qp_->PostRead(2, reinterpret_cast<uint64_t>(back.data()), remote, kPageSize, w.completion_time_ns);
  EXPECT_EQ(r.status, WcStatus::kSuccess);
  EXPECT_EQ(std::memcmp(back.data(), buf_.data(), kPageSize), 0);
}

TEST_F(RdmaTest, UnwrittenRemoteMemoryReadsAsZero) {
  std::memset(buf_.data(), 0xFF, buf_.size());
  Completion r = qp_->PostRead(1, reinterpret_cast<uint64_t>(buf_.data()),
                               kFarBase + 99 * kPageSize, 512, 0);
  EXPECT_EQ(r.status, WcStatus::kSuccess);
  for (int i = 0; i < 512; ++i) {
    EXPECT_EQ(buf_[static_cast<size_t>(i)], 0);
  }
}

TEST_F(RdmaTest, BadRkeyIsRejected) {
  WorkRequest wr;
  wr.wr_id = 3;
  wr.opcode = RdmaOpcode::kRead;
  wr.segs.push_back({reinterpret_cast<uint64_t>(buf_.data()), kFarBase, 64});
  wr.rkey = qp_->remote_rkey() + 1;
  Completion c = qp_->PostSend(wr, 0);
  EXPECT_EQ(c.status, WcStatus::kRemoteAccessError);
}

TEST_F(RdmaTest, OutOfRegionAccessIsRejected) {
  WorkRequest wr;
  wr.wr_id = 4;
  wr.opcode = RdmaOpcode::kRead;
  // One past the region.
  wr.segs.push_back({reinterpret_cast<uint64_t>(buf_.data()), kFarBase + kFarSpan, 64});
  wr.rkey = qp_->remote_rkey();
  Completion c = qp_->PostSend(wr, 0);
  EXPECT_EQ(c.status, WcStatus::kRemoteAccessError);
}

TEST_F(RdmaTest, SegmentCrossingRemotePageIsRejected) {
  WorkRequest wr;
  wr.wr_id = 5;
  wr.opcode = RdmaOpcode::kRead;
  // Straddles pages.
  wr.segs.push_back({reinterpret_cast<uint64_t>(buf_.data()), kFarBase + kPageSize - 128, 256});
  wr.rkey = qp_->remote_rkey();
  Completion c = qp_->PostSend(wr, 0);
  EXPECT_EQ(c.status, WcStatus::kRemoteAccessError);
}

TEST_F(RdmaTest, EmptyOrZeroLengthSegmentsRejected) {
  WorkRequest wr;
  wr.wr_id = 6;
  wr.opcode = RdmaOpcode::kRead;
  wr.rkey = qp_->remote_rkey();
  EXPECT_EQ(qp_->PostSend(wr, 0).status, WcStatus::kLocalError);  // No segment.
  wr.segs.push_back({reinterpret_cast<uint64_t>(buf_.data()), kFarBase, 64});
  wr.segs.push_back({reinterpret_cast<uint64_t>(buf_.data()) + 64, kFarBase + 64, 0});
  EXPECT_EQ(qp_->PostSend(wr, 0).status, WcStatus::kLocalError);
}

TEST_F(RdmaTest, ScatterGatherMovesAllSegments) {
  // Write a pattern, then gather three disjoint pieces in one vectorized op.
  for (size_t i = 0; i < buf_.size(); ++i) {
    buf_[i] = static_cast<uint8_t>(i & 0xFF);
  }
  uint64_t remote = kFarBase + 7 * kPageSize;
  qp_->PostWrite(1, reinterpret_cast<uint64_t>(buf_.data()), remote, kPageSize, 0);

  std::array<uint8_t, kPageSize> dst{};
  WorkRequest wr;
  wr.wr_id = 2;
  wr.opcode = RdmaOpcode::kRead;
  wr.rkey = qp_->remote_rkey();
  const std::array<std::pair<uint32_t, uint32_t>, 3> segs = {
      {{0, 100}, {1000, 50}, {4000, 96}}};
  for (auto [off, len] : segs) {
    wr.segs.push_back({reinterpret_cast<uint64_t>(dst.data()) + off, remote + off, len});
  }
  Completion c = qp_->PostSend(wr, 0);
  ASSERT_EQ(c.status, WcStatus::kSuccess);
  for (auto [off, len] : segs) {
    EXPECT_EQ(std::memcmp(dst.data() + off, buf_.data() + off, len), 0) << off;
  }
  // Bytes outside the segments were not transferred.
  EXPECT_EQ(dst[500], 0);
}

TEST_F(RdmaTest, CompletionsAreMonotonic) {
  uint64_t prev = 0;
  for (int i = 0; i < 10; ++i) {
    Completion c = qp_->PostRead(static_cast<uint64_t>(i),
                                 reinterpret_cast<uint64_t>(buf_.data()), kFarBase, 4096, 0);
    EXPECT_GE(c.completion_time_ns, prev);
    prev = c.completion_time_ns;
  }
}

TEST_F(RdmaTest, LinkSerializesManyOutstandingOps) {
  // A burst of page reads posted at t=0: the first few overlap inside the
  // fabric pipeline, but once the wire saturates, completions are spaced by
  // the wire time, so the last op finishes far beyond one fabric latency.
  Completion last{};
  const int kOps = 16;
  for (int i = 0; i < kOps; ++i) {
    last = qp_->PostRead(static_cast<uint64_t>(i), reinterpret_cast<uint64_t>(buf_.data()),
                         kFarBase, 4096, 0);
  }
  uint64_t one = fabric_.cost().ReadLatencyNs(4096);
  EXPECT_GT(last.completion_time_ns, one * 3);
  // And the spacing approaches the per-op wire occupancy.
  uint64_t wire = fabric_.link().busy_until() / kOps;
  EXPECT_GT(wire, 700u);  // ~200 ns per-op + 4096 * 0.155 ns/B.
  EXPECT_LT(wire, 1000u);
}

TEST_F(RdmaTest, IdleLinkGivesPureFabricLatency) {
  Completion c =
      qp_->PostRead(1, reinterpret_cast<uint64_t>(buf_.data()), kFarBase, 4096, 1'000'000);
  EXPECT_EQ(c.completion_time_ns, 1'000'000 + fabric_.cost().ReadLatencyNs(4096));
}

TEST_F(RdmaTest, BandwidthMeterAccounts) {
  qp_->PostRead(1, reinterpret_cast<uint64_t>(buf_.data()), kFarBase, 4096, 0);
  qp_->PostWrite(2, reinterpret_cast<uint64_t>(buf_.data()), kFarBase, 1024, 0);
  EXPECT_EQ(fabric_.link().rx().total_bytes(), 4096u);
  EXPECT_EQ(fabric_.link().tx().total_bytes(), 1024u);
}

TEST_F(RdmaTest, CompletionCarriesWireQueueing) {
  // Two page reads posted together on an idle link: the first takes the
  // wire at once, the second waits one page's wire time for its slot.
  uint64_t local = reinterpret_cast<uint64_t>(buf_.data());
  Completion first = qp_->PostRead(1, local, kFarBase, kPageSize, 0);
  Completion second = qp_->PostRead(2, local, kFarBase, kPageSize, 0);
  EXPECT_EQ(first.queue_ns, 0u);
  EXPECT_EQ(second.queue_ns, fabric_.link().WireNs(kPageSize, 1));
  // An op that never reaches the wire waited for no slot.
  fabric_.CrashNode(0);
  Completion lost = qp_->PostRead(3, local, kFarBase, kPageSize, 0);
  EXPECT_EQ(lost.status, WcStatus::kTimeout);
  EXPECT_EQ(lost.queue_ns, 0u);
}

TEST_F(RdmaTest, PostsRetainNothing) {
  // A post returns its completion and stores none, and a single-segment
  // post keeps its segment on the stack: 10,000 page reads and 10,000 page
  // writes allocate nothing.
  uint64_t local = reinterpret_cast<uint64_t>(buf_.data());
  qp_->PostRead(0, local, kFarBase, kPageSize, 0);  // Sizes the link's bandwidth meter.
  qp_->PostWrite(0, local, kFarBase, kPageSize, 0);
  uint64_t before = g_allocations;
  for (uint64_t i = 1; i <= 10'000; ++i) {
    qp_->PostRead(i, local, kFarBase, kPageSize, 0);
    qp_->PostWrite(i, local, kFarBase, kPageSize, 0);
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_EQ(qp_->cq().outstanding(), 0u);
}

TEST(PageStoreTest, MaterializesLazily) {
  PageStore store;
  EXPECT_FALSE(store.Materialized(5));
  uint8_t* p = store.PageData(5);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(store.Materialized(5));
  EXPECT_EQ(store.page_count(), 1u);
  EXPECT_EQ(p[0], 0);
}

// A stored page whose record carries a checksum and a generation.
StoredPage& StoreTagged(PageStore& store, uint64_t page) {
  store.PageData(page)[7] = 0xAB;
  StoredPage& rec = *store.Find(page);
  rec.checksum = 0x1234;
  rec.has_checksum = true;
  rec.generation = 3;
  return rec;
}

TEST(PageStoreTest, DropForgetsBytesChecksumAndGenerationTogether) {
  PageStore store;
  StoreTagged(store, 5);
  store.Drop(5);
  EXPECT_EQ(store.Find(5), nullptr);
  EXPECT_EQ(store.page_count(), 0u);
  EXPECT_FALSE(store.HasChecksum(5));
  EXPECT_EQ(store.Checksum(5), 0u);
  EXPECT_EQ(store.Generation(5), 0u);
  EXPECT_EQ(store.Resolve((5ULL << kPageShift) + 7, 1, /*for_write=*/false)[0], 0);
}

TEST(PageStoreTest, DropChecksumKeepsBytesAndGeneration) {
  PageStore store;
  StoreTagged(store, 5);
  store.DropChecksum(5);
  const StoredPage* rec = store.Find(5);
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->has_checksum);
  EXPECT_FALSE(store.HasChecksum(5));
  EXPECT_EQ(store.Checksum(5), 0u);
  EXPECT_EQ(rec->bytes[7], 0xAB);
  EXPECT_EQ(store.Generation(5), 3u);
}

TEST(PageStoreTest, ReadOfANeverWrittenPageServesZerosWithoutStoringIt) {
  PageStore store;
  const uint8_t* p = store.Resolve(9ULL << kPageShift, kPageSize, /*for_write=*/false);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p, store.ZeroPage());
  EXPECT_EQ(std::count(p, p + kPageSize, 0), static_cast<long>(kPageSize));
  EXPECT_EQ(store.Find(9), nullptr);
  EXPECT_EQ(store.page_count(), 0u);
  // A write stores the page, zero-filled around the written bytes.
  uint8_t* w = store.Resolve((9ULL << kPageShift) + 8, 8, /*for_write=*/true);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w, store.Find(9)->bytes + 8);
  EXPECT_EQ(store.page_count(), 1u);
}

TEST(PageStoreTest, NoMetadataSetterStoresAPage) {
  PageStore store;
  store.SetGeneration(4, 7);
  store.DropChecksum(4);
  EXPECT_EQ(store.page_count(), 0u);
  EXPECT_EQ(store.Generation(4), 0u);
  EXPECT_FALSE(store.Materialized(4));
}

TEST(PageStoreTest, PageKeepsItsAddressAndBytesAsSlabsAreAdded) {
  PageStore store;
  uint8_t* first = store.PageData(0);
  std::memset(first, 0x5A, kPageSize);
  // More than two slabs' worth of other pages.
  for (uint64_t page = 1; page <= 2 * PageArena::kSlotsPerSlab + 1; ++page) {
    store.PageData(page)[0] = 1;
  }
  EXPECT_EQ(store.Find(0)->bytes, first);
  EXPECT_EQ(std::count(first, first + kPageSize, 0x5A), static_cast<long>(kPageSize));
}

TEST(PageStoreTest, DroppedThenRestoredPageReadsAsZeros) {
  PageStore store;
  uint8_t* first = store.PageData(5);
  std::memset(first, 0xFF, kPageSize);
  store.Drop(5);
  uint8_t* again = store.PageData(5);
  // The dropped slot is the one reused, and it comes back zeroed.
  EXPECT_EQ(again, first);
  EXPECT_EQ(std::count(again, again + kPageSize, 0), static_cast<long>(kPageSize));
}

TEST(PageStoreTest, StoresOfOneFabricShareOneArena) {
  // 6 x 100 pages fill two 512-slot slabs of the fabric's one arena; an
  // arena per store would map six.
  Fabric fabric(CostModel::Default(), /*num_nodes=*/6);
  for (int n = 0; n < fabric.num_nodes(); ++n) {
    for (uint64_t page = 0; page < 100; ++page) {
      fabric.node(n).store().PageData(page)[0] = 1;
    }
  }
  EXPECT_EQ(fabric.arena().slab_count(), 2u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PageStoreTest, UnheldSlotsArePoisoned) {
  // Slots of one mapping have no redzones: the arena poisons every slot no
  // page holds, so an overrun or a read of a dropped page still trips ASan.
  PageStore store;
  uint8_t* slot = store.PageData(5);
  EXPECT_EQ(__asan_region_is_poisoned(slot, kPageSize), nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(slot + kPageSize));  // Not yet handed out.
  store.Drop(5);
  EXPECT_EQ(__asan_region_is_poisoned(slot, kPageSize), slot);
  EXPECT_TRUE(__asan_address_is_poisoned(slot + kPageSize - 1));
}
#endif

TEST(PageStoreTest, ResolveRejectsCrossPage) {
  PageStore store;
  EXPECT_EQ(store.Resolve((5ULL << kPageShift) + 4000, 200, false), nullptr);
  EXPECT_NE(store.Resolve(5ULL << kPageShift, kPageSize, false), nullptr);
  EXPECT_EQ(store.Resolve(0, 0, false), nullptr);
}

}  // namespace
}  // namespace dilos
