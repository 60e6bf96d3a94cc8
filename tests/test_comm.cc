// Tests for the communication module and the fabric semantics it depends
// on: per-core/per-module queue assignment, the shared-queue ablation, RC
// in-order completion, and full-duplex link behavior.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/dilos/shard.h"
#include "src/memnode/fabric.h"

namespace dilos {
namespace {

TEST(CommModule, PerModuleQueuesAreDistinct) {
  Fabric fabric;
  ShardRouter router(fabric, /*num_cores=*/2, /*replication=*/1, /*shared_queue=*/false);
  std::array<QueuePair*, 8> qps = {
      router.NodeQp(0, CommChannel::kFault, 0),   router.NodeQp(0, CommChannel::kPrefetch, 0),
      router.NodeQp(0, CommChannel::kManager, 0), router.NodeQp(0, CommChannel::kGuide, 0),
      router.NodeQp(1, CommChannel::kFault, 0),   router.NodeQp(1, CommChannel::kPrefetch, 0),
      router.NodeQp(1, CommChannel::kManager, 0), router.NodeQp(1, CommChannel::kGuide, 0)};
  for (size_t i = 0; i < qps.size(); ++i) {
    for (size_t j = i + 1; j < qps.size(); ++j) {
      EXPECT_NE(qps[i], qps[j]) << i << "," << j;
    }
  }
}

TEST(CommModule, SharedQueueCollapsesChannels) {
  Fabric fabric;
  ShardRouter router(fabric, 2, /*replication=*/1, /*shared_queue=*/true);
  EXPECT_EQ(router.NodeQp(0, CommChannel::kFault, 0), router.NodeQp(0, CommChannel::kManager, 0));
  EXPECT_EQ(router.NodeQp(0, CommChannel::kFault, 0), router.NodeQp(0, CommChannel::kGuide, 0));
  // Cores still get their own queue.
  EXPECT_NE(router.NodeQp(0, CommChannel::kFault, 0), router.NodeQp(1, CommChannel::kFault, 0));
}

TEST(QueuePairOrdering, RcCompletionsAreInOrder) {
  Fabric fabric;
  QueuePair* qp = fabric.CreateQp();
  uint8_t buf[4096] = {};
  // A big write followed by a tiny read: the read's own latency is shorter,
  // but RC ordering forbids it from completing first.
  Completion w = qp->PostWrite(1, reinterpret_cast<uint64_t>(buf), kFarBase, 4096, 0);
  Completion r = qp->PostRead(2, reinterpret_cast<uint64_t>(buf), kFarBase, 8, 0);
  EXPECT_GE(r.completion_time_ns, w.completion_time_ns);
}

TEST(QueuePairOrdering, SeparateQpsDoNotBlockEachOther) {
  Fabric fabric;
  QueuePair* a = fabric.CreateQp();
  QueuePair* b = fabric.CreateQp();
  uint8_t buf[4096] = {};
  // Saturate QP a with writes; a read on QP b is unaffected by a's ordering
  // (only shares the duplex wire, and reads use the other direction).
  uint64_t last_w = 0;
  for (int i = 0; i < 20; ++i) {
    last_w = a->PostWrite(static_cast<uint64_t>(i), reinterpret_cast<uint64_t>(buf), kFarBase,
                          4096, 0)
                 .completion_time_ns;
  }
  Completion r = b->PostRead(100, reinterpret_cast<uint64_t>(buf), kFarBase, 4096, 0);
  EXPECT_LT(r.completion_time_ns, last_w);
}

TEST(LinkDuplex, ReadsAndWritesUseIndependentDirections) {
  CostModel cost = CostModel::Default();
  Link link(cost);
  // Saturate TX with writes.
  uint64_t tx_end = 0;
  for (int i = 0; i < 10; ++i) {
    tx_end = link.Occupy(0, 4096, 1, /*is_write=*/true).done_ns;
  }
  // An RX read issued at t=0 is not delayed by TX traffic.
  uint64_t rx_end = link.Occupy(0, 4096, 1, /*is_write=*/false).done_ns;
  EXPECT_LT(rx_end, tx_end);
  EXPECT_EQ(link.rx().total_bytes(), 4096u);
  EXPECT_EQ(link.tx().total_bytes(), 10u * 4096);
}

TEST(LinkDuplex, SameDirectionSerializes) {
  CostModel cost = CostModel::Default();
  Link link(cost);
  uint64_t first = link.Occupy(0, 4096, 1, false).done_ns;
  uint64_t second = link.Occupy(0, 4096, 1, false).done_ns;
  EXPECT_GT(second, first);
}

TEST(BandwidthMeterTest, BucketsByTime) {
  BandwidthMeter meter(1'000'000);  // 1 ms buckets.
  meter.Add(100, 1000);
  meter.Add(500'000, 2000);
  meter.Add(1'500'000, 4000);
  ASSERT_EQ(meter.buckets().size(), 2u);
  EXPECT_EQ(meter.buckets()[0], 3000u);
  EXPECT_EQ(meter.buckets()[1], 4000u);
  EXPECT_EQ(meter.total_bytes(), 7000u);
  EXPECT_GT(meter.MeanBytesPerSec(), 0.0);
}

TEST(SharedQueueAblation, SharedIsNeverFasterOnReads) {
  auto run = [](bool shared) {
    Fabric fabric;
    DilosConfig cfg;
    cfg.local_mem_bytes = 1 << 20;
    cfg.shared_queue = shared;
    DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
    const uint64_t pages = 2048;
    uint64_t region = rt.AllocRegion(pages * kPageSize);
    for (uint64_t p = 0; p < pages; ++p) {
      rt.Write<uint64_t>(region + p * kPageSize, p);
    }
    uint64_t t0 = rt.clock().now();
    for (uint64_t p = 0; p < pages; ++p) {
      rt.Read<uint64_t>(region + p * kPageSize);
    }
    return rt.clock().now() - t0;
  };
  EXPECT_LE(run(false), run(true));
}

}  // namespace
}  // namespace dilos
