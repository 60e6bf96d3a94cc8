// Tests for the recovery subsystem (src/recovery): failure detection via op
// timeouts and heartbeat probes, automatic re-replication of degraded
// granules, spare-node adoption, and degraded-mode routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/recovery/failure_detector.h"
#include "src/recovery/repair_manager.h"

namespace dilos {
namespace {

DilosConfig RecoveryConfig(int replication, int spare_nodes = 0) {
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.replication = replication;
  cfg.recovery.enabled = true;
  cfg.recovery.spare_nodes = spare_nodes;
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

// Drives recovery until the repair queue drains (bounded by `max_ms`).
void DriveUntilIdle(DilosRuntime& rt, uint64_t max_ms = 50) {
  for (uint64_t i = 0; i < max_ms && !rt.RecoveryIdle(); ++i) {
    rt.DriveRecovery(1'000'000);
  }
}

TEST(FailureDetector, OpTimeoutsMarkCrashedNodeDeadWithoutOracle) {
  Fabric fabric(CostModel::Default(), 2);
  DilosRuntime rt(fabric, RecoveryConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(0);  // Physical crash; nobody calls FailNode().
  ASSERT_EQ(rt.router().state(0), NodeState::kLive) << "crash must not be known yet";

  // Demand fetches toward the crashed node time out, strike it dead, and
  // fail over to the replica — the sweep sees no corruption.
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.router().state(0), NodeState::kDead);
  EXPECT_GT(rt.stats().op_timeouts, 0u);
  EXPECT_GT(rt.stats().fetch_retries, 0u);
  EXPECT_GT(rt.stats().degraded_reads, 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
  EXPECT_EQ(rt.stats().nodes_failed, 1u);
}

TEST(FailureDetector, HeartbeatProbesDetectCrashWithoutAnyTraffic) {
  Fabric fabric(CostModel::Default(), 2);
  DilosRuntime rt(fabric, RecoveryConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 64;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(1);
  // No application traffic at all: probes alone must notice.
  rt.DriveRecovery(2'000'000);
  EXPECT_EQ(rt.router().state(1), NodeState::kDead);
  EXPECT_GT(rt.stats().probes_sent, 0u);
  EXPECT_GT(rt.stats().probe_misses, 0u);
}

TEST(FailureDetector, SuspectRecoversOnSuccessfulProbe) {
  Fabric fabric(CostModel::Default(), 2);
  RuntimeStats stats;
  ShardRouter router(fabric, 1, 2, false);
  FailureDetector det(fabric, router, stats, nullptr);

  det.OnOpTimeout(0, 1'000);
  EXPECT_EQ(router.state(0), NodeState::kSuspect);
  det.OnOpSuccess(0, 2'000);  // One good op clears the suspicion.
  EXPECT_EQ(router.state(0), NodeState::kLive);
}

TEST(RepairManager, RestoresReplicationOnSurvivor) {
  Fabric fabric(CostModel::Default(), 3);
  DilosRuntime rt(fabric, RecoveryConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(0);
  rt.DriveRecovery(2'000'000);  // Detect via probes.
  ASSERT_EQ(rt.router().state(0), NodeState::kDead);
  DriveUntilIdle(rt);
  ASSERT_TRUE(rt.RecoveryIdle());

  EXPECT_GT(rt.stats().repairs_issued, 0u);
  EXPECT_GT(rt.stats().repair_granules, 0u);
  EXPECT_GT(rt.stats().repair_pages, 0u);
  // Every granule ever written is back at full redundancy.
  for (uint64_t g : rt.router().written_granules()) {
    EXPECT_EQ(rt.router().LiveReplicaCount(g << kShardGranuleShift), 2) << g;
  }
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
}

TEST(RepairManager, SpareNodeIsAdoptedAndBecomesLive) {
  // Three nodes but one is a spare: placement uses only nodes 0 and 1.
  Fabric fabric(CostModel::Default(), 3);
  DilosRuntime rt(fabric, RecoveryConfig(2, /*spare_nodes=*/1),
                  std::make_unique<NullPrefetcher>());
  ASSERT_EQ(rt.router().active_nodes(), 2);
  ASSERT_TRUE(rt.router().is_spare(2));
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  // Spares take no hashed traffic; only the detector's 8-byte probe at
  // kFarBase may have materialized a page there.
  ASSERT_LE(fabric.node(2).store().page_count(), 1u);

  fabric.CrashNode(0);
  rt.DriveRecovery(2'000'000);
  ASSERT_EQ(rt.router().state(0), NodeState::kDead);
  DriveUntilIdle(rt);
  ASSERT_TRUE(rt.RecoveryIdle());

  // The spare was filled and promoted to a live replica.
  EXPECT_GT(fabric.node(2).store().page_count(), 0u);
  EXPECT_EQ(rt.router().state(2), NodeState::kLive);
  for (uint64_t g : rt.router().written_granules()) {
    EXPECT_EQ(rt.router().LiveReplicaCount(g << kShardGranuleShift), 2) << g;
  }
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
}

TEST(RepairManager, DoubleFailureAfterRepairLosesNothing) {
  // The acceptance scenario: replication=2 over 3 nodes. Node A crashes, is
  // detected (no FailNode), repair restores two live replicas everywhere;
  // then node B crashes, and a full sweep still reads every value back.
  Fabric fabric(CostModel::Default(), 3);
  DilosRuntime rt(fabric, RecoveryConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(0);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);  // Degraded but correct.
  ASSERT_EQ(rt.router().state(0), NodeState::kDead);
  DriveUntilIdle(rt);
  ASSERT_TRUE(rt.RecoveryIdle());
  for (uint64_t g : rt.router().written_granules()) {
    ASSERT_EQ(rt.router().LiveReplicaCount(g << kShardGranuleShift), 2) << g;
  }

  fabric.CrashNode(1);
  rt.DriveRecovery(2'000'000);
  ASSERT_EQ(rt.router().state(1), NodeState::kDead);
  // Only one node survives: everything must still verify from it.
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
  EXPECT_EQ(rt.stats().nodes_failed, 2u);
}

TEST(RepairManager, PickTargetBreaksTiesTowardLessLoadedNode) {
  // Four nodes, replication=2, telemetry metrics on: a single degraded
  // granule has two equally-eligible rebuild targets (neither a spare,
  // neither with rebuilds in flight), so PickTarget falls through to the
  // fabric load signal (bytes moved, then p99 RTT) from MetricsRegistry.
  Fabric fabric(CostModel::Default(), 4);
  DilosConfig cfg = RecoveryConfig(2);
  cfg.local_mem_bytes = 16 * kPageSize;  // Force write-back of the granule.
  cfg.telemetry.metrics = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  // Exactly one granule of far data: one repair, one PickTarget decision.
  uint64_t region = rt.AllocRegion(kPagesPerGranule * kPageSize);
  for (uint64_t p = 0; p < kPagesPerGranule; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  ASSERT_EQ(rt.router().written_granules().size(), 1u);

  std::vector<int> replicas;
  rt.router().ReplicaNodes(region, &replicas);
  ASSERT_EQ(replicas.size(), 2u);
  std::vector<int> candidates;
  for (int n = 0; n < 4; ++n) {
    if (n != replicas[0] && n != replicas[1]) {
      candidates.push_back(n);
    }
  }
  ASSERT_EQ(candidates.size(), 2u);
  // Make the first candidate look like the hot node: far more bytes moved
  // than any organic traffic (probes, the repair copy) will generate.
  ASSERT_NE(rt.metrics(), nullptr);
  for (int i = 0; i < 64; ++i) {
    rt.metrics()->OnOp(candidates[0], QpClass::kOther, /*is_write=*/false, 1 << 20, 200'000,
                       /*ok=*/true, /*timed_out=*/false);
  }

  fabric.CrashNode(replicas[0]);
  rt.DriveRecovery(2'000'000);
  ASSERT_EQ(rt.router().state(replicas[0]), NodeState::kDead);
  DriveUntilIdle(rt);
  ASSERT_TRUE(rt.RecoveryIdle());

  std::vector<int> after;
  rt.router().ReplicaNodes(region, &after);
  EXPECT_NE(std::find(after.begin(), after.end(), candidates[1]), after.end())
      << "rebuild must land on the less-loaded candidate";
  EXPECT_EQ(std::find(after.begin(), after.end(), candidates[0]), after.end())
      << "the hot node must lose the tiebreak";
}

TEST(RepairManager, WritesOffPageRottedOnLastHolderAndStillCommits) {
  // One granule of far data on two of three nodes. Page 0's stored bytes rot
  // on one replica (its checksum stays), then the other replica crashes: the
  // rotted copy is the last one. Repair stalls on the page until its budget
  // runs out, writes it off, and still restores redundancy for the rest.
  Fabric fabric(CostModel::Default(), 3);
  DilosConfig cfg = RecoveryConfig(2);
  cfg.local_mem_bytes = 16 * kPageSize;  // Force write-back of the granule.
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(kPagesPerGranule * kPageSize);
  for (uint64_t p = 0; p < kPagesPerGranule; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  ASSERT_EQ(rt.router().written_granules().size(), 1u);
  uint64_t granule = region >> kShardGranuleShift;
  std::vector<int> replicas;
  rt.router().ReplicaNodes(region, &replicas);
  ASSERT_EQ(replicas.size(), 2u);
  int survivor = replicas[0];
  int target = 3 - replicas[0] - replicas[1];

  ASSERT_EQ(PteTagOf(rt.page_table().Get(region)), PteTag::kRemote);
  PageStore& store = fabric.node(survivor).store();
  uint64_t page = region >> kPageShift;
  ASSERT_TRUE(store.Materialized(page) && store.HasChecksum(page));
  store.PageData(page)[100] ^= 0xFF;

  fabric.CrashNode(replicas[1]);
  rt.DriveRecovery(2'000'000);
  ASSERT_EQ(rt.router().state(replicas[1]), NodeState::kDead);
  DriveUntilIdle(rt);
  ASSERT_TRUE(rt.RecoveryIdle());

  EXPECT_EQ(rt.stats().repair_pages_lost, 1u);
  EXPECT_EQ(rt.stats().repair_granules, 1u);
  EXPECT_EQ(rt.router().RebuildTarget(granule), -1) << "the rebuild must commit";
  EXPECT_EQ(rt.router().LiveReplicaCount(region), 2);
  EXPECT_FALSE(fabric.node(target).store().Materialized(page)) << "the lost page is not copied";
  for (uint64_t p = 1; p < kPagesPerGranule; ++p) {
    EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p) << p;
  }
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(DegradedMode, WriteQpsSkipDeadAndIncludeRebuildTarget) {
  Fabric fabric(CostModel::Default(), 3);
  ShardRouter router(fabric, 1, 2, false);
  // Find a granule homed on node 0 (replicas {0, 1}).
  uint64_t va = kFarBase;
  while (router.NodeOf(va) != 0) {
    va += kShardGranuleBytes;
  }
  std::vector<QueuePair*> qps;
  std::vector<int> nodes;
  router.WriteQps(0, CommChannel::kManager, va, &qps, &nodes);
  ASSERT_EQ(nodes.size(), 2u);

  router.MarkDead(0);
  router.WriteQps(0, CommChannel::kManager, va, &qps, &nodes);
  ASSERT_EQ(nodes.size(), 1u) << "dead replica must drop out of the fan-out";
  EXPECT_EQ(nodes[0], 1);
  EXPECT_EQ(router.LiveReplicaCount(va), 1);

  // A rebuild onto node 2 receives writes immediately...
  router.BeginRebuild(ShardRouter::GranuleOf(va), {2, 1}, 2);
  router.WriteQps(0, CommChannel::kManager, va, &qps, &nodes);
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], 2);
  // ...but serves no reads until the copy commits.
  ShardRouter::ReadTarget t = router.PickRead(0, CommChannel::kFault, va);
  EXPECT_EQ(t.node, 1);
  EXPECT_TRUE(t.degraded);
  router.CommitRebuild(ShardRouter::GranuleOf(va));
  t = router.PickRead(0, CommChannel::kFault, va);
  EXPECT_EQ(t.node, 2);
  EXPECT_FALSE(t.degraded);
  EXPECT_EQ(router.LiveReplicaCount(va), 2);
}

TEST(Readmission, RestoredNodeIsRefilledBeforeServingReads) {
  // Two nodes, R = 2: when node 0 dies there is no repair target, so its
  // granules stay degraded. Fabric::RestoreNode brings it back with a stale
  // store (it missed every write-back while dead); a probe re-admits it as
  // kRebuilding and the repair manager refills it in place from node 1.
  Fabric fabric(CostModel::Default(), 2);
  DilosRuntime rt(fabric, RecoveryConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(0);
  rt.DriveRecovery(2'000'000);
  ASSERT_EQ(rt.router().state(0), NodeState::kDead);
  DriveUntilIdle(rt);  // No target exists; the queue drains empty.

  // Overwrite everything while node 0 is down: write-backs land only on
  // node 1, so node 0's copies are now genuinely stale.
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xF00D);
  }

  fabric.RestoreNode(0);
  rt.DriveRecovery(2'000'000);  // A probe answers; the node is re-admitted.
  EXPECT_GE(rt.stats().nodes_readmitted, 1u);
  DriveUntilIdle(rt);
  ASSERT_TRUE(rt.RecoveryIdle());
  EXPECT_EQ(rt.router().state(0), NodeState::kLive);
  EXPECT_GT(rt.stats().repair_granules, 0u);

  // The staleness check: crash the node that carried the updates. Every
  // value must now verify from the refilled node 0 alone.
  fabric.CrashNode(1);
  rt.DriveRecovery(2'000'000);
  uint64_t errors = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ 0xF00D)) {
      ++errors;
    }
  }
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(Readmission, OrphanCopiesMergeWhenFreshAndDropWhenStale) {
  // Readmission copy-merge: a node comes back after its granules were
  // remapped *off* it. Its orphaned copies are either current (no write-back
  // since it died) — merged back into the replica set without moving a page —
  // or generation-stale — dropped, never laundered into a readable replica.
  Fabric fabric(CostModel::Default(), 3);
  DilosConfig cfg = RecoveryConfig(2);
  cfg.telemetry.check_invariants = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  // Cycle the cache so every dirty page has been written back: node 1's
  // copies are complete when it dies.
  ASSERT_EQ(VerifySweep(rt, region, pages), 0u);

  // Record a granule node 1 holds whose pages we will dirty while it is down
  // (its orphan must come back stale) — the others stay untouched (fresh).
  std::vector<int> replicas;
  uint64_t stale_granule = UINT64_MAX;
  int on_node1 = 0;
  for (uint64_t granule : rt.router().written_granules()) {
    rt.router().ReplicaNodes(granule << kShardGranuleShift, &replicas);
    if (std::find(replicas.begin(), replicas.end(), 1) != replicas.end()) {
      ++on_node1;
      if (stale_granule == UINT64_MAX) {
        stale_granule = granule;
      }
    }
  }
  ASSERT_GE(on_node1, 2) << "need a granule to dirty and one to leave fresh";

  fabric.CrashNode(1);
  rt.DriveRecovery(2'000'000);
  ASSERT_EQ(rt.router().state(1), NodeState::kDead);
  DriveUntilIdle(rt, 200);  // Every granule remapped onto the two survivors.
  ASSERT_TRUE(rt.RecoveryIdle());

  // Dirty the chosen granule and force the write-backs out: its generations
  // advance on the survivors, so node 1's orphan copy is now provably stale.
  uint64_t stale_base = stale_granule << kShardGranuleShift;
  for (uint32_t p = 0; p < kPagesPerGranule; ++p) {
    rt.Write<uint64_t>(stale_base + p * kPageSize,
                       ((stale_base - region) / kPageSize + p) ^ 0xD15C0);
  }
  ASSERT_EQ(VerifySweep(rt, region, pages), 0u);

  // Kill one survivor so the readmitted node's fresh orphans actually matter:
  // redundancy is short a replica exactly where the merge can restore it.
  fabric.CrashNode(2);
  rt.DriveRecovery(2'000'000);
  ASSERT_EQ(rt.router().state(2), NodeState::kDead);
  DriveUntilIdle(rt, 200);

  fabric.RestoreNode(1);
  rt.DriveRecovery(2'000'000);  // Probe answers; readmission reconciles.
  EXPECT_GT(rt.stats().readmit_copies_merged, 0u)
      << "untouched orphans are current and must merge back";
  EXPECT_GT(rt.stats().readmit_orphans_dropped, 0u)
      << "the dirtied granule's orphan must be dropped, not trusted";
  DriveUntilIdle(rt, 200);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);

  // The merged copies must be real: bring node 2 back, let refills settle,
  // then crash node 0 and read everything through the merged/refilled nodes.
  fabric.RestoreNode(2);
  rt.DriveRecovery(2'000'000);
  DriveUntilIdle(rt, 200);
  ASSERT_TRUE(rt.RecoveryIdle());
  fabric.CrashNode(0);
  rt.DriveRecovery(2'000'000);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(Readmission, FirstWriteDuringRefillMakesGranuleReadable) {
  // A granule written for the very first time while a replica is
  // mid-readmission: the write itself is the granule's only content, so the
  // rebuilding replica is immediately readable for it (WriteQps records a
  // committed remap) instead of waiting for the node-wide refill.
  Fabric fabric(CostModel::Default(), 2);
  ShardRouter router(fabric, 1, 2, false);
  router.MarkRebuilding(0);
  uint64_t va = kFarBase;
  while (router.NodeOf(va) != 0) {
    va += kShardGranuleBytes;
  }
  ASSERT_FALSE(router.Readable(0, ShardRouter::GranuleOf(va)));
  std::vector<QueuePair*> qps;
  std::vector<int> nodes;
  router.WriteQps(0, CommChannel::kManager, va, &qps, &nodes);
  ASSERT_EQ(nodes.size(), 2u) << "rebuilding replica receives the write";
  EXPECT_TRUE(router.Readable(0, ShardRouter::GranuleOf(va)));
}

TEST(DegradedMode, RebuildingNodeReadableOnlyForCommittedGranules) {
  Fabric fabric(CostModel::Default(), 3);
  ShardRouter router(fabric, 1, 2, false, /*spare_nodes=*/1);
  router.MarkRebuilding(2);
  uint64_t committed = 7, pending = 9;
  router.BeginRebuild(committed, {2, 1}, 2);
  router.CommitRebuild(committed);
  router.BeginRebuild(pending, {2, 1}, 2);
  EXPECT_TRUE(router.Readable(2, committed));
  EXPECT_FALSE(router.Readable(2, pending));
  EXPECT_FALSE(router.Readable(2, 12345));  // Never rebuilt here at all.
}

}  // namespace
}  // namespace dilos
