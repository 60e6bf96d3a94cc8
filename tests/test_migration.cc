// Tests for live granule migration and graceful node drain
// (src/recovery/migration.*): the copy/catch-up/forward state machine, the
// post-cutover forwarding window, DrainNode decommissioning under live load,
// phase-by-phase crash injection at every state-machine boundary, coordinator
// crash + restart re-derivation, and a multi-seed drain-under-chaos soak.
//
// Failures print the seed; `DILOS_CHAOS_SEED_BASE=<seed>` replays the exact
// fault schedule (same contract as test_chaos.cc).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/memnode/fault_injector.h"
#include "src/recovery/migration.h"

namespace dilos {
namespace {

constexpr uint64_t kMs = 1'000'000;

DilosConfig MigrationTestConfig(int replication) {
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.replication = replication;
  cfg.recovery.enabled = true;
  // Every test doubles as an accounting audit: the destructor asserts the
  // migration counters balance (started == committed + rolled back +
  // inflight, reships <= pages, failbacks <= committed).
  cfg.telemetry.check_invariants = true;
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

void DriveMs(DilosRuntime& rt, uint64_t ms) {
  for (uint64_t i = 0; i < ms; ++i) {
    rt.DriveRecovery(1'000'000);
  }
}

// First written granule holding a replica on `node` (-1: any written granule).
uint64_t PickGranuleOn(DilosRuntime& rt, int node, std::vector<int>* replicas) {
  for (uint64_t granule : rt.router().written_granules()) {
    rt.router().ReplicaNodes(granule << kShardGranuleShift, replicas);
    if (node < 0 ||
        std::find(replicas->begin(), replicas->end(), node) != replicas->end()) {
      return granule;
    }
  }
  ADD_FAILURE() << "no written granule on node " << node;
  return 0;
}

bool NodeHoldsGranulePages(Fabric& fabric, int node, uint64_t granule) {
  const PageStore& store = fabric.node(node).store();
  uint64_t base = granule << kShardGranuleShift;
  for (uint32_t p = 0; p < kPagesPerGranule; ++p) {
    if (store.Materialized((base + static_cast<uint64_t>(p) * kPageSize) >> kPageShift)) {
      return true;
    }
  }
  return false;
}

// Arms a one-shot crash of the migrating granule's source or target at the
// given phase boundary — the crash-injection hook the state machine exposes.
void ArmPhaseCrash(DilosRuntime& rt, Fabric& fabric, MigrationManager::Phase when,
                   bool crash_target) {
  auto fired = std::make_shared<bool>(false);
  rt.migration()->set_phase_observer(
      [&rt, &fabric, when, crash_target, fired](uint64_t granule,
                                                MigrationManager::Phase phase, uint64_t) {
        if (*fired || phase != when) {
          return;
        }
        int node;
        if (phase == MigrationManager::Phase::kForward) {
          // Post-commit the migration intent is cleared; the forwarding
          // window is the only record of who the endpoints were.
          const ShardRouter::ForwardEntry* fw = rt.router().Forwarding(granule);
          if (fw == nullptr) {
            return;
          }
          node = crash_target ? fw->to : fw->from;
        } else {
          node = crash_target ? rt.router().MigratingTarget(granule)
                              : rt.router().MigratingSource(granule);
        }
        if (node < 0) {
          return;
        }
        *fired = true;
        fabric.CrashNode(node);
      });
}

// -- Single-granule migration -------------------------------------------------

TEST(Migration, MigrateGranuleMovesDataAndReclaimsSource) {
  Fabric fabric(CostModel::Default(), 3);
  DilosRuntime rt(fabric, MigrationTestConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  std::vector<int> replicas;
  uint64_t granule = PickGranuleOn(rt, /*node=*/-1, &replicas);
  int source = replicas[0];
  ASSERT_TRUE(rt.migration()->MigrateGranule(granule, source, rt.clock(0).now()));
  int target = rt.router().MigratingTarget(granule);
  ASSERT_GE(target, 0);
  EXPECT_EQ(rt.stats().migrations_started, 1u);
  EXPECT_EQ(rt.stats().migrations_inflight, 1u);

  DriveUntilIdle(rt);
  ASSERT_TRUE(rt.RecoveryIdle());
  EXPECT_EQ(rt.stats().migrations_committed, 1u);
  EXPECT_EQ(rt.stats().migrations_inflight, 0u);
  EXPECT_GT(rt.stats().migration_pages, 0u);

  // The replica set swapped source for target, and the source's stored pages
  // were dropped when the forwarding window expired — the reclaimed capacity.
  rt.router().ReplicaNodes(granule << kShardGranuleShift, &replicas);
  EXPECT_EQ(std::count(replicas.begin(), replicas.end(), source), 0);
  EXPECT_EQ(std::count(replicas.begin(), replicas.end(), target), 1);
  EXPECT_FALSE(NodeHoldsGranulePages(fabric, source, granule));

  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(Migration, RefusesIllegalRequests) {
  Fabric fabric(CostModel::Default(), 3);
  DilosRuntime rt(fabric, MigrationTestConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  std::vector<int> replicas;
  uint64_t granule = PickGranuleOn(rt, /*node=*/-1, &replicas);
  uint64_t now = rt.clock(0).now();
  // A granule never written has no remote data to move.
  EXPECT_FALSE(rt.migration()->MigrateGranule(granule + 1000, replicas[0], now));
  // The named source must actually hold a replica.
  int stranger = 0;
  while (std::find(replicas.begin(), replicas.end(), stranger) != replicas.end()) {
    ++stranger;
  }
  EXPECT_FALSE(rt.migration()->MigrateGranule(granule, stranger, now));
  // An explicit target already in the replica set is not a move.
  EXPECT_FALSE(rt.migration()->MigrateGranule(granule, replicas[0], now, replicas[1]));
  // Double-queuing the same granule is refused while the first is in flight.
  ASSERT_TRUE(rt.migration()->MigrateGranule(granule, replicas[0], now));
  EXPECT_FALSE(rt.migration()->MigrateGranule(granule, replicas[0], now));
  DriveUntilIdle(rt);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
}

TEST(Migration, RacingReadsAreForwardedThroughTheWindow) {
  Fabric fabric(CostModel::Default(), 3);
  DilosConfig cfg = MigrationTestConfig(1);
  // Hold the window open long enough for a full sweep to race the cutover.
  cfg.recovery.migration.forward_window_ns = 20 * kMs;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  std::vector<int> replicas;
  uint64_t granule = PickGranuleOn(rt, /*node=*/-1, &replicas);
  int source = replicas[0];
  ASSERT_TRUE(rt.migration()->MigrateGranule(granule, source, rt.clock(0).now()));
  for (int i = 0; i < 200 && rt.stats().migrations_committed == 0; ++i) {
    rt.DriveRecovery(100'000);
  }
  ASSERT_EQ(rt.stats().migrations_committed, 1u);
  ASSERT_NE(rt.router().Forwarding(granule), nullptr) << "window should still be open";

  // With replication 1 the stale routing decision is the *only* copy a racing
  // read can pick: every remote read of the migrated granule inside the
  // window must be redirected, not failed.
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_GT(rt.stats().migration_forwards, 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);

  DriveMs(rt, 25);
  DriveUntilIdle(rt);
  ASSERT_TRUE(rt.RecoveryIdle());
  EXPECT_FALSE(NodeHoldsGranulePages(fabric, source, granule));
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
}

// One granule of far data, replication 2 over 3 nodes: local memory holds 16
// pages, so page 0 (the region base) is written back to both replicas.
DilosConfig OneGranuleConfig() {
  DilosConfig cfg = MigrationTestConfig(2);
  cfg.local_mem_bytes = 16 * kPageSize;
  return cfg;
}

TEST(Migration, RollsBackWhenEveryHolderOfAPageIsRotten) {
  // Page 0's stored bytes rot on both replicas (their checksums stay). The
  // copy stalls on the page until its budget runs out; unlike repair, the
  // migration then rolls back instead of cutting over to a target with a
  // hole, since the source replicas still hold the granule.
  Fabric fabric(CostModel::Default(), 3);
  DilosRuntime rt(fabric, OneGranuleConfig(), std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(kPagesPerGranule * kPageSize);
  Populate(rt, region, kPagesPerGranule);
  ASSERT_EQ(rt.router().written_granules().size(), 1u);
  uint64_t granule = region >> kShardGranuleShift;
  std::vector<int> replicas;
  rt.router().ReplicaNodes(region, &replicas);
  ASSERT_EQ(replicas.size(), 2u);
  uint64_t page = region >> kPageShift;
  for (int n : replicas) {
    PageStore& store = fabric.node(n).store();
    ASSERT_TRUE(store.Materialized(page) && store.HasChecksum(page));
    store.PageData(page)[100] ^= 0xFF;
  }

  ASSERT_TRUE(rt.migration()->MigrateGranule(granule, replicas[0], rt.clock(0).now()));
  DriveUntilIdle(rt);
  ASSERT_TRUE(rt.RecoveryIdle());
  EXPECT_EQ(rt.stats().migrations_rolled_back, 1u);
  EXPECT_EQ(rt.stats().migrations_committed, 0u);
  EXPECT_EQ(rt.router().MigratingTarget(granule), -1);
  std::vector<int> after;
  rt.router().ReplicaNodes(region, &after);
  std::sort(replicas.begin(), replicas.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(after, replicas) << "rollback keeps the original replica set";
}

TEST(Migration, CatchUpReshipsPageWhoseWriteBackMissedTheTarget) {
  // At the catch-up boundary page 0 moves one write generation ahead in the
  // router and on both source replicas, but not on the target: a racing
  // write-back that reached the sources and missed the target. The catch-up
  // pass must re-ship the page before the cutover commits.
  Fabric fabric(CostModel::Default(), 3);
  DilosRuntime rt(fabric, OneGranuleConfig(), std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(kPagesPerGranule * kPageSize);
  Populate(rt, region, kPagesPerGranule);
  ASSERT_EQ(rt.router().written_granules().size(), 1u);
  ASSERT_NE(rt.router().PageGeneration(region), 0u);
  uint64_t granule = region >> kShardGranuleShift;
  std::vector<int> sources;
  rt.router().ReplicaNodes(region, &sources);

  auto bumped = std::make_shared<bool>(false);
  rt.migration()->set_phase_observer(
      [&rt, &fabric, region, sources, bumped](uint64_t, MigrationManager::Phase phase,
                                              uint64_t) {
        if (*bumped || phase != MigrationManager::Phase::kCatchUp) {
          return;
        }
        *bumped = true;
        uint32_t gen = rt.router().PageGeneration(region) + 1;
        rt.router().SetPageGeneration(region, gen);
        for (int n : sources) {
          fabric.node(n).store().SetGeneration(region >> kPageShift, gen);
        }
      });
  ASSERT_TRUE(rt.migration()->MigrateGranule(granule, sources[0], rt.clock(0).now()));
  DriveUntilIdle(rt);
  ASSERT_TRUE(rt.RecoveryIdle());
  ASSERT_TRUE(*bumped);
  EXPECT_GE(rt.stats().migration_reships, 1u);
  EXPECT_EQ(rt.stats().migrations_committed, 1u);
  EXPECT_EQ(rt.stats().migrations_rolled_back, 0u);
  EXPECT_EQ(VerifySweep(rt, region, kPagesPerGranule), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

// -- Graceful drain -----------------------------------------------------------

TEST(MigrationDrain, DrainNodeEmptiesAndRetiresUnderLiveLoad) {
  Fabric fabric(CostModel::Default(), 4);
  DilosRuntime rt(fabric, MigrationTestConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  ASSERT_TRUE(rt.DrainNode(1, rt.clock(0).now()));
  EXPECT_EQ(rt.router().state(1), NodeState::kDraining);
  // Re-draining an in-progress node is idempotent; dead/retired nodes refuse.
  EXPECT_TRUE(rt.DrainNode(1, rt.clock(0).now()));

  // Mixed read/write load runs against the draining node the whole time: a
  // drain is a planned change, not an outage.
  uint64_t rng = 0x5EED;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  uint64_t wrong_reads = 0;
  for (int round = 0; round < 400 && !(rt.RecoveryIdle() &&
                                       rt.router().state(1) == NodeState::kRetired);
       ++round) {
    for (int op = 0; op < 32; ++op) {
      uint64_t p = next() % pages;
      if (next() % 4 == 0) {
        rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xD15C0);
      } else if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ 0xD15C0)) {
        ++wrong_reads;
      }
    }
    rt.DriveRecovery(1'000'000);
  }
  DriveUntilIdle(rt, 200);

  EXPECT_EQ(rt.router().state(1), NodeState::kRetired);
  EXPECT_EQ(rt.stats().nodes_drained, 1u);
  EXPECT_EQ(wrong_reads, 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u) << "drain must never fail a read";
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_GT(rt.stats().migrations_committed, 0u);

  // The node is actually empty: every granule moved, every stored page freed.
  EXPECT_EQ(fabric.node(1).store().page_count(), 0u);
  std::vector<int> replicas;
  for (uint64_t granule : rt.router().written_granules()) {
    rt.router().ReplicaNodes(granule << kShardGranuleShift, &replicas);
    EXPECT_EQ(std::count(replicas.begin(), replicas.end(), 1), 0)
        << "granule " << granule << " still routed to the retired node";
  }
}

TEST(MigrationDrain, RetiredNodeIsNeverReadmittedOrRepopulated) {
  Fabric fabric(CostModel::Default(), 4);
  DilosRuntime rt(fabric, MigrationTestConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  ASSERT_TRUE(rt.DrainNode(2, rt.clock(0).now()));
  DriveUntilIdle(rt, 200);
  ASSERT_EQ(rt.router().state(2), NodeState::kRetired);

  // Unlike a crashed node, a retired one answers probes — and must still
  // never be readmitted: retirement is terminal.
  DriveMs(rt, 30);
  EXPECT_EQ(rt.router().state(2), NodeState::kRetired);
  EXPECT_EQ(rt.stats().nodes_readmitted, 0u);

  // First-writes after retirement place their replicas elsewhere at full
  // strength; nothing ever lands on the retired node again.
  uint64_t region2 = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region2, pages);
  EXPECT_EQ(VerifySweep(rt, region2, pages), 0u);
  DriveMs(rt, 5);
  EXPECT_EQ(fabric.node(2).store().page_count(), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

// -- Crash injection at every phase boundary ----------------------------------

TEST(MigrationCrash, SourceDeathDuringCopyStillCommitsFromSurvivors) {
  Fabric fabric(CostModel::Default(), 4);
  DilosRuntime rt(fabric, MigrationTestConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  std::vector<int> replicas;
  uint64_t granule = PickGranuleOn(rt, /*node=*/-1, &replicas);
  ArmPhaseCrash(rt, fabric, MigrationManager::Phase::kCopy, /*crash_target=*/false);
  ASSERT_TRUE(rt.migration()->MigrateGranule(granule, replicas[0], rt.clock(0).now()));

  // The fill survives its source's death: the copy continues from the other
  // replica, and the cutover commits without a forwarding window (a dead
  // source has no racing readers to redirect).
  DriveMs(rt, 5);
  DriveUntilIdle(rt, 300);
  EXPECT_GE(rt.stats().migrations_committed, 1u);
  EXPECT_EQ(rt.stats().migrations_inflight, 0u);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(MigrationCrash, TargetDeathDuringCopyRollsBackLosslessly) {
  Fabric fabric(CostModel::Default(), 3);
  DilosRuntime rt(fabric, MigrationTestConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  std::vector<int> replicas;
  uint64_t granule = PickGranuleOn(rt, /*node=*/-1, &replicas);
  ArmPhaseCrash(rt, fabric, MigrationManager::Phase::kCopy, /*crash_target=*/true);
  ASSERT_TRUE(rt.migration()->MigrateGranule(granule, replicas[0], rt.clock(0).now()));

  DriveMs(rt, 5);
  DriveUntilIdle(rt, 300);
  EXPECT_GE(rt.stats().migrations_rolled_back, 1u);
  EXPECT_EQ(rt.stats().migrations_inflight, 0u);
  // Rollback restored the original mapping — the source still serves.
  rt.router().ReplicaNodes(granule << kShardGranuleShift, &replicas);
  EXPECT_GE(replicas.size(), 1u);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
}

TEST(MigrationCrash, TargetDeathDuringCatchUpRollsBackLosslessly) {
  Fabric fabric(CostModel::Default(), 3);
  DilosRuntime rt(fabric, MigrationTestConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  std::vector<int> replicas;
  uint64_t granule = PickGranuleOn(rt, /*node=*/-1, &replicas);
  ArmPhaseCrash(rt, fabric, MigrationManager::Phase::kCatchUp, /*crash_target=*/true);
  ASSERT_TRUE(rt.migration()->MigrateGranule(granule, replicas[0], rt.clock(0).now()));

  DriveMs(rt, 5);
  DriveUntilIdle(rt, 300);
  EXPECT_GE(rt.stats().migrations_rolled_back, 1u);
  EXPECT_EQ(rt.stats().migrations_inflight, 0u);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
}

TEST(MigrationCrash, TargetDeathInsideWindowFailsBackWithoutLoss) {
  // Replication 2: the crashed target also strands unrelated granules it
  // homed, and those must survive via their second replica — a single-copy
  // config would turn this injection into by-design data loss elsewhere.
  Fabric fabric(CostModel::Default(), 4);
  DilosConfig cfg = MigrationTestConfig(2);
  // The window must outlive failure detection for the failback to race it.
  cfg.recovery.migration.forward_window_ns = 30 * kMs;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  std::vector<int> replicas;
  uint64_t granule = PickGranuleOn(rt, /*node=*/-1, &replicas);
  int source = replicas[0];
  ArmPhaseCrash(rt, fabric, MigrationManager::Phase::kForward, /*crash_target=*/true);
  ASSERT_TRUE(rt.migration()->MigrateGranule(granule, source, rt.clock(0).now()));

  DriveMs(rt, 10);
  DriveUntilIdle(rt, 300);

  EXPECT_GE(rt.stats().migration_failbacks, 1u);
  // The cutover was undone: the source — which kept receiving writes for the
  // whole window — serves again, and no acked write was lost.
  rt.router().ReplicaNodes(granule << kShardGranuleShift, &replicas);
  EXPECT_EQ(std::count(replicas.begin(), replicas.end(), source), 1);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

TEST(MigrationCrash, CoordinatorRestartMidDrainRederivesAndConverges) {
  Fabric fabric(CostModel::Default(), 4);
  DilosRuntime rt(fabric, MigrationTestConfig(2), std::make_unique<NullPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  ASSERT_TRUE(rt.DrainNode(1, rt.clock(0).now()));
  // Let the drain get partway: some cutovers committed, some copies half-done.
  for (int i = 0; i < 300 && rt.stats().migrations_committed == 0; ++i) {
    rt.DriveRecovery(100'000);
  }
  ASSERT_GT(rt.stats().migrations_committed, 0u);
  ASSERT_FALSE(rt.RecoveryIdle());

  // Coordinator crash: all in-memory jobs vanish. Restart re-derives the
  // draining set, half-done copies, and open windows from the router alone.
  rt.migration()->Restart(rt.clock(0).now());

  DriveUntilIdle(rt, 400);
  EXPECT_EQ(rt.router().state(1), NodeState::kRetired);
  EXPECT_EQ(rt.stats().nodes_drained, 1u);
  EXPECT_EQ(rt.stats().migrations_inflight, 0u);
  EXPECT_EQ(fabric.node(1).store().page_count(), 0u);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

// -- Multi-seed drain-under-chaos soak ----------------------------------------

uint64_t SeedBase() {
  const char* env = std::getenv("DILOS_CHAOS_SEED_BASE");
  if (env != nullptr && env[0] != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

// One soak run: drain node 1 while node 2 rides a crash window, node 3 is
// transiently flaky, wire bit flips hit everyone, and a mixed read/write load
// runs across the whole timeline. The drained node stays alive throughout, so
// the concurrent crash stays inside the replication=2 redundancy budget.
// Asserts the drain completes, no read ever returned wrong bytes, and no
// fetch was abandoned; the runtime destructor audits the migration counters.
void DrainSoak(uint64_t seed) {
  Fabric fabric(CostModel::Default(), 4);
  FaultPlan plan;
  plan.specs.push_back({2, FaultKind::kCrash, 1.0, 1.0, 3 * kMs, 9 * kMs});
  plan.specs.push_back({3, FaultKind::kTransient, 0.02, 1.0, 5 * kMs, 12 * kMs});
  plan.specs.push_back({-1, FaultKind::kBitFlip, 0.01, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);

  DilosConfig cfg = MigrationTestConfig(2);
  cfg.fault_seed = seed;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  ASSERT_TRUE(rt.DrainNode(1, rt.clock(0).now()));

  uint64_t rng = seed * 0x9E3779B97F4A7C15ULL + 1;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  uint64_t wrong_reads = 0;
  uint64_t ops = 0;
  while (rt.clock(0).now() < 16 * kMs && ops < 400'000) {
    uint64_t p = next() % pages;
    if (next() % 4 == 0) {
      rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xD15C0);
    } else if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ 0xD15C0)) {
      ++wrong_reads;
    }
    ++ops;
  }
  // Settle: fault windows over, the crashed node readmitted, drain finished.
  DriveMs(rt, 10);
  for (int i = 0; i < 600 && !(rt.RecoveryIdle() &&
                               rt.router().state(1) == NodeState::kRetired);
       ++i) {
    rt.DriveRecovery(1'000'000);
  }

  EXPECT_EQ(rt.router().state(1), NodeState::kRetired) << "fault_seed=" << seed;
  EXPECT_EQ(rt.stats().nodes_drained, 1u) << "fault_seed=" << seed;
  EXPECT_EQ(wrong_reads, 0u) << "fault_seed=" << seed;
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u) << "fault_seed=" << seed;
  EXPECT_EQ(rt.stats().failed_fetches, 0u) << "fault_seed=" << seed;
  EXPECT_EQ(fabric.node(1).store().page_count(), 0u) << "fault_seed=" << seed;
}

TEST(MigrationChaos, DrainSurvives32SeedsOfMixedFaults) {
  uint64_t base = SeedBase();
  for (uint64_t s = base; s < base + 32; ++s) {
    DrainSoak(s);
    if (::testing::Test::HasFailure()) {
      break;  // First failing seed is the repro; don't bury it.
    }
  }
}

}  // namespace
}  // namespace dilos
