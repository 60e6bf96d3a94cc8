// Repair manager: restores replication after a memory-node failure.
//
// When the failure detector declares a node dead, every granule whose
// replica set contained it is left at reduced redundancy — a second failure
// would lose data. The repair manager scans the router's written-granule
// set, picks a replacement node for each degraded granule (a spare if the
// fabric has one, otherwise the least-loaded surviving node outside the
// replica set), and copies the granule's materialized pages from a
// surviving replica with the page-copy engine it shares with migration
// (granule_copy.h).
//
// Repair runs from the same simulated-clock background hooks as the
// cleaner/reclaimer: its CPU time is free (spare cores) but its RDMA
// traffic occupies the shared links, so it *does* contend with demand
// fetches — which is why `bytes_per_tick` throttles it. Write-backs racing
// a rebuild are routed to the target too (ShardRouter::WriteQps includes
// uncommitted targets), so no window loses updates; reads are only allowed
// once CommitRebuild publishes the copy.
#ifndef DILOS_SRC_RECOVERY_REPAIR_MANAGER_H_
#define DILOS_SRC_RECOVERY_REPAIR_MANAGER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/dilos/shard.h"
#include "src/memnode/fabric.h"
#include "src/recovery/failure_detector.h"
#include "src/recovery/granule_copy.h"
#include "src/recovery/migration.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/telemetry/metrics.h"

namespace dilos {

struct RepairConfig {
  // Repair-bandwidth throttle: payload bytes (source read + target write)
  // moved per tick. Raising it shortens rebuild time but steals link time
  // from demand fetches (measured by bench_ext_recovery).
  uint64_t bytes_per_tick = 512 * 1024;
  // Repair copies kept in flight at once: a window of source reads is posted
  // at the same issue time (their fabric latencies overlap) and each target
  // write overlaps the remaining reads. 1 = fully serial copy loop;
  // bench_ext_recovery measures the rebuild-throughput gain.
  size_t pipeline_depth = 8;
};

// Aggregate knob block consumed by DilosConfig.
struct RecoveryOptions {
  bool enabled = false;
  // Trailing fabric nodes held out of hash placement as repair targets.
  int spare_nodes = 0;
  RepairConfig repair;
  MigrationConfig migration;
  // Demand-fetch retry budget: a per-core token bucket caps how many
  // timeout retries the fault path may burn, so a long partition degrades
  // to failover (the detector has already collected its strikes) instead of
  // a retry storm. Generous by default — healthy runs never hit it; a
  // suppressed retry counts `fault_retries_suppressed`.
  uint32_t retry_burst = 64;          // Bucket depth per core.
  uint64_t retry_refill_ns = 5'000;   // One token back per this much sim time.
};

class RepairManager {
 public:
  RepairManager(Fabric& fabric, ShardRouter& router, FailureDetector& detector,
                RuntimeStats& stats, Tracer* tracer, RepairConfig cfg = {});

  // Clock hook: picks up newly declared-dead nodes and drains up to
  // `bytes_per_tick` of queued page copies.
  void Tick(uint64_t now_ns);

  // Detector callback: a dead node answered a probe and was re-admitted as
  // kRebuilding with a stale store (it missed every write-back while dead).
  // Queues an *in-place* rebuild job — target is the node itself, replica
  // sets unchanged — for every written granule it still holds, so the node
  // serves no reads until each granule's refill commits.
  void OnNodeReadmitted(int node, uint64_t now_ns);

  // Optional per-node load signal (installed by the runtime when telemetry
  // metrics are on): PickTarget breaks in-flight-rebuild-count ties toward
  // the node with the least observed traffic (bytes, then RTT tail), per the
  // ROADMAP load-aware-rebalancing item. Null keeps the old behavior.
  void set_metrics(const MetricsRegistry* metrics) { metrics_ = metrics; }

  bool idle() const { return jobs_.empty() && deferred_.empty(); }
  size_t pending_granules() const { return jobs_.size(); }
  // Completion frontier of the serialized repair copy stream: issue-time of
  // the next copy, i.e. when the work drained so far is done in simulated
  // time. (span = cursor at idle − time repair began) measures rebuild
  // throughput independent of how often ticks fire.
  uint64_t stream_cursor_ns() const { return copier_.cursor_ns(); }

 private:
  using Job = GranuleFill;

  void ScanForFailures(uint64_t now_ns);
  // Granules whose dead replica was dropped while another fill (repair or
  // migration) was mid-flight toward a live target: re-checked once the fill
  // settles, and re-replicated if they came out under-replicated.
  void ProcessDeferred(uint64_t now_ns);
  // Whether a queued job still drives this granule's rebuild.
  bool HasJob(uint64_t granule) const {
    for (const Job& j : jobs_) {
      if (j.granule == granule) {
        return true;
      }
    }
    return false;
  }
  // Replacement node for a degraded replica set, or -1 if none exists.
  int PickTarget(const std::vector<int>& replicas);
  // Copies the next pages of the front job; returns bytes moved.
  uint64_t DrainFront(uint64_t now_ns, uint64_t budget);

  Fabric& fabric_;
  ShardRouter& router_;
  FailureDetector& detector_;
  RuntimeStats& stats_;
  Tracer* tracer_;
  RepairConfig cfg_;
  const MetricsRegistry* metrics_ = nullptr;

  GranuleCopier copier_;
  std::deque<Job> jobs_;
  std::vector<char> dead_handled_;    // Dead nodes already scanned.
  std::vector<uint32_t> target_refs_;  // Granule rebuilds in flight per target.
  std::vector<int> replica_scratch_;
  std::vector<int> ec_scratch_;  // Stripe member nodes (EC target exclusion).
  std::vector<uint64_t> deferred_;  // Granules awaiting a post-fill re-plan.
  uint64_t last_tick_ns_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_RECOVERY_REPAIR_MANAGER_H_
