// Live granule migration and graceful memory-node drain.
//
// Moves granules between memory nodes while demand faults, the cleaner, EC
// parity updates, and prefetch keep running — the planned-change counterpart
// to the repair manager's crash response. Each migration is a per-granule
// state machine:
//
//   copy      The target joins the replica set as an uncommitted rebuild
//             target (ShardRouter::BeginMigration): every write-back racing
//             the copy fans out to it too, but it serves no reads. The copy
//             runs on the same GranuleCopier as repair (granule_copy.h),
//             skipping pages already fresh on the target; a page whose stall
//             budget runs out rolls the migration back instead of being
//             written off, since the source copy still exists.
//   catch-up  The "freeze" a real cluster would need is zero-length here:
//             concurrent writes already land on the target, so freezing
//             reduces to *verifying* the target caught up. Pages whose
//             stored write-generation lags the router's expected generation
//             (their racing write-back was dropped by a fault) are
//             re-shipped from a fresh source; passes repeat until a pass
//             re-ships nothing, bounded by kMaxCatchupPasses.
//   remap     After a clean catch-up pass a commit handshake (one live round
//             trip to the target) guards the cutover: a target that crashed
//             after its last copied byte still has caught-up-looking store
//             metadata, and publishing it would hand reads to a corpse.
//             CommitMigration then publishes the target for reads and opens a
//             forwarding window: reads that raced the remap and still
//             selected the source are redirected to the target instead of
//             failed. The source stays in the replica set — and keeps
//             receiving writes — for the whole window, so a target crash
//             right after commit fails back to the source losslessly.
//   forward   At window expiry the source leaves the replica set and its
//             stored pages are dropped (the capacity the drain reclaims).
//
// Crash safety: migration intent lives in the router's remap table
// (GranuleRemap::migrate_source + rebuilding), not in this object — a
// coordinator that crashes with half-committed state calls Restart(), which
// re-derives every in-flight migration from the router and re-runs the
// idempotent copy. Source death mid-copy degrades to a plain rebuild from
// the surviving replicas; target death pre-commit rolls back; target death
// inside the window fails back to the still-fresh source.
//
// DrainNode() composes this into decommissioning: mark the node kDraining
// (it keeps serving, but is never a placement target), migrate every written
// granule it holds, then retire it (kRetired: never routed, probed, or
// readmitted again).
#ifndef DILOS_SRC_RECOVERY_MIGRATION_H_
#define DILOS_SRC_RECOVERY_MIGRATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "src/dilos/shard.h"
#include "src/memnode/fabric.h"
#include "src/recovery/failure_detector.h"
#include "src/recovery/granule_copy.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/telemetry/metrics.h"

namespace dilos {

struct MigrationConfig {
  // How long the post-cutover forwarding window stays open (simulated ns):
  // an upper bound on how stale a racing read's routing decision can be.
  uint64_t forward_window_ns = 200'000;
};

class MigrationManager {
 public:
  enum class Phase : uint8_t {
    kCopy = 0,  // Bulk copy onto the uncommitted target.
    kCatchUp,   // Generation-verify + re-ship pages the copy window missed.
    kForward,   // Committed; forwarding window open until expiry.
  };

  MigrationManager(Fabric& fabric, ShardRouter& router, FailureDetector& detector,
                   RuntimeStats& stats, Tracer* tracer, MigrationConfig cfg = {});

  // Queues one granule's migration off `source`. `target` < 0 lets the
  // manager pick (spares first, then fewest in-flight fills, then least
  // observed load — EC-aware: bounded stripe co-location only). Returns
  // false when the granule has no remote data, a fill is already in flight,
  // a forwarding window is still open, `source` holds no replica, or no
  // legal target exists.
  bool MigrateGranule(uint64_t granule, int source, uint64_t now_ns, int target = -1);

  // Graceful decommission: marks `node` draining (it keeps serving but
  // receives no new placements), then migrates every written granule it
  // holds and retires it once nothing — replica sets, fills, forwarding
  // windows — references it. Returns false for nodes already dead/retired.
  bool DrainNode(int node, uint64_t now_ns);

  // Clock hook: scans draining nodes for granules still to move, drains up
  // to kMigrationBytesPerTick of copy work, and closes expired forward
  // windows.
  void Tick(uint64_t now_ns);

  // Coordinator crash + restart: in-memory jobs are lost; everything is
  // re-derived from the router — draining node states re-enter the drain
  // set, uncommitted migrations (MigratingTarget) are re-adopted from page 0
  // (the copy is idempotent), open forwarding windows are re-owned so they
  // still close on time, and migrations whose target died while the
  // coordinator was down are rolled back.
  void Restart(uint64_t now_ns);

  // Same load signal as RepairManager::set_metrics.
  void set_metrics(const MetricsRegistry* metrics) { metrics_ = metrics; }

  // Test hook: observes every phase transition of every job (crash-injection
  // tests kill nodes at exact state-machine boundaries through this).
  using PhaseObserver = std::function<void(uint64_t granule, Phase phase, uint64_t now_ns)>;
  void set_phase_observer(PhaseObserver cb) { on_phase_ = std::move(cb); }

  bool idle() const {
    return jobs_.empty() && draining_.empty() && router_.forwards().empty();
  }
  size_t pending_granules() const { return jobs_.size(); }
  bool draining(int node) const { return draining_.count(node) != 0; }
  // Completion frontier of the serialized migration copy stream (see
  // RepairManager::stream_cursor_ns).
  uint64_t stream_cursor_ns() const { return copier_.cursor_ns(); }

 private:
  struct Job : GranuleFill {
    int source = -1;
    Phase phase = Phase::kCopy;
    uint32_t passes = 0;      // Catch-up passes completed.
    uint32_t reshipped = 0;   // Pages re-shipped in the current pass.
    uint64_t start_ns = 0;    // For the migrate-granule span.
  };

  // Queues migration jobs for draining nodes' granules; retires nodes with
  // nothing left referencing them.
  void ScanDrains(uint64_t now_ns);
  // Closes expired forwarding windows (dropping the source copy) and fails
  // back committed cutovers whose target died inside the window.
  void SweepWindows(uint64_t now_ns);
  // Target for migrating `granule` off `exclude` nodes, or -1. EC-aware:
  // prefers nodes holding no member of the granule's stripe, falls back to
  // bounded co-location (resulting member count <= m).
  int PickTarget(uint64_t granule, const std::vector<int>& exclude);
  // Advances the front job; returns bytes moved.
  uint64_t DrainFront(uint64_t now_ns, uint64_t budget);
  // Emits the retroactive migrate-granule span for a finished job (recorded
  // at retire time so a long-lived open span never becomes the accidental
  // parent of unrelated fault spans).
  void EmitSpan(const Job& job, uint64_t end_ns);
  void NotifyPhase(const Job& job, uint64_t now_ns) {
    if (on_phase_) {
      on_phase_(job.granule, job.phase, now_ns);
    }
  }
  bool HasJob(uint64_t granule) const { return active_.count(granule) != 0; }

  Fabric& fabric_;
  ShardRouter& router_;
  FailureDetector& detector_;
  RuntimeStats& stats_;
  Tracer* tracer_;
  MigrationConfig cfg_;
  const MetricsRegistry* metrics_ = nullptr;
  PhaseObserver on_phase_;

  GranuleCopier copier_;
  std::deque<Job> jobs_;
  std::vector<Job> windows_;  // Committed cutovers with an open window.
  std::unordered_set<uint64_t> active_;  // Granules with a queued job.
  std::unordered_set<int> draining_;     // Nodes being emptied.
  std::vector<uint32_t> target_refs_;    // In-flight fills per target node.
  std::vector<int> replica_scratch_;
  uint64_t last_tick_ns_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_RECOVERY_MIGRATION_H_
