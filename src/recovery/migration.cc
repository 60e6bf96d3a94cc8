#include "src/recovery/migration.h"

#include <algorithm>

namespace dilos {

namespace {

// Migration-bandwidth throttle, same contract as RepairConfig::bytes_per_tick:
// payload bytes (source read + target write) moved per tick.
constexpr uint64_t kMigrationBytesPerTick = 512 * 1024;
constexpr size_t kMigrationPipelineDepth = 8;  // Copy reads kept in flight at once.
// Catch-up passes before the migration gives up and rolls back (each pass
// only re-ships pages whose target generation still lags).
constexpr uint32_t kMaxCatchupPasses = 8;

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

MigrationManager::MigrationManager(Fabric& fabric, ShardRouter& router,
                                   FailureDetector& detector, RuntimeStats& stats,
                                   Tracer* tracer, MigrationConfig cfg)
    : fabric_(fabric),
      router_(router),
      detector_(detector),
      stats_(stats),
      tracer_(tracer),
      cfg_(cfg),
      copier_(fabric, router, detector, stats, tracer) {
  target_refs_.assign(static_cast<size_t>(fabric.num_nodes()), 0);
}

void MigrationManager::EmitSpan(const Job& job, uint64_t end_ns) {
  // Recorded retroactively over the job's whole lifetime: a span left open
  // across ticks would become the accidental parent of every unrelated span
  // begun meanwhile (the tracer nests by open order).
  uint32_t id = tracer_->BeginSpan(SpanKind::kMigrateGranule, job.start_ns,
                                   job.granule << kShardGranuleShift,
                                   static_cast<uint32_t>(job.target));
  tracer_->EndSpan(id, end_ns < job.start_ns ? job.start_ns : end_ns);
}

bool MigrationManager::MigrateGranule(uint64_t granule, int source, uint64_t now_ns,
                                      int target) {
  if (HasJob(granule) || router_.Forwarding(granule) != nullptr ||
      router_.RebuildTarget(granule) != -1 ||
      router_.written_granules().count(granule) == 0) {
    return false;
  }
  uint64_t va = granule << kShardGranuleShift;
  router_.ReplicaNodes(va, &replica_scratch_);
  if (!Contains(replica_scratch_, source)) {
    return false;
  }
  if (target < 0) {
    target = PickTarget(granule, replica_scratch_);
  } else {
    NodeState s = router_.state(target);
    if ((s != NodeState::kLive && s != NodeState::kRebuilding) ||
        Contains(replica_scratch_, target)) {
      return false;
    }
  }
  if (target < 0) {
    return false;
  }
  router_.BeginMigration(granule, source, target);
  ++target_refs_[static_cast<size_t>(target)];
  Job job;
  job.granule = granule;
  job.source = source;
  job.target = target;
  job.start_ns = now_ns;
  jobs_.push_back(job);
  active_.insert(granule);
  stats_.migrations_started++;
  stats_.migrations_inflight++;
  tracer_->Record(now_ns, TraceEvent::kMigrateStart, va, static_cast<uint32_t>(target));
  NotifyPhase(job, now_ns);
  return true;
}

bool MigrationManager::DrainNode(int node, uint64_t now_ns) {
  NodeState s = router_.state(node);
  if (s == NodeState::kDead || s == NodeState::kRetired) {
    return false;
  }
  router_.MarkDraining(node);
  draining_.insert(node);
  tracer_->Record(now_ns, TraceEvent::kNodeDraining, 0, static_cast<uint32_t>(node));
  return true;
}

void MigrationManager::Tick(uint64_t now_ns) {
  // Same horizon clamp as the repair manager: never post copies at a time
  // before a failure the detector already witnessed.
  if (detector_.latest_ns() > now_ns) {
    now_ns = detector_.latest_ns();
  }
  if (now_ns < last_tick_ns_ + kCopyTickIntervalNs) {
    return;
  }
  last_tick_ns_ = now_ns;
  SweepWindows(now_ns);
  ScanDrains(now_ns);
  uint64_t budget = kMigrationBytesPerTick;
  while (budget > 0 && !jobs_.empty()) {
    uint64_t moved = DrainFront(now_ns, budget);
    if (moved == 0 && !jobs_.empty()) {
      break;  // Front job made no byte progress; avoid spinning.
    }
    budget = moved >= budget ? 0 : budget - moved;
  }
}

void MigrationManager::SweepWindows(uint64_t now_ns) {
  for (size_t i = 0; i < windows_.size();) {
    Job& job = windows_[i];
    uint64_t granule_base = job.granule << kShardGranuleShift;
    const ShardRouter::ForwardEntry* fw = router_.Forwarding(job.granule);
    if (fw != nullptr && router_.state(job.target) == NodeState::kDead) {
      // The cutover target died inside the window, before the source copy
      // was released: undo the cutover. The source received every in-window
      // write, so nothing acked is lost; the drain scan re-queues the move.
      router_.FailbackMigration(job.granule);
      stats_.migration_failbacks++;
      tracer_->Record(now_ns, TraceEvent::kMigrateFailback, granule_base,
                      static_cast<uint32_t>(job.target));
    } else if (fw != nullptr && now_ns < fw->expire_ns) {
      ++i;
      continue;
    } else if (fw != nullptr) {
      // Window expired: the source leaves the replica set and its stored
      // pages are dropped — the capacity this migration reclaims. A dead
      // source's store is left alone for readmission reconciliation.
      int from = fw->from;
      router_.FinishForward(job.granule);
      if (router_.state(from) != NodeState::kDead) {
        PageStore& store = fabric_.node(from).store();
        for (uint32_t p = 0; p < kPagesPerGranule; ++p) {
          store.Drop((granule_base + static_cast<uint64_t>(p) * kPageSize) >> kPageShift);
        }
      }
    }
    EmitSpan(job, now_ns);
    active_.erase(job.granule);
    windows_.erase(windows_.begin() + static_cast<ptrdiff_t>(i));
  }
}

void MigrationManager::ScanDrains(uint64_t now_ns) {
  if (draining_.empty()) {
    return;
  }
  std::vector<int> nodes(draining_.begin(), draining_.end());
  for (int node : nodes) {
    if (router_.state(node) != NodeState::kDraining) {
      // Died (or was externally revived) mid-drain: the failure path owns
      // its granules now; the drain intent is dropped.
      draining_.erase(node);
      continue;
    }
    bool pending = false;
    for (uint64_t granule : router_.written_granules()) {
      uint64_t va = granule << kShardGranuleShift;
      router_.ReplicaNodes(va, &replica_scratch_);
      if (!Contains(replica_scratch_, node)) {
        continue;
      }
      pending = true;
      if (HasJob(granule) || router_.Forwarding(granule) != nullptr ||
          router_.RebuildTarget(granule) != -1) {
        continue;  // A fill or window is in flight; migrate after it settles.
      }
      // May fail (no legal target yet): the granule stays pending and the
      // next scan retries once capacity or state changes.
      MigrateGranule(granule, node, now_ns);
    }
    if (!pending) {
      router_.MarkRetired(node);
      draining_.erase(node);
      stats_.nodes_drained++;
      tracer_->Record(now_ns, TraceEvent::kNodeDrained, 0, static_cast<uint32_t>(node));
    }
  }
}

int MigrationManager::PickTarget(uint64_t granule, const std::vector<int>& exclude) {
  bool ec = router_.ec_enabled();
  uint64_t stripe = ec ? router_.EcStripeOf(granule) : 0;
  int best = -1;
  int best_colocated = 0;
  bool best_spare = false;
  for (int n = 0; n < fabric_.num_nodes(); ++n) {
    NodeState s = router_.state(n);
    if (s != NodeState::kLive && s != NodeState::kRebuilding) {
      continue;  // Draining/retired nodes never adopt data; suspect is risky.
    }
    if (Contains(exclude, n)) {
      continue;
    }
    int colocated = 0;
    if (ec) {
      // Strict spread (no other member of this stripe) preferred; bounded
      // co-location allowed as the small-fabric fallback — after placement
      // the node holds colocated+1 members, and losing it must stay within
      // the parity arm's budget (<= m erasures).
      colocated = router_.EcMembersOnNode(stripe, n);
      if (colocated > 0 && colocated + 1 > router_.ec().m) {
        continue;
      }
    }
    bool spare = router_.is_spare(n);
    bool better;
    if (best < 0) {
      better = true;
    } else if (colocated != best_colocated) {
      better = colocated < best_colocated;
    } else if (spare != best_spare) {
      better = spare;
    } else {
      uint32_t rn = target_refs_[static_cast<size_t>(n)];
      uint32_t rb = target_refs_[static_cast<size_t>(best)];
      better = rn != rb ? rn < rb : LessLoaded(metrics_, n, best);
    }
    if (better) {
      best = n;
      best_colocated = colocated;
      best_spare = spare;
    }
  }
  return best;
}

void MigrationManager::Restart(uint64_t now_ns) {
  // The coordinator's memory is gone; everything below is re-derived from
  // the router's remap/forward/state tables (the durable metadata in this
  // model). Ending the lost jobs' spans is tracer bookkeeping, not state.
  jobs_.clear();
  windows_.clear();
  active_.clear();
  std::fill(target_refs_.begin(), target_refs_.end(), 0u);
  draining_.clear();
  for (int n = 0; n < fabric_.num_nodes(); ++n) {
    if (router_.state(n) == NodeState::kDraining) {
      draining_.insert(n);
    }
  }
  // Re-own open forwarding windows so they still close (or fail back) on time.
  for (const auto& [granule, fw] : router_.forwards()) {
    Job job;
    job.granule = granule;
    job.source = fw.from;
    job.target = fw.to;
    job.phase = Phase::kForward;
    job.start_ns = now_ns;
    windows_.push_back(job);
    active_.insert(granule);
  }
  // Re-adopt half-done migrations: the copy restarts from page 0 — already
  // landed pages are generation-fresh on the target and skipped, so the
  // re-run converges instead of duplicating work.
  for (uint64_t granule : router_.written_granules()) {
    int target = router_.MigratingTarget(granule);
    if (target < 0 || active_.count(granule) != 0) {
      continue;
    }
    if (router_.state(target) == NodeState::kDead) {
      router_.RollbackMigration(granule, target);
      stats_.migrations_rolled_back++;
      if (stats_.migrations_inflight > 0) {
        stats_.migrations_inflight--;
      }
      tracer_->Record(now_ns, TraceEvent::kMigrateAbort, granule << kShardGranuleShift,
                      static_cast<uint32_t>(target));
      continue;
    }
    Job job;
    job.granule = granule;
    job.source = router_.MigratingSource(granule);
    job.target = target;
    job.start_ns = now_ns;
    jobs_.push_back(job);
    active_.insert(granule);
    ++target_refs_[static_cast<size_t>(target)];
  }
}

uint64_t MigrationManager::DrainFront(uint64_t now_ns, uint64_t budget) {
  Job& job = jobs_.front();
  uint64_t granule_base = job.granule << kShardGranuleShift;

  auto abort_job = [&]() {
    // RollbackMigration is a no-op when a re-plan already replaced the
    // pending target; either way this migration is over.
    router_.RollbackMigration(job.granule, job.target);
    stats_.migrations_rolled_back++;
    if (stats_.migrations_inflight > 0) {
      stats_.migrations_inflight--;
    }
    tracer_->Record(copier_.cursor_ns(), TraceEvent::kMigrateAbort, granule_base,
                    static_cast<uint32_t>(job.target));
    EmitSpan(job, copier_.cursor_ns());
    if (target_refs_[static_cast<size_t>(job.target)] > 0) {
      --target_refs_[static_cast<size_t>(job.target)];
    }
    active_.erase(job.granule);
    jobs_.pop_front();
  };

  // Migration skips pages already fresh on the target (landed by an earlier
  // sweep, a pre-crash copy, or a racing write-back), and rolls back on a
  // lost page: unlike repair, the source copy still exists, so aborting
  // loses nothing, while committing would cut over to a target with a hole.
  GranuleCopier::Result r = copier_.Copy(job, now_ns, budget, kMigrationPipelineDepth,
                                         /*skip_fresh=*/true, /*write_off_lost=*/false);
  uint64_t moved = r.bytes;
  stats_.migration_pages += r.written;
  stats_.migration_bytes += moved;
  if (job.phase == Phase::kCatchUp) {
    // Only lagging pages are read in a catch-up pass: count the re-ships.
    job.reshipped += r.read;
    stats_.migration_reships += r.read;
  }
  if (r.stop == GranuleCopier::Stop::kSourceLost ||
      r.stop == GranuleCopier::Stop::kTargetGone) {
    // The target died pre-commit, the fill was re-planned away (the repair
    // manager replaced a dead pending target), or a page is lost: the source
    // keeps serving, and the drain scan re-queues the move later.
    abort_job();
    return moved;
  }
  if (r.stop == GranuleCopier::Stop::kStalled) {
    // Rotate to the back so one flaky source doesn't head-of-line block
    // every other migration.
    Job j = job;
    jobs_.pop_front();
    jobs_.push_back(j);
    return moved;
  }
  if (job.next_page < kPagesPerGranule) {
    return moved;  // Budget exhausted mid-granule, or a target write failed.
  }

  // End of a sweep over the granule.
  if (job.phase == Phase::kCopy) {
    job.phase = Phase::kCatchUp;
    job.next_page = 0;
    job.reshipped = 0;
    NotifyPhase(job, copier_.cursor_ns());
    return moved;
  }
  if (job.reshipped != 0) {
    // Writes raced this catch-up pass and some landed only on the source
    // side; verify again. Bounded: a workload dirtying pages faster than a
    // pass completes would otherwise never converge.
    ++job.passes;
    if (job.passes >= kMaxCatchupPasses) {
      abort_job();
      return moved;
    }
    job.next_page = 0;
    job.reshipped = 0;
    return moved;
  }

  // Clean catch-up pass: every page the source holds is on the target at the
  // current generation. Commit handshake before publishing: a target that
  // crashed after its last copied byte still has caught-up-looking store
  // metadata, so only a live round trip proves the cutover is safe. On
  // timeout the detector gets its strike and the pass is re-verified next
  // tick; a genuinely dead target then aborts as kTargetGone.
  Completion hs = copier_.RoundTrip(job.target, granule_base);
  if (hs.status != WcStatus::kSuccess) {
    detector_.OnOpTimeout(job.target, hs.completion_time_ns);
    job.next_page = 0;  // Re-verify freshness before the next commit attempt.
    return moved;
  }

  // Cut over.
  uint64_t expire_ns = copier_.cursor_ns() + cfg_.forward_window_ns;
  if (!router_.CommitMigration(job.granule, expire_ns)) {
    abort_job();  // Lost the race to a re-plan between checks; retry later.
    return moved;
  }
  stats_.migrations_committed++;
  if (stats_.migrations_inflight > 0) {
    stats_.migrations_inflight--;
  }
  if (target_refs_[static_cast<size_t>(job.target)] > 0) {
    --target_refs_[static_cast<size_t>(job.target)];
  }
  tracer_->Record(copier_.cursor_ns(), TraceEvent::kMigrateCommit, granule_base,
                  static_cast<uint32_t>(job.target));
  job.phase = Phase::kForward;
  NotifyPhase(job, copier_.cursor_ns());
  if (router_.Forwarding(job.granule) != nullptr) {
    windows_.push_back(job);  // Stays in active_ until the window closes.
  } else {
    // Source already left the set (died mid-copy): no window to keep open.
    EmitSpan(job, copier_.cursor_ns());
    active_.erase(job.granule);
  }
  jobs_.pop_front();
  return moved;
}

}  // namespace dilos
