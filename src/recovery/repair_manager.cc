#include "src/recovery/repair_manager.h"

#include "src/recovery/integrity.h"

namespace dilos {

RepairManager::RepairManager(Fabric& fabric, ShardRouter& router, FailureDetector& detector,
                             RuntimeStats& stats, Tracer* tracer, RepairConfig cfg)
    : fabric_(fabric),
      router_(router),
      detector_(detector),
      stats_(stats),
      tracer_(tracer),
      cfg_(cfg),
      copier_(fabric, router, detector, stats, tracer) {
  int n = fabric.num_nodes();
  dead_handled_.assign(static_cast<size_t>(n), 0);
  target_refs_.assign(static_cast<size_t>(n), 0);
}

void RepairManager::Tick(uint64_t now_ns) {
  // Repair acts on deaths the detector may have witnessed on a cursor that
  // runs ahead of the clock driving this tick (a demand-path timeout storm):
  // clamp to the detector's horizon so copy reads are never posted at a time
  // *before* the failure they react to — a read posted "in the past" would
  // slip behind the fault window and fetch from a node that is down now.
  if (detector_.latest_ns() > now_ns) {
    now_ns = detector_.latest_ns();
  }
  if (now_ns < last_tick_ns_ + kCopyTickIntervalNs) {
    return;
  }
  last_tick_ns_ = now_ns;
  ScanForFailures(now_ns);
  ProcessDeferred(now_ns);
  uint64_t budget = cfg_.bytes_per_tick;
  while (budget > 0 && !jobs_.empty()) {
    uint64_t moved = DrainFront(now_ns, budget);
    if (moved == 0 && !jobs_.empty()) {
      break;  // Front job finished without moving bytes; avoid spinning.
    }
    budget = moved >= budget ? 0 : budget - moved;
  }
}

int RepairManager::PickTarget(const std::vector<int>& replicas) {
  int best = -1;
  bool best_spare = false;
  for (int n = 0; n < fabric_.num_nodes(); ++n) {
    NodeState s = router_.state(n);
    if (s != NodeState::kLive && s != NodeState::kRebuilding) {
      continue;  // Dead is out; suspect is too risky to adopt as a target.
    }
    bool in_set = false;
    for (int r : replicas) {
      if (r == n) {
        in_set = true;
        break;
      }
    }
    if (in_set) {
      continue;
    }
    bool spare = router_.is_spare(n);
    // Ordering: spares first, then fewest in-flight rebuilds, then (with a
    // metrics registry installed) the least-loaded node by observed fabric
    // traffic — so back-to-back failures don't pile every rebuild onto the
    // same already-hot node.
    bool better = best < 0 || (spare && !best_spare);
    if (!better && spare == best_spare) {
      uint32_t rn = target_refs_[static_cast<size_t>(n)];
      uint32_t rb = target_refs_[static_cast<size_t>(best)];
      better = rn != rb ? rn < rb : LessLoaded(metrics_, n, best);
    }
    if (better) {
      best = n;
      best_spare = spare;
    }
  }
  return best;
}

void RepairManager::ScanForFailures(uint64_t now_ns) {
  for (int dead = 0; dead < fabric_.num_nodes(); ++dead) {
    if (router_.state(dead) != NodeState::kDead || dead_handled_[static_cast<size_t>(dead)]) {
      continue;
    }
    dead_handled_[static_cast<size_t>(dead)] = 1;
    for (uint64_t granule : router_.written_granules()) {
      uint64_t va = granule << kShardGranuleShift;
      router_.ReplicaNodes(va, &replica_scratch_);
      bool degraded = false;
      for (int n : replica_scratch_) {
        if (n == dead) {
          degraded = true;
          break;
        }
      }
      if (!degraded) {
        continue;
      }
      int pending = router_.RebuildTarget(granule);
      if (pending != -1 && pending != dead &&
          router_.state(pending) != NodeState::kDead) {
        // A fill (repair or migration) is already running toward a live
        // target. Re-planning with a fresh target here would retire that
        // job via its superseded check and leave the hollow old target in
        // the replica set as a *readable* replica — data loss despite a
        // fresh survivor. Drop the dead node from the set instead and let
        // the in-flight fill finish; the granule is re-checked for lost
        // redundancy once it settles (ProcessDeferred).
        router_.RemoveReplica(granule, dead);
        deferred_.push_back(granule);
        continue;
      }
      int target;
      if (router_.ec_enabled()) {
        // An EC rebuild target must stay off every node of the stripe —
        // co-locating two members would make one node failure a double
        // erasure — so exclude all k + m member nodes, not just this
        // granule's replica set.
        uint64_t stripe = router_.EcStripeOf(granule);
        ec_scratch_.clear();
        for (int j = 0; j < router_.ec().k + router_.ec().m; ++j) {
          ec_scratch_.push_back(router_.EcNode(stripe, j));
        }
        target = PickTarget(ec_scratch_);
        if (target < 0) {
          // Small-fabric fallback: every healthy node already holds a member
          // of this stripe (e.g. a (4,2) stripe over 6 nodes — strict spread
          // is pigeonhole-impossible after one death). Allow bounded
          // co-location: place on the node holding the fewest members, as
          // long as losing that node afterwards (colocated + 1 erasures)
          // stays within the parity arm's budget of m. Without this the
          // stripe stays degraded forever.
          int best = -1;
          int best_c = 0;
          for (int n = 0; n < fabric_.num_nodes(); ++n) {
            NodeState s = router_.state(n);
            if (s != NodeState::kLive && s != NodeState::kRebuilding) {
              continue;
            }
            int c = router_.EcMembersOnNode(stripe, n);
            if (c + 1 > router_.ec().m) {
              continue;
            }
            if (best < 0 || c < best_c ||
                (c == best_c && target_refs_[static_cast<size_t>(n)] <
                                    target_refs_[static_cast<size_t>(best)])) {
              best = n;
              best_c = c;
            }
          }
          if (best >= 0) {
            target = best;
            stats_.ec_colocated_placements++;
            tracer_->Record(now_ns, TraceEvent::kEcCoLocated, va,
                            static_cast<uint32_t>(target));
          }
        }
      } else {
        target = PickTarget(replica_scratch_);
      }
      if (target < 0) {
        // No healthy node outside the replica set: the granule stays at
        // reduced redundancy until capacity returns. Counted and traced so
        // operators can see redundancy that silently failed to recover.
        stats_.repair_no_target++;
        tracer_->Record(now_ns, TraceEvent::kRepairNoTarget, va,
                        static_cast<uint32_t>(dead));
        continue;
      }
      std::vector<int> replicas = replica_scratch_;
      for (int& n : replicas) {
        if (n == dead) {
          n = target;
        }
      }
      router_.BeginRebuild(granule, std::move(replicas), target);
      if (router_.is_spare(target) && router_.state(target) == NodeState::kLive) {
        router_.MarkRebuilding(target);  // Spare adopted: fills before serving.
      }
      ++target_refs_[static_cast<size_t>(target)];
      jobs_.push_back(Job{granule, target, 0});
      stats_.repairs_issued++;
      tracer_->Record(now_ns, TraceEvent::kRepairStart, va, static_cast<uint32_t>(target));
    }
  }
}

void RepairManager::ProcessDeferred(uint64_t now_ns) {
  for (size_t i = 0; i < deferred_.size();) {
    uint64_t granule = deferred_[i];
    if (router_.RebuildTarget(granule) != -1 || router_.Forwarding(granule) != nullptr) {
      ++i;  // The fill (or its forwarding window) is still in flight.
      continue;
    }
    uint64_t va = granule << kShardGranuleShift;
    router_.ReplicaNodes(va, &replica_scratch_);
    // EC granules carry a single copy, so the settled fill already restored
    // them; only replication-mode granules can come out short a replica.
    if (!router_.ec_enabled() &&
        static_cast<int>(replica_scratch_.size()) < router_.replication()) {
      int target = PickTarget(replica_scratch_);
      if (target < 0) {
        stats_.repair_no_target++;
        tracer_->Record(now_ns, TraceEvent::kRepairNoTarget, va, /*detail=*/0);
      } else {
        std::vector<int> replicas = replica_scratch_;
        replicas.push_back(target);
        router_.BeginRebuild(granule, std::move(replicas), target);
        if (router_.is_spare(target) && router_.state(target) == NodeState::kLive) {
          router_.MarkRebuilding(target);
        }
        ++target_refs_[static_cast<size_t>(target)];
        jobs_.push_back(Job{granule, target, 0});
        stats_.repairs_issued++;
        tracer_->Record(now_ns, TraceEvent::kRepairStart, va,
                        static_cast<uint32_t>(target));
      }
    }
    deferred_.erase(deferred_.begin() + static_cast<ptrdiff_t>(i));
  }
}

void RepairManager::OnNodeReadmitted(int node, uint64_t now_ns) {
  // Re-arm the death scan: the node may crash again after this readmission.
  dead_handled_[static_cast<size_t>(node)] = 0;
  size_t created = 0;
  for (uint64_t granule : router_.written_granules()) {
    uint64_t va = granule << kShardGranuleShift;
    router_.ReplicaNodes(va, &replica_scratch_);
    bool holds = false;
    for (int n : replica_scratch_) {
      if (n == node) {
        holds = true;
        break;
      }
    }
    if (!holds) {
      // The death scan remapped this granule off the node, but its store may
      // still hold the orphaned copy. Reconcile it against the live replica
      // set: a copy where every cleaned page is present, checksum-verified,
      // and generation-fresh is merged back as a replica — redundancy
      // returns without a single page moving — while anything less is
      // dropped so a stale orphan can never serve reads later. (EC granules
      // have exactly one placement slot, EcNode = replicas[0]; a merged
      // extra copy would never be read, so EC orphans are always dropped.)
      PageStore& store = fabric_.node(node).store();
      bool any = false;
      bool fresh = true;
      for (uint32_t p = 0; p < kPagesPerGranule; ++p) {
        uint64_t page_va = va + static_cast<uint64_t>(p) * kPageSize;
        const StoredPage* rec = store.Find(page_va >> kPageShift);
        uint32_t gen = router_.PageGeneration(page_va);
        if (rec == nullptr) {
          fresh = fresh && CopyIsCurrent(rec, gen);  // Not if a cleaned page never arrived.
        } else {
          any = true;
          fresh = fresh && rec->has_checksum &&
                  JudgeBytes(rec, rec->bytes, gen) == CopyVerdict::kFresh;
        }
      }
      if (!any) {
        continue;
      }
      if (fresh && !router_.ec_enabled() &&
          router_.LiveReplicaCount(va) < router_.replication()) {
        router_.MergeReplica(granule, node);
        stats_.readmit_copies_merged++;
        tracer_->Record(now_ns, TraceEvent::kReadmitMerge, va,
                        static_cast<uint32_t>(node));
      } else {
        for (uint32_t p = 0; p < kPagesPerGranule; ++p) {
          store.Drop((va + static_cast<uint64_t>(p) * kPageSize) >> kPageShift);
        }
        stats_.readmit_orphans_dropped++;
        tracer_->Record(now_ns, TraceEvent::kReadmitOrphanDrop, va,
                        static_cast<uint32_t>(node));
      }
      continue;
    }
    int pending = router_.RebuildTarget(granule);
    if (pending != -1) {
      if (router_.MigratingSource(granule) != -1) {
        // A migration fill owns this granule: its coordinator re-adopts it
        // (MigrationManager::Restart / its live job) — repair re-queueing
        // the same target would double-drive the copy and double-commit.
        continue;
      }
      // A rebuild of this granule is already tracked in the router. If a
      // queued job still drives it, leave it alone. Otherwise the job was
      // retired while its target was (briefly) dead — the death and the
      // readmission both landed between two repair ticks, so the death scan
      // never saw the episode — and the granule would be orphaned
      // mid-rebuild: target never committed, hence never readable, with no
      // job left to finish the fill. Re-queue the fill for the pending
      // target; a target that is dead right now re-owns it at its own
      // readmission instead.
      if (HasJob(granule) || router_.state(pending) == NodeState::kDead) {
        continue;
      }
      jobs_.push_back(Job{granule, pending, 0});
      ++target_refs_[static_cast<size_t>(pending)];
      stats_.repairs_issued++;
      tracer_->Record(now_ns, TraceEvent::kRepairStart, va,
                      static_cast<uint32_t>(pending));
      ++created;
      continue;
    }
    // In-place rebuild: replica set unchanged, target is the node itself —
    // BeginRebuild's uncommitted target blocks reads from the stale copy
    // while surviving replicas (or EC decode) refill it. With R = 1 and no
    // EC there is no other holder: DrainFront finds no source, and the
    // commit amounts to trusting the stale store, same as the RecoverNode
    // oracle shim.
    router_.BeginRebuild(granule, replica_scratch_, node);
    ++target_refs_[static_cast<size_t>(node)];
    jobs_.push_back(Job{granule, node, 0});
    stats_.repairs_issued++;
    tracer_->Record(now_ns, TraceEvent::kRepairStart, va, static_cast<uint32_t>(node));
    ++created;
  }
  if (created == 0 && target_refs_[static_cast<size_t>(node)] == 0 &&
      router_.state(node) == NodeState::kRebuilding) {
    // Nothing it holds was ever written remotely: nothing can be stale.
    router_.MarkLive(node);
  }
}

uint64_t RepairManager::DrainFront(uint64_t now_ns, uint64_t budget) {
  Job& job = jobs_.front();
  // Repair copies every page the target lacks and writes off a page whose
  // stall budget ran out: the rest of the granule still regains redundancy.
  GranuleCopier::Result r = copier_.Copy(job, now_ns, budget, cfg_.pipeline_depth,
                                         /*skip_fresh=*/false, /*write_off_lost=*/true);
  stats_.repair_pages += r.written;
  stats_.repair_bytes += r.bytes;
  stats_.repair_pages_lost += r.lost;
  if (r.stop == GranuleCopier::Stop::kStalled) {
    // Rotate the stalled job to the back so one unreadable source doesn't
    // head-of-line block every other granule's rebuild.
    Job j = job;
    jobs_.pop_front();
    jobs_.push_back(j);
    return r.bytes;
  }
  // A gone target (it died, or a re-plan after a second failure superseded
  // this job) retires the job uncommitted: the new job carries the work.
  bool committed = r.stop != GranuleCopier::Stop::kTargetGone;
  if (committed && job.next_page < kPagesPerGranule) {
    return r.bytes;  // Budget spent mid-granule, or a target write failed.
  }
  int target = job.target;
  if (committed) {
    router_.CommitRebuild(job.granule);
    stats_.repair_granules++;
    tracer_->Record(copier_.cursor_ns(), TraceEvent::kRepairDone,
                    job.granule << kShardGranuleShift, static_cast<uint32_t>(target));
  }
  if (target_refs_[static_cast<size_t>(target)] > 0 &&
      --target_refs_[static_cast<size_t>(target)] == 0 &&
      router_.state(target) == NodeState::kRebuilding) {
    router_.MarkLive(target);  // Spare fully adopted.
  }
  jobs_.pop_front();
  return r.bytes;
}

}  // namespace dilos
