#include "src/recovery/failure_detector.h"

namespace dilos {

FailureDetector::FailureDetector(Fabric& fabric, ShardRouter& router, RuntimeStats& stats,
                                 Tracer* tracer)
    : fabric_(fabric), router_(router), stats_(stats), tracer_(tracer) {
  if (tracer_ == nullptr) {
    static Tracer null_tracer(0);
    tracer_ = &null_tracer;
  }
  int n = fabric.num_nodes();
  strikes_.assign(static_cast<size_t>(n), 0);
  lease_expiry_.assign(static_cast<size_t>(n), 0);
  rtt_ewma_.assign(static_cast<size_t>(n), 0.0);
  rtt_samples_.assign(static_cast<size_t>(n), 0);
  gray_.assign(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    probe_qps_.push_back(fabric.CreateQp(i, QpClass::kProbe));
  }
}

void FailureDetector::Tick(uint64_t now_ns) {
  now_ns = Witness(now_ns);
  if (now_ns >= next_probe_ns_) {
    ProbeAll(now_ns);
    next_probe_ns_ = now_ns + kProbeIntervalNs;
  }
  // Lease check: a node whose lease lapsed without renewal is dead even if
  // no probe round happens to be due right now.
  for (int n = 0; n < fabric_.num_nodes(); ++n) {
    if (router_.state(n) == NodeState::kDead || router_.state(n) == NodeState::kRetired) {
      continue;
    }
    uint64_t expiry = lease_expiry_[static_cast<size_t>(n)];
    if (expiry != 0 && now_ns > expiry) {
      DeclareDead(n, now_ns);
    }
  }
}

void FailureDetector::ProbeAll(uint64_t now_ns) {
  for (int n = 0; n < fabric_.num_nodes(); ++n) {
    if (router_.state(n) == NodeState::kRetired) {
      continue;  // Administratively decommissioned: never probed or readmitted.
    }
    if (router_.state(n) == NodeState::kDead) {
      // Dead nodes keep getting probed so a restarted node (Fabric::
      // RestoreNode) is noticed. One answered probe re-admits it; a missed
      // probe changes nothing (dead stays dead, no extra strikes).
      stats_.probes_sent++;
      Completion c = probe_qps_[static_cast<size_t>(n)]->PostRead(
          ++wr_id_, reinterpret_cast<uint64_t>(scratch_), kFarBase, 8, now_ns);
      if (c.status == WcStatus::kSuccess) {
        Readmit(n, c.completion_time_ns);
      }
      continue;
    }
    stats_.probes_sent++;
    Completion c = probe_qps_[static_cast<size_t>(n)]->PostRead(
        ++wr_id_, reinterpret_cast<uint64_t>(scratch_), kFarBase, 8, now_ns);
    if (c.status == WcStatus::kSuccess) {
      RenewLease(n, c.completion_time_ns);
      ObserveRtt(n, c.completion_time_ns - now_ns, c.completion_time_ns);
    } else {
      stats_.probe_misses++;
      tracer_->Record(c.completion_time_ns, TraceEvent::kProbeMiss, 0,
                      static_cast<uint32_t>(n));
      Strike(n, c.completion_time_ns);
    }
  }
}

void FailureDetector::OnOpTimeout(int node, uint64_t now_ns) {
  now_ns = Witness(now_ns);
  stats_.op_timeouts++;
  tracer_->Record(now_ns, TraceEvent::kOpTimeout, 0, static_cast<uint32_t>(node));
  Strike(node, now_ns);
}

void FailureDetector::OnOpSuccess(int node, uint64_t now_ns) {
  // Any completed op is as good as a heartbeat.
  RenewLease(node, Witness(now_ns));
}

void FailureDetector::RenewLease(int node, uint64_t now_ns) {
  if (router_.state(node) == NodeState::kDead) {
    return;  // Only an answered *probe* re-admits a dead node (Readmit).
  }
  lease_expiry_[static_cast<size_t>(node)] = now_ns + kLeaseNs;
  strikes_[static_cast<size_t>(node)] = 0;
  if (router_.state(node) == NodeState::kSuspect && !gray(node)) {
    // False alarm (e.g. one lost op) — but a *gray* suspicion is about
    // latency, not reachability, and only the EWMA recovering clears it;
    // otherwise every slow-but-answered probe would undo the read steering.
    router_.MarkLive(node);
  }
}

void FailureDetector::ObserveRtt(int node, uint64_t rtt_ns, uint64_t now_ns) {
  size_t i = static_cast<size_t>(node);
  double& ewma = rtt_ewma_[i];
  ewma = rtt_samples_[i]++ == 0
             ? static_cast<double>(rtt_ns)
             : (1.0 - kGrayEwmaAlpha) * ewma + kGrayEwmaAlpha * static_cast<double>(rtt_ns);
  if (baseline_rtt_ns_ == 0 || rtt_ns < baseline_rtt_ns_) {
    baseline_rtt_ns_ = rtt_ns;  // Fleet-wide healthy floor.
  }
  if (rtt_samples_[i] < kGrayMinSamples) {
    return;
  }
  double base = static_cast<double>(baseline_rtt_ns_ < 1 ? 1 : baseline_rtt_ns_);
  if (gray_[i] == 0 && ewma > kGrayTripFactor * base) {
    gray_[i] = 1;
    stats_.gray_suspects++;
    router_.MarkSuspect(node);
    tracer_->Record(now_ns, TraceEvent::kGraySuspect, 0, static_cast<uint32_t>(node));
  } else if (gray_[i] != 0 && ewma < kGrayClearFactor * base) {
    gray_[i] = 0;
    if (router_.state(node) == NodeState::kSuspect && strikes_[i] == 0) {
      router_.MarkLive(node);
    }
    tracer_->Record(now_ns, TraceEvent::kGrayClear, 0, static_cast<uint32_t>(node));
  }
}

void FailureDetector::Strike(int node, uint64_t now_ns) {
  if (router_.state(node) == NodeState::kDead || router_.state(node) == NodeState::kRetired) {
    return;
  }
  uint32_t s = ++strikes_[static_cast<size_t>(node)];
  if (s >= kDeadAfterStrikes) {
    DeclareDead(node, now_ns);
  } else if (router_.state(node) == NodeState::kLive) {
    router_.MarkSuspect(node);
    tracer_->Record(now_ns, TraceEvent::kNodeSuspect, 0, static_cast<uint32_t>(node));
  }
}

void FailureDetector::DeclareDead(int node, uint64_t now_ns) {
  router_.MarkDead(node);
  stats_.nodes_failed++;
  tracer_->Record(now_ns, TraceEvent::kNodeDead, 0, static_cast<uint32_t>(node));
}

void FailureDetector::Readmit(int node, uint64_t now_ns) {
  // The node is reachable again but its store may have missed every
  // write-back since the crash: admit it for writes only (kRebuilding) and
  // let the repair manager decide per granule when it may serve reads again.
  router_.MarkRebuilding(node);
  strikes_[static_cast<size_t>(node)] = 0;
  lease_expiry_[static_cast<size_t>(node)] = now_ns + kLeaseNs;
  stats_.nodes_readmitted++;
  tracer_->Record(now_ns, TraceEvent::kNodeReadmitted, 0, static_cast<uint32_t>(node));
  if (on_readmit_) {
    on_readmit_(node, now_ns);
  }
}

}  // namespace dilos
