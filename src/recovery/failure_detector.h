// Failure detector for the multi-memory-node fabric (paper Sec. 5.1's
// replication extension, completed with the piece the paper leaves open:
// *detecting* node death instead of having a test declare it).
//
// Two evidence streams feed one per-node strike counter:
//
//  1. Lease/heartbeat probes. Each node gets a dedicated probe QP (never
//     head-of-line blocked behind app traffic, mirroring the per-module QP
//     design of Sec. 4.5). A successful 8-byte probe read renews the node's
//     lease; a timed-out probe is a strike. An expired lease is conclusive.
//  2. Per-operation timeouts. The fault handler, cleaner, and prefetcher
//     report ops that completed with WcStatus::kTimeout via
//     ShardRouter::ReportOpFailure; each report is a strike.
//
// Strikes move a node live -> suspect -> dead in the ShardRouter; a single
// successful probe or op resets them (suspect -> live). Dead nodes keep
// being probed, so a restarted node is noticed and re-admitted. The demand-read
// retry policy DilosRuntime::DemandFetch applies is defined here too.
#ifndef DILOS_SRC_RECOVERY_FAILURE_DETECTOR_H_
#define DILOS_SRC_RECOVERY_FAILURE_DETECTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/dilos/shard.h"
#include "src/memnode/fabric.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace dilos {

inline constexpr uint64_t kProbeIntervalNs = 20'000;  // Heartbeat period per node.
inline constexpr uint64_t kLeaseNs = 120'000;         // Liveness lease renewed by each probe.
// Strikes before a node is declared dead; the first strike already marks a
// live node suspect.
inline constexpr uint32_t kDeadAfterStrikes = 3;
inline constexpr uint32_t kDemandMaxRetries = 3;  // Demand-read retries after a timeout.
inline constexpr uint64_t kDemandBackoffBaseNs = 2'000;  // Exponential backoff: base << attempt.

// -- Gray-failure (alive-but-slow) detection ----------------------------------
// Each answered probe's RTT feeds a per-node EWMA; the fleet-wide minimum RTT
// ever observed is the healthy baseline (fleet-relative, so a node that is
// slow from boot is still caught). A node whose EWMA exceeds baseline *
// kGrayTripFactor is marked suspect — demand reads steer to replicas/EC
// survivors — but its answered probes keep renewing the lease, so it is never
// declared dead. It returns to live only when the EWMA drops back under
// baseline * kGrayClearFactor (hysteresis).
inline constexpr double kGrayEwmaAlpha = 0.3;    // Weight of the newest probe RTT.
inline constexpr double kGrayTripFactor = 4.0;   // EWMA > baseline * this => suspect.
inline constexpr double kGrayClearFactor = 2.0;  // EWMA < baseline * this => live again.
inline constexpr uint32_t kGrayMinSamples = 3;   // Probe RTTs before the EWMA is trusted.

class FailureDetector {
 public:
  FailureDetector(Fabric& fabric, ShardRouter& router, RuntimeStats& stats, Tracer* tracer);

  // Clock hook: runs a probe round when one is due and checks leases.
  // Driven from the same background hooks as the cleaner/reclaimer.
  void Tick(uint64_t now_ns);

  // Evidence from the data path (demand fetch, write-back, prefetch).
  void OnOpTimeout(int node, uint64_t now_ns);
  void OnOpSuccess(int node, uint64_t now_ns);

  // The detector's monotonic notion of now: the latest timestamp it has
  // witnessed from any stream (ticks, op evidence). The simulator runs
  // several time cursors, and during a timeout storm the demand cursor that
  // feeds OnOpTimeout races ahead of the core clock that drives Tick; all
  // liveness bookkeeping (probes, strikes, leases) uses this horizon so a
  // node declared dead at cursor time T is never probed "before" T.
  uint64_t latest_ns() const { return latest_ns_; }

  // Called when a dead node answers a probe and is re-admitted as
  // kRebuilding — the repair manager subscribes to schedule the refill of
  // its (stale) granules.
  using ReadmitObserver = std::function<void(int node, uint64_t now_ns)>;
  void set_readmit_observer(ReadmitObserver cb) { on_readmit_ = std::move(cb); }

  // Whether `node` is currently suspected for latency (gray), as opposed to
  // strikes. Gray suspicion is not cleared by successful ops — only by the
  // EWMA recovering.
  bool gray(int node) const { return gray_[static_cast<size_t>(node)] != 0; }
  double rtt_ewma_ns(int node) const { return rtt_ewma_[static_cast<size_t>(node)]; }

 private:
  // Folds a witnessed timestamp into the horizon and returns the clamped
  // (never-rewinding) time every liveness decision is made at.
  uint64_t Witness(uint64_t now_ns) {
    if (now_ns > latest_ns_) {
      latest_ns_ = now_ns;
    }
    return latest_ns_;
  }
  void ProbeAll(uint64_t now_ns);
  void Strike(int node, uint64_t now_ns);
  void RenewLease(int node, uint64_t now_ns);
  void DeclareDead(int node, uint64_t now_ns);
  void Readmit(int node, uint64_t now_ns);
  // Feeds one answered probe's RTT into the gray-failure EWMA.
  void ObserveRtt(int node, uint64_t rtt_ns, uint64_t now_ns);

  Fabric& fabric_;
  ShardRouter& router_;
  RuntimeStats& stats_;
  Tracer* tracer_;

  ReadmitObserver on_readmit_;
  std::vector<QueuePair*> probe_qps_;   // One dedicated QP per node.
  std::vector<uint32_t> strikes_;
  std::vector<uint64_t> lease_expiry_;  // 0 = no lease granted yet.
  std::vector<double> rtt_ewma_;        // Per-node probe-RTT EWMA (gray path).
  std::vector<uint32_t> rtt_samples_;
  std::vector<char> gray_;              // Suspect *for latency*, not strikes.
  uint64_t baseline_rtt_ns_ = 0;        // Fleet-wide healthy RTT floor (min seen).
  uint64_t latest_ns_ = 0;              // Monotonic horizon (see latest_ns()).
  uint64_t next_probe_ns_ = 0;
  uint64_t wr_id_ = 0;
  uint8_t scratch_[64] = {};
};

}  // namespace dilos

#endif  // DILOS_SRC_RECOVERY_FAILURE_DETECTOR_H_
