// Per-fault critical-path attribution (opt-in, TelemetryConfig::attribution).
//
// End-to-end fault latency says a tenant's p99 is high, not *why*: queued in
// its scheduler lane, on the wire, decoding an EC stripe, decompressing a tier
// blob, or backing off a timed-out replica? Each demand fault carries a
// fixed-size phase vector, charged by the core's phase clock in the same call
// that moves the clock (src/sim/fault_clock.h), and folded into per-(tenant,
// phase) LogHistograms when the fault completes.
//
// The design is self-verifying: the *on-path* phases tile the fault's
// wall-clock interval, so for every committed fault their sum must equal the
// measured end-to-end latency within 1% (exact in the simulator; the 1% gate
// catches drift). `sum_violations()` counts faults that broke the gate, and
// tests/test_attribution.cc keeps it at zero on every fault path.
//
// A remote fault's window runs from handler entry to the TLB flush of the
// batch that installs its page. Up to its fetch completion (`done`) it is
// tiled by handler, alloc and the fetch phases (lane-wait, wire, backoff,
// ec-decode). From `done` on, kMap is the fault's own PTE install plus the
// batch's one TLB flush, and kOverlap is everything else before that flush:
// hidden work that outran the fetch, and at depth > 1 also the coalesced
// poll, other faults' handlers, and the other installs of its batch. The
// fiber resume that follows the flush (depth > 1) is outside every window.
//
// Two phases are deliberately *off-path* and excluded from the tiling sum:
//   - kHeal: checksum heal-in-place is posted at the fault's wire cursor but
//     never advances it — the repair overlaps the remainder of the fault.
//   - kStall: a depth-limit stall that waits for *another* fault's
//     completion (depth > 1), time that fault's own phases already cover. A
//     wait for the fault's own completion is covered by its fetch phases.
// Both are still recorded (how much healing / stalling a tenant sees).
#ifndef DILOS_SRC_TELEMETRY_ATTRIBUTION_H_
#define DILOS_SRC_TELEMETRY_ATTRIBUTION_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/sim/name_table.h"
#include "src/telemetry/histogram.h"

namespace dilos {

// Where a demand fault spends its nanoseconds, one row per phase:
// X(enumerator, printed name, on-path). On-path phases tile [fault entry,
// fault completion] exactly; see FaultPhaseOnPath.
#define DILOS_FAULT_PHASES(X)                                                                      \
  /* HW exception + OS trap + PTE walk/check + map/install CPU work's handler-side */              \
  /* share (charged once per handler entry; a re-entered fault — e.g. tier-corrupt */              \
  /* fallback — charges it again). */                                                              \
  X(kHandler, "handler", true)                                                                     \
  /* Frame allocation, including any reclaim/write-back it triggers. */                            \
  X(kAlloc, "alloc", true)                                                                         \
  /* Fair-share scheduler lane queueing at QueuePair::PostSend (zero under the plain */            \
  /* FIFO link's uncontended path). */                                                             \
  X(kLaneWait, "lane-wait", true)                                                                  \
  /* Fabric propagation + link occupancy + TCP emulation delay. */                                 \
  X(kWire, "wire", true)                                                                           \
  /* Demand-retry backoff after a timed-out fetch attempt. */                                      \
  X(kBackoff, "backoff", true)                                                                     \
  /* Degraded read: k-survivor reads + Cauchy matrix solve. */                                     \
  X(kEcDecode, "ec-decode", true)                                                                  \
  /* Compressed-tier hit: blob decode into the frame. */                                           \
  X(kDecompress, "decompress", true)                                                               \
  /* Data arrived, install waits for the core: hidden work that outran the fetch, */               \
  /* the coalesced poll and other faults' handlers and installs (depth > 1). */                    \
  X(kOverlap, "overlap", true)                                                                     \
  /* The fault's own PTE install + its install batch's TLB flush. */                               \
  X(kMap, "map", true)                                                                             \
  /* OFF-PATH: depth-limit stall waiting on another fault's completion. */                         \
  X(kStall, "stall", false)                                                                        \
  /* OFF-PATH: checksum heal-in-place posted without advancing the fault. */                       \
  X(kHeal, "heal", false)

enum class FaultPhase : uint8_t { DILOS_FAULT_PHASES(DILOS_TABLE_ENUMERATOR) kCount };

constexpr size_t kFaultPhaseCount = static_cast<size_t>(FaultPhase::kCount);

inline constexpr const char* kFaultPhaseNames[] = {DILOS_FAULT_PHASES(DILOS_TABLE_NAME)};
#define DILOS_FAULT_PHASE_ON_PATH(id, name, on_path) on_path,
inline constexpr bool kFaultPhaseOnPath[] = {DILOS_FAULT_PHASES(DILOS_FAULT_PHASE_ON_PATH)};
#undef DILOS_FAULT_PHASE_ON_PATH

constexpr const char* FaultPhaseName(FaultPhase p) { return TableName(kFaultPhaseNames, p); }

// True for phases that participate in the sum-equals-latency invariant.
constexpr bool FaultPhaseOnPath(FaultPhase p) {
  auto i = static_cast<size_t>(p);
  return i < kFaultPhaseCount && kFaultPhaseOnPath[i];
}

// One fault's phase vector. Held by the core's FaultClock while the fault is
// open, then by its FaultFiber (src/sim/fiber.h) from park to install —
// inline in both, so charging never allocates on the fault path.
struct FaultSlice {
  uint64_t ns[kFaultPhaseCount] = {};
  uint64_t start_ns = 0;  // Fault entry (clk at HandleFault, pre-handler advance).

  void Add(FaultPhase p, uint64_t dt) { ns[static_cast<size_t>(p)] += dt; }

  uint64_t OnPathSumNs() const {
    uint64_t s = 0;
    for (size_t i = 0; i < kFaultPhaseCount; ++i) {
      if (FaultPhaseOnPath(static_cast<FaultPhase>(i))) {
        s += ns[i];
      }
    }
    return s;
  }
};

// Aggregates committed fault slices into per-(tenant, phase) LogHistograms
// plus a per-tenant end-to-end histogram, checks the tiling invariant on
// every commit, and renders Prometheus rows / the top-contributor report.
// Tenant bucketing mirrors MetricsRegistry: bucket 0 is the untenanted /
// out-of-range bucket, buckets 1..16 are tenant ids 0..15.
class FaultAttribution {
 public:
  static constexpr int kTenantBuckets = 17;
  // Invariant tolerance: 1% == 10'000 parts-per-million.
  static constexpr uint64_t kTolerancePpm = 10'000;

  void Commit(int tenant, const FaultSlice& slice, uint64_t e2e_ns) {
    size_t b = Bucket(tenant);
    for (size_t i = 0; i < kFaultPhaseCount; ++i) {
      if (slice.ns[i] != 0) {
        phase_[b * kFaultPhaseCount + i].Record(slice.ns[i]);
      }
    }
    e2e_[b].Record(e2e_ns);
    ++commits_;
    uint64_t sum = slice.OnPathSumNs();
    uint64_t diff = sum > e2e_ns ? sum - e2e_ns : e2e_ns - sum;
    uint64_t ppm = e2e_ns == 0 ? (diff == 0 ? 0 : ~0ULL)
                               : diff * 1'000'000 / e2e_ns;
    if (ppm > worst_residual_ppm_) {
      worst_residual_ppm_ = ppm;
    }
    if (ppm > kTolerancePpm) {
      ++sum_violations_;
    }
  }

  const LogHistogram& phase(int tenant, FaultPhase p) const {
    return phase_[Bucket(tenant) * kFaultPhaseCount + static_cast<size_t>(p)];
  }
  const LogHistogram& e2e(int tenant) const { return e2e_[Bucket(tenant)]; }

  uint64_t commits() const { return commits_; }
  uint64_t sum_violations() const { return sum_violations_; }
  uint64_t worst_residual_ppm() const { return worst_residual_ppm_; }

  // Total nanoseconds attributed to `p` across all tenants.
  uint64_t TotalNs(FaultPhase p) const {
    uint64_t s = 0;
    for (int b = 0; b < kTenantBuckets; ++b) {
      s += phase_[static_cast<size_t>(b) * kFaultPhaseCount + static_cast<size_t>(p)].sum();
    }
    return s;
  }

  // The on-path phase holding the most total time for `tenant` — the answer
  // to "why is this tenant's p99 high".
  FaultPhase TopContributor(int tenant) const { return TopContributorForBucket(Bucket(tenant)); }

  // Human-readable per-tenant breakdown: one line per active tenant bucket
  // with the top contributor and each on-path phase's share of total fault
  // time. Attached to flight-recorder SLO-breach dumps.
  std::string Report() const {
    std::string out = "fault attribution (per-tenant critical-path shares)\n";
    char line[256];
    for (int b = 0; b < kTenantBuckets; ++b) {
      if (e2e_[b].empty()) {
        continue;
      }
      int tenant = b - 1;  // -1 = untenanted bucket.
      uint64_t total = e2e_[b].sum();
      std::snprintf(line, sizeof(line),
                    "  tenant %2d: faults=%llu e2e-p99=%lluns top=%s\n", tenant,
                    static_cast<unsigned long long>(e2e_[b].count()),
                    static_cast<unsigned long long>(e2e_[b].Percentile(99.0)),
                    FaultPhaseName(TopContributorForBucket(static_cast<size_t>(b))));
      out += line;
      for (size_t i = 0; i < kFaultPhaseCount; ++i) {
        const LogHistogram& h = phase_[static_cast<size_t>(b) * kFaultPhaseCount + i];
        if (h.empty()) {
          continue;
        }
        std::snprintf(line, sizeof(line), "    %-10s %6.2f%%  p99=%lluns  n=%llu%s\n",
                      FaultPhaseName(static_cast<FaultPhase>(i)),
                      total == 0 ? 0.0
                                 : 100.0 * static_cast<double>(h.sum()) /
                                       static_cast<double>(total),
                      static_cast<unsigned long long>(h.Percentile(99.0)),
                      static_cast<unsigned long long>(h.count()),
                      FaultPhaseOnPath(static_cast<FaultPhase>(i)) ? "" : "  (off-path)");
        out += line;
      }
    }
    std::snprintf(line, sizeof(line),
                  "  commits=%llu sum-violations=%llu worst-residual=%llupm\n",
                  static_cast<unsigned long long>(commits_),
                  static_cast<unsigned long long>(sum_violations_),
                  static_cast<unsigned long long>(worst_residual_ppm_));
    out += line;
    return out;
  }

  // Prometheus rows: dilos_fault_phase_ns{tenant, phase, quantile} summaries
  // plus _sum/_count, and the matching dilos_fault_e2e_ns summary.
  std::string ToProm() const {
    std::string out;
    out +=
        "# HELP dilos_fault_phase_ns Demand-fault time by critical-path phase, per tenant.\n"
        "# TYPE dilos_fault_phase_ns summary\n";
    for (int b = 0; b < kTenantBuckets; ++b) {
      for (size_t i = 0; i < kFaultPhaseCount; ++i) {
        const LogHistogram& h = phase_[static_cast<size_t>(b) * kFaultPhaseCount + i];
        if (h.empty()) {
          continue;
        }
        AppendSummary(&out, "dilos_fault_phase_ns", b - 1,
                      FaultPhaseName(static_cast<FaultPhase>(i)), h);
      }
    }
    out +=
        "# HELP dilos_fault_e2e_ns End-to-end demand-fault latency, per tenant.\n"
        "# TYPE dilos_fault_e2e_ns summary\n";
    for (int b = 0; b < kTenantBuckets; ++b) {
      if (!e2e_[b].empty()) {
        AppendSummary(&out, "dilos_fault_e2e_ns", b - 1, nullptr, e2e_[b]);
      }
    }
    return out;
  }

 private:
  static size_t Bucket(int tenant) {
    return static_cast<size_t>(tenant >= 0 && tenant < kTenantBuckets - 1 ? tenant + 1 : 0);
  }

  FaultPhase TopContributorForBucket(size_t b) const {
    FaultPhase top = FaultPhase::kWire;
    uint64_t best = 0;
    for (size_t i = 0; i < kFaultPhaseCount; ++i) {
      auto p = static_cast<FaultPhase>(i);
      uint64_t s = phase_[b * kFaultPhaseCount + i].sum();
      if (FaultPhaseOnPath(p) && s > best) {
        best = s;
        top = p;
      }
    }
    return top;
  }

  static void AppendSummary(std::string* out, const char* name, int tenant,
                            const char* phase, const LogHistogram& h) {
    static constexpr double kQ[] = {50.0, 99.0, 99.9};
    char buf[192];
    char labels[96];
    if (phase != nullptr) {
      std::snprintf(labels, sizeof(labels), "tenant=\"%d\",phase=\"%s\"", tenant, phase);
    } else {
      std::snprintf(labels, sizeof(labels), "tenant=\"%d\"", tenant);
    }
    for (double q : kQ) {
      std::snprintf(buf, sizeof(buf), "%s{%s,quantile=\"%g\"} %llu\n", name, labels,
                    q / 100.0, static_cast<unsigned long long>(h.Percentile(q)));
      *out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%s_sum{%s} %llu\n", name, labels,
                  static_cast<unsigned long long>(h.sum()));
    *out += buf;
    std::snprintf(buf, sizeof(buf), "%s_count{%s} %llu\n", name, labels,
                  static_cast<unsigned long long>(h.count()));
    *out += buf;
  }

  LogHistogram phase_[static_cast<size_t>(kTenantBuckets) * kFaultPhaseCount];
  LogHistogram e2e_[kTenantBuckets];
  uint64_t commits_ = 0;
  uint64_t sum_violations_ = 0;
  uint64_t worst_residual_ppm_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_TELEMETRY_ATTRIBUTION_H_
