// Per-tenant latency SLO engine with multi-window burn-rate alerting
// (opt-in, TelemetryConfig::slo.enabled).
//
// An objective is "percentile p of demand-fault latency stays under T ns" —
// e.g. {99.0, 20'000} reads "p99 < 20 µs". Every committed fault is scored
// good/bad against its tenant's threshold; the *error budget* is the bad
// fraction the objective tolerates (1 - p/100, so a p99 objective allows 1%
// bad). Burn rate is the classic SRE ratio: observed bad fraction divided by
// the allowed fraction — burn 1.0 consumes the budget exactly as fast as the
// objective permits, burn 14 exhausts a month-scale budget in hours.
//
// Alerting is multi-window (fast AND slow must both burn) so a brief blip
// can't page while a sustained regression pages quickly, with hysteresis: an
// active alert re-arms only after the fast burn drops below
// kClearRatio * fast threshold. Windows are measured in *fault counts*, not
// wall time — the simulator's clock rate varies wildly across cost models,
// but "the last N faults" means the same thing everywhere. Each window is a
// ring of kWindowBuckets sub-buckets (fixed memory, O(1) update); the rolling
// view spans between (K-1)/K·N and N faults as buckets rotate.
//
// The engine is observational only: it never touches the simulated clock,
// RuntimeStats, or the fault path's control flow. A breach (alert edge)
// returns true from Observe so the runtime can attach an attribution
// snapshot to a flight-recorder dump and record TraceEvent::kSloBreach.
#ifndef DILOS_SRC_TELEMETRY_SLO_H_
#define DILOS_SRC_TELEMETRY_SLO_H_

#include <cstdint>
#include <string>

namespace dilos {

// A tenant's latency objective; inert (no scoring) until both fields are set.
// Lives here — not in src/tenant — so the dependency stays tenant → telemetry.
struct SloObjective {
  double percentile = 0.0;    // Target percentile, e.g. 99.0 for p99.
  uint64_t threshold_ns = 0;  // Latency bound the percentile must stay under.

  bool active() const { return percentile > 0.0 && threshold_ns > 0; }
  // Allowed bad fraction (the error budget rate), e.g. 0.01 for p99.
  double allowed() const { return 1.0 - percentile / 100.0; }
};

struct SloConfig {
  bool enabled = false;
  // Window lengths in faults. Defaults follow the issue's sim-scale framing:
  // a fast window of 1M faults (pages quickly on a hard regression) and a
  // slow 32M-fault window (confirms it is sustained). Tests and benches
  // shrink both.
  uint64_t fast_window_faults = 1'000'000;
  uint64_t slow_window_faults = 32'000'000;
  // Objective applied to faults on untenanted regions (bucket "-1").
  SloObjective default_objective;
};

class SloEngine {
 public:
  // Mirrors MetricsRegistry / FaultAttribution: bucket 0 = untenanted,
  // 1..16 = tenant ids 0..15.
  static constexpr int kTenantBuckets = 17;
  static constexpr int kWindowBuckets = 8;
  // Burn-rate thresholds; both must be met to fire (multi-window rule).
  static constexpr double kFastBurnAlert = 14.0;
  static constexpr double kSlowBurnAlert = 1.0;
  // Hysteresis: an active alert clears when the fast burn falls below
  // kClearRatio * kFastBurnAlert.
  static constexpr double kClearRatio = 0.5;

  explicit SloEngine(const SloConfig& cfg);

  // Installs/overwrites a tenant's objective (runtime calls this from
  // CreateTenant with TenantSpec::slo). Inactive objectives disable scoring.
  void SetObjective(int tenant, const SloObjective& o);

  // Scores one fault. Returns true exactly when this observation *fired* a
  // breach alert (edge-triggered: the alert was not already active and both
  // window burn rates crossed their thresholds).
  bool Observe(int tenant, uint64_t latency_ns, uint64_t now_ns);

  const SloObjective& objective(int tenant) const { return state_[Bucket(tenant)].obj; }
  bool alert_active(int tenant) const { return state_[Bucket(tenant)].alert_active; }
  uint64_t alerts_fired(int tenant) const { return state_[Bucket(tenant)].alerts; }
  uint64_t faults(int tenant) const { return state_[Bucket(tenant)].total; }
  uint64_t bad_faults(int tenant) const { return state_[Bucket(tenant)].bad; }

  // Burn rate over the fast or slow window: (bad fraction) / allowed.
  double burn_rate(int tenant, bool fast) const;

  // Lifetime error-budget consumption: fraction of the tolerated bad faults
  // already spent (>= 1.0 means the objective is blown over the run).
  double budget_used(int tenant) const;
  bool budget_exhausted(int tenant) const { return budget_used(tenant) >= 1.0; }

  // Text block for flight-recorder breach dumps.
  std::string Report() const;

  // Prometheus rows: dilos_slo_faults_total, dilos_slo_bad_total,
  // dilos_slo_alerts_total, dilos_slo_burn_fast, dilos_slo_burn_slow,
  // dilos_slo_budget_used, dilos_slo_threshold_ns.
  std::string ToProm() const;

 private:
  // Fault-count ring window: cur fills to cap, then rotates (evicting the
  // oldest 1/K of the view). O(1) per observation, fixed memory.
  struct Window {
    uint64_t faults[kWindowBuckets] = {};
    uint64_t bad[kWindowBuckets] = {};
    int cur = 0;
    uint64_t bucket_cap = 1;
    uint64_t rotations = 0;

    void Configure(uint64_t window_faults);
    void Add(bool is_bad);
    double BadFraction() const;
  };

  struct TenantState {
    SloObjective obj;
    Window fast;
    Window slow;
    uint64_t total = 0;
    uint64_t bad = 0;
    bool alert_active = false;
    uint64_t alerts = 0;
    uint64_t last_alert_ns = 0;
  };

  static size_t Bucket(int tenant) {
    return static_cast<size_t>(tenant >= 0 && tenant < kTenantBuckets - 1 ? tenant + 1 : 0);
  }

  SloConfig cfg_;
  TenantState state_[kTenantBuckets];
};

}  // namespace dilos

#endif  // DILOS_SRC_TELEMETRY_SLO_H_
