// Telemetry umbrella: configuration plus the owner of the optional
// instruments.
//
// Everything here is opt-in and near-zero-cost when off, the same contract
// the tracer has had since PR 1 (trace_capacity == 0 => a compare per
// event). A default TelemetryConfig{} changes nothing: no allocation on any
// fault path, identical RuntimeStats, identical timing. The runtime
// constructs a Telemetry object only when cfg.enabled(), then installs its
// pieces: the MetricsRegistry onto the Fabric's PostSend choke point, the
// FlightRecorder as the tracer's sink, and span recording onto the tracer.
#ifndef DILOS_SRC_TELEMETRY_TELEMETRY_H_
#define DILOS_SRC_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/sim/stats.h"
#include "src/telemetry/attribution.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/histogram.h"
#include "src/telemetry/invariants.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/slo.h"

namespace dilos {

// Minimum sim-time between flight-recorder dumps, so an anomaly storm yields
// one report.
inline constexpr uint64_t kFlightMinIntervalNs = 1'000'000'000;

struct TelemetryConfig {
  // Per-(node, QP class) op/byte/timeout/RTT metrics at the fabric choke
  // point, read back via rt.metrics() / MetricsRegistry::ToProm().
  bool metrics = false;
  // Causal fault-span ring (Tracer::EnableSpans); 0 = off.
  size_t span_capacity = 0;
  // Flight-recorder ring; 0 = off. Independent of trace_capacity — the
  // recorder taps the tracer's sink hook, which fires even when the debug
  // ring is disabled.
  size_t flight_capacity = 0;
  std::string flight_path;  // Dump target; empty = stderr.
  // Check cross-counter invariants (src/telemetry/invariants.h) in the
  // runtime destructor and abort on violation. For tests: every
  // telemetry-enabled run doubles as an accounting audit.
  bool check_invariants = false;
  // Per-fault critical-path phase attribution (src/telemetry/attribution.h):
  // per-(tenant, phase) LogHistograms with a CI-enforced sum-equals-latency
  // invariant. Purely observational — never advances the simulated clock.
  bool attribution = false;
  // Per-tenant latency SLO engine (src/telemetry/slo.h). Enabling it implies
  // attribution stamping: the engine scores the attributed end-to-end fault
  // latency, and breach dumps attach the attribution snapshot.
  SloConfig slo;

  bool enabled() const {
    return metrics || span_capacity != 0 || flight_capacity != 0 || check_invariants ||
           attribution || slo.enabled;
  }
};

// Owns whichever instruments the config enabled. Held by the runtime via
// unique_ptr (null when telemetry is off), so the off path costs one
// pointer test wherever telemetry is consulted.
class Telemetry {
 public:
  Telemetry(const TelemetryConfig& cfg, int num_nodes) : cfg_(cfg) {
    if (cfg.metrics) {
      metrics_ = std::make_unique<MetricsRegistry>(num_nodes);
    }
    if (cfg.flight_capacity != 0) {
      flight_ = std::make_unique<FlightRecorder>(cfg.flight_capacity, cfg.flight_path,
                                                 kFlightMinIntervalNs);
    }
    if (cfg.attribution || cfg.slo.enabled) {
      attribution_ = std::make_unique<FaultAttribution>();
    }
    if (cfg.slo.enabled) {
      slo_ = std::make_unique<SloEngine>(cfg.slo);
    }
  }

  const TelemetryConfig& config() const { return cfg_; }

  MetricsRegistry* metrics() { return metrics_.get(); }
  const MetricsRegistry* metrics() const { return metrics_.get(); }
  FlightRecorder* flight() { return flight_.get(); }
  const FlightRecorder* flight() const { return flight_.get(); }
  FaultAttribution* attribution() { return attribution_.get(); }
  const FaultAttribution* attribution() const { return attribution_.get(); }
  SloEngine* slo() { return slo_.get(); }
  const SloEngine* slo() const { return slo_.get(); }

 private:
  TelemetryConfig cfg_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<FlightRecorder> flight_;
  std::unique_ptr<FaultAttribution> attribution_;
  std::unique_ptr<SloEngine> slo_;
};

}  // namespace dilos

#endif  // DILOS_SRC_TELEMETRY_TELEMETRY_H_
