// Flight recorder: an always-on secondary event ring plus an anomaly
// trigger.
//
// The debug tracer's ring is usually off (trace_capacity == 0) because
// nobody knows in advance which run will go wrong. The flight recorder
// inverts that: it tees every trace record into its own cheap ring via the
// TraceSink hook (a ring store per event, no formatting), and when one of
// the data-loss counters moves — failed_fetches, repair_pages_lost,
// checksum_mismatches, tier_corrupt_drops — it dumps the last N events, a
// RuntimeStats snapshot, and the per-node metrics to a file or stderr at
// the moment the anomaly happened, rate-limited so a corruption storm
// produces one report, not thousands.
#ifndef DILOS_SRC_TELEMETRY_FLIGHT_RECORDER_H_
#define DILOS_SRC_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/ring.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/telemetry/metrics.h"

namespace dilos {

class FlightRecorder : public TraceSink {
 public:
  // `path` empty => dump to stderr. The last dump is always kept in
  // last_dump() regardless, so tests never need to read files.
  FlightRecorder(size_t capacity, std::string path, uint64_t min_interval_ns)
      : ring_(capacity), path_(std::move(path)), min_interval_ns_(min_interval_ns) {}

  void OnTrace(const TraceRecord& r) override { ring_.Push(r); }

  // Checks the anomaly counters against their high-water marks and dumps if
  // any moved. Called from the runtime's background tick — cost when healthy
  // is four compares. Returns true when a dump was emitted.
  bool MaybeTrigger(uint64_t now_ns, const RuntimeStats& stats,
                    const MetricsRegistry* metrics) {
    uint64_t level = AnomalyLevel(stats);
    if (level <= watermark_) {
      return false;
    }
    if (dumps_ != 0 && now_ns < last_dump_ns_ + min_interval_ns_) {
      return false;  // Storm: stay armed, report once the window passes.
    }
    watermark_ = level;
    last_dump_ns_ = now_ns;
    ++dumps_;
    last_dump_ = BuildReport(now_ns, stats, metrics, nullptr, nullptr);
    Emit(last_dump_);
    return true;
  }

  // Unconditional dump for non-watermark triggers (SLO breaches): bypasses
  // the anomaly-counter check but keeps the rate limit, so an alert storm
  // still yields one report per window. `reason` names the trigger in the
  // header; `extra` (attribution + SLO snapshot) is appended before the end
  // marker. Returns true when a dump was emitted.
  bool ForceDump(uint64_t now_ns, const RuntimeStats& stats, const MetricsRegistry* metrics,
                 const char* reason, const std::string& extra) {
    if (dumps_ != 0 && now_ns < last_dump_ns_ + min_interval_ns_) {
      return false;
    }
    last_dump_ns_ = now_ns;
    ++dumps_;
    last_dump_ = BuildReport(now_ns, stats, metrics, reason, &extra);
    Emit(last_dump_);
    return true;
  }

  // Events in chronological order (oldest surviving first).
  std::vector<TraceRecord> Snapshot() const { return ring_.Snapshot(); }

  uint64_t total_recorded() const { return ring_.pushed(); }
  uint64_t dumps() const { return dumps_; }
  const std::string& last_dump() const { return last_dump_; }

  // The combined anomaly level: moves exactly when data was lost or found
  // corrupt. All four are monotone counters, so the sum is too.
  static uint64_t AnomalyLevel(const RuntimeStats& s) {
    return s.failed_fetches + s.repair_pages_lost + s.checksum_mismatches +
           s.tier_corrupt_drops;
  }

 private:
  std::string BuildReport(uint64_t now_ns, const RuntimeStats& stats,
                          const MetricsRegistry* metrics, const char* reason,
                          const std::string* extra) const {
    std::string out;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "=== flight recorder dump #%llu at %llu ns%s%s ===\n"
                  "anomaly counters: failed_fetches=%llu repair_pages_lost=%llu "
                  "checksum_mismatches=%llu tier_corrupt_drops=%llu\n",
                  static_cast<unsigned long long>(dumps_),
                  static_cast<unsigned long long>(now_ns),
                  reason != nullptr ? " trigger=" : "", reason != nullptr ? reason : "",
                  static_cast<unsigned long long>(stats.failed_fetches),
                  static_cast<unsigned long long>(stats.repair_pages_lost),
                  static_cast<unsigned long long>(stats.checksum_mismatches),
                  static_cast<unsigned long long>(stats.tier_corrupt_drops));
    out += line;
    auto snap = Snapshot();
    std::snprintf(line, sizeof(line), "--- last %zu events (of %llu recorded) ---\n",
                  snap.size(), static_cast<unsigned long long>(ring_.pushed()));
    out += line;
    for (const TraceRecord& r : snap) {
      std::snprintf(line, sizeof(line), "%12llu ns  %-18s page=0x%llx detail=%u\n",
                    static_cast<unsigned long long>(r.time_ns), TraceEventName(r.event),
                    static_cast<unsigned long long>(r.page_va), r.detail);
      out += line;
    }
    out += "--- stats snapshot ---\n";
    out += stats.ToString();
    if (metrics != nullptr) {
      out += "--- per-node fabric metrics ---\n";
      out += metrics->ToString();
    }
    if (extra != nullptr && !extra->empty()) {
      out += "--- attribution snapshot ---\n";
      out += *extra;
    }
    out += "=== end dump ===\n";
    return out;
  }

  void Emit(const std::string& report) const {
    if (path_.empty()) {
      std::fputs(report.c_str(), stderr);
      return;
    }
    std::FILE* f = std::fopen(path_.c_str(), "a");
    if (f == nullptr) {
      std::fputs(report.c_str(), stderr);
      return;
    }
    std::fputs(report.c_str(), f);
    std::fclose(f);
  }

  Ring<TraceRecord> ring_;
  std::string path_;
  uint64_t min_interval_ns_;
  uint64_t watermark_ = 0;
  uint64_t last_dump_ns_ = 0;
  uint64_t dumps_ = 0;
  std::string last_dump_;
};

}  // namespace dilos

#endif  // DILOS_SRC_TELEMETRY_FLIGHT_RECORDER_H_
