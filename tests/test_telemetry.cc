// Tests for the telemetry subsystem (src/telemetry) and the tracer's span
// extension (src/sim/trace.h): log-bucket histogram accuracy against exact
// nearest-rank percentiles, per-(node, QP-class) metrics at the fabric
// choke point, causal span nesting + Chrome-trace JSON export, the flight
// recorder's anomaly trigger, the counter-invariant checker, and the
// telemetry-off == bit-identical-stats contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/sim/rng.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/invariants.h"

namespace dilos {
namespace {

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (uint64_t v = 0; v < LogHistogram::kSub; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), LogHistogram::kSub);
  EXPECT_EQ(h.MinNs(), 0u);
  EXPECT_EQ(h.MaxNs(), LogHistogram::kSub - 1);
  // Below kSub each value owns its bucket, so percentiles are exact.
  EXPECT_EQ(h.Percentile(0), 0u);
  EXPECT_EQ(h.Percentile(100), LogHistogram::kSub - 1);
  // Nearest rank: round(0.5 * (count - 1)) = 32 for 64 samples 0..63.
  EXPECT_EQ(h.Percentile(50), 32u);
}

TEST(LogHistogram, EmptyAndReset) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Percentile(99), 0u);
  EXPECT_EQ(h.MeanNs(), 0.0);
  h.Record(12345);
  EXPECT_FALSE(h.empty());
  h.Reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.MaxNs(), 0u);
  EXPECT_EQ(h.bucket_count(), 0u);
}

TEST(LogHistogram, BucketRoundTripWithinRelativeWidth) {
  // The bucket representative must be within one bucket width (1/kSub
  // relative) of every value keyed into it.
  for (uint64_t v : {1ull, 63ull, 64ull, 65ull, 127ull, 128ull, 1000ull, 4096ull,
                     1ull << 20, (1ull << 20) + 12345, 987654321ull, 1ull << 40}) {
    uint64_t rep = LogHistogram::BucketValue(LogHistogram::BucketIndex(v));
    double rel = std::abs(static_cast<double>(rep) - static_cast<double>(v)) /
                 static_cast<double>(v);
    EXPECT_LE(rel, 1.0 / LogHistogram::kSub) << "v=" << v << " rep=" << rep;
  }
}

TEST(LogHistogram, MergeMatchesCombinedRecording) {
  Rng rng(11);
  LogHistogram a, b, combined;
  for (int i = 0; i < 20'000; ++i) {
    uint64_t v = 100 + rng.NextBelow(1'000'000);
    combined.Record(v);
    (i % 2 == 0 ? a : b).Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.MinNs(), combined.MinNs());
  EXPECT_EQ(a.MaxNs(), combined.MaxNs());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(a.Percentile(p), combined.Percentile(p)) << "p=" << p;
  }
}

double RelErr(uint64_t approx, uint64_t exact) {
  if (exact == 0) {
    return approx == 0 ? 0.0 : 1.0;
  }
  return std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
         static_cast<double>(exact);
}

// Exact nearest-rank percentile: the sample at rank round(p/100 * (n-1)).
uint64_t ExactPercentile(std::vector<uint64_t> samples, double p) {
  auto rank = static_cast<size_t>(
      std::llround(p / 100.0 * static_cast<double>(samples.size() - 1)));
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

// The acceptance bound: p50/p99/p99.9 within 3% of the exact value on
// >= 1e5 samples, across distribution shapes, at O(#buckets) memory.
void CheckAccuracy(const char* shape, const std::vector<uint64_t>& samples) {
  LogHistogram h;
  for (uint64_t v : samples) {
    h.Record(v);
  }
  for (double p : {50.0, 99.0, 99.9}) {
    uint64_t exact = ExactPercentile(samples, p);
    EXPECT_LE(RelErr(h.Percentile(p), exact), 0.03)
        << shape << " p" << p << ": log=" << h.Percentile(p) << " exact=" << exact;
  }
  // Constant memory: bucket slots, not samples. 64 octaves x 64 sub-buckets
  // is the absolute ceiling; any realistic latency range stays far below.
  EXPECT_LT(h.bucket_count(), 64u * LogHistogram::kSub);
  EXPECT_LT(h.bucket_count(), samples.size() / 10);
}

TEST(LogHistogram, AccuracyUniform) {
  Rng rng(101);
  std::vector<uint64_t> s;
  s.reserve(120'000);
  for (int i = 0; i < 120'000; ++i) {
    s.push_back(1'000 + rng.NextBelow(2'000'000));
  }
  CheckAccuracy("uniform", s);
}

TEST(LogHistogram, AccuracyPareto) {
  Rng rng(202);
  std::vector<uint64_t> s;
  s.reserve(120'000);
  for (int i = 0; i < 120'000; ++i) {
    double u = rng.NextDouble();
    if (u < 1e-9) {
      u = 1e-9;
    }
    // Pareto(xm = 500, alpha = 1.3): the heavy tail log-bucketing exists for.
    s.push_back(static_cast<uint64_t>(500.0 / std::pow(u, 1.0 / 1.3)));
  }
  CheckAccuracy("pareto", s);
}

TEST(LogHistogram, AccuracyBimodal) {
  Rng rng(303);
  std::vector<uint64_t> s;
  s.reserve(120'000);
  for (int i = 0; i < 120'000; ++i) {
    if (rng.NextBelow(100) < 80) {
      s.push_back(900 + rng.NextBelow(200));  // Fast mode (hit).
    } else {
      s.push_back(95'000 + rng.NextBelow(10'000));  // Slow mode (miss).
    }
  }
  CheckAccuracy("bimodal", s);
}

// ---------------------------------------------------------------------------
// Tracer ring wraparound
// ---------------------------------------------------------------------------

void RecordN(Tracer& t, uint64_t n, uint64_t t0 = 1) {
  for (uint64_t i = 0; i < n; ++i) {
    t.Record(t0 + i, TraceEvent::kMajorFault, 0x1000 + i, static_cast<uint32_t>(i));
  }
}

TEST(TracerRing, ExactCapacityKeepsEverythingInOrder) {
  Tracer t(8);
  RecordN(t, 8);
  EXPECT_EQ(t.total_recorded(), 8u);
  auto snap = t.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].time_ns, 1 + i);
  }
}

TEST(TracerRing, CapacityPlusOneDropsOnlyTheOldest) {
  Tracer t(8);
  RecordN(t, 9);
  EXPECT_EQ(t.total_recorded(), 9u);
  auto snap = t.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_EQ(snap.front().time_ns, 2u);  // Record at t=1 was overwritten.
  EXPECT_EQ(snap.back().time_ns, 9u);
}

TEST(TracerRing, MultiLapStaysChronological) {
  Tracer t(8);
  RecordN(t, 8 * 3 + 5);
  EXPECT_EQ(t.total_recorded(), 29u);
  auto snap = t.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_EQ(snap.front().time_ns, 22u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].time_ns, snap[i - 1].time_ns + 1);
  }
}

TEST(TracerRing, SpanRingWrapsByCompletionOrder) {
  Tracer t(0);  // Debug ring off; spans are independent.
  t.EnableSpans(4);
  for (uint32_t i = 0; i < 6; ++i) {
    uint32_t id = t.BeginSpan(SpanKind::kFault, i * 10, 0x2000 + i);
    t.EndSpan(id, i * 10 + 5);
  }
  EXPECT_EQ(t.total_spans(), 6u);
  auto snap = t.SpanSnapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().id, 3u);  // Spans 1 and 2 were overwritten.
  EXPECT_EQ(snap.back().id, 6u);
  for (const SpanRecord& s : snap) {
    EXPECT_EQ(s.end_ns, s.begin_ns + 5);
    EXPECT_EQ(s.parent, 0u);
  }
}

TEST(TracerSpans, DisabledBeginReturnsZeroAndEndIsNoop) {
  Tracer t(4);
  uint32_t id = t.BeginSpan(SpanKind::kFetchAttempt, 10, 0x1000);
  EXPECT_EQ(id, 0u);
  t.EndSpan(id, 20);  // Must not crash or record anything.
  EXPECT_EQ(t.total_spans(), 0u);
}

TEST(TracerSpans, LifoNestingTracksParents) {
  Tracer t(0);
  t.EnableSpans(16);
  uint32_t fault = t.BeginSpan(SpanKind::kFault, 100, 0xA000);
  uint32_t attempt1 = t.BeginSpan(SpanKind::kFetchAttempt, 110, 0xA000, 0);
  t.EndSpan(attempt1, 150);
  uint32_t backoff = t.BeginSpan(SpanKind::kRetryBackoff, 150, 0xA000, 1);
  t.EndSpan(backoff, 180);
  uint32_t attempt2 = t.BeginSpan(SpanKind::kFetchAttempt, 180, 0xA000, 1);
  t.EndSpan(attempt2, 220);
  t.EndSpan(fault, 230);
  EXPECT_EQ(t.open_spans(), 0u);

  auto snap = t.SpanSnapshot();
  ASSERT_EQ(snap.size(), 4u);
  std::map<uint32_t, SpanRecord> by_id;
  for (const SpanRecord& s : snap) {
    by_id[s.id] = s;
  }
  EXPECT_EQ(by_id[fault].parent, 0u);
  EXPECT_EQ(by_id[attempt1].parent, fault);
  EXPECT_EQ(by_id[backoff].parent, fault);
  EXPECT_EQ(by_id[attempt2].parent, fault);
  // Children are contained in the parent's interval.
  for (uint32_t id : {attempt1, backoff, attempt2}) {
    EXPECT_GE(by_id[id].begin_ns, by_id[fault].begin_ns);
    EXPECT_LE(by_id[id].end_ns, by_id[fault].end_ns);
  }
}

// ---------------------------------------------------------------------------
// Chrome trace JSON
// ---------------------------------------------------------------------------

// Minimal structural JSON validator: enough grammar to prove the export is
// machine-parseable (balanced containers, quoted keys, legal values) without
// a JSON library in the repo.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Valid() {
    Ws();
    if (!Value()) {
      return false;
    }
    Ws();
    return pos_ == s_.size();
  }

 private:
  void Ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool String() {
    if (!Eat('"')) {
      return false;
    }
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
      }
      ++pos_;
    }
    return Eat('"');
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }
  bool Value() {
    Ws();
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    Eat('{');
    Ws();
    if (Eat('}')) {
      return true;
    }
    while (true) {
      Ws();
      if (!String()) {
        return false;
      }
      Ws();
      if (!Eat(':') || !Value()) {
        return false;
      }
      Ws();
      if (Eat('}')) {
        return true;
      }
      if (!Eat(',')) {
        return false;
      }
    }
  }
  bool Array() {
    Eat('[');
    Ws();
    if (Eat(']')) {
      return true;
    }
    while (true) {
      if (!Value()) {
        return false;
      }
      Ws();
      if (Eat(']')) {
        return true;
      }
      if (!Eat(',')) {
        return false;
      }
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

size_t CountSub(const std::string& s, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ChromeJson, SyntheticScheduleValidatesAndCarriesBothPhases) {
  Tracer t(8);
  t.EnableSpans(16);
  t.Record(50, TraceEvent::kOpTimeout, 0xB000, 1);
  uint32_t fault = t.BeginSpan(SpanKind::kFault, 100, 0xB000);
  uint32_t attempt = t.BeginSpan(SpanKind::kFetchAttempt, 110, 0xB000);
  t.EndSpan(attempt, 160);
  t.EndSpan(fault, 170);

  std::string json = t.ToChromeJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  // Complete (span) events and instant (point) events, each with the keys
  // the Chrome trace-event format requires.
  EXPECT_EQ(CountSub(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(CountSub(json, "\"ph\":\"i\""), 1u);
  EXPECT_EQ(CountSub(json, "\"ph\":\"X\"") + CountSub(json, "\"ph\":\"i\""),
            CountSub(json, "\"pid\":0"));
  EXPECT_EQ(CountSub(json, "\"ph\":\"X\""), CountSub(json, "\"dur\":"));
  EXPECT_NE(json.find("\"name\":\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fetch-attempt\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"op-timeout\""), std::string::npos);
}

// Round-trip the acceptance schedule: a demand fault that times out against
// a crashed node, backs off, retries, and fails over — exported as loadable
// Chrome trace JSON with the retry nested under its fault.
TEST(ChromeJson, FaultWithRetryScheduleRoundTrips) {
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg;
  cfg.local_mem_bytes = 32 * kPageSize;
  cfg.replication = 2;
  cfg.recovery.enabled = true;
  cfg.trace_capacity = 512;
  cfg.telemetry.span_capacity = 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());

  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p);
  }
  fabric.CrashNode(0);
  for (uint64_t p = 0; p < pages; ++p) {
    EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p);
  }
  ASSERT_GT(rt.stats().fetch_retries, 0u) << "schedule must contain retries";

  auto spans = rt.tracer().SpanSnapshot();
  ASSERT_FALSE(spans.empty());
  std::map<uint32_t, SpanRecord> by_id;
  for (const SpanRecord& s : spans) {
    by_id[s.id] = s;
  }
  size_t retries = 0;
  for (const SpanRecord& s : spans) {
    if (s.kind == SpanKind::kFault) {
      EXPECT_EQ(s.parent, 0u) << "fault spans are roots";
      continue;
    }
    // Children nest under a fault root (when it still lives in the ring).
    EXPECT_NE(s.parent, 0u) << SpanKindName(s.kind);
    auto it = by_id.find(s.parent);
    if (it != by_id.end()) {
      EXPECT_EQ(it->second.kind, SpanKind::kFault);
      EXPECT_GE(s.begin_ns, it->second.begin_ns);
      EXPECT_LE(s.end_ns, it->second.end_ns);
    }
    if (s.kind == SpanKind::kRetryBackoff) {
      ++retries;
    }
  }
  EXPECT_GT(retries, 0u);

  std::string json = rt.tracer().ToChromeJson();
  EXPECT_TRUE(JsonValidator(json).Valid());
  EXPECT_NE(json.find("\"name\":\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fetch-attempt\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"retry-backoff\""), std::string::npos);
  EXPECT_EQ(CountSub(json, "\"ph\":\"X\""), spans.size());
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CellsAccumulateAndAggregate) {
  MetricsRegistry reg(2);
  reg.OnOp(0, QpClass::kFault, false, 4096, 3000, true, false);
  reg.OnOp(0, QpClass::kFault, false, 4096, 5000, true, false);
  reg.OnOp(0, QpClass::kCleaner, true, 4096, 4000, true, false);
  reg.OnOp(1, QpClass::kFault, false, 0, 0, false, true);  // Timeout.
  reg.OnOp(1, QpClass::kFault, false, 0, 0, false, false);  // Error.
  reg.OnRetry(1, QpClass::kFault);
  reg.OnOp(7, QpClass::kFault, false, 4096, 1000, true, false);  // Out of range.
  reg.OnOp(-1, QpClass::kFault, false, 4096, 1000, true, false);

  const QpMetrics& f0 = reg.at(0, QpClass::kFault);
  EXPECT_EQ(f0.reads, 2u);
  EXPECT_EQ(f0.read_bytes, 8192u);
  EXPECT_EQ(f0.rtt.count(), 2u);
  EXPECT_EQ(f0.timeouts, 0u);
  const QpMetrics& f1 = reg.at(1, QpClass::kFault);
  EXPECT_EQ(f1.ops(), 0u);  // Failed ops move no payload.
  EXPECT_EQ(f1.timeouts, 1u);
  EXPECT_EQ(f1.errors, 1u);
  EXPECT_EQ(f1.retries, 1u);
  EXPECT_EQ(f1.rtt.count(), 0u);  // Timeouts never pollute the RTT histogram.

  EXPECT_EQ(reg.NodeTotal(0).ops(), 3u);
  EXPECT_EQ(reg.NodeTotal(0).bytes(), 12288u);
  EXPECT_EQ(reg.Total().ops(), 3u);
  EXPECT_EQ(reg.Total().timeouts, 1u);

  reg.Reset();
  EXPECT_EQ(reg.Total().ops(), 0u);
  EXPECT_EQ(reg.Total().timeouts, 0u);
}

TEST(MetricsRegistry, PromExpositionHasCountersAndQuantiles) {
  MetricsRegistry reg(2);
  for (int i = 0; i < 100; ++i) {
    reg.OnOp(0, QpClass::kFault, false, 4096, 2000 + i * 10, true, false);
  }
  reg.OnOp(1, QpClass::kProbe, false, 0, 0, false, true);
  reg.OnRetry(1, QpClass::kFault);

  std::string prom = reg.ToProm();
  EXPECT_NE(prom.find("# TYPE dilos_qp_ops_total counter"), std::string::npos);
  EXPECT_NE(prom.find("dilos_qp_ops_total{node=\"0\",qp=\"fault\",op=\"read\"} 100"),
            std::string::npos);
  EXPECT_NE(prom.find("dilos_qp_bytes_total{node=\"0\",qp=\"fault\",dir=\"read\"} 409600"),
            std::string::npos);
  EXPECT_NE(prom.find("dilos_qp_timeouts_total{node=\"1\",qp=\"probe\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("dilos_qp_retries_total{node=\"1\",qp=\"fault\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("dilos_qp_rtt_ns{node=\"0\",qp=\"fault\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("dilos_qp_rtt_ns_count{node=\"0\",qp=\"fault\"} 100"),
            std::string::npos);
  // Inactive cells are skipped: node 1 never had a successful fault-class op.
  EXPECT_EQ(prom.find("dilos_qp_ops_total{node=\"1\""), std::string::npos);
}

// The per-node acceptance scenario: 3 nodes, replication=2, node 0 crashes
// under load. The registry must show the dead node accumulating fault-QP
// timeouts while the survivors accumulate read bytes, consistent with the
// RuntimeStats the runtime kept on its own.
TEST(MetricsRegistry, PerNodeViewSeesAsymmetricCrash) {
  Fabric fabric(CostModel::Default(), 3);
  DilosConfig cfg;
  cfg.local_mem_bytes = 48 * kPageSize;
  cfg.replication = 2;
  cfg.recovery.enabled = true;
  cfg.telemetry.metrics = true;
  cfg.telemetry.check_invariants = true;  // Shutdown doubles as an audit.
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  ASSERT_NE(rt.metrics(), nullptr);

  const uint64_t pages = 192;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xBEEF);
  }
  fabric.CrashNode(0);
  // Sweep in reverse so the dead node's granule faults before the probe
  // machinery (driven by the clock advancing under the earlier faults)
  // declares it dead — the demand path itself must meet the timeout.
  for (uint64_t p = pages; p-- > 0;) {
    EXPECT_EQ(rt.Read<uint64_t>(region + p * kPageSize), p ^ 0xBEEF);
  }
  EXPECT_EQ(rt.stats().failed_fetches, 0u);

  const MetricsRegistry& reg = *rt.metrics();
  // The dead node: demand fetches against it exhausted RC retransmission.
  EXPECT_GT(reg.at(0, QpClass::kFault).timeouts, 0u);
  // The survivors served the failover reads.
  uint64_t survivor_read_bytes =
      reg.NodeTotal(1).read_bytes + reg.NodeTotal(2).read_bytes;
  EXPECT_GT(survivor_read_bytes, 0u);
  EXPECT_GT(reg.at(1, QpClass::kFault).reads + reg.at(2, QpClass::kFault).reads, 0u);

  // Consistency with RuntimeStats: the choke point sees every runtime-level
  // timeout, and every payload byte the runtime counted as fetched.
  EXPECT_GE(reg.Total().timeouts, rt.stats().op_timeouts);
  EXPECT_GE(reg.Total().read_bytes, rt.stats().bytes_fetched);
  EXPECT_GE(reg.Total().write_bytes, rt.stats().bytes_written);
  // Retry attribution lands on the node the retries were aimed at.
  EXPECT_GE(reg.Total().retries, 1u);

  std::string prom = reg.ToProm();
  EXPECT_NE(prom.find("dilos_qp_timeouts_total{node=\"0\",qp=\"fault\"}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, TriggersOnLossCounterDeltaAndRateLimits) {
  FlightRecorder fr(4, "", 1'000);
  for (uint64_t i = 0; i < 6; ++i) {
    fr.OnTrace({i * 10, TraceEvent::kMajorFault, 0x1000 + i, 0});
  }
  EXPECT_EQ(fr.total_recorded(), 6u);
  EXPECT_EQ(fr.Snapshot().size(), 4u);

  RuntimeStats s;
  EXPECT_FALSE(fr.MaybeTrigger(10, s, nullptr));  // No anomaly yet.
  s.checksum_mismatches = 2;
  EXPECT_TRUE(fr.MaybeTrigger(20, s, nullptr));
  EXPECT_EQ(fr.dumps(), 1u);
  EXPECT_NE(fr.last_dump().find("checksum_mismatches=2"), std::string::npos);
  EXPECT_NE(fr.last_dump().find("major-fault"), std::string::npos);
  EXPECT_NE(fr.last_dump().find("dump #1"), std::string::npos);

  // Same level again: no re-dump.
  EXPECT_FALSE(fr.MaybeTrigger(30, s, nullptr));
  // New anomaly inside the rate-limit window: stays armed, no dump yet.
  s.failed_fetches = 1;
  EXPECT_FALSE(fr.MaybeTrigger(40, s, nullptr));
  EXPECT_EQ(fr.dumps(), 1u);
  // Window passed: the armed anomaly reports.
  EXPECT_TRUE(fr.MaybeTrigger(20 + 1'000, s, nullptr));
  EXPECT_EQ(fr.dumps(), 2u);
  EXPECT_NE(fr.last_dump().find("failed_fetches=1"), std::string::npos);
}

TEST(FlightRecorder, IncludesMetricsWhenProvided) {
  FlightRecorder fr(4, "", 0);
  MetricsRegistry reg(1);
  reg.OnOp(0, QpClass::kFault, false, 4096, 2500, true, false);
  RuntimeStats s;
  s.tier_corrupt_drops = 1;
  EXPECT_TRUE(fr.MaybeTrigger(5, s, &reg));
  EXPECT_NE(fr.last_dump().find("per-node fabric metrics"), std::string::npos);
  EXPECT_NE(fr.last_dump().find("node 0 fault"), std::string::npos);
}

// End to end: a crash with no surviving replica moves failed_fetches, and
// the runtime's background tick fires the recorder — with the debug trace
// ring off, proving the sink tee keeps the recorder fed on its own.
TEST(FlightRecorder, RuntimeDumpsOnRealDataLoss) {
  Fabric fabric(CostModel::Default(), 1);
  DilosConfig cfg;
  cfg.local_mem_bytes = 16 * kPageSize;
  cfg.replication = 1;
  cfg.recovery.enabled = true;
  cfg.telemetry.flight_capacity = 64;
  ASSERT_EQ(cfg.trace_capacity, 0u);
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());

  const uint64_t pages = 64;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p + 7);
  }
  fabric.CrashNode(0);
  for (uint64_t p = 0; p < pages; ++p) {
    (void)rt.Read<uint64_t>(region + p * kPageSize);
  }
  ASSERT_GT(rt.stats().failed_fetches, 0u);

  FlightRecorder* fr = rt.telemetry()->flight();
  ASSERT_NE(fr, nullptr);
  EXPECT_GT(fr->total_recorded(), 0u);
  EXPECT_GE(fr->dumps(), 1u);
  EXPECT_NE(fr->last_dump().find("failed_fetches"), std::string::npos);
  EXPECT_NE(fr->last_dump().find("op-timeout"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Invariant checker
// ---------------------------------------------------------------------------

TEST(Invariants, ConsistentStatsPass) {
  RuntimeStats s;
  s.major_faults = 10;
  s.minor_faults = 5;
  s.probes_sent = 8;
  s.probe_misses = 3;
  s.repairs_issued = 4;
  s.repair_granules = 4;
  EXPECT_TRUE(CheckStatsInvariants(s, false).empty());
  EXPECT_TRUE(CheckStatsInvariants(s, true).empty());
}

TEST(Invariants, ImpossibleCountersAreNamed) {
  RuntimeStats s;
  s.repair_granules = 3;
  s.repairs_issued = 1;
  auto v = CheckStatsInvariants(s, false);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("repair_granules"), std::string::npos);

  RuntimeStats s2;
  s2.tier_hits = 5;  // A tier hit that was never counted as a minor fault.
  EXPECT_TRUE(CheckStatsInvariants(s2, false).empty()) << "tier checks are gated";
  auto v2 = CheckStatsInvariants(s2, true);
  ASSERT_FALSE(v2.empty());
  EXPECT_NE(v2[0].find("tier_hits"), std::string::npos);

  RuntimeStats s3;
  s3.ec_degraded_reads = 2;
  s3.degraded_reads = 1;
  s3.probe_misses = 1;  // And a second violation in the same pass.
  auto v3 = CheckStatsInvariants(s3, false);
  EXPECT_EQ(v3.size(), 2u);
}

// ---------------------------------------------------------------------------
// RuntimeStats::Reset audit
// ---------------------------------------------------------------------------

TEST(RuntimeStatsReset, MemsetPoisonAuditCoversEveryField) {
  // If Reset() ever switches from whole-struct assignment to a hand-kept
  // field list, a forgotten counter keeps its poison and this memcmp fails.
  RuntimeStats s;
  std::memset(static_cast<void*>(&s), 0xAB, sizeof(s));
  s.Reset();
  RuntimeStats fresh{};
  EXPECT_EQ(std::memcmp(&s, &fresh, sizeof(RuntimeStats)), 0);
}

// ---------------------------------------------------------------------------
// Telemetry off == telemetry on, stats-wise
// ---------------------------------------------------------------------------

RuntimeStats RunWorkload(const TelemetryConfig& tcfg) {
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg;
  cfg.local_mem_bytes = 32 * kPageSize;
  cfg.replication = 2;
  cfg.recovery.enabled = true;
  cfg.telemetry = tcfg;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());

  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p * 3);
  }
  uint64_t rng = 0x12345;
  for (int i = 0; i < 4'000; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    (void)rt.Read<uint64_t>(region + (rng % pages) * kPageSize);
  }
  return rt.stats();
}

TEST(Telemetry, DisabledIsBitIdenticalToFullyEnabled) {
  TelemetryConfig off;
  ASSERT_FALSE(off.enabled());

  TelemetryConfig on;
  on.metrics = true;
  on.span_capacity = 2048;
  on.flight_capacity = 256;
  on.check_invariants = true;
  on.attribution = true;
  on.slo.enabled = true;
  on.slo.default_objective = SloObjective{99.0, 20'000};
  ASSERT_TRUE(on.enabled());

  RuntimeStats a = RunWorkload(off);
  RuntimeStats b = RunWorkload(on);
  // Telemetry observes; it must never perturb the simulation. Trivially
  // copyable makes bytewise equality meaningful.
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(RuntimeStats)), 0)
      << "telemetry-on run diverged:\n"
      << a.ToString() << "\nvs\n"
      << b.ToString();
}

TEST(Telemetry, DisabledRuntimeExposesNoInstruments) {
  Fabric fabric(CostModel::Default());
  DilosConfig cfg;
  cfg.local_mem_bytes = 16 * kPageSize;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  EXPECT_EQ(rt.telemetry(), nullptr);
  EXPECT_EQ(rt.metrics(), nullptr);
  EXPECT_EQ(fabric.metrics(), nullptr);
  EXPECT_FALSE(rt.tracer().spans_enabled());
}

}  // namespace
}  // namespace dilos
