// perfbench: the repository benchmark (see BENCHMARK.json at the repo root).
//
//   perfbench --workload <reread|kv-update|redis-guided> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <csv path>]
//
// Each workload runs as a closed loop on simulated core 0 with zero think
// time, in this process, on one host thread. One repetition builds a fresh
// testbed (set-up: runtime construction, data load, warm-up), then runs the
// seed's fixed op stream (the measured phase) and checks every result.
// Repetitions continue while the next one still fits in --seconds; simulated
// metrics must repeat exactly across them. Every repetition starts from the
// memory state of a fresh process (freed memory is returned to the kernel
// first), so set-up pays the host page faults of its allocations. Set-up time
// is the least over repetitions, since load from other tenants of the machine
// only ever adds to it; the host rate is the median over fixed-size windows of
// ops.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// repetitions with traced ones (metrics + attribution telemetry on, the
// application on a span-recording forwarding runtime, layer probes after the
// measured phase), fails unless the traced repetitions reproduce every
// simulated metric, and prints the per-layer metrics.
//
// The last stdout line is "RESULT <json>" with every metric by name.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/common.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"

namespace dilos::perfbench {
namespace {

constexpr uint64_t kWarmupSalt = 0x5EEDF00DULL;
constexpr int kMaxWarmupWindows = 64;
constexpr int kMinReps = 3;
// The measured phase is timed in this many equal windows of ops.
constexpr size_t kHostWindows = 20;

// needs: LayerBit mask a metric requires; 0 = every workload.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;  // End-to-end metric and workload it should move.
  uint32_t needs;
};

// Printed with --trace 0. BENCHMARK.json bounds the subset that varies with
// the seed and never reads 0; simulated percentiles take the same few exact
// values for every seed, and host rates swing with co-tenant load, so those
// are printed for reading and repeated among the per-layer metrics.
const MetricDef kEndToEnd[] = {
    {"sim_ops_per_s", "1/s", "ops / simulated time on core 0", 0},
    {"sim_op_p50_us", "us", "median simulated op latency", 0},
    {"sim_op_p999_us", "us", "p99.9 simulated op latency", 0},
    {"sim_wire_bytes_per_op", "B/op", "payload bytes on every link, both ways", 0},
    {"host_ops_per_s", "1/s", "ops / host wall seconds, median of timed windows", 0},
    {"peak_rss_mb", "MB", "getrusage max RSS of this process", 0},
    {"setup_s", "s", "runtime construction + data load + warm-up, least of the reps", 0},
    {"rss_growth_mb", "MB", "RSS at measured end - RSS at measured start", 0},
    {"op_fail_ratio", "ratio", "ops failing the check / ops attempted", 0},
};

const MetricDef kPerLayer[] = {
    {"dilos.fault_ratio", "ratio", "sim_op_p50_us, sim_op_p999_us on reread", 0},
    {"dilos.sim_fault_p50_us", "us", "sim_op_p50_us on reread", 0},
    {"dilos.sim_fault_p999_us", "us", "sim_op_p999_us on reread", 0},
    {"dilos.host_ns_per_fault", "ns", "host_ops_per_s on reread", 0},
    {"dilos.host_ns_per_hit", "ns", "host_ops_per_s on kv-update", 0},
    {"dilos.minor_faults_per_op", "1/op", "sim_op_p50_us on redis-guided", 0},
    {"dilos.phase.handler_ns", "ns", "sim_op_p50_us on reread", 0},
    {"dilos.phase.alloc_ns", "ns", "sim_op_p50_us on reread", 0},
    {"dilos.phase.lane-wait_ns", "ns", "sim_op_p50_us on reread; sim_op_p999_us on kv-update", 0},
    {"dilos.phase.wire_ns", "ns", "sim_op_p50_us on reread", 0},
    {"dilos.phase.overlap_ns", "ns", "sim_op_p50_us on reread", 0},
    {"dilos.phase.map_ns", "ns", "sim_op_p50_us on reread", 0},
    {"page_manager.tick_host_ns", "ns", "host_ops_per_s and setup_s on reread", 0},
    {"page_manager.writebacks_per_op", "1/op", "sim_wire_bytes_per_op on kv-update", 0},
    {"page_manager.evictions_per_op", "1/op", "sim_op_p50_us on all workloads", 0},
    {"page_manager.resident_pages", "pages", "sim_op_p50_us on all workloads", 0},
    {"page_manager.direct_reclaims", "count", "sim_op_p999_us on all workloads (expected 0)", 0},
    {"pt.walk_host_ns", "ns", "host_ops_per_s on kv-update", 0},
    {"pt.free_frames", "frames", "sim_op_p999_us on all workloads", 0},
    {"rdma.fault.ops_per_op", "1/op", "sim_wire_bytes_per_op on reread", 0},
    {"rdma.fault.bytes_per_op", "B/op", "sim_wire_bytes_per_op on reread", 0},
    {"rdma.fault.rtt_p99_us", "us", "sim_op_p999_us on all workloads", 0},
    {"rdma.prefetch.ops_per_op", "1/op", "sim_wire_bytes_per_op on redis-guided", kLayerGuides},
    {"rdma.prefetch.bytes_per_op", "B/op", "sim_wire_bytes_per_op on redis-guided", kLayerGuides},
    {"rdma.prefetch.rtt_p99_us", "us", "sim_op_p999_us on redis-guided", kLayerGuides},
    {"rdma.cleaner.ops_per_op", "1/op", "sim_wire_bytes_per_op on kv-update", 0},
    {"rdma.cleaner.bytes_per_op", "B/op", "sim_wire_bytes_per_op on kv-update", 0},
    {"rdma.cleaner.rtt_p99_us", "us", "sim_op_p999_us on kv-update", 0},
    {"rdma.guide.ops_per_op", "1/op", "sim_wire_bytes_per_op on redis-guided", kLayerGuides},
    {"rdma.guide.bytes_per_op", "B/op", "sim_wire_bytes_per_op on redis-guided", kLayerGuides},
    {"rdma.guide.rtt_p99_us", "us", "sim_op_p999_us on redis-guided", kLayerGuides},
    {"rdma.rx_gbps", "Gb/s", "sim_op_p999_us on kv-update", 0},
    {"rdma.tx_gbps", "Gb/s", "sim_op_p999_us on kv-update", 0},
    {"rdma.cq_retained", "count", "rss_growth_mb on all workloads", 0},
    {"rdma.post_read_host_ns", "ns", "host_ops_per_s on reread", 0},
    {"memnode.stored_pages", "pages", "peak_rss_mb on all workloads", 0},
    {"memnode.stored_bytes_per_data_byte", "ratio", "peak_rss_mb on kv-update", 0},
    {"memnode.lookup_host_ns", "ns", "host_ops_per_s on reread", 0},
    {"recovery.parity_updates_per_op", "1/op", "sim_wire_bytes_per_op on kv-update", kLayerEc},
    {"recovery.parity_bytes_per_op", "B/op", "sim_wire_bytes_per_op on kv-update", kLayerEc},
    {"recovery.checksum_host_ns", "ns", "host_ops_per_s on reread and kv-update", 0},
    {"recovery.failed_ops", "count", "op_fail_ratio on all workloads (must be 0)", 0},
    {"kv.get_sim_p50_us", "us", "sim_op_p50_us on kv-update", kLayerKv},
    {"kv.get_sim_p999_us", "us", "sim_op_p999_us on kv-update", kLayerKv},
    {"kv.put_sim_p50_us", "us", "sim_op_p50_us on kv-update", kLayerKv},
    {"kv.put_sim_p999_us", "us", "sim_op_p999_us on kv-update", kLayerKv},
    {"kv.pins_per_op", "1/op", "host_ops_per_s on kv-update", kLayerKv},
    {"kv.host_self_ns_per_op", "ns", "host_ops_per_s on kv-update", kLayerKv},
    {"redis.get_sim_p50_us", "us", "sim_op_p50_us on redis-guided", kLayerRedis},
    {"redis.get_sim_p999_us", "us", "sim_op_p999_us on redis-guided", kLayerRedis},
    {"redis.lrange_sim_p50_us", "us", "sim_op_p50_us on redis-guided", kLayerRedis},
    {"redis.lrange_sim_p999_us", "us", "sim_op_p999_us on redis-guided", kLayerRedis},
    {"redis.set_sim_p50_us", "us", "sim_op_p50_us on redis-guided", kLayerRedis},
    {"redis.pins_per_op", "1/op", "host_ops_per_s on redis-guided", kLayerRedis},
    {"redis.host_self_ns_per_op", "ns", "host_ops_per_s on redis-guided", kLayerRedis},
    {"guides.prefetch_pages_per_op", "1/op", "sim_wire_bytes_per_op on redis-guided", kLayerGuides},
    {"guides.vectored_ops_per_op", "1/op", "sim_wire_bytes_per_op on redis-guided", kLayerGuides},
    {"guides.subpage_reads_per_op", "1/op", "sim_op_p50_us on redis-guided", kLayerGuides},
    {"guides.prefetch_hit_ratio", "ratio", "sim_op_p50_us on redis-guided", kLayerGuides},
    {"host_ops_per_s", "1/s", "ops / host wall seconds (untraced reps)", 0},
    {"sim_op_p50_us", "us", "median simulated op latency (untraced reps)", 0},
    {"sim_op_p999_us", "us", "p99.9 simulated op latency (untraced reps)", 0},
    {"rss_growth_mb", "MB", "RSS growth over the measured phase (untraced reps)", 0},
    {"trace.overhead_ratio", "ratio", "untraced / traced host_ops_per_s", 0},
};

using Values = std::map<std::string, double>;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_path;
};

// What the traced repetitions add up: host-timed per-layer samples pooled
// over all of them, and the last one's spans.
struct TracedSamples {
  uint64_t fault_host_ns = 0;
  uint64_t faults = 0;
  uint64_t hit_host_ns = 0;
  uint64_t hits = 0;
  uint64_t app_self_ns = 0;  // kv or redis op spans minus their Pin spans.
  uint64_t app_ops = 0;
  ProbeSamples probes;
  std::vector<Span> spans;
};

// One repetition: set-up + measured phase on a fresh testbed.
struct Rep {
  // Simulated results; every repetition of one seed must agree exactly.
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t warmup_ops = 0;
  uint64_t warmup_failed = 0;
  uint64_t sim_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p999_ns = 0;
  uint64_t wire_bytes = 0;
  uint64_t latency_fingerprint = 0;
  uint64_t recovery_failed_ops = 0;
  // Host results.
  uint64_t setup_ns = 0;
  uint64_t host_ns = 0;
  double rss_growth_mb = 0;
  double peak_rss_mb = 0;
  std::vector<uint64_t> window_ns;  // Untraced repetitions only.
  Values layers;                    // Simulated per-layer metrics; traced only.

  bool SameSimulation(const Rep& o) const {
    return ops == o.ops && failed == o.failed && warmup_ops == o.warmup_ops &&
           sim_ns == o.sim_ns && p50_ns == o.p50_ns && p999_ns == o.p999_ns &&
           wire_bytes == o.wire_bytes && latency_fingerprint == o.latency_fingerprint &&
           recovery_failed_ops == o.recovery_failed_ops;
  }
};

double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  unsigned long long size = 0;
  unsigned long long resident = 0;
  if (f != nullptr) {
    if (std::fscanf(f, "%llu %llu", &size, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB.
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }
double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// Dirty pages in the resident set, found by walking the page table up from
// the base of the far address space until every resident page has been seen.
uint64_t DirtyResidentPages(DilosRuntime& rt) {
  const size_t resident = rt.page_manager().resident_count();
  size_t seen = 0;
  uint64_t dirty = 0;
  for (uint64_t va = kFarBase; seen < resident && va < kFarBase + kFarSpan; va += kPageSize) {
    Pte pte = rt.page_table().Get(va);
    if (PteTagOf(pte) == PteTag::kLocal) {
      ++seen;
      dirty += (pte & kPteDirty) != 0 ? 1 : 0;
    }
  }
  return dirty;
}

// Runs warm-up windows from a stream of its own until set-up's dirty pages
// are written back. The clock must first evict twice the resident set, so
// its hand has passed every page left by set-up at least twice (the first
// pass may only clear the accessed bit); then warm-up ends once the resident
// set holds no dirty page or its dirty count stops falling (only the
// workload's own writes keep pages dirty).
void RunWarmup(Workload& w, OpSource& src, Rep* rep) {
  DilosRuntime& rt = w.rt();
  const uint64_t evictions0 = rt.stats().evictions;
  const uint64_t rotation = 2 * rt.page_manager().resident_count();
  uint64_t prev = DirtyResidentPages(rt);
  for (int win = 0; win < kMaxWarmupWindows; ++win) {
    for (uint64_t i = 0; i < w.warmup_window(); ++i) {
      Op op = src.Next();
      w.Exec(op);
      rep->warmup_failed += w.Check(op) ? 0 : 1;
    }
    rep->warmup_ops += w.warmup_window();
    uint64_t dirty = DirtyResidentPages(rt);
    if (rt.stats().evictions - evictions0 >= rotation && (dirty == 0 || dirty >= prev)) {
      return;
    }
    prev = dirty;
  }
}

// Counters read at both ends of the measured phase.
struct Snapshot {
  RuntimeStats stats;
  uint64_t direct_reclaims = 0;
  uint64_t rx_bytes = 0;
  uint64_t tx_bytes = 0;
  uint64_t attr_commits = 0;
  std::vector<uint64_t> attr_ns;  // FaultAttribution::TotalNs per phase.

  explicit Snapshot(Workload& w) {
    DilosRuntime& rt = w.rt();
    stats = rt.stats();
    direct_reclaims = rt.page_manager().direct_reclaims();
    for (int n = 0; n < w.fabric().num_nodes(); ++n) {
      rx_bytes += w.fabric().link(n).rx().total_bytes();
      tx_bytes += w.fabric().link(n).tx().total_bytes();
    }
    if (rt.telemetry() != nullptr && rt.telemetry()->attribution() != nullptr) {
      const FaultAttribution& a = *rt.telemetry()->attribution();
      attr_commits = a.commits();
      for (size_t p = 0; p < kFaultPhaseCount; ++p) {
        attr_ns.push_back(a.TotalNs(static_cast<FaultPhase>(p)));
      }
    }
  }
};

// Simulated latency percentiles and span self times of one op kind.
struct OpKindSpans {
  std::vector<uint64_t> sim_ns;
  uint64_t ops = 0;
  uint64_t host_ns = 0;
  uint64_t pin_host_ns = 0;
};

// Simulated span metrics go to `v`; host span times add up in `t`.
void SpanMetrics(Workload& w, const std::vector<Span>& spans, Values* v, TracedSamples* t) {
  std::vector<OpKindSpans> kinds(w.op_names().size());
  std::vector<uint64_t> fault_sim;
  uint64_t pins = 0;
  for (const Span& s : spans) {
    if (s.name != Span::kPinName) {
      OpKindSpans& k = kinds[s.name];
      k.sim_ns.push_back(s.sim_ns());
      ++k.ops;
      k.host_ns += s.host_ns();
      continue;
    }
    kinds[spans[s.parent].name].pin_host_ns += s.host_ns();
    ++pins;
    if (s.flags & Span::kMajorFault) {
      fault_sim.push_back(s.sim_ns());
      t->fault_host_ns += s.host_ns();
    } else if (s.flags == 0) {
      ++t->hits;
      t->hit_host_ns += s.host_ns();
    }
  }
  t->faults += fault_sim.size();
  (*v)["dilos.fault_ratio"] =
      pins == 0 ? 0.0 : static_cast<double>(fault_sim.size()) / static_cast<double>(pins);
  (*v)["dilos.sim_fault_p50_us"] = Us(BenchPct(fault_sim, 0.5));
  (*v)["dilos.sim_fault_p999_us"] = Us(BenchPct(fault_sim, 0.999));

  const char* app = (w.layers() & kLayerKv) ? "kv" : (w.layers() & kLayerRedis) ? "redis" : "";
  if (*app == '\0') {
    return;
  }
  uint64_t ops = 0;
  for (size_t i = 0; i < kinds.size(); ++i) {
    OpKindSpans& k = kinds[i];
    ops += k.ops;
    t->app_self_ns += k.host_ns - k.pin_host_ns;
    std::string prefix = std::string(app) + "." + w.op_names()[i] + "_sim_";
    (*v)[prefix + "p50_us"] = Us(BenchPct(k.sim_ns, 0.5));
    (*v)[prefix + "p999_us"] = Us(BenchPct(k.sim_ns, 0.999));
  }
  t->app_ops += ops;
  (*v)[std::string(app) + ".pins_per_op"] = static_cast<double>(pins) / static_cast<double>(ops);
}

// Per-layer metrics of a traced repetition's measured phase.
void LayerMetrics(Workload& w, const Snapshot& s0, const Snapshot& s1, uint64_t sim_ns,
                  Values* v) {
  DilosRuntime& rt = w.rt();
  const double ops = static_cast<double>(w.measured_ops());
  const RuntimeStats& a = s0.stats;
  const RuntimeStats& b = s1.stats;
  auto per_op = [ops](uint64_t x, uint64_t y) { return static_cast<double>(y - x) / ops; };

  (*v)["dilos.minor_faults_per_op"] = per_op(a.minor_faults, b.minor_faults);
  uint64_t commits = s1.attr_commits - s0.attr_commits;
  auto phase = [&](FaultPhase p) {
    size_t i = static_cast<size_t>(p);
    return commits == 0 ? 0.0
                        : static_cast<double>(s1.attr_ns[i] - s0.attr_ns[i]) /
                              static_cast<double>(commits);
  };
  for (FaultPhase p : {FaultPhase::kHandler, FaultPhase::kAlloc, FaultPhase::kLaneWait,
                       FaultPhase::kWire, FaultPhase::kOverlap, FaultPhase::kMap}) {
    (*v)[std::string("dilos.phase.") + FaultPhaseName(p) + "_ns"] = phase(p);
  }

  (*v)["page_manager.writebacks_per_op"] = per_op(a.writebacks, b.writebacks);
  (*v)["page_manager.evictions_per_op"] = per_op(a.evictions, b.evictions);
  (*v)["page_manager.resident_pages"] = static_cast<double>(rt.page_manager().resident_count());
  (*v)["page_manager.direct_reclaims"] =
      static_cast<double>(s1.direct_reclaims - s0.direct_reclaims);
  (*v)["pt.free_frames"] = static_cast<double>(rt.frame_pool().free_count());

  // The metrics registry was reset when the measured phase began.
  const MetricsRegistry& m = *rt.metrics();
  const std::pair<const char*, QpClass> classes[] = {{"fault", QpClass::kFault},
                                                     {"prefetch", QpClass::kPrefetch},
                                                     {"cleaner", QpClass::kCleaner},
                                                     {"guide", QpClass::kGuide}};
  for (const auto& [name, cls] : classes) {
    QpMetrics q;
    for (int n = 0; n < m.num_nodes(); ++n) {
      q.Merge(m.at(n, cls));
    }
    std::string prefix = std::string("rdma.") + name;
    (*v)[prefix + ".ops_per_op"] = static_cast<double>(q.ops()) / ops;
    (*v)[prefix + ".bytes_per_op"] = static_cast<double>(q.bytes()) / ops;
    (*v)[prefix + ".rtt_p99_us"] = Us(q.rtt.Percentile(99.0));
  }
  (*v)["rdma.rx_gbps"] = static_cast<double>(s1.rx_bytes - s0.rx_bytes) * 8.0 /
                         static_cast<double>(sim_ns);
  (*v)["rdma.tx_gbps"] = static_cast<double>(s1.tx_bytes - s0.tx_bytes) * 8.0 /
                         static_cast<double>(sim_ns);
  std::set<QueuePair*> qps;
  for (int ch = 0; ch < static_cast<int>(CommChannel::kCount); ++ch) {
    for (int n = 0; n < w.fabric().num_nodes(); ++n) {
      qps.insert(rt.router().NodeQp(0, static_cast<CommChannel>(ch), n));
    }
  }
  uint64_t retained = 0;
  for (QueuePair* qp : qps) {
    retained += qp->cq().outstanding();
  }
  (*v)["rdma.cq_retained"] = static_cast<double>(retained);

  uint64_t stored = 0;
  uint64_t data = 0;
  for (int n = 0; n < w.fabric().num_nodes(); ++n) {
    for (const auto& [page, bytes] : w.fabric().node(n).store().pages()) {
      ++stored;
      data += (page << kPageShift) < kEcParityBase ? 1 : 0;
    }
  }
  (*v)["memnode.stored_pages"] = static_cast<double>(stored);
  (*v)["memnode.stored_bytes_per_data_byte"] =
      data == 0 ? 0.0 : static_cast<double>(stored) / static_cast<double>(data);

  (*v)["recovery.parity_updates_per_op"] = per_op(a.ec_parity_updates, b.ec_parity_updates);
  (*v)["recovery.parity_bytes_per_op"] = per_op(a.ec_parity_bytes, b.ec_parity_bytes);

  (*v)["guides.prefetch_pages_per_op"] = per_op(a.prefetch_issued, b.prefetch_issued);
  (*v)["guides.vectored_ops_per_op"] = per_op(a.vectored_ops, b.vectored_ops);
  (*v)["guides.subpage_reads_per_op"] = per_op(a.subpage_fetches, b.subpage_fetches);
  (*v)["guides.prefetch_hit_ratio"] = rt.hit_tracker().hit_ratio();
}

uint64_t RecoveryFailedOps(const RuntimeStats& s) {
  return s.op_timeouts + s.fetch_retries + s.failed_fetches + s.checksum_mismatches +
         s.ec_decode_failures;
}

uint64_t Fnv(const std::vector<uint64_t>& v) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (uint64_t x : v) {
    h = (h ^ x) * 0x100000001B3ULL;
  }
  return h;
}

// `samples`, given for a traced repetition, collects its host-timed samples
// and spans.
Rep RunRep(const Args& args, const std::vector<Op>& ops, TracedSamples* samples = nullptr) {
  // Return the memory the previous repetition freed to the kernel, so this
  // set-up faults its pages in as a fresh process would.
  malloc_trim(0);
  const bool traced = samples != nullptr;
  Rep rep;
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  std::vector<uint64_t> lat(ops.size(), 0);  // Touched before RSS is sampled.
  std::unique_ptr<OpSource> warm = w->Source(args.seed ^ kWarmupSalt);

  uint64_t setup0 = HostNowNs();
  w->Build(traced);
  w->Load();
  RunWarmup(*w, *warm, &rep);
  rep.setup_ns = HostNowNs() - setup0;

  DilosRuntime& rt = w->rt();
  TracingRuntime* tr = traced ? w->tracing() : nullptr;
  Snapshot s0(*w);
  if (tr != nullptr) {
    rt.metrics()->Reset();
    tr->StartRecording(ops.size() * 16);
  }
  Clock& clk = rt.clock(0);
  double rss0 = ResidentMb();
  uint64_t sim0 = clk.now();
  uint64_t host0 = HostNowNs();
  if (tr != nullptr) {
    for (size_t i = 0; i < ops.size(); ++i) {
      tr->BeginOp(ops[i].kind, static_cast<uint32_t>(i));
      uint64_t t0 = clk.now();
      w->Exec(ops[i]);
      lat[i] = clk.now() - t0;
      tr->EndOp();
      rep.failed += w->Check(ops[i]) ? 0 : 1;
    }
  } else {
    const size_t window = ops.size() / kHostWindows;
    uint64_t win0 = host0;
    for (size_t i = 0; i < ops.size(); ++i) {
      uint64_t t0 = clk.now();
      w->Exec(ops[i]);
      lat[i] = clk.now() - t0;
      rep.failed += w->Check(ops[i]) ? 0 : 1;
      if ((i + 1) % window == 0) {
        uint64_t now = HostNowNs();
        rep.window_ns.push_back(now - win0);
        win0 = now;
      }
    }
  }
  rt.Quiesce();
  rep.host_ns = HostNowNs() - host0;
  rep.sim_ns = clk.now() - sim0;
  rep.rss_growth_mb = ResidentMb() - rss0;
  rep.peak_rss_mb = PeakRssMb();
  rep.ops = ops.size();
  Snapshot s1(*w);
  rep.wire_bytes = (s1.rx_bytes + s1.tx_bytes) - (s0.rx_bytes + s0.tx_bytes);
  rep.latency_fingerprint = Fnv(lat);
  rep.p50_ns = BenchPct(lat, 0.5);
  rep.p999_ns = BenchPct(lat, 0.999);
  rep.recovery_failed_ops = RecoveryFailedOps(rt.stats());

  if (tr != nullptr) {
    tr->StopRecording();
    SpanMetrics(*w, tr->spans(), &rep.layers, samples);
    LayerMetrics(*w, s0, s1, rep.sim_ns, &rep.layers);
    rep.layers["recovery.failed_ops"] = static_cast<double>(rep.recovery_failed_ops);
    RunProbes(*w, tr->pinned_pages(), &samples->probes);
    samples->spans = tr->TakeSpans();
  }
  return rep;
}

// Host ns per call in the median probe round.
double ProbeNs(std::vector<uint64_t>& rounds, uint64_t calls_per_round) {
  return static_cast<double>(BenchPct(rounds, 0.5)) / static_cast<double>(calls_per_round);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void PrintJsonMetric(std::string* out, const MetricDef& d, double value, bool applicable) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\", \"applicable\": %s}",
                out->empty() ? "" : ", ", d.name, applicable ? value : 0.0, d.unit,
                applicable ? "true" : "false");
  *out += buf;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--spans") {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>]\n");
    return 2;
  }
  std::unique_ptr<Workload> spec = MakeWorkload(args.workload, args.seed);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // The seed's measured op stream, generated once and replayed by every
  // repetition.
  std::vector<Op> ops(spec->measured_ops());
  {
    std::unique_ptr<OpSource> src = spec->Source(args.seed);
    for (Op& op : ops) {
      op = src->Next();
    }
  }
  const uint32_t layers = spec->layers();
  const std::vector<std::string> op_names = spec->op_names();
  spec.reset();
  TracedSamples samples;

  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  // Repeat while the next repetition (or untraced + traced pair) still fits
  // in --seconds, judged by the last one's length.
  const uint64_t start = HostNowNs();
  uint64_t last_ns = 0;
  for (;;) {
    bool enough = args.trace ? !traced.empty() : untraced.size() >= kMinReps;
    uint64_t elapsed_ns = HostNowNs() - start;
    if (enough && static_cast<double>(elapsed_ns + last_ns) / 1e9 > args.seconds) {
      break;
    }
    uint64_t rep0 = HostNowNs();
    untraced.push_back(RunRep(args, ops));
    if (args.trace) {
      traced.push_back(RunRep(args, ops, &samples));
    }
    last_ns = HostNowNs() - rep0;
  }
  if (!args.spans_path.empty() && !WriteSpansCsv(args.spans_path, samples.spans, op_names)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans_path.c_str());
  }

  const Rep& first = untraced.front();
  bool same = true;
  for (const Rep& r : untraced) {
    same = same && r.SameSimulation(first);
  }
  bool traced_same = true;
  for (const Rep& r : traced) {
    traced_same = traced_same && r.SameSimulation(first);
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::vector<Rep>* reps : {&untraced, &traced}) {
    for (const Rep& r : *reps) {
      attempted += r.ops + r.warmup_ops;
      failed += r.failed + r.warmup_failed;
    }
  }
  bool correct = same && traced_same && failed == 0 && first.recovery_failed_ops == 0;

  // Host rate: the median over the timed windows of every untraced
  // repetition. Co-tenants of the machine contend for its caches and memory
  // bandwidth and swing single windows by up to 2x; the p10/p90 spread is
  // printed so a noisy run shows.
  std::vector<uint64_t> window_ns;
  std::vector<uint64_t> setup_ns;
  std::vector<uint64_t> untraced_ns;
  for (const Rep& r : untraced) {
    window_ns.insert(window_ns.end(), r.window_ns.begin(), r.window_ns.end());
    setup_ns.push_back(r.setup_ns);
    untraced_ns.push_back(r.host_ns);
  }
  const double window_ops = static_cast<double>(first.ops / kHostWindows);
  auto window_rate = [&](double q) {
    return window_ops * 1e9 / static_cast<double>(BenchPct(window_ns, q));
  };
  size_t beyond = first.ops - 1 - static_cast<size_t>(0.999 * static_cast<double>(first.ops - 1));
  std::printf("workload=%s seed=%" PRIu64 " reps=%zu traced_reps=%zu ops/rep=%" PRIu64
              " warmup_ops=%" PRIu64 " p999 samples=%" PRIu64 " (%zu beyond p99.9)\n",
              args.workload.c_str(), args.seed, untraced.size(), traced.size(), first.ops,
              first.warmup_ops, first.ops, beyond);
  std::printf("host window rates: n=%zu p10=%.0f p50=%.0f p90=%.0f ops/s\n", window_ns.size(),
              window_rate(0.9), window_rate(0.5), window_rate(0.1));
  std::printf("set-up: n=%zu min=%.4f p50=%.4f max=%.4f s\n", setup_ns.size(),
              Seconds(BenchPct(setup_ns, 0.0)), Seconds(BenchPct(setup_ns, 0.5)),
              Seconds(BenchPct(setup_ns, 1.0)));
  if (!same) {
    std::printf("FAIL: simulated results differ between repetitions of one seed\n");
  }
  if (!traced_same) {
    std::printf("FAIL: the traced run did not reproduce the untraced simulated results\n");
  }
  if (failed != 0 || first.recovery_failed_ops != 0) {
    std::printf("FAIL: %" PRIu64 " ops failed their check, recovery.failed_ops=%" PRIu64 "\n",
                failed, first.recovery_failed_ops);
  }

  // Simulated metrics are the same in every repetition; take the first's.
  Values v;
  v["sim_ops_per_s"] = static_cast<double>(first.ops) * 1e9 / static_cast<double>(first.sim_ns);
  v["sim_op_p50_us"] = Us(first.p50_ns);
  v["sim_op_p999_us"] = Us(first.p999_ns);
  v["sim_wire_bytes_per_op"] =
      static_cast<double>(first.wire_bytes) / static_cast<double>(first.ops);
  v["host_ops_per_s"] = window_rate(0.5);
  v["peak_rss_mb"] = first.peak_rss_mb;
  v["setup_s"] = Seconds(BenchPct(setup_ns, 0.0));
  v["rss_growth_mb"] = first.rss_growth_mb;
  v["op_fail_ratio"] = static_cast<double>(failed) / static_cast<double>(attempted);
  const MetricDef* defs = kEndToEnd;
  size_t ndefs = std::size(kEndToEnd);
  if (args.trace) {
    defs = kPerLayer;
    ndefs = std::size(kPerLayer);
    // Simulated layer metrics are identical in every repetition; host-timed
    // ones are pooled over the traced repetitions.
    v.insert(traced.front().layers.begin(), traced.front().layers.end());
    v["dilos.host_ns_per_fault"] = Ratio(samples.fault_host_ns, samples.faults);
    v["dilos.host_ns_per_hit"] = Ratio(samples.hit_host_ns, samples.hits);
    if (layers & (kLayerKv | kLayerRedis)) {
      v[(layers & kLayerKv) ? "kv.host_self_ns_per_op" : "redis.host_self_ns_per_op"] =
          Ratio(samples.app_self_ns, samples.app_ops);
    }
    ProbeSamples& p = samples.probes;
    v["pt.walk_host_ns"] = ProbeNs(p.pt_walk, kProbeCallsPerRound);
    v["rdma.post_read_host_ns"] = ProbeNs(p.post_read, kProbeCallsPerRound);
    v["memnode.lookup_host_ns"] = ProbeNs(p.lookup, kProbeCallsPerRound);
    v["recovery.checksum_host_ns"] = ProbeNs(p.checksum, kProbeCallsPerRound);
    v["page_manager.tick_host_ns"] = ProbeNs(p.tick, 1);
    std::vector<uint64_t> traced_ns;
    for (const Rep& r : traced) {
      traced_ns.push_back(r.host_ns);
    }
    // Same ops in both, so the rate ratio is the inverse time ratio.
    v["trace.overhead_ratio"] = Ratio(BenchPct(traced_ns, 0.5), BenchPct(untraced_ns, 0.5));
  }

  std::string json;
  for (size_t i = 0; i < ndefs; ++i) {
    const MetricDef& d = defs[i];
    bool applicable = (d.needs & layers) == d.needs;
    auto it = v.find(d.name);
    double value = it == v.end() ? 0.0 : it->second;
    if (applicable) {
      std::printf("  %-36s %16.6g %-6s  (%s)\n", d.name, value, d.unit, d.moves);
    } else {
      std::printf("  %-36s %16s %-6s  (%s)\n", d.name, "n/a", d.unit, d.moves);
    }
    PrintJsonMetric(&json, d, value, applicable);
  }
  std::printf("RESULT {\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dilos::perfbench

int main(int argc, char** argv) { return dilos::perfbench::Main(argc, argv); }
