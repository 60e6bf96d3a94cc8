// Extension bench (src/recovery): what a memory-node crash costs with the
// recovery subsystem on.
//
// Three memory nodes, replication=2, failure detection + repair enabled.
// After a crash, demand reads keep being served (timeout -> strike -> dead ->
// failover to the surviving replica) while the repair manager re-replicates
// every degraded granule in the background. The repair-bandwidth throttle is
// the knob: more repair bytes per tick shortens the exposed-to-second-failure
// window but steals link time from demand fetches — this bench prints both
// sides of that trade so the knob can be picked on data.
//
// The bench doubles as a CI gate: it exits non-zero if any row loses a page
// (a failed fetch) or its repair loop hits the safety valve instead of
// converging.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.h"

namespace dilos {
namespace {

constexpr uint64_t kWs = 32ULL << 20;
constexpr uint64_t kPages = kWs / kPageSize;
constexpr int kSamples = 4000;

struct Row {
  uint64_t healthy_p50 = 0, healthy_p99 = 0;
  uint64_t repair_p50 = 0, repair_p99 = 0;
  double repair_mb_s = 0;
  double repair_ms = 0;
  uint64_t failed = 0;
  bool converged = true;  // False: the repair loop hit its safety valve.
};

DilosConfig MakeCfg(uint64_t bytes_per_tick, size_t pipeline_depth) {
  DilosConfig cfg;
  cfg.local_mem_bytes = kWs / 8;
  cfg.replication = 2;
  cfg.recovery.enabled = true;
  cfg.recovery.repair.bytes_per_tick = bytes_per_tick;
  cfg.recovery.repair.pipeline_depth = pipeline_depth;
  return cfg;
}

Row Run(uint64_t bytes_per_tick, size_t pipeline_depth = 8) {
  Fabric fabric(CostModel::Default(), 3);
  DilosConfig cfg = MakeCfg(bytes_per_tick, pipeline_depth);
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());

  uint64_t region = rt.AllocRegion(kWs);
  for (uint64_t off = 0; off < kWs; off += kPageSize) {
    rt.Write<uint64_t>(region + off, off);
  }

  uint64_t rng = 0x9E3779B9;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  auto sample = [&](std::vector<uint64_t>* lat) {
    uint64_t t0 = rt.clock(0).now();
    volatile uint64_t v = rt.Read<uint64_t>(region + (next() % kPages) * kPageSize);
    (void)v;
    lat->push_back(rt.clock(0).now() - t0);
  };

  Row row;
  std::vector<uint64_t> lat;
  lat.reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    sample(&lat);
  }
  row.healthy_p50 = BenchPct(lat, 0.50);
  row.healthy_p99 = BenchPct(lat, 0.99);

  // Crash node 0 (no oracle call) and keep the demand load running while
  // detection and repair do their work underneath it.
  fabric.CrashNode(0);
  uint64_t crash_ns = rt.clock(0).now();
  lat.clear();
  while (!rt.RecoveryIdle() || rt.router().state(0) != NodeState::kDead ||
         rt.stats().repair_granules == 0) {
    sample(&lat);
    if (lat.size() > 200'000) {
      row.converged = false;  // Safety valve; repair should finish long before this.
      break;
    }
  }
  uint64_t repair_end_ns = rt.clock(0).now();
  row.repair_p50 = BenchPct(lat, 0.50);
  row.repair_p99 = BenchPct(lat, 0.99);
  row.repair_ms = static_cast<double>(repair_end_ns - crash_ns) / 1e6;
  // Payload actually re-replicated (source read + target write both count).
  row.repair_mb_s = static_cast<double>(rt.stats().repair_bytes) / 1e6 /
                    (static_cast<double>(repair_end_ns - crash_ns) / 1e9);
  row.failed = rt.stats().failed_fetches;
  return row;
}

// Prints a failure line (and clears *ok) when a row lost a page or never
// converged; silent when the row passes.
void Gate(const Row& r, const char* name, bool* ok) {
  if (r.failed != 0) {
    std::printf("GATE FAILED: %s lost %llu pages\n", name,
                static_cast<unsigned long long>(r.failed));
    *ok = false;
  }
  if (!r.converged) {
    std::printf("GATE FAILED: %s repair hit the safety valve before converging\n", name);
    *ok = false;
  }
}

bool RunAll() {
  bool ok = true;
  PrintHeader("Extension: crash recovery — demand latency vs repair bandwidth\n"
              "3 nodes, replication=2, node 0 crashes under random-read load");
  std::printf("%-18s %12s %12s %12s %12s %10s %10s %7s\n", "repair throttle", "healthy p50",
              "healthy p99", "repair p50", "repair p99", "MB/s", "repair ms", "lost");
  const uint64_t throttles[] = {128ULL << 10, 512ULL << 10, 2ULL << 20};
  const char* names[] = {"128 KB/tick", "512 KB/tick", "2 MB/tick"};
  for (size_t i = 0; i < 3; ++i) {
    Row r = Run(throttles[i]);
    std::printf("%-18s %10llu ns %10llu ns %10llu ns %10llu ns %10.0f %10.2f %7llu\n",
                names[i], static_cast<unsigned long long>(r.healthy_p50),
                static_cast<unsigned long long>(r.healthy_p99),
                static_cast<unsigned long long>(r.repair_p50),
                static_cast<unsigned long long>(r.repair_p99), r.repair_mb_s, r.repair_ms,
                static_cast<unsigned long long>(r.failed));
    Gate(r, names[i], &ok);
    BenchJson& j = BenchJson::Instance();
    j.BeginRecord("ext_recovery.throttle");
    j.Config("repair_bytes_per_tick", throttles[i]);
    JsonRuntimeConfig(MakeCfg(throttles[i], 8));
    j.Metric("healthy_p50_ns", r.healthy_p50);
    j.Metric("healthy_p99_ns", r.healthy_p99);
    j.Metric("repair_p50_ns", r.repair_p50);
    j.Metric("repair_p99_ns", r.repair_p99);
    j.Metric("repair_mb_s", r.repair_mb_s);
    j.Metric("repair_ms", r.repair_ms);
    j.Metric("pages_lost", r.failed);
  }
  std::printf("\n");

  // Pipelined vs serial repair copies at a fixed throttle: the window of
  // in-flight source reads overlaps their fabric latencies (and the target
  // writes overlap the remaining reads), compressing the rebuild span.
  PrintHeader("Extension: repair pipelining — rebuild throughput vs window depth\n"
              "3 nodes, replication=2, 2 MB/tick throttle, node 0 crashes");
  std::printf("%-18s %12s %12s %12s %7s\n", "pipeline depth", "MB/s", "repair ms",
              "repair p99", "lost");
  const size_t depths[] = {1, 2, 8};
  const char* depth_names[] = {"1 (serial)", "2", "8"};
  double serial_mb_s = 0;
  for (size_t i = 0; i < 3; ++i) {
    Row r = Run(2ULL << 20, depths[i]);
    if (i == 0) {
      serial_mb_s = r.repair_mb_s;
    }
    std::printf("%-18s %12.0f %12.2f %9llu ns %7llu   (%.2fx serial)\n", depth_names[i],
                r.repair_mb_s, r.repair_ms, static_cast<unsigned long long>(r.repair_p99),
                static_cast<unsigned long long>(r.failed),
                serial_mb_s > 0 ? r.repair_mb_s / serial_mb_s : 0.0);
    Gate(r, depth_names[i], &ok);
    BenchJson& j = BenchJson::Instance();
    j.BeginRecord("ext_recovery.pipelining");
    j.Config("pipeline_depth", static_cast<uint64_t>(depths[i]));
    j.Config("repair_bytes_per_tick", static_cast<uint64_t>(2ULL << 20));
    JsonRuntimeConfig(MakeCfg(2ULL << 20, depths[i]));
    j.Metric("repair_mb_s", r.repair_mb_s);
    j.Metric("repair_ms", r.repair_ms);
    j.Metric("repair_p99_ns", r.repair_p99);
    j.Metric("pages_lost", r.failed);
    j.Metric("vs_serial", serial_mb_s > 0 ? r.repair_mb_s / serial_mb_s : 0.0);
  }
  std::printf("\n");
  return ok;
}

}  // namespace
}  // namespace dilos

int main(int argc, char** argv) {
  dilos::BenchParseArgs(argc, argv);
  bool ok = dilos::RunAll();
  if (!dilos::BenchJson::Instance().Flush()) {
    return 1;
  }
  return ok ? 0 : 1;
}
