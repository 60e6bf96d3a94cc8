// Table 2: throughput of sequential read and write (GB/s) with 12.5% local
// memory. Paper: Fastswap 0.98/0.49; DiLOS no-prefetch 1.24/1.14;
// readahead 3.74/3.49; trend-based 3.73/3.49.
//
// Extended with the async fault pipeline (DESIGN.md §12): the DiLOS rows run
// at the default depth 1, where each fault waits for its own completion, and
// the no-prefetch row reruns at depth 8. This binary doubles as the
// pipeline's CI gate (exit 1 on violation): depth 8 improves per-core
// demand-fault throughput ≥ 2× over depth 1 on the pure-fault row
// (no-prefetch sequential read).
#include <cstdio>
#include <cstdlib>

#include "bench/common.h"
#include "src/apps/seqrw.h"

namespace dilos {
namespace {

constexpr uint64_t kWorkingSet = 64ULL << 20;
constexpr uint64_t kLocal = kWorkingSet / 8;

struct RowResult {
  SeqResult rd;
  SeqResult wr;
};

RowResult Row(const char* name, FarRuntime& rt, const DilosConfig* cfg = nullptr) {
  SeqWorkload wl(rt, kWorkingSet);
  RowResult r{wl.Read(), wl.Write()};
  std::printf("%-26s %8.2f %8.2f   %7llu %7llu\n", name, r.rd.GBps(), r.wr.GBps(),
              static_cast<unsigned long long>(r.rd.major_faults),
              static_cast<unsigned long long>(r.rd.minor_faults));
  BenchJson& j = BenchJson::Instance();
  j.BeginRecord("table2.seq_throughput");
  j.Config("system", name);
  if (cfg != nullptr) {
    JsonRuntimeConfig(*cfg);
  }
  j.Metric("read_gbps", r.rd.GBps());
  j.Metric("write_gbps", r.wr.GBps());
  j.Metric("read_major_faults", r.rd.major_faults);
  j.Metric("read_minor_faults", r.rd.minor_faults);
  return r;
}

DilosConfig ConfigFor(uint32_t pipeline_depth) {
  DilosConfig cfg;
  cfg.local_mem_bytes = kLocal;
  cfg.fault_pipeline_depth = pipeline_depth;
  return cfg;
}

int Run() {
  PrintHeader(
      "Table 2: sequential read/write throughput (GB/s), 12.5% local\n"
      "(paper: Fastswap 0.98/0.49 | DiLOS 1.24/1.14 | +readahead 3.74/3.49 "
      "| +trend 3.73/3.49)");
  std::printf("%-26s %8s %8s   %7s %7s\n", "system", "read", "write", "major", "minor");
  {
    Fabric fabric;
    auto rt = MakeFastswap(fabric, kLocal);
    Row("Fastswap", *rt);
  }

  RowResult no_prefetch;
  for (DilosVariant v :
       {DilosVariant::kNoPrefetch, DilosVariant::kReadahead, DilosVariant::kTrend}) {
    Fabric fabric;
    DilosConfig cfg = ConfigFor(1);
    auto rt = std::make_unique<DilosRuntime>(fabric, cfg, MakePrefetcher(v));
    RowResult r = Row(VariantName(v), *rt, &cfg);
    if (v == DilosVariant::kNoPrefetch) {
      no_prefetch = r;
    }
  }
  RowResult piped;
  {
    Fabric fabric;
    DilosConfig cfg = ConfigFor(8);
    auto rt = std::make_unique<DilosRuntime>(fabric, cfg,
                                             MakePrefetcher(DilosVariant::kNoPrefetch));
    piped = Row("DiLOS no-prefetch [d=8]", *rt, &cfg);
  }
  std::printf("\n");

  // Gate: depth 8 must beat the blocking depth-1 row ≥ 2× on the
  // demand-fault-bound row. No-prefetch sequential read is all major faults, so read GB/s is a
  // direct proxy for per-core demand-fault throughput (faults/s × 4 KB).
  double gain = piped.rd.GBps() / no_prefetch.rd.GBps();
  std::printf("pipeline gain (no-prefetch read, d=8 vs blocking): %.2fx\n", gain);
  int violations = 0;
  if (gain < 2.0) {
    std::fprintf(stderr, "GATE FAILED: pipeline d=8 gain %.2fx < 2x over blocking\n", gain);
    ++violations;
  }
  if (violations == 0) {
    std::printf("gates: OK (>=2x pipelined)\n");
  }
  if (!BenchJson::Instance().Flush()) {
    ++violations;
  }
  return violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dilos

int main(int argc, char** argv) {
  dilos::BenchParseArgs(argc, argv);
  return dilos::Run();
}
