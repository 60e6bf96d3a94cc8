// Extension bench (src/recovery/ec): replication vs erasure coding.
//
// Same 6-node fabric, same random-read load, four redundancy schemes:
// replication R=2 and R=3 versus EC(2,1) and EC(4,2). For each scheme the
// bench measures the three sides of the redundancy triangle:
//
//   - remote capacity overhead: stored pages (data + copies/parity) per
//     unique data page. Replication pays Rx; EC pays (k+m)/k — 1.5x for
//     (4,2) against 2x for the cheapest replication.
//   - demand latency, healthy and after a node crash. Replication fails
//     over to a full copy (near-healthy latency); EC must fan out k reads
//     and decode (the degraded-read penalty), so its post-crash p99 is the
//     price of the capacity savings.
//   - rebuild: time and bytes to restore full redundancy. Replication
//     copies each lost granule from a surviving replica (2 pages moved per
//     page); EC decodes it from k survivors (k+1 pages moved per page).
//     EC(4,2) on 6 nodes has no off-stripe node to rebuild onto, so it
//     stays degraded — printed as "-" (reads keep being served).
//
// The bench doubles as a CI gate: it exits non-zero if any scheme loses a
// page (a failed fetch).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.h"

namespace dilos {
namespace {

constexpr uint64_t kWs = 32ULL << 20;
constexpr uint64_t kPages = kWs / kPageSize;
constexpr int kSamples = 3000;

struct Scheme {
  const char* name;
  int replication;  // Ignored when ec.enabled.
  ECConfig ec;
};

struct Row {
  double overhead = 0;
  uint64_t healthy_p50 = 0, healthy_p99 = 0;
  uint64_t degraded_p50 = 0, degraded_p99 = 0;
  double rebuild_ms = -1;  // < 0: no rebuild possible (stays degraded).
  double rebuild_mb = 0;
  uint64_t failed = 0;
};

Row Run(const Scheme& s) {
  Fabric fabric(CostModel::Default(), 6);
  DilosConfig cfg;
  cfg.local_mem_bytes = kWs / 8;
  cfg.replication = s.replication;
  cfg.ec = s.ec;
  cfg.recovery.enabled = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());

  uint64_t region = rt.AllocRegion(kWs);
  for (uint64_t off = 0; off < kWs; off += kPageSize) {
    rt.Write<uint64_t>(region + off, off ^ 0xEC0DE);
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

  // Capacity overhead, measured from the stores themselves: total stored
  // pages (copies and parity included) per unique data page stored.
  {
    std::vector<uint64_t> data_pages;
    size_t stored = 0;
    for (int n = 0; n < fabric.num_nodes(); ++n) {
      for (const auto& [page, mem] : fabric.node(n).store().pages()) {
        (void)mem;
        ++stored;
        if ((page << kPageShift) < kEcParityBase) {
          data_pages.push_back(page);
        }
      }
    }
    std::sort(data_pages.begin(), data_pages.end());
    size_t unique =
        static_cast<size_t>(std::unique(data_pages.begin(), data_pages.end()) -
                            data_pages.begin());
    row.overhead = unique == 0 ? 0 : static_cast<double>(stored) / static_cast<double>(unique);
  }

  // Crash node 0 (no oracle) and keep reading. First ride out detection,
  // then measure the steady degraded-read latency.
  fabric.CrashNode(0);
  uint64_t crash_ns = rt.clock(0).now();
  lat.clear();
  while (rt.router().state(0) != NodeState::kDead && lat.size() < 200'000) {
    sample(&lat);
  }
  lat.clear();
  for (int i = 0; i < kSamples; ++i) {
    sample(&lat);
  }
  row.degraded_p50 = BenchPct(lat, 0.50);
  row.degraded_p99 = BenchPct(lat, 0.99);

  // Let repair finish (replication re-copies; EC(2,1) decodes onto an
  // off-stripe node; EC(4,2) on 6 nodes has nowhere to rebuild).
  for (int i = 0; i < 5'000 && !rt.RecoveryIdle(); ++i) {
    rt.DriveRecovery(1'000'000);
  }
  if (rt.stats().repairs_issued > 0 && rt.RecoveryIdle()) {
    row.rebuild_ms = static_cast<double>(rt.clock(0).now() - crash_ns) / 1e6;
    row.rebuild_mb = static_cast<double>(rt.stats().repair_bytes) / 1e6;
  }
  row.failed = rt.stats().failed_fetches;
  return row;
}

// Returns false (after printing a failure line) if any scheme lost a page.
bool RunAll() {
  bool ok = true;
  PrintHeader(
      "Extension: replication vs erasure coding — capacity / latency / rebuild\n"
      "6 nodes, 32 MB working set, node 0 crashes under random-read load");
  std::printf("%-12s %9s %12s %12s %13s %13s %11s %10s %6s\n", "scheme", "capacity",
              "healthy p50", "healthy p99", "degraded p50", "degraded p99", "rebuild ms",
              "moved MB", "lost");
  ECConfig ec21;
  ec21.enabled = true;
  ec21.k = 2;
  ec21.m = 1;
  ECConfig ec42;
  ec42.enabled = true;
  ec42.k = 4;
  ec42.m = 2;
  const Scheme schemes[] = {
      {"repl R=2", 2, {}},
      {"repl R=3", 3, {}},
      {"EC(2,1)", 1, ec21},
      {"EC(4,2)", 1, ec42},
  };
  for (const Scheme& s : schemes) {
    Row r = Run(s);
    char rebuild[32];
    if (r.rebuild_ms < 0) {
      std::snprintf(rebuild, sizeof(rebuild), "%10s", "-");
    } else {
      std::snprintf(rebuild, sizeof(rebuild), "%10.2f", r.rebuild_ms);
    }
    std::printf("%-12s %8.2fx %9llu ns %9llu ns %10llu ns %10llu ns %s %10.1f %6llu\n",
                s.name, r.overhead, static_cast<unsigned long long>(r.healthy_p50),
                static_cast<unsigned long long>(r.healthy_p99),
                static_cast<unsigned long long>(r.degraded_p50),
                static_cast<unsigned long long>(r.degraded_p99), rebuild, r.rebuild_mb,
                static_cast<unsigned long long>(r.failed));
    if (r.failed != 0) {
      std::printf("GATE FAILED: %s lost %llu pages\n", s.name,
                  static_cast<unsigned long long>(r.failed));
      ok = false;
    }
  }
  std::printf(
      "\nexpected shape: EC capacity (k+m)/k beats replication Rx; EC pays for it\n"
      "with a degraded-read p99 of ~k fan-out reads + decode until rebuilt.\n\n");
  return ok;
}

}  // namespace
}  // namespace dilos

int main() { return dilos::RunAll() ? 0 : 1; }
