// dilos_sim: command-line driver for ad-hoc experiments on the simulated
// testbed — pick a system, a workload, a local-memory fraction, and a
// backend, and get completion time plus paging statistics.
//
//   dilos_sim --system=dilos --prefetch=readahead --workload=seqread
//             --local=0.125 --ws-mb=64 --backend=rdma
//
// Workloads: seqread, seqwrite, quicksort, kmeans, dataframe, pagerank, bc,
//            pointer-chase.
// Systems:   dilos, fastswap.   Prefetch: none, readahead, trend.
// Backends:  rdma, nvme, sata.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "src/apps/dataframe.h"
#include "src/apps/graph.h"
#include "src/apps/kmeans.h"
#include "src/apps/linked_list.h"
#include "src/apps/quicksort.h"
#include "src/apps/seqrw.h"
#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/dilos/trend.h"
#include "src/fastswap/fastswap.h"

namespace dilos {
namespace {

struct Args {
  std::string system = "dilos";
  std::string prefetch = "readahead";
  std::string workload = "seqread";
  std::string backend = "rdma";
  double local = 0.125;
  uint64_t ws_mb = 64;
  int cores = 1;
  int nodes = 1;
  int replication = 1;
};

bool Parse(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto take = [&](const char* key, std::string* dst) {
      std::string prefix = std::string("--") + key + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *dst = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    std::string v;
    if (take("system", &out->system) || take("prefetch", &out->prefetch) ||
        take("workload", &out->workload) || take("backend", &out->backend)) {
      continue;
    }
    if (take("local", &v)) {
      out->local = std::stod(v);
    } else if (take("ws-mb", &v)) {
      out->ws_mb = std::stoull(v);
    } else if (take("cores", &v)) {
      out->cores = std::stoi(v);
    } else if (take("nodes", &v)) {
      out->nodes = std::stoi(v);
    } else if (take("replication", &v)) {
      out->replication = std::stoi(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::unique_ptr<Prefetcher> MakePf(const std::string& name) {
  if (name == "none") {
    return std::make_unique<NullPrefetcher>();
  }
  if (name == "trend") {
    return std::make_unique<TrendPrefetcher>();
  }
  return std::make_unique<ReadaheadPrefetcher>();
}

int Run(const Args& args) {
  CostModel cost = CostModel::Default();
  if (args.backend == "nvme") {
    cost = CostModel::Nvme();
  } else if (args.backend == "sata") {
    cost = CostModel::SataSsd();
  }
  Fabric fabric(cost, args.nodes);

  uint64_t ws = args.ws_mb << 20;
  uint64_t local = static_cast<uint64_t>(static_cast<double>(ws) * args.local);
  std::unique_ptr<FarRuntime> rt;
  if (args.system == "fastswap") {
    FastswapConfig cfg;
    cfg.local_mem_bytes = local;
    cfg.num_cores = args.cores;
    cfg.readahead_enabled = args.prefetch != "none";
    rt = std::make_unique<FastswapRuntime>(fabric, cfg);
  } else {
    DilosConfig cfg;
    cfg.local_mem_bytes = local;
    cfg.num_cores = args.cores;
    cfg.replication = args.replication;
    rt = std::make_unique<DilosRuntime>(fabric, cfg, MakePf(args.prefetch));
  }

  std::printf("system=%s prefetch=%s backend=%s workload=%s ws=%lluMB local=%.1f%% "
              "cores=%d nodes=%d repl=%d\n\n",
              args.system.c_str(), args.prefetch.c_str(), args.backend.c_str(),
              args.workload.c_str(), static_cast<unsigned long long>(args.ws_mb),
              args.local * 100, args.cores, args.nodes, args.replication);

  uint64_t elapsed = 0;
  if (args.workload == "seqread" || args.workload == "seqwrite") {
    SeqWorkload wl(*rt, ws);
    SeqResult r = args.workload == "seqread" ? wl.Read() : wl.Write();
    elapsed = r.elapsed_ns;
    std::printf("throughput: %.2f GB/s\n", r.GBps());
  } else if (args.workload == "quicksort") {
    QuicksortWorkload wl(*rt, ws / sizeof(int32_t));
    elapsed = wl.Run();
    std::printf("sorted: %s\n", wl.IsSorted() ? "yes" : "NO (bug!)");
  } else if (args.workload == "kmeans") {
    KmeansWorkload wl(*rt, ws / (4 * sizeof(float)), 4, 10);
    KmeansResult r = wl.Run(8);
    elapsed = r.elapsed_ns;
    std::printf("iterations: %u, inertia/point: %.1f\n", r.iterations,
                r.inertia / static_cast<double>(ws / 16));
  } else if (args.workload == "dataframe") {
    FarDataFrame df(*rt, ws / 36);
    TaxiColumns cols = GenerateTaxi(df);
    TaxiAnalysisResult r = RunTaxiAnalysis(df, cols);
    elapsed = r.elapsed_ns;
    std::printf("mean fare: $%.2f, corr: %.3f\n", r.mean_fare, r.fare_distance_corr);
  } else if (args.workload == "pagerank" || args.workload == "bc") {
    uint64_t n = ws / 80;  // ~16 edges/vertex + rank arrays.
    auto edges = FarGraph::Rmat(n, 16, 4);
    if (args.workload == "pagerank") {
      FarGraph g(*rt, n, FarGraph::Transpose(edges));
      PageRankResult r = RunPageRank(g, FarGraph::OutDegrees(n, edges), 5);
      elapsed = r.elapsed_ns;
      std::printf("rank sum: %.4f\n", r.sum);
    } else {
      FarGraph g(*rt, n, edges);
      BcResult r = RunBetweennessCentrality(g, 4);
      elapsed = r.elapsed_ns;
      std::printf("max centrality: %.1f\n", r.max_centrality);
    }
  } else if (args.workload == "pointer-chase") {
    LinkedListWorkload wl(*rt, ws / kPageSize);
    auto r = wl.Traverse();
    elapsed = r.elapsed_ns;
    std::printf("nodes: %llu, sum ok: %s\n", static_cast<unsigned long long>(r.nodes),
                r.sum == wl.expected_sum() ? "yes" : "NO (bug!)");
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 1;
  }

  std::printf("completion: %.3f s (simulated)\n\n", static_cast<double>(elapsed) / 1e9);
  std::printf("%s", rt->stats().ToString().c_str());
  return 0;
}

}  // namespace
}  // namespace dilos

int main(int argc, char** argv) {
  dilos::Args args;
  if (!dilos::Parse(argc, argv, &args)) {
    return 1;
  }
  return dilos::Run(args);
}
