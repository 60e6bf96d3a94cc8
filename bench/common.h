// Shared helpers for the per-figure/table benchmark binaries.
//
// Every binary regenerates one table or figure of the paper on the
// simulated testbed and prints the same rows/series the paper reports.
// Absolute numbers come from the calibrated cost model (see
// src/sim/cost_model.h); the shapes — who wins, by what factor, where the
// crossovers sit — are the reproduction targets (see EXPERIMENTS.md).
#ifndef DILOS_BENCH_COMMON_H_
#define DILOS_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/dilos/trend.h"
#include "src/fastswap/fastswap.h"
#include "src/redis/redis_bench.h"
#include "src/sim/rng.h"

namespace dilos {

// Machine-readable bench output (--json <path>): the printed tables stay the
// human interface, but each row is also captured as a
// {bench, config, metrics} record and written as a JSON array at exit, so CI
// can archive the run (the BENCH_*.json trajectory) and trend it across
// commits.
class BenchJson {
 public:
  static BenchJson& Instance() {
    static BenchJson j;
    return j;
  }

  void Open(std::string path) { path_ = std::move(path); }
  bool enabled() const { return !path_.empty(); }

  // Starts one record, e.g. BeginRecord("ext_tier.miss_latency").
  void BeginRecord(const std::string& bench) {
    if (!enabled()) {
      return;
    }
    records_.push_back(Record{bench, {}, {}});
  }

  void Config(const std::string& key, const std::string& value) {
    Append(&Record::config, key, "\"" + value + "\"");
  }
  void Config(const std::string& key, double value) { Append(&Record::config, key, Num(value)); }
  void Config(const std::string& key, uint64_t value) {
    Append(&Record::config, key, std::to_string(value));
  }
  void Metric(const std::string& key, double value) { Append(&Record::metrics, key, Num(value)); }
  void Metric(const std::string& key, uint64_t value) {
    Append(&Record::metrics, key, std::to_string(value));
  }

  // Writes the accumulated records; returns false (with a note on stderr)
  // when the file cannot be opened. Called once from main after all rows.
  bool Flush() {
    if (!enabled()) {
      return true;
    }
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "  {\"bench\": \"%s\", \"config\": {%s}, \"metrics\": {%s}}%s\n",
                   r.bench.c_str(), Join(r.config).c_str(), Join(r.metrics).c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    return true;
  }

 private:
  struct Record {
    std::string bench;
    std::vector<std::string> config;   // Pre-rendered "\"key\": value" pairs.
    std::vector<std::string> metrics;
  };

  // Adds one pair to the `list` half of the open record; a no-op without
  // --json or before the first BeginRecord.
  void Append(std::vector<std::string> Record::*list, const std::string& key,
              const std::string& rendered) {
    if (!enabled() || records_.empty()) {
      return;
    }
    (records_.back().*list).push_back("\"" + key + "\": " + rendered);
  }

  static std::string Num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  static std::string Join(const std::vector<std::string>& parts) {
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
      out += parts[i];
      if (i + 1 < parts.size()) {
        out += ", ";
      }
    }
    return out;
  }

  std::string path_;
  std::vector<Record> records_;
};

// Common bench flags: --json <path> (machine-readable output, see BenchJson)
// and --short (reduced iteration counts for CI smoke runs; ignored when
// `short_flag` is null). Unknown arguments are left alone.
inline void BenchParseArgs(int argc, char** argv, bool* short_flag = nullptr) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      BenchJson::Instance().Open(argv[i + 1]);
      ++i;
    } else if (short_flag != nullptr && std::strcmp(argv[i], "--short") == 0) {
      *short_flag = true;
    }
  }
}

// Emits the runtime knobs that change what a number means — cores, fault
// pipeline, redundancy scheme, tier — into the current record's `config`
// block, so archived bench JSON is self-describing across PRs.
inline void JsonRuntimeConfig(const DilosConfig& cfg) {
  BenchJson& j = BenchJson::Instance();
  if (!j.enabled()) {
    return;
  }
  j.Config("cores", static_cast<uint64_t>(cfg.num_cores));
  j.Config("fault_pipeline_depth", static_cast<uint64_t>(cfg.fault_pipeline_depth));
  j.Config("replication", static_cast<uint64_t>(cfg.replication));
  j.Config("ec", cfg.ec.enabled
                     ? "(" + std::to_string(cfg.ec.k) + "," + std::to_string(cfg.ec.m) + ")"
                     : std::string("off"));
  j.Config("tier", cfg.tier.enabled ? "on" : "off");
}

enum class DilosVariant { kNoPrefetch, kReadahead, kTrend };

inline const char* VariantName(DilosVariant v) {
  switch (v) {
    case DilosVariant::kNoPrefetch:
      return "DiLOS no-prefetch";
    case DilosVariant::kReadahead:
      return "DiLOS readahead";
    case DilosVariant::kTrend:
      return "DiLOS trend-based";
  }
  return "?";
}

inline std::unique_ptr<Prefetcher> MakePrefetcher(DilosVariant v) {
  switch (v) {
    case DilosVariant::kNoPrefetch:
      return std::make_unique<NullPrefetcher>();
    case DilosVariant::kReadahead:
      return std::make_unique<ReadaheadPrefetcher>();
    case DilosVariant::kTrend:
      return std::make_unique<TrendPrefetcher>();
  }
  return nullptr;
}

// pipeline_depth bounds outstanding demand faults per core (1 = each fault
// waits for its own completion). `attribution` turns on per-fault
// critical-path attribution (src/telemetry/attribution.h) so benches can
// print phase waterfalls next to their latency columns.
inline std::unique_ptr<DilosRuntime> MakeDilos(Fabric& fabric, uint64_t local_bytes,
                                               DilosVariant v, bool tcp = false, int cores = 1,
                                               uint32_t pipeline_depth = 1,
                                               bool attribution = false) {
  DilosConfig cfg;
  cfg.local_mem_bytes = local_bytes;
  cfg.tcp_emulation = tcp;
  cfg.num_cores = cores;
  cfg.fault_pipeline_depth = pipeline_depth;
  cfg.telemetry.attribution = attribution;
  return std::make_unique<DilosRuntime>(fabric, cfg, MakePrefetcher(v));
}

inline std::unique_ptr<FastswapRuntime> MakeFastswap(Fabric& fabric, uint64_t local_bytes,
                                                     int cores = 1) {
  FastswapConfig cfg;
  cfg.local_mem_bytes = local_bytes;
  cfg.num_cores = cores;
  return std::make_unique<FastswapRuntime>(fabric, cfg);
}

// ---- Shared workload generators ---------------------------------------------
//
// One home for key-index distributions and key/value synthesis, shared by
// the Redis drivers (bench/redis_common.h binaries) and the YCSB driver
// (bench_ycsb.cc), so the Zipfian and latest generators exist exactly once:
// Zipfian sampling is src/sim/rng.h's ZipfSampler (Gray et al.), "latest"
// is its mirror over the insertion frontier, and payload bytes come from
// RedisBench::MakeValue.

enum class KeyDist { kUniform, kZipfian, kLatest };

inline const char* KeyDistName(KeyDist d) {
  switch (d) {
    case KeyDist::kUniform:
      return "uniform";
    case KeyDist::kZipfian:
      return "zipfian";
    case KeyDist::kLatest:
      return "latest";
  }
  return "?";
}

// Draws key indices in [0, n) under the YCSB request distributions.
// `set_n` tracks a growing keyspace (insert-heavy mixes): uniform and
// latest follow it exactly; Zipfian keeps its precomputed rank table and
// folds into the current range.
class KeyChooser {
 public:
  KeyChooser(KeyDist dist, uint64_t n, uint64_t seed, double theta = 0.99)
      : dist_(dist), n_(n ? n : 1), rng_(seed),
        zipf_(n ? n : 1, theta, seed ^ 0x5BD1E995ULL) {}

  void set_n(uint64_t n) { n_ = n ? n : 1; }
  uint64_t n() const { return n_; }

  uint64_t Next() {
    switch (dist_) {
      case KeyDist::kUniform:
        return rng_.NextBelow(n_);
      case KeyDist::kZipfian:
        return zipf_.Next() % n_;
      case KeyDist::kLatest:
        // Rank 0 = the most recently inserted key: Zipfian distance back
        // from the insertion frontier (YCSB's "latest" distribution).
        return n_ - 1 - (zipf_.Next() % n_);
    }
    return 0;
  }

 private:
  KeyDist dist_;
  uint64_t n_;
  Rng rng_;
  ZipfSampler zipf_;
};

// Sort-based percentile over raw latency samples (p in [0, 1]). Sorts the
// vector in place; callers that still need arrival order should copy first.
inline uint64_t BenchPct(std::vector<uint64_t>& lat, double p) {
  if (lat.empty()) {
    return 0;
  }
  std::sort(lat.begin(), lat.end());
  size_t i = static_cast<size_t>(p * static_cast<double>(lat.size() - 1));
  return lat[i];
}

// ---- Two-tenant workload harness ---------------------------------------------
//
// One home for the "two tenants, disjoint regions, independent Zipfian read
// storms" setup shared by bench_ext_migration (drain under load) and
// bench_ablation_hol (fair-share isolation). Each region is seeded with
// (addr ^ 0xD15C0) sentinel values so a verify sweep can prove losslessness.
// When built on a tenancy-enabled runtime, pass real tenant ids so regions
// are bound in the registry; the default (-1, -1) allocates untenanted
// regions — identical to the pre-tenancy ad-hoc harness.
class TwoTenantWorkload {
 public:
  TwoTenantWorkload(DilosRuntime& rt, uint64_t pages_per_tenant, int tenant0 = -1,
                    int tenant1 = -1)
      : rt_(rt), pages_(pages_per_tenant ? pages_per_tenant : 1),
        chooser_{KeyChooser(KeyDist::kZipfian, pages_, 1031),
                 KeyChooser(KeyDist::kZipfian, pages_, 4057)} {
    const uint64_t ws = pages_ * kPageSize;
    const int ids[2] = {tenant0, tenant1};
    for (int t = 0; t < 2; ++t) {
      region_[t] = ids[t] >= 0 ? rt_.AllocRegion(ws, ids[t]) : rt_.AllocRegion(ws);
      for (uint64_t p = 0; p < pages_; ++p) {
        rt_.Write<uint64_t>(region_[t] + p * kPageSize, Sentinel(t, p));
      }
    }
  }

  uint64_t region(int t) const { return region_[t]; }
  uint64_t pages() const { return pages_; }

  // One timed Zipfian read for tenant t on `core`; appends the latency.
  void SampleRead(int t, std::vector<uint64_t>* lat, int core = 0) {
    uint64_t p = chooser_[t].Next();
    uint64_t t0 = rt_.clock(core).now();
    volatile uint64_t v = rt_.Read<uint64_t>(region_[t] + p * kPageSize, core);
    (void)v;
    lat->push_back(rt_.clock(core).now() - t0);
  }

  // One step of a sequential full-region scan for tenant t on `core` — the
  // aggressor pattern for head-of-line benchmarks. Each call touches the
  // next page (wrapping), maximizing demand-fetch pressure on the fabric.
  void ScanStep(int t, int core = 0) {
    volatile uint64_t v = rt_.Read<uint64_t>(region_[t] + scan_[t] * kPageSize, core);
    (void)v;
    scan_[t] = (scan_[t] + 1) % pages_;
  }

  // Full verify sweep over both tenants; returns the mismatch count.
  uint64_t VerifyMismatches() {
    uint64_t bad = 0;
    for (int t = 0; t < 2; ++t) {
      for (uint64_t p = 0; p < pages_; ++p) {
        if (rt_.Read<uint64_t>(region_[t] + p * kPageSize) != Sentinel(t, p)) {
          ++bad;
        }
      }
    }
    return bad;
  }

 private:
  uint64_t Sentinel(int t, uint64_t p) const { return (region_[t] + p) ^ 0xD15C0; }

  DilosRuntime& rt_;
  uint64_t pages_;
  uint64_t region_[2] = {0, 0};
  uint64_t scan_[2] = {0, 0};
  KeyChooser chooser_[2];
};

// Canonical key / payload synthesis (implemented once, in src/redis).
inline std::string BenchKeyName(uint64_t i) { return RedisBench::KeyName(i); }
inline std::string BenchValue(uint32_t size, uint64_t salt) {
  return RedisBench::MakeValue(size, salt);
}

inline void PrintHeader(const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("==============================================================\n");
}

inline double ToSeconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// Local-memory fractions the paper sweeps.
inline constexpr double kLocalFractions[] = {0.125, 0.25, 0.5, 1.0};

}  // namespace dilos

#endif  // DILOS_BENCH_COMMON_H_
