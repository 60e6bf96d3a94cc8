// redis-benchmark-style workload driver (paper Sec. 6.2 "In-memory
// key-value store" and Sec. 6.3): GET workloads with fixed and mixed
// (Facebook-photo-like) value sizes, the modified LRANGE_100 benchmark over
// 100k quicklists, and the DEL/GET sequence of the guided-paging
// experiment (Fig. 12).
#ifndef DILOS_SRC_REDIS_REDIS_BENCH_H_
#define DILOS_SRC_REDIS_REDIS_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/redis/redis.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/telemetry/histogram.h"

namespace dilos {

struct RedisBenchResult {
  uint64_t ops = 0;
  uint64_t elapsed_ns = 0;
  // Log-bucketed (constant-memory) latency distribution: percentiles within
  // ~1.6% bucket width, O(#buckets) memory on million-op runs instead of 8
  // bytes per stored sample.
  LogHistogram latency;

  double OpsPerSec() const {
    return elapsed_ns == 0 ? 0.0
                           : static_cast<double>(ops) * 1e9 / static_cast<double>(elapsed_ns);
  }
};

// The paper's mixed GET workload: six equally distributed sizes covering
// >80% of Facebook photo-serving objects.
inline const std::vector<uint32_t>& PhotoMixSizes() {
  static const std::vector<uint32_t> kSizes = {4096, 8192, 16384, 32768, 65536, 131072};
  return kSizes;
}

class RedisBench {
 public:
  explicit RedisBench(RedisLite& redis, uint64_t seed = 7) : redis_(redis), rng_(seed) {}

  static std::string KeyName(uint64_t i);

  // Deterministic value payload ('A'..'Z' fill keyed by salt). Public and
  // static: it is also the single value generator behind the bench drivers
  // (BenchValue in bench/common.h), so payload synthesis exists once.
  static std::string MakeValue(uint32_t size, uint64_t salt);

  // SET-populates `nkeys` string keys; key i gets sizes[i % sizes.size()].
  void PopulateStrings(uint64_t nkeys, const std::vector<uint32_t>& sizes);

  // Uniform-random GETs over the live keyspace.
  RedisBenchResult RunGet(uint64_t queries);

  // Zipfian GETs (skewed popularity, like the Facebook photo traces the
  // paper's workload mix derives from). theta ~0.99 is the YCSB default.
  RedisBenchResult RunGetZipf(uint64_t queries, double theta = 0.99);

  // DELs `ndel` distinct random keys (Fig. 12's fragmentation phase).
  RedisBenchResult RunDel(uint64_t ndel);

  // RPUSHes `total_elems` elements of `elem_size` bytes to `nlists` lists
  // in random order (interleaving nodes across pages, as the paper does).
  void PopulateLists(uint64_t nlists, uint64_t total_elems, uint32_t elem_size);

  // LRANGE_100 over random lists.
  RedisBenchResult RunLrange(uint64_t queries, uint32_t count = 100);

  uint64_t live_keys() const { return live_.size(); }

 private:
  RedisLite& redis_;
  Rng rng_;
  std::vector<uint64_t> live_;   // Key indices still present.
  uint64_t nlists_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_REDIS_REDIS_BENCH_H_
