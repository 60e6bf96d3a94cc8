// Sharded ordered KV service: the repo's first end-to-end service-shaped
// workload on top of the paging substrate (ROADMAP "millions of users"
// bench; the datacenter serving scenario of the disaggregation surveys).
//
// N independent FarBTree shards sit over one far-memory runtime; keys are
// hash-partitioned across shards with the same splitmix-style mix the
// ShardRouter uses for granule placement, so shard load stays balanced
// under skewed (Zipfian) key popularity. Each shard's leaf arena is
// granule-aligned (see btree.h), and the runtime's ShardRouter places those
// granules across memory nodes — the service inherits scale-out placement
// without owning any of it.
//
// Semantics: GET/PUT/DELETE address a single key (routed by hash); SCAN is
// a per-shard ordered range scan starting at the shard owning `start` —
// the usual contract for hash-partitioned stores with ordered shards.
//
// Observability: per-shard op counters and LogHistogram latencies
// (Prometheus-style exposition via StatsToProm, mirroring the PR-5
// MetricsRegistry idiom), plus runtime-level counters
// (kv_guided_scans / kv_scan_prefetch_pages) and trace events
// (kKvScan / kKvScanPrefetch) when scans run guided.
#ifndef DILOS_SRC_KV_KV_SERVICE_H_
#define DILOS_SRC_KV_KV_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/kv/btree.h"
#include "src/kv/hooks.h"
#include "src/sim/far_runtime.h"
#include "src/sim/trace.h"
#include "src/telemetry/histogram.h"

namespace dilos {

struct KvConfig {
  int shards = 4;
  BTreeConfig tree;
};

// Per-shard counters + latency distributions.
struct KvShardStats {
  uint64_t gets = 0;
  uint64_t hits = 0;       // GETs that found the key.
  uint64_t puts = 0;
  uint64_t inserts = 0;    // PUTs that created a new key.
  uint64_t deletes = 0;    // DELETE ops issued.
  uint64_t removed = 0;    // DELETEs that found the key.
  uint64_t scans = 0;
  uint64_t scan_items = 0;
  LogHistogram get_ns;
  LogHistogram put_ns;
  LogHistogram delete_ns;
  LogHistogram scan_ns;

  void Merge(const KvShardStats& o);
};

class KvService {
 public:
  // `tracer` is optional (DilosRuntime exposes one; other runtimes may not —
  // the service runs on any FarRuntime, compatibility intact).
  KvService(FarRuntime& rt, KvConfig cfg = {}, Tracer* tracer = nullptr);

  // Returns true when the key was newly inserted.
  bool Put(uint64_t key, std::string_view value, int core = 0);
  bool Get(uint64_t key, std::string* out, int core = 0);
  bool Delete(uint64_t key, int core = 0);

  // Ordered scan within the shard owning `start`: up to `count` records
  // with key >= start, appended to `out`. Returns the number found.
  uint32_t Scan(uint64_t start, uint32_t count,
                std::vector<std::pair<uint64_t, std::string>>* out, int core = 0);

  // Installs the scan guide's hook half (src/guides/kv_guide.h implements
  // both this and Guide; the Guide half goes to DilosRuntime::set_guide).
  void set_scan_hooks(KvScanHooks* hooks) { hooks_ = hooks; }

  int ShardOf(uint64_t key) const;
  int shards() const { return static_cast<int>(trees_.size()); }
  FarBTree& tree(int shard) { return *trees_[static_cast<size_t>(shard)]; }
  const KvShardStats& shard_stats(int shard) const {
    return stats_[static_cast<size_t>(shard)];
  }
  KvShardStats TotalStats() const;

  // Prometheus text exposition of the per-shard counters and latency
  // quantiles (same style as MetricsRegistry::ToProm).
  std::string StatsToProm() const;

  uint64_t total_keys() const;

 private:
  FarRuntime& rt_;
  KvConfig cfg_;
  Tracer* tracer_;
  KvScanHooks* hooks_ = nullptr;
  std::vector<std::unique_ptr<FarBTree>> trees_;
  std::vector<KvShardStats> stats_;
  std::vector<uint64_t> leaf_plan_;  // Scan-hint scratch.
};

}  // namespace dilos

#endif  // DILOS_SRC_KV_KV_SERVICE_H_
