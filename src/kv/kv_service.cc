#include "src/kv/kv_service.h"

#include <algorithm>
#include <cstdio>

namespace dilos {

namespace {

// Upper bound on the leaf-plan length handed to the scan guide per scan (the
// guide prefetches a sliding window within it).
constexpr uint32_t kScanPlanMaxLeaves = 64;

// splitmix64 finalizer — the same family the shard router uses for granule
// placement; keys that are sequential integers still spread evenly.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

void KvShardStats::Merge(const KvShardStats& o) {
  gets += o.gets;
  hits += o.hits;
  puts += o.puts;
  inserts += o.inserts;
  deletes += o.deletes;
  removed += o.removed;
  scans += o.scans;
  scan_items += o.scan_items;
  get_ns.Merge(o.get_ns);
  put_ns.Merge(o.put_ns);
  delete_ns.Merge(o.delete_ns);
  scan_ns.Merge(o.scan_ns);
}

KvService::KvService(FarRuntime& rt, KvConfig cfg, Tracer* tracer)
    : rt_(rt), cfg_(cfg), tracer_(tracer) {
  if (cfg_.shards < 1) {
    cfg_.shards = 1;
  }
  trees_.reserve(static_cast<size_t>(cfg_.shards));
  for (int s = 0; s < cfg_.shards; ++s) {
    trees_.push_back(std::make_unique<FarBTree>(rt_, cfg_.tree));
  }
  stats_.resize(static_cast<size_t>(cfg_.shards));
}

int KvService::ShardOf(uint64_t key) const {
  return static_cast<int>(Mix(key) % trees_.size());
}

bool KvService::Put(uint64_t key, std::string_view value, int core) {
  size_t s = static_cast<size_t>(ShardOf(key));
  uint64_t t0 = rt_.clock(core).now();
  bool inserted = trees_[s]->Put(key, value, core);
  KvShardStats& st = stats_[s];
  ++st.puts;
  if (inserted) {
    ++st.inserts;
  }
  st.put_ns.Record(rt_.clock(core).now() - t0);
  return inserted;
}

bool KvService::Get(uint64_t key, std::string* out, int core) {
  size_t s = static_cast<size_t>(ShardOf(key));
  uint64_t t0 = rt_.clock(core).now();
  bool found = trees_[s]->Get(key, out, core);
  KvShardStats& st = stats_[s];
  ++st.gets;
  if (found) {
    ++st.hits;
  }
  st.get_ns.Record(rt_.clock(core).now() - t0);
  return found;
}

bool KvService::Delete(uint64_t key, int core) {
  size_t s = static_cast<size_t>(ShardOf(key));
  uint64_t t0 = rt_.clock(core).now();
  bool found = trees_[s]->Delete(key, core);
  KvShardStats& st = stats_[s];
  ++st.deletes;
  if (found) {
    ++st.removed;
  }
  st.delete_ns.Record(rt_.clock(core).now() - t0);
  return found;
}

uint32_t KvService::Scan(uint64_t start, uint32_t count,
                         std::vector<std::pair<uint64_t, std::string>>* out, int core) {
  size_t s = static_cast<size_t>(ShardOf(start));
  FarBTree& tree = *trees_[s];
  uint64_t t0 = rt_.clock(core).now();
  if (hooks_ != nullptr) {
    // Plan the walk from the local search layer: enough leaves to cover
    // `count` records even at half-full fill, capped by kScanPlanMaxLeaves.
    uint32_t need = count / std::max(1u, tree.leaf_capacity() / 2) + 2;
    tree.CollectLeaves(start, std::min(need, kScanPlanMaxLeaves), &leaf_plan_);
    hooks_->OnScanBegin(leaf_plan_);
    ++rt_.stats().kv_guided_scans;
    if (tracer_ != nullptr) {
      tracer_->Record(t0, TraceEvent::kKvScan, leaf_plan_.empty() ? 0 : leaf_plan_[0],
                      static_cast<uint32_t>(leaf_plan_.size()));
    }
  }
  uint32_t got = tree.Scan(start, count, out, core);
  if (hooks_ != nullptr) {
    hooks_->OnScanEnd();
    uint64_t prefetched = hooks_->TakePrefetchedPages();
    if (prefetched != 0) {
      rt_.stats().kv_scan_prefetch_pages += prefetched;
      if (tracer_ != nullptr) {
        tracer_->Record(rt_.clock(core).now(), TraceEvent::kKvScanPrefetch,
                        leaf_plan_.empty() ? 0 : leaf_plan_[0],
                        static_cast<uint32_t>(prefetched));
      }
    }
  }
  KvShardStats& st = stats_[s];
  ++st.scans;
  st.scan_items += got;
  st.scan_ns.Record(rt_.clock(core).now() - t0);
  return got;
}

KvShardStats KvService::TotalStats() const {
  KvShardStats total;
  for (const KvShardStats& st : stats_) {
    total.Merge(st);
  }
  return total;
}

uint64_t KvService::total_keys() const {
  uint64_t n = 0;
  for (const auto& t : trees_) {
    n += t->size();
  }
  return n;
}

std::string KvService::StatsToProm() const {
  std::string out;
  char line[160];
  auto append = [&](const char* name, int shard, const char* extra, uint64_t v) {
    std::snprintf(line, sizeof(line), "%s{shard=\"%d\"%s%s} %llu\n", name, shard,
                  extra != nullptr ? "," : "", extra != nullptr ? extra : "",
                  static_cast<unsigned long long>(v));
    out += line;
  };
  out += "# HELP dilos_kv_ops_total KV ops per shard and opcode.\n";
  out += "# TYPE dilos_kv_ops_total counter\n";
  for (int s = 0; s < shards(); ++s) {
    const KvShardStats& st = stats_[static_cast<size_t>(s)];
    if (st.gets != 0) {
      append("dilos_kv_ops_total", s, "op=\"get\"", st.gets);
    }
    if (st.puts != 0) {
      append("dilos_kv_ops_total", s, "op=\"put\"", st.puts);
    }
    if (st.deletes != 0) {
      append("dilos_kv_ops_total", s, "op=\"delete\"", st.deletes);
    }
    if (st.scans != 0) {
      append("dilos_kv_ops_total", s, "op=\"scan\"", st.scans);
    }
  }
  out += "# HELP dilos_kv_keys Keys currently stored per shard.\n";
  out += "# TYPE dilos_kv_keys gauge\n";
  for (int s = 0; s < shards(); ++s) {
    append("dilos_kv_keys", s, nullptr, trees_[static_cast<size_t>(s)]->size());
  }
  out += "# HELP dilos_kv_latency_ns Per-shard op latency quantiles.\n";
  out += "# TYPE dilos_kv_latency_ns summary\n";
  static constexpr double kQs[] = {0.5, 0.99, 0.999};
  for (int s = 0; s < shards(); ++s) {
    const KvShardStats& st = stats_[static_cast<size_t>(s)];
    struct Row {
      const char* op;
      const LogHistogram* h;
    } rows[] = {{"get", &st.get_ns}, {"put", &st.put_ns},
                {"delete", &st.delete_ns}, {"scan", &st.scan_ns}};
    for (const Row& r : rows) {
      if (r.h->empty()) {
        continue;
      }
      for (double q : kQs) {
        char extra[48];
        std::snprintf(extra, sizeof(extra), "op=\"%s\",quantile=\"%g\"", r.op, q);
        append("dilos_kv_latency_ns", s, extra, r.h->Percentile(q * 100.0));
      }
    }
  }
  return out;
}

}  // namespace dilos
