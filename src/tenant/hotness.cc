#include "src/tenant/hotness.h"

#include <algorithm>
#include <utility>

namespace dilos {

namespace {

constexpr double kEwmaAlpha = 0.4;  // Weight of the newest interval's node load.

}  // namespace

HotnessMonitor::HotnessMonitor(ShardRouter& router, MigrationManager& migration,
                               MetricsRegistry* const* metrics, RuntimeStats& stats,
                               Tracer* tracer, const HotnessConfig& cfg, int num_nodes)
    : router_(router),
      migration_(migration),
      metrics_(metrics),
      stats_(stats),
      tracer_(tracer),
      cfg_(cfg),
      prev_bytes_(static_cast<size_t>(num_nodes), 0),
      ewma_(static_cast<size_t>(num_nodes), 0.0) {}

void HotnessMonitor::OnDemandFault(uint64_t vaddr) {
  if (!cfg_.enabled) {
    return;
  }
  heat_[vaddr >> kShardGranuleShift] += 1.0;
}

uint64_t HotnessMonitor::ServeBytes(int node) const {
  const MetricsRegistry* m = *metrics_;
  uint64_t bytes = 0;
  for (size_t c = 0; c < static_cast<size_t>(QpClass::kCount); ++c) {
    auto cls = static_cast<QpClass>(c);
    if (MetricsRegistry::ServesTenant(cls)) {
      bytes += m->at(node, cls).bytes();
    }
  }
  return bytes;
}

double HotnessMonitor::NodeLoad(int node) const {
  if (node < 0 || node >= static_cast<int>(ewma_.size())) {
    return 0.0;
  }
  return ewma_[static_cast<size_t>(node)];
}

double HotnessMonitor::ImbalanceRatio() const {
  double lo = -1.0, hi = -1.0;
  for (int n = 0; n < static_cast<int>(ewma_.size()); ++n) {
    if (router_.state(n) != NodeState::kLive) {
      continue;
    }
    double v = ewma_[static_cast<size_t>(n)];
    if (lo < 0.0 || v < lo) {
      lo = v;
    }
    if (v > hi) {
      hi = v;
    }
  }
  if (lo < 0.0) {
    return 1.0;
  }
  return (hi + 1.0) / (lo + 1.0);
}

void HotnessMonitor::Tick(uint64_t now_ns) {
  if (!cfg_.enabled || metrics_ == nullptr || *metrics_ == nullptr) {
    return;
  }
  if (now_ns < last_tick_ns_ + cfg_.interval_ns) {
    return;
  }
  bool first = last_tick_ns_ == 0;
  last_tick_ns_ = now_ns;
  ++intervals_;

  uint64_t total_delta = 0;
  for (size_t n = 0; n < ewma_.size(); ++n) {
    uint64_t cur = ServeBytes(static_cast<int>(n));
    uint64_t delta = cur - prev_bytes_[n];
    prev_bytes_[n] = cur;
    total_delta += delta;
    ewma_[n] = kEwmaAlpha * static_cast<double>(delta) + (1.0 - kEwmaAlpha) * ewma_[n];
  }

  // Old heat fades so yesterday's hot spot cannot pin today's decisions.
  for (auto it = heat_.begin(); it != heat_.end();) {
    it->second *= 0.5;
    it = it->second < 0.25 ? heat_.erase(it) : std::next(it);
  }

  // The very first interval only establishes the byte baseline; acting on a
  // since-boot delta would misread cold-start fill as steady-state skew.
  if (first || total_delta < cfg_.min_interval_bytes) {
    return;
  }

  int hot = -1, cold = -1;
  for (int n = 0; n < static_cast<int>(ewma_.size()); ++n) {
    if (router_.state(n) != NodeState::kLive) {
      continue;  // Never balance onto (or off) draining/dead/rebuilding nodes.
    }
    if (hot < 0 || ewma_[static_cast<size_t>(n)] > ewma_[static_cast<size_t>(hot)]) {
      hot = n;
    }
    if (cold < 0 || ewma_[static_cast<size_t>(n)] < ewma_[static_cast<size_t>(cold)]) {
      cold = n;
    }
  }
  if (hot < 0 || cold < 0 || hot == cold) {
    return;
  }
  if ((ewma_[static_cast<size_t>(hot)] + 1.0) <=
      cfg_.imbalance_ratio * (ewma_[static_cast<size_t>(cold)] + 1.0)) {
    return;
  }

  // Rank the hot node's granules by decayed demand heat; move from the top
  // until the per-interval migration budget runs out.
  std::vector<std::pair<double, uint64_t>> candidates;
  std::vector<int> replicas;
  for (const auto& [granule, heat] : heat_) {
    router_.ReplicaNodes(granule << kShardGranuleShift, &replicas);
    if (std::find(replicas.begin(), replicas.end(), hot) != replicas.end()) {
      candidates.emplace_back(heat, granule);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  uint64_t budget = cfg_.bytes_per_interval;
  for (const auto& [heat, granule] : candidates) {
    if (budget < kShardGranuleBytes) {
      break;
    }
    // Prefer the coldest node; if it already holds a replica (or otherwise
    // refuses), let the migration manager pick a legal target itself.
    bool started = migration_.MigrateGranule(granule, hot, now_ns, cold) ||
                   migration_.MigrateGranule(granule, hot, now_ns);
    if (!started) {
      continue;
    }
    budget -= kShardGranuleBytes;
    ++stats_.hotness_migrations;
    if (tracer_ != nullptr) {
      tracer_->Record(now_ns, TraceEvent::kHotnessMigrate,
                      granule << kShardGranuleShift,
                      static_cast<uint32_t>((hot << 8) | cold));
    }
    heat_.erase(granule);
  }
}

}  // namespace dilos
