#include "src/telemetry/slo.h"

#include <algorithm>
#include <cstdio>

namespace dilos {

void SloEngine::Window::Configure(uint64_t window_faults) {
  bucket_cap = std::max<uint64_t>(1, window_faults / kWindowBuckets);
}

void SloEngine::Window::Add(bool is_bad) {
  if (faults[cur] >= bucket_cap) {
    cur = (cur + 1) % kWindowBuckets;
    faults[cur] = 0;
    bad[cur] = 0;
    ++rotations;
  }
  ++faults[cur];
  if (is_bad) {
    ++bad[cur];
  }
}

double SloEngine::Window::BadFraction() const {
  uint64_t f = 0;
  uint64_t b = 0;
  for (int i = 0; i < kWindowBuckets; ++i) {
    f += faults[i];
    b += bad[i];
  }
  return f == 0 ? 0.0 : static_cast<double>(b) / static_cast<double>(f);
}

SloEngine::SloEngine(const SloConfig& cfg) : cfg_(cfg) {
  for (TenantState& s : state_) {
    s.fast.Configure(cfg_.fast_window_faults);
    s.slow.Configure(cfg_.slow_window_faults);
  }
  state_[0].obj = cfg_.default_objective;
}

void SloEngine::SetObjective(int tenant, const SloObjective& o) {
  state_[Bucket(tenant)].obj = o;
}

bool SloEngine::Observe(int tenant, uint64_t latency_ns, uint64_t now_ns) {
  TenantState& s = state_[Bucket(tenant)];
  if (!s.obj.active()) {
    return false;
  }
  bool is_bad = latency_ns > s.obj.threshold_ns;
  ++s.total;
  if (is_bad) {
    ++s.bad;
  }
  s.fast.Add(is_bad);
  s.slow.Add(is_bad);

  double allowed = s.obj.allowed();
  if (allowed <= 0.0) {
    return false;  // A p100 objective has no budget to burn.
  }
  double fast_burn = s.fast.BadFraction() / allowed;
  double slow_burn = s.slow.BadFraction() / allowed;
  if (!s.alert_active) {
    if (fast_burn >= kFastBurnAlert && slow_burn >= kSlowBurnAlert) {
      s.alert_active = true;
      ++s.alerts;
      s.last_alert_ns = now_ns;
      return true;
    }
  } else if (fast_burn < kFastBurnAlert * kClearRatio) {
    s.alert_active = false;
  }
  return false;
}

double SloEngine::burn_rate(int tenant, bool fast) const {
  const TenantState& s = state_[Bucket(tenant)];
  double allowed = s.obj.allowed();
  if (!s.obj.active() || allowed <= 0.0) {
    return 0.0;
  }
  return (fast ? s.fast.BadFraction() : s.slow.BadFraction()) / allowed;
}

double SloEngine::budget_used(int tenant) const {
  const TenantState& s = state_[Bucket(tenant)];
  double allowed = s.obj.allowed();
  if (!s.obj.active() || allowed <= 0.0 || s.total == 0) {
    return 0.0;
  }
  double bad_frac = static_cast<double>(s.bad) / static_cast<double>(s.total);
  return bad_frac / allowed;
}

std::string SloEngine::Report() const {
  std::string out = "slo engine (per-tenant burn rates)\n";
  char line[224];
  for (int b = 0; b < kTenantBuckets; ++b) {
    const TenantState& s = state_[b];
    if (!s.obj.active() || s.total == 0) {
      continue;
    }
    int tenant = b - 1;
    std::snprintf(line, sizeof(line),
                  "  tenant %2d: p%.4g<%lluns faults=%llu bad=%llu burn(fast=%.2f "
                  "slow=%.2f) budget-used=%.2f alerts=%llu%s\n",
                  tenant, s.obj.percentile,
                  static_cast<unsigned long long>(s.obj.threshold_ns),
                  static_cast<unsigned long long>(s.total),
                  static_cast<unsigned long long>(s.bad), burn_rate(tenant, true),
                  burn_rate(tenant, false), budget_used(tenant),
                  static_cast<unsigned long long>(s.alerts),
                  s.alert_active ? " ALERT" : "");
    out += line;
  }
  return out;
}

std::string SloEngine::ToProm() const {
  std::string out;
  auto row = [&out](const char* name, int tenant, double v, bool integer) {
    char buf[128];
    if (integer) {
      std::snprintf(buf, sizeof(buf), "%s{tenant=\"%d\"} %llu\n", name, tenant,
                    static_cast<unsigned long long>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "%s{tenant=\"%d\"} %.6g\n", name, tenant, v);
    }
    out += buf;
  };
  struct Series {
    const char* name;
    const char* help;
    const char* type;
  };
  static constexpr Series kSeries[] = {
      {"dilos_slo_faults_total", "Faults scored against the tenant objective.", "counter"},
      {"dilos_slo_bad_total", "Faults over the tenant latency threshold.", "counter"},
      {"dilos_slo_alerts_total", "Burn-rate breach alerts fired.", "counter"},
      {"dilos_slo_burn_fast", "Fast-window burn rate (bad fraction / allowed).", "gauge"},
      {"dilos_slo_burn_slow", "Slow-window burn rate (bad fraction / allowed).", "gauge"},
      {"dilos_slo_budget_used", "Lifetime error-budget consumption (>=1 blown).", "gauge"},
      {"dilos_slo_threshold_ns", "Configured latency threshold.", "gauge"},
  };
  for (const Series& ser : kSeries) {
    out += std::string("# HELP ") + ser.name + " " + ser.help + "\n";
    out += std::string("# TYPE ") + ser.name + " " + ser.type + "\n";
    for (int b = 0; b < kTenantBuckets; ++b) {
      const TenantState& s = state_[b];
      if (!s.obj.active()) {
        continue;
      }
      int tenant = b - 1;
      if (ser.name == std::string("dilos_slo_faults_total")) {
        row(ser.name, tenant, static_cast<double>(s.total), true);
      } else if (ser.name == std::string("dilos_slo_bad_total")) {
        row(ser.name, tenant, static_cast<double>(s.bad), true);
      } else if (ser.name == std::string("dilos_slo_alerts_total")) {
        row(ser.name, tenant, static_cast<double>(s.alerts), true);
      } else if (ser.name == std::string("dilos_slo_burn_fast")) {
        row(ser.name, tenant, burn_rate(tenant, true), false);
      } else if (ser.name == std::string("dilos_slo_burn_slow")) {
        row(ser.name, tenant, burn_rate(tenant, false), false);
      } else if (ser.name == std::string("dilos_slo_budget_used")) {
        row(ser.name, tenant, budget_used(tenant), false);
      } else {
        row(ser.name, tenant, static_cast<double>(s.obj.threshold_ns), true);
      }
    }
  }
  return out;
}

}  // namespace dilos
