// Tenant namespaces, ownership resolution, and capacity quotas.
//
// One shared memory-node fleet serves many runtimes ("tenants" — the
// datacenter framing of the Maruf/Chowdhury survey). The registry is the
// policy subsystem's root object: it maps address ranges to tenant ids at
// granule granularity, carries per-tenant fair-share weights for the wire
// scheduler (src/tenant/wire_sched.h), salts the shard router's placement
// hash so each tenant gets its own placement namespace, and enforces
// remote-capacity quotas at the cleaner's write-back admission point
// (src/dilos/page_manager.cc).
//
// Quota semantics: a tenant's quota caps its *stored remote* pages. A page
// is charged the first time a full write-back ships it; it stays charged
// while any remote copy logically exists (crash/repair churn does not
// uncharge — the page is still stored as far as the router is concerned)
// and is uncharged when the owning region is freed or the quota reclaimer
// drops its remote copies. On breach the tenant's policy decides:
//   kHardReject       — refuse the write-back; the page stays dirty and
//                       resident (the reclaimer requeues it, the same
//                       contract as a total-partition write-back failure).
//   kReclaimOwnColdest — drop remote copies of the tenant's own coldest
//                       *resident* charged pages (re-marking them dirty, so
//                       the local copy stays authoritative: lossless),
//                       then admit. Falls back to hard-reject when no
//                       eligible victim exists.
#ifndef DILOS_SRC_TENANT_TENANT_H_
#define DILOS_SRC_TENANT_TENANT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/telemetry/invariants.h"
#include "src/telemetry/slo.h"

namespace dilos {

enum class QuotaPolicy : uint8_t {
  kHardReject = 0,
  kReclaimOwnColdest,
};

struct TenantSpec {
  std::string name;
  uint32_t weight = 1;       // Fair-share weight for the wire scheduler.
  uint64_t quota_pages = 0;  // Remote-capacity cap; 0 = unlimited.
  QuotaPolicy policy = QuotaPolicy::kHardReject;
  // Latency objective, honored when the SLO engine is on
  // (TelemetryConfig::slo.enabled); default-inactive = unscored tenant.
  SloObjective slo{};
};

// Per-runtime tenancy knobs (DilosConfig::tenants).
struct HotnessConfig {
  bool enabled = false;
  uint64_t interval_ns = 500'000;    // Load-sampling cadence.
  double imbalance_ratio = 2.0;      // Act when max/min node load exceeds this.
  uint64_t bytes_per_interval = 1 << 20;  // Migration budget per interval.
  uint64_t min_interval_bytes = 16 * 1024;  // Ignore near-idle intervals.
};

struct TenantConfig {
  bool enabled = false;     // Construct the registry; thread ids through.
  bool fair_share = false;  // Install the per-tenant wire scheduler.
  HotnessConfig hotness;    // Steady-state auto-migrator.
};

class TenantRegistry {
 public:
  // The per-(node, tenant) telemetry cells and retry buckets are sized for a
  // bounded tenant population; registrations beyond the cap are refused.
  static constexpr int kMaxTenants = 16;

  explicit TenantRegistry(uint32_t granule_shift = 18) : granule_shift_(granule_shift) {}

  // Returns the new tenant's id, or -1 when the registry is full.
  int Register(const TenantSpec& spec) {
    if (static_cast<int>(tenants_.size()) >= kMaxTenants) {
      return -1;
    }
    tenants_.push_back(Entry{spec, /*retired=*/false});
    counters_.emplace_back();
    return static_cast<int>(tenants_.size()) - 1;
  }

  // Retirement is terminal: the tenant must have freed every region first
  // (the shutdown audit fails if a retired tenant still owns pages).
  void Retire(int id) {
    if (valid(id)) {
      tenants_[static_cast<size_t>(id)].retired = true;
    }
  }
  bool retired(int id) const {
    return valid(id) && tenants_[static_cast<size_t>(id)].retired;
  }
  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  const TenantSpec& spec(int id) const { return tenants_[static_cast<size_t>(id)].spec; }

  // -- Namespace: address range -> tenant, at granule granularity ------------

  // Binds [base, base+bytes) to `id`. Regions are granule-aligned by
  // construction (AllocRegion pads), so a granule never straddles tenants.
  void BindRange(uint64_t base, uint64_t bytes, int id) {
    if (!valid(id) || retired(id) || bytes == 0) {
      return;
    }
    uint64_t first = base >> granule_shift_;
    uint64_t last = (base + bytes - 1) >> granule_shift_;
    for (uint64_t g = first; g <= last; ++g) {
      granule_owner_[g] = id;
    }
  }

  int TenantOfGranule(uint64_t granule) const {
    auto it = granule_owner_.find(granule);
    return it == granule_owner_.end() ? -1 : it->second;
  }
  int TenantOfAddr(uint64_t addr) const { return TenantOfGranule(addr >> granule_shift_); }

  // Placement-namespace salt mixed into the shard router's hash: granules of
  // different tenants spread independently even when their indices collide.
  // Untenanted granules keep salt 0, preserving single-tenant placement.
  uint64_t PlacementSalt(uint64_t granule) const {
    int t = TenantOfGranule(granule);
    if (t < 0) {
      return 0;
    }
    uint64_t x = static_cast<uint64_t>(t) + 0x9E3779B97F4A7C15ULL;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    return x;
  }

  // -- Accounting: resident gauges + remote charges --------------------------

  // Resident gauge, fed from PageManager::OnMapped/OnUnmapped. `delta` is
  // +1/-1; an impossible decrement flags the shutdown audit instead of
  // wrapping.
  void OnResident(uint64_t page_va, int delta) {
    Counters& c = bucket(TenantOfAddr(page_va));
    if (delta < 0) {
      uint64_t d = static_cast<uint64_t>(-delta);
      if (c.resident < d || total_resident_ < d) {
        ++underflows_;
        return;
      }
      c.resident -= d;
      total_resident_ -= d;
    } else {
      c.resident += static_cast<uint64_t>(delta);
      total_resident_ += static_cast<uint64_t>(delta);
    }
  }

  bool IsCharged(uint64_t page_va) const { return charged_.count(page_va) != 0; }
  int ChargeOwner(uint64_t page_va) const {
    auto it = charged_.find(page_va);
    return it == charged_.end() ? -1 : it->second;
  }

  // Charges `page_va` against its owner's quota. Untenanted pages are always
  // admitted and never tracked. Returns false on quota breach.
  bool TryCharge(uint64_t page_va) {
    int t = TenantOfAddr(page_va);
    if (t < 0) {
      return true;
    }
    if (charged_.count(page_va) != 0) {
      return true;
    }
    Counters& c = bucket(t);
    const TenantSpec& s = spec(t);
    if (s.quota_pages != 0 && c.remote >= s.quota_pages) {
      return false;
    }
    charged_.emplace(page_va, t);
    ++c.remote;
    ++total_remote_;
    return true;
  }

  void Uncharge(uint64_t page_va) {
    auto it = charged_.find(page_va);
    if (it == charged_.end()) {
      return;
    }
    Counters& c = bucket(it->second);
    if (c.remote == 0 || total_remote_ == 0) {
      ++underflows_;
    } else {
      --c.remote;
      --total_remote_;
    }
    charged_.erase(it);
  }

  void NoteReject(int id) { ++bucket(id).rejects; }
  void NoteReclaim(int id) { ++bucket(id).reclaims; }

  uint64_t resident_pages(int id) const { return bucket_const(id).resident; }
  uint64_t remote_pages(int id) const { return bucket_const(id).remote; }
  uint64_t quota_rejects(int id) const { return bucket_const(id).rejects; }
  uint64_t quota_reclaims(int id) const { return bucket_const(id).reclaims; }
  uint64_t total_resident() const { return total_resident_; }
  uint64_t total_remote() const { return total_remote_; }

  // Flat snapshot for the shutdown audit (src/telemetry/invariants.h).
  TenantInvariantView InvariantView() const {
    TenantInvariantView v;
    v.rows.push_back(TenantInvariantRow{-1, false, untenanted_.resident,
                                        untenanted_.remote, 0});
    for (int id = 0; id < num_tenants(); ++id) {
      const Counters& c = counters_[static_cast<size_t>(id)];
      v.rows.push_back(TenantInvariantRow{id, retired(id), c.resident, c.remote,
                                          spec(id).quota_pages});
    }
    v.total_resident = total_resident_;
    v.total_remote = total_remote_;
    v.charged_entries = charged_.size();
    v.underflows = underflows_;
    return v;
  }

 private:
  struct Entry {
    TenantSpec spec;
    bool retired = false;
  };
  struct Counters {
    uint64_t resident = 0;  // Frame-backed pages.
    uint64_t remote = 0;    // Charged (stored-remote) pages.
    uint64_t rejects = 0;   // Write-backs refused on quota breach.
    uint64_t reclaims = 0;  // Own-coldest remote drops to make quota room.
  };

  bool valid(int id) const { return id >= 0 && id < num_tenants(); }
  Counters& bucket(int id) {
    return valid(id) ? counters_[static_cast<size_t>(id)] : untenanted_;
  }
  const Counters& bucket_const(int id) const {
    return valid(id) ? counters_[static_cast<size_t>(id)] : untenanted_;
  }

  uint32_t granule_shift_;
  std::vector<Entry> tenants_;
  std::vector<Counters> counters_;
  Counters untenanted_;  // Probes, parity ranges, unbound regions.
  std::unordered_map<uint64_t, int> granule_owner_;
  std::unordered_map<uint64_t, int> charged_;  // page va -> owning tenant.
  uint64_t total_resident_ = 0;
  uint64_t total_remote_ = 0;
  uint64_t underflows_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_TENANT_TENANT_H_
