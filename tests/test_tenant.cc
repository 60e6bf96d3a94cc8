// Tests for the multi-tenant policy layer (src/tenant): the registry
// (namespaces, placement salts, quota accounting), the fair-share wire
// scheduler's band/lane arbitration, runtime-level quota enforcement under
// both breach policies, per-(core, tenant) retry budgets, per-tenant fabric
// metrics, the hotness auto-migrator's convergence, and a multi-seed
// quota-under-chaos soak.
//
// Failures print the seed; `DILOS_CHAOS_SEED_BASE=<seed>` replays the exact
// fault schedule (same contract as test_chaos.cc).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/dilos/runtime.h"
#include "src/memnode/fault_injector.h"
#include "src/recovery/migration.h"
#include "src/tenant/wire_sched.h"

namespace dilos {
namespace {

constexpr uint64_t kMs = 1'000'000;

TenantSpec Spec(const char* name, uint32_t weight, uint64_t quota,
                QuotaPolicy policy = QuotaPolicy::kHardReject) {
  TenantSpec s;
  s.name = name;
  s.weight = weight;
  s.quota_pages = quota;
  s.policy = policy;
  return s;
}

void Populate(DilosRuntime& rt, uint64_t region, uint64_t pages) {
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, (region + p) ^ 0xD15C0);
  }
}

uint64_t VerifySweep(DilosRuntime& rt, uint64_t region, uint64_t pages) {
  uint64_t errors = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    if (rt.Read<uint64_t>(region + p * kPageSize) != ((region + p) ^ 0xD15C0)) {
      ++errors;
    }
  }
  return errors;
}

void DriveUntilIdle(DilosRuntime& rt, uint64_t max_ms = 50) {
  for (uint64_t i = 0; i < max_ms && !rt.RecoveryIdle(); ++i) {
    rt.DriveRecovery(1'000'000);
  }
}

void DriveMs(DilosRuntime& rt, uint64_t ms) {
  for (uint64_t i = 0; i < ms; ++i) {
    rt.DriveRecovery(1'000'000);
  }
}

// -- Registry: namespaces, salts, charges -------------------------------------

TEST(TenantRegistry, RegisterRetireAndCapacityCap) {
  TenantRegistry reg;
  EXPECT_EQ(reg.num_tenants(), 0);
  int a = reg.Register(Spec("a", 1, 0));
  int b = reg.Register(Spec("b", 2, 100));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(reg.spec(b).weight, 2u);
  EXPECT_EQ(reg.spec(b).quota_pages, 100u);
  EXPECT_FALSE(reg.retired(a));
  reg.Retire(a);
  EXPECT_TRUE(reg.retired(a));
  // A retired tenant cannot take on new ranges.
  reg.BindRange(1ULL << 30, kShardGranuleBytes, a);
  EXPECT_EQ(reg.TenantOfAddr(1ULL << 30), -1);
  // The registry refuses registrations beyond the sizing cap.
  for (int i = reg.num_tenants(); i < TenantRegistry::kMaxTenants; ++i) {
    EXPECT_GE(reg.Register(Spec("x", 1, 0)), 0);
  }
  EXPECT_EQ(reg.Register(Spec("overflow", 1, 0)), -1);
}

TEST(TenantRegistry, NamespaceBindingAndPlacementSalt) {
  TenantRegistry reg;
  int a = reg.Register(Spec("a", 1, 0));
  int b = reg.Register(Spec("b", 1, 0));
  uint64_t base_a = 1ULL << 30;
  uint64_t base_b = 2ULL << 30;
  reg.BindRange(base_a, 2 * kShardGranuleBytes, a);
  reg.BindRange(base_b, kShardGranuleBytes, b);

  EXPECT_EQ(reg.TenantOfAddr(base_a), a);
  EXPECT_EQ(reg.TenantOfAddr(base_a + 2 * kShardGranuleBytes - 1), a);
  EXPECT_EQ(reg.TenantOfAddr(base_a + 2 * kShardGranuleBytes), -1);
  EXPECT_EQ(reg.TenantOfAddr(base_b), b);
  EXPECT_EQ(reg.TenantOfAddr(0), -1);

  // Untenanted granules keep salt 0 (single-tenant placement unchanged);
  // bound granules get a per-tenant salt so placements are independent.
  EXPECT_EQ(reg.PlacementSalt(0), 0u);
  uint64_t salt_a = reg.PlacementSalt(base_a >> kShardGranuleShift);
  uint64_t salt_b = reg.PlacementSalt(base_b >> kShardGranuleShift);
  EXPECT_NE(salt_a, 0u);
  EXPECT_NE(salt_b, 0u);
  EXPECT_NE(salt_a, salt_b);
}

TEST(TenantRegistry, QuotaChargesUnchargesAndFlagsUnderflow) {
  TenantRegistry reg;
  int a = reg.Register(Spec("a", 1, 2));
  uint64_t base = 1ULL << 30;
  reg.BindRange(base, kShardGranuleBytes, a);

  // Untenanted pages always admit and are never tracked.
  EXPECT_TRUE(reg.TryCharge(0));
  EXPECT_FALSE(reg.IsCharged(0));

  EXPECT_TRUE(reg.TryCharge(base));
  EXPECT_TRUE(reg.TryCharge(base));  // Re-charging the same page is idempotent.
  EXPECT_TRUE(reg.TryCharge(base + kPageSize));
  EXPECT_EQ(reg.remote_pages(a), 2u);
  EXPECT_FALSE(reg.TryCharge(base + 2 * kPageSize)) << "third page breaches quota 2";
  EXPECT_EQ(reg.ChargeOwner(base), a);

  reg.Uncharge(base);
  EXPECT_FALSE(reg.IsCharged(base));
  EXPECT_EQ(reg.remote_pages(a), 1u);
  EXPECT_TRUE(reg.TryCharge(base + 2 * kPageSize)) << "uncharge made quota room";

  // Resident-gauge underflow is flagged for the audit, never wrapped.
  TenantInvariantView v = reg.InvariantView();
  EXPECT_EQ(v.underflows, 0u);
  reg.OnResident(base, -1);
  v = reg.InvariantView();
  EXPECT_EQ(v.underflows, 1u);
}

// -- Fair-share wire scheduler: bands and lanes --------------------------------

uint64_t SoloWireNs(uint64_t bytes) {
  CostModel cost = CostModel::Default();
  Link link(cost);
  TenantRegistry reg;
  FairLinkScheduler sched(1, &reg);
  return sched.Occupy(link, 0, QpClass::kFault, 0, 0, bytes, 1, false).done_ns;
}

TEST(FairScheduler, StrictBandsDemandBypassesBulkBacklog) {
  CostModel cost = CostModel::Default();
  Link link(cost);
  TenantRegistry reg;
  FairLinkScheduler sched(1, &reg);

  // Queue a deep prefetch backlog (band 1), all issued at t=0.
  uint64_t pf_done = 0;
  for (int i = 0; i < 8; ++i) {
    pf_done = sched.Occupy(link, 0, QpClass::kPrefetch, 0, 0, kPageSize, 1, false).done_ns;
  }
  // A demand fault issued mid-backlog starts at its own issue time — it does
  // not queue behind the bulk band.
  WireSlot fault = sched.Occupy(link, 0, QpClass::kFault, 0, 1000, kPageSize, 1, false);
  EXPECT_EQ(fault.start_ns, 1000u);
  EXPECT_LT(fault.done_ns, pf_done);
  // A maintenance op (band 2) waits behind both higher bands' frontiers.
  sched.Occupy(link, 0, QpClass::kCleaner, 0, 0, kPageSize, 1, true);
  // Writes are the other direction; re-post a band-2 read to hit the same lane.
  WireSlot maint = sched.Occupy(link, 0, QpClass::kProbe, 0, 0, 64, 1, false);
  EXPECT_GE(maint.start_ns, pf_done);
  EXPECT_GE(maint.done_ns, pf_done);
  EXPECT_GE(maint.done_ns, fault.done_ns);
  EXPECT_EQ(sched.ops(0), 1u);
  EXPECT_EQ(sched.ops(1), 8u);
  EXPECT_EQ(sched.ops(2), 2u);
}

TEST(FairScheduler, PerTenantLanesBoundVictimDelayToFairShare) {
  CostModel cost = CostModel::Default();
  Link link(cost);
  TenantRegistry reg;
  int a = reg.Register(Spec("aggressor", 1, 0));
  int b = reg.Register(Spec("victim", 1, 0));
  uint64_t base_a = 1ULL << 30;
  uint64_t base_b = 2ULL << 30;
  reg.BindRange(base_a, kShardGranuleBytes, a);
  reg.BindRange(base_b, kShardGranuleBytes, b);
  FairLinkScheduler sched(1, &reg);

  // Tenant a floods 32 demand faults at t=0: its own lane serializes them.
  uint64_t a_done = 0;
  for (int i = 0; i < 32; ++i) {
    a_done = sched.Occupy(link, 0, QpClass::kFault, base_a, 0, kPageSize, 1, false).done_ns;
  }
  // Tenant b's single fault at t=0 pays at most its weighted share of the
  // contention (2x the solo wire time for equal weights), not a's backlog.
  uint64_t b_done =
      sched.Occupy(link, 0, QpClass::kFault, base_b, 0, kPageSize, 1, false).done_ns;
  uint64_t solo = SoloWireNs(kPageSize);
  EXPECT_LE(b_done, 2 * solo + solo / 4);
  EXPECT_LT(4 * b_done, a_done);
  EXPECT_GT(sched.deferred_ns(), 0u) << "a's backlog was serialized on its lane";
}

TEST(FairScheduler, WeightsSplitContentionProportionally) {
  // Identical aggressor backlogs on two fresh schedulers; the probing tenant
  // differs only in weight. Against a weight-1 backlog a weight-3 op
  // stretches by (1+3)/3 while a weight-1 op stretches by (1+1)/1, so the
  // heavy tenant's single fault must finish strictly earlier.
  auto probe = [](uint32_t probe_weight) {
    CostModel cost = CostModel::Default();
    Link link(cost);
    TenantRegistry reg;
    int aggressor = reg.Register(Spec("aggressor", 1, 0));
    int prober = reg.Register(Spec("prober", probe_weight, 0));
    uint64_t base_a = 1ULL << 30;
    uint64_t base_p = 2ULL << 30;
    reg.BindRange(base_a, kShardGranuleBytes, aggressor);
    reg.BindRange(base_p, kShardGranuleBytes, prober);
    FairLinkScheduler sched(1, &reg);
    for (int i = 0; i < 16; ++i) {
      sched.Occupy(link, 0, QpClass::kFault, base_a, 0, kPageSize, 1, false);
    }
    return sched.Occupy(link, 0, QpClass::kFault, base_p, 0, kPageSize, 1, false).done_ns;
  };
  uint64_t heavy_done = probe(3);
  uint64_t light_done = probe(1);
  EXPECT_LT(heavy_done, light_done);
  // Both still beat FIFO queueing behind the 16-op backlog.
  EXPECT_LT(light_done, 4 * SoloWireNs(kPageSize));
}

// -- Runtime: single-tenant parity, placement, quotas --------------------------

TEST(TenantRuntime, TenancyWithNoTenantsMatchesTenancyOff) {
  auto run = [](bool enabled) {
    Fabric fabric;
    DilosConfig cfg;
    cfg.local_mem_bytes = 1ULL << 20;
    cfg.tenants.enabled = enabled;
    DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
    const uint64_t pages = 1024;
    uint64_t region = rt.AllocRegion(pages * kPageSize);
    Populate(rt, region, pages);
    EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
    return std::make_tuple(rt.stats().major_faults, rt.stats().evictions,
                           rt.stats().writebacks, rt.clock(0).now());
  };
  EXPECT_EQ(run(false), run(true))
      << "an empty registry must leave placement and paging byte-identical";
}

TEST(TenantRuntime, PlacementNamespacesSpreadTenantsIndependently) {
  Fabric fabric(CostModel::Default(), 4);
  DilosConfig cfg;
  cfg.local_mem_bytes = 1ULL << 20;
  cfg.tenants.enabled = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  int a = rt.CreateTenant(Spec("a", 1, 0));
  int b = rt.CreateTenant(Spec("b", 1, 0));
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  const uint64_t pages = 8 * kPagesPerGranule;
  uint64_t ra = rt.AllocRegion(pages * kPageSize, a);
  uint64_t rb = rt.AllocRegion(pages * kPageSize, b);
  // Regions are granule-aligned so a granule never straddles tenants.
  EXPECT_EQ(ra % kShardGranuleBytes, 0u);
  EXPECT_EQ(rb % kShardGranuleBytes, 0u);
  Populate(rt, ra, pages);
  Populate(rt, rb, pages);

  // Both tenants' granules spread over the fleet (not pinned to one node).
  std::vector<int> replicas;
  for (uint64_t base : {ra, rb}) {
    std::vector<bool> used(4, false);
    for (uint64_t g = 0; g < 8; ++g) {
      rt.router().ReplicaNodes(base + g * kShardGranuleBytes, &replicas);
      ASSERT_FALSE(replicas.empty());
      used[static_cast<size_t>(replicas[0])] = true;
    }
    EXPECT_GT(std::count(used.begin(), used.end(), true), 1);
  }
  EXPECT_EQ(VerifySweep(rt, ra, pages), 0u);
  EXPECT_EQ(VerifySweep(rt, rb, pages), 0u);
}

TEST(TenantRuntime, HardRejectCapsStoredPagesAndKeepsDataResident) {
  Fabric fabric;
  DilosConfig cfg;
  // Smaller than the region: real eviction pressure, so the cleaner works.
  cfg.local_mem_bytes = 128 * kPageSize;
  cfg.tenants.enabled = true;
  cfg.telemetry.check_invariants = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  int t = rt.CreateTenant(Spec("capped", 1, 32, QuotaPolicy::kHardReject));
  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize, t);
  Populate(rt, region, pages);

  // Drive the cleaner: it keeps trying to write dirty pages back, and every
  // attempt past the 32-page quota is refused.
  uint64_t now = rt.clock(0).now();
  for (int i = 0; i < 100; ++i) {
    now += 100'000;
    rt.page_manager().BackgroundTick(now);
  }

  EXPECT_EQ(rt.tenants()->remote_pages(t), 32u);
  EXPECT_GT(rt.tenants()->quota_rejects(t), 0u);
  EXPECT_GT(rt.stats().tenant_quota_rejects, 0u);
  // Rejected pages stay dirty and resident — nothing is lost.
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);

  rt.FreeRegion(region, pages * kPageSize);
  rt.RetireTenant(t);  // The destructor audits: a retired tenant owns nothing.
}

TEST(TenantRuntime, ReclaimOwnColdestStaysUnderQuotaLosslessly) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 128 * kPageSize;
  cfg.tenants.enabled = true;
  cfg.telemetry.check_invariants = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  int t = rt.CreateTenant(Spec("reclaimer", 1, 32, QuotaPolicy::kReclaimOwnColdest));
  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize, t);
  Populate(rt, region, pages);

  uint64_t now = rt.clock(0).now();
  for (int i = 0; i < 100; ++i) {
    now += 100'000;
    rt.page_manager().BackgroundTick(now);
  }

  // The quota held the whole time by evicting the tenant's own coldest
  // remote copies; the dropped pages were re-marked dirty locally, so every
  // byte is still served correctly.
  EXPECT_LE(rt.tenants()->remote_pages(t), 32u);
  EXPECT_GT(rt.tenants()->quota_reclaims(t), 0u);
  EXPECT_GT(rt.stats().tenant_quota_reclaims, 0u);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);

  rt.FreeRegion(region, pages * kPageSize);
  rt.RetireTenant(t);
}

// -- Per-(core, tenant) retry budgets ------------------------------------------

TEST(TenantRetryBudget, OneTenantsRetryStormCannotDrainAnothers) {
  Fabric fabric(CostModel::Default(), 3);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.replication = 2;
  cfg.recovery.enabled = true;
  cfg.tenants.enabled = true;
  cfg.recovery.retry_burst = 4;
  cfg.recovery.retry_refill_ns = 50 * kMs;  // Nothing refills mid-test.
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  int a = rt.CreateTenant(Spec("bystander", 1, 0));
  int b = rt.CreateTenant(Spec("stormer", 1, 0));
  const uint64_t pages = 64;
  uint64_t ra = rt.AllocRegion(pages * kPageSize, a);
  uint64_t rb = rt.AllocRegion(pages * kPageSize, b);
  Populate(rt, ra, pages);
  Populate(rt, rb, pages);

  // Every (core, tenant) bucket starts full.
  EXPECT_EQ(rt.retry_tokens(0, a), 4u);
  EXPECT_EQ(rt.retry_tokens(0, b), 4u);
  EXPECT_EQ(rt.retry_tokens(0, -1), 4u);

  // Partition a node holding tenant b's pages and storm exactly those pages:
  // only b's bucket pays for the retries.
  fabric.CrashNode(1);
  std::vector<int> reps;
  bool stormed = false;
  for (uint64_t p = 0; p + 16 < pages; ++p) {
    rt.router().ReplicaNodes(rb + p * kPageSize, &reps);
    if (!reps.empty() && reps[0] == 1) {
      rt.Read<uint64_t>(rb + p * kPageSize);
      stormed = true;
      break;
    }
  }
  ASSERT_TRUE(stormed) << "no granule of tenant b homed on the crashed node";

  EXPECT_GT(rt.stats().fetch_retries, 0u);
  EXPECT_LT(rt.retry_tokens(0, b), 4u) << "the storming tenant's bucket drains";
  EXPECT_EQ(rt.retry_tokens(0, a), 4u) << "the bystander's bucket is untouched";
  EXPECT_EQ(rt.retry_tokens(0, -1), 4u) << "the untenanted bucket is untouched";

  fabric.RestoreNode(1);
  DriveMs(rt, 20);
  DriveUntilIdle(rt, 100);
}

// -- Per-tenant fabric metrics -------------------------------------------------

TEST(TenantMetrics, PerTenantCellsAndPromRowsAttributeTraffic) {
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg;
  cfg.local_mem_bytes = 32 * kPageSize;
  cfg.tenants.enabled = true;
  cfg.telemetry.metrics = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  int t = rt.CreateTenant(Spec("prom", 1, 0));
  const uint64_t pages = 128;
  uint64_t region = rt.AllocRegion(pages * kPageSize, t);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);  // Misses fetch remotely.

  ASSERT_NE(rt.metrics(), nullptr);
  ASSERT_TRUE(rt.metrics()->tenant_aware());
  uint64_t serve = 0, maint = 0;
  for (int n = 0; n < 2; ++n) {
    serve += rt.metrics()->TenantServe(n, t).ops();
    maint += rt.metrics()->TenantMaint(n, t).ops();
  }
  EXPECT_GT(serve, 0u) << "demand fetches attribute to the tenant's serve cell";
  EXPECT_GT(maint, 0u) << "cleaner write-backs attribute to the maint cell";

  std::string prom = rt.metrics()->ToProm();
  EXPECT_NE(prom.find("dilos_tenant_ops_total"), std::string::npos);
  EXPECT_NE(prom.find("dilos_tenant_bytes_total"), std::string::npos);
  EXPECT_NE(prom.find("tenant=\"0\",path=\"serve\""), std::string::npos);
}

// -- Hotness auto-migrator -----------------------------------------------------

TEST(TenantHotness, SkewedLoadConvergesBelowImbalanceThreshold) {
  Fabric fabric(CostModel::Default(), 4);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.recovery.enabled = true;
  cfg.telemetry.metrics = true;
  cfg.tenants.enabled = true;
  cfg.tenants.hotness.enabled = true;
  cfg.tenants.hotness.interval_ns = 200'000;
  cfg.tenants.hotness.imbalance_ratio = 1.5;
  cfg.tenants.hotness.bytes_per_interval = 1ULL << 20;  // 4 granules/interval.
  cfg.tenants.hotness.min_interval_bytes = 4096;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  int t = rt.CreateTenant(Spec("hot", 1, 0));
  const uint64_t granules = 16;
  const uint64_t pages = granules * kPagesPerGranule;
  uint64_t region = rt.AllocRegion(pages * kPageSize, t);
  Populate(rt, region, pages);
  ASSERT_NE(rt.hotness(), nullptr);

  // Skew: read only pages of granules currently homed on one node. The
  // address set is fixed; as the monitor migrates granules away, the same
  // reads spread over the fleet and the load imbalance falls.
  std::vector<int> reps;
  std::vector<uint64_t> hot_pages;
  rt.router().ReplicaNodes(region, &reps);
  ASSERT_FALSE(reps.empty());
  const int hot_node = reps[0];
  for (uint64_t g = 0; g < granules; ++g) {
    rt.router().ReplicaNodes(region + g * kShardGranuleBytes, &reps);
    if (!reps.empty() && reps[0] == hot_node) {
      for (uint64_t p = 0; p < kPagesPerGranule; ++p) {
        hot_pages.push_back(g * kPagesPerGranule + p);
      }
    }
  }
  ASSERT_GT(hot_pages.size(), cfg.local_mem_bytes / kPageSize)
      << "hot set must overflow local memory so reads keep faulting";

  bool converged = false;
  for (int round = 0; round < 400 && !converged; ++round) {
    for (uint64_t p : hot_pages) {
      rt.Read<uint64_t>(region + p * kPageSize);
    }
    rt.DriveRecovery(200'000);
    converged = rt.stats().hotness_migrations > 0 &&
                rt.hotness()->ImbalanceRatio() < cfg.tenants.hotness.imbalance_ratio;
  }

  EXPECT_GT(rt.stats().hotness_migrations, 0u) << "the monitor must act on skew";
  EXPECT_LT(rt.hotness()->ImbalanceRatio(), cfg.tenants.hotness.imbalance_ratio)
      << "node loads must converge under the configured ratio";
  // The per-interval budget bounds how fast it may move data.
  EXPECT_LE(rt.stats().hotness_migrations,
            rt.hotness()->intervals() *
                (cfg.tenants.hotness.bytes_per_interval / kShardGranuleBytes));
  DriveUntilIdle(rt, 200);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_EQ(rt.stats().failed_fetches, 0u);
}

// -- Multi-seed quota + crash soak ---------------------------------------------

uint64_t SeedBase() {
  const char* env = std::getenv("DILOS_CHAOS_SEED_BASE");
  if (env != nullptr && env[0] != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

// One soak run: two quota-capped tenants (one hard-reject, one
// reclaim-own-coldest) churn mixed reads/writes while a node rides a crash
// window, another is transiently flaky, and wire bit flips hit everyone.
// Quotas must hold through the repair churn, no read may cross tenants or
// return wrong bytes, and the destructor audits that per-tenant gauges sum
// to the global totals with both tenants retired clean.
void QuotaCrashSoak(uint64_t seed) {
  Fabric fabric(CostModel::Default(), 4);
  FaultPlan plan;
  plan.specs.push_back({2, FaultKind::kCrash, 1.0, 1.0, 3 * kMs, 9 * kMs});
  plan.specs.push_back({3, FaultKind::kTransient, 0.02, 1.0, 5 * kMs, 12 * kMs});
  plan.specs.push_back({-1, FaultKind::kBitFlip, 0.01, 1.0, 0, UINT64_MAX});
  fabric.set_fault_plan(plan);

  DilosConfig cfg;
  cfg.local_mem_bytes = 160 * kPageSize;
  cfg.replication = 2;
  cfg.recovery.enabled = true;
  cfg.tenants.enabled = true;
  cfg.telemetry.check_invariants = true;
  cfg.fault_seed = seed;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  int a = rt.CreateTenant(Spec("hard", 2, 80, QuotaPolicy::kHardReject));
  int b = rt.CreateTenant(Spec("soft", 1, 80, QuotaPolicy::kReclaimOwnColdest));
  const uint64_t pages = 96;
  uint64_t region[2] = {rt.AllocRegion(pages * kPageSize, a),
                        rt.AllocRegion(pages * kPageSize, b)};
  Populate(rt, region[0], pages);
  Populate(rt, region[1], pages);

  uint64_t rng = seed * 0x9E3779B97F4A7C15ULL + 1;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  uint64_t wrong_reads = 0;
  uint64_t ops = 0;
  while (rt.clock(0).now() < 16 * kMs && ops < 400'000) {
    int t = static_cast<int>(next() % 2);
    uint64_t p = next() % pages;
    uint64_t va = region[t] + p * kPageSize;
    if (next() % 4 == 0) {
      rt.Write<uint64_t>(va, (region[t] + p) ^ 0xD15C0);
    } else if (rt.Read<uint64_t>(va) != ((region[t] + p) ^ 0xD15C0)) {
      ++wrong_reads;
    }
    ++ops;
  }
  // Settle: fault windows over, the crashed node readmitted, repairs done.
  DriveMs(rt, 10);
  DriveUntilIdle(rt, 300);

  EXPECT_EQ(wrong_reads, 0u) << "fault_seed=" << seed;
  EXPECT_LE(rt.tenants()->remote_pages(a), 80u) << "fault_seed=" << seed;
  EXPECT_LE(rt.tenants()->remote_pages(b), 80u) << "fault_seed=" << seed;
  EXPECT_EQ(VerifySweep(rt, region[0], pages), 0u) << "fault_seed=" << seed;
  EXPECT_EQ(VerifySweep(rt, region[1], pages), 0u) << "fault_seed=" << seed;
  // No cross-tenant page leakage: every charged page belongs to the tenant
  // whose region contains it.
  for (int t = 0; t < 2; ++t) {
    int owner = t == 0 ? a : b;
    for (uint64_t p = 0; p < pages; ++p) {
      int charged = rt.tenants()->ChargeOwner(region[t] + p * kPageSize);
      if (charged != -1 && charged != owner) {
        ADD_FAILURE() << "page of tenant " << owner << " charged to " << charged
                      << " fault_seed=" << seed;
      }
    }
  }

  // Teardown: freed and retired tenants must leave no residue — the
  // destructor's tenancy audit enforces it.
  rt.FreeRegion(region[0], pages * kPageSize);
  rt.FreeRegion(region[1], pages * kPageSize);
  rt.RetireTenant(a);
  rt.RetireTenant(b);
  EXPECT_EQ(rt.tenants()->resident_pages(a), 0u) << "fault_seed=" << seed;
  EXPECT_EQ(rt.tenants()->remote_pages(a), 0u) << "fault_seed=" << seed;
  EXPECT_EQ(rt.tenants()->resident_pages(b), 0u) << "fault_seed=" << seed;
  EXPECT_EQ(rt.tenants()->remote_pages(b), 0u) << "fault_seed=" << seed;
}

TEST(TenantChaos, QuotasHoldThrough32SeedsOfCrashAndRepair) {
  uint64_t base = SeedBase();
  for (uint64_t s = base; s < base + 32; ++s) {
    QuotaCrashSoak(s);
    if (::testing::Test::HasFailure()) {
      break;  // First failing seed is the repro; don't bury it.
    }
  }
}

}  // namespace
}  // namespace dilos
