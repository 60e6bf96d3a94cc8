// Per-fault critical-path attribution + per-tenant SLO engine
// (src/telemetry/attribution.h, src/telemetry/slo.{h,cc}, and the stamping
// in src/dilos/runtime.cc):
//
//  - The tiling invariant: for every committed fault, the on-path phase sum
//    equals the measured end-to-end latency within 1% (exact by construction
//    in the simulator) — checked across the depth-1, depth-8, EC-degraded,
//    tier-hit, and retry-storm fault paths.
//  - Phase presence: each path lights up exactly the phases its mechanism
//    implies (kStall only when another fault is waited for, kEcDecode only
//    degraded, ...).
//  - The tier-corrupt fallback is ONE fault: a single kFault span, a single
//    attribution commit and a single breakdown event cover the failed tier
//    attempt plus the remote retry.
//  - The two views agree: the core-time breakdown (LatencyBreakdown) and the
//    critical path (FaultSlice) are charged by one FaultClock
//    (src/sim/fault_clock.h), whose charge, park and scope rules are
//    unit-tested here too.
//  - SLO engine unit behavior: window rollover, burn-rate math, edge-
//    triggered multi-window alerting with hysteresis, budget exhaustion.
//  - Runtime integration: a breach records TraceEvent::kSloBreach and forces
//    a flight-recorder dump carrying the attribution snapshot; enabling
//    attribution + SLO scoring leaves RuntimeStats bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/dilos/readahead.h"
#include "src/dilos/runtime.h"
#include "src/sim/fault_clock.h"
#include "src/telemetry/attribution.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/slo.h"

namespace dilos {
namespace {

void Populate(DilosRuntime& rt, uint64_t region, uint64_t pages) {
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p ^ 0xA77B1);
  }
  rt.Quiesce();
}

uint64_t VerifySweep(DilosRuntime& rt, uint64_t region, uint64_t pages) {
  uint64_t bad = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    if (rt.Read<uint64_t>(region + p * kPageSize) != (p ^ 0xA77B1)) {
      ++bad;
    }
  }
  rt.Quiesce();
  return bad;
}

const FaultAttribution& Attr(const DilosRuntime& rt) {
  const FaultAttribution* a = rt.telemetry()->attribution();
  EXPECT_NE(a, nullptr);
  return *a;
}

// The headline gate: every committed fault tiled exactly (violations stay
// zero and the worst residual is within the 1% tolerance).
void ExpectTilesExactly(const DilosRuntime& rt, uint64_t min_commits) {
  const FaultAttribution& a = Attr(rt);
  EXPECT_GE(a.commits(), min_commits);
  EXPECT_EQ(a.sum_violations(), 0u)
      << "worst residual " << a.worst_residual_ppm() << " ppm";
  EXPECT_LE(a.worst_residual_ppm(), FaultAttribution::kTolerancePpm);
}

// ---------------------------------------------------------------------------
// FaultSlice / FaultAttribution units
// ---------------------------------------------------------------------------

TEST(FaultSlice, OffPathPhasesAreExcludedFromTheSum) {
  FaultSlice s;
  s.Add(FaultPhase::kHandler, 100);
  s.Add(FaultPhase::kWire, 900);
  s.Add(FaultPhase::kStall, 5'000);  // Off-path: concurrent with the wire.
  s.Add(FaultPhase::kHeal, 7'000);   // Off-path: posted without advancing.
  EXPECT_EQ(s.OnPathSumNs(), 1'000u);
  EXPECT_FALSE(FaultPhaseOnPath(FaultPhase::kStall));
  EXPECT_FALSE(FaultPhaseOnPath(FaultPhase::kHeal));
  EXPECT_TRUE(FaultPhaseOnPath(FaultPhase::kWire));
}

TEST(FaultAttribution, CommitChecksTheTilingInvariant) {
  FaultAttribution a;
  FaultSlice s;
  s.Add(FaultPhase::kWire, 1'000);
  a.Commit(/*tenant=*/0, s, /*e2e_ns=*/1'000);  // Exact.
  a.Commit(/*tenant=*/0, s, /*e2e_ns=*/1'005);  // 0.5%: within tolerance.
  EXPECT_EQ(a.sum_violations(), 0u);
  a.Commit(/*tenant=*/0, s, /*e2e_ns=*/1'200);  // 16.7% off: a violation.
  EXPECT_EQ(a.commits(), 3u);
  EXPECT_EQ(a.sum_violations(), 1u);
  EXPECT_GT(a.worst_residual_ppm(), FaultAttribution::kTolerancePpm);
  EXPECT_EQ(a.TopContributor(0), FaultPhase::kWire);
  EXPECT_EQ(a.phase(0, FaultPhase::kWire).count(), 3u);
}

TEST(FaultAttribution, PromRowsCarryTenantAndPhaseLabels) {
  FaultAttribution a;
  FaultSlice s;
  s.Add(FaultPhase::kWire, 2'000);
  s.Add(FaultPhase::kMap, 500);
  a.Commit(/*tenant=*/3, s, 2'500);
  std::string prom = a.ToProm();
  EXPECT_NE(prom.find("dilos_fault_phase_ns{tenant=\"3\",phase=\"wire\""),
            std::string::npos);
  EXPECT_NE(prom.find("dilos_fault_phase_ns_sum{tenant=\"3\",phase=\"map\"} 500"),
            std::string::npos);
  EXPECT_NE(prom.find("dilos_fault_e2e_ns_count{tenant=\"3\"} 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tiling invariant across the five fault paths
// ---------------------------------------------------------------------------

TEST(AttributionInvariant, BlockingPathTilesExactly) {
  Fabric fabric(CostModel::Default(), 1);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.telemetry.attribution = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);

  // Readahead absorbs most of the sequential sweep; only the demand faults
  // that actually ran the fault path commit slices.
  ExpectTilesExactly(rt, /*min_commits=*/16);
  const FaultAttribution& a = Attr(rt);
  EXPECT_GT(a.TotalNs(FaultPhase::kHandler), 0u);
  EXPECT_GT(a.TotalNs(FaultPhase::kWire), 0u);
  EXPECT_GT(a.TotalNs(FaultPhase::kMap), 0u);
  EXPECT_EQ(a.TotalNs(FaultPhase::kOverlap), 0u) << "the fetch hides all the work";
  EXPECT_EQ(a.TotalNs(FaultPhase::kStall), 0u) << "depth 1 only waits for its own fault";
  // At depth 1 (the default) every phase total equals the one recorded from
  // the former blocking fault path: a fault's window closes after the TLB
  // flush of its install, and its wait for its own completion is no stall.
  const uint64_t recorded[kFaultPhaseCount] = {
      21'420,  // handler
      0,       // alloc
      0,       // lane-wait
      81'056,  // wire
      0,       // backoff
      0,       // ec-decode
      0,       // decompress
      0,       // overlap
      5'100,   // map
      0,       // stall
      0,       // heal
  };
  for (size_t i = 0; i < kFaultPhaseCount; ++i) {
    auto p = static_cast<FaultPhase>(i);
    EXPECT_EQ(a.TotalNs(p), recorded[i]) << FaultPhaseName(p);
  }
}

TEST(AttributionInvariant, PipelinedDepth8TilesExactly) {
  Fabric fabric(CostModel::Default(), 1);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.fault_pipeline_depth = 8;
  cfg.telemetry.attribution = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);

  EXPECT_EQ(rt.stats().fault_inflight, 0u);
  ExpectTilesExactly(rt, /*min_commits=*/64);
  const FaultAttribution& a = Attr(rt);
  EXPECT_GT(a.TotalNs(FaultPhase::kOverlap), 0u)
      << "parked fibers must attribute their wait for the core";
  EXPECT_GT(rt.stats().fault_parks, 0u);
}

TEST(AttributionInvariant, EcDegradedPathTilesExactly) {
  Fabric fabric(CostModel::Default(), 6);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.recovery.enabled = true;
  cfg.ec.enabled = true;
  cfg.ec.k = 4;
  cfg.ec.m = 2;
  cfg.telemetry.attribution = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  // Enough pages for several (4, 2) stripes so the crashed node is sure to
  // hold data members, not just parity.
  const uint64_t pages = 512;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(1);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  ASSERT_GT(rt.stats().ec_degraded_reads, 0u) << "test must exercise decode";
  ExpectTilesExactly(rt, /*min_commits=*/64);
  EXPECT_GT(Attr(rt).TotalNs(FaultPhase::kEcDecode), 0u);
}

TEST(AttributionInvariant, TierHitPathTilesExactly) {
  Fabric fabric(CostModel::Default(), 1);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.tier.enabled = true;
  cfg.tier.capacity_bytes = 32ULL << 20;
  cfg.telemetry.attribution = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);

  ASSERT_GT(rt.stats().tier_hits, 0u);
  ExpectTilesExactly(rt, /*min_commits=*/64);
  EXPECT_GT(Attr(rt).TotalNs(FaultPhase::kDecompress), 0u);
}

TEST(AttributionInvariant, RetryStormTilesExactly) {
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.replication = 2;
  cfg.recovery.enabled = true;
  cfg.telemetry.attribution = true;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  fabric.CrashNode(0);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  ASSERT_GT(rt.stats().fetch_retries, 0u) << "test must exercise the storm";
  ExpectTilesExactly(rt, /*min_commits=*/64);
  const FaultAttribution& a = Attr(rt);
  EXPECT_GT(a.TotalNs(FaultPhase::kBackoff), 0u);
  EXPECT_GT(a.TotalNs(FaultPhase::kWire), 0u)
      << "timed-out attempts bill their full op timeout to the wire";
}

// ---------------------------------------------------------------------------
// Tier-corrupt fallback: one fault, one span, one commit
// ---------------------------------------------------------------------------

TEST(AttributionInvariant, TierCorruptFallbackIsOneFaultWithOneSpan) {
  Fabric fabric(CostModel::Default(), 1);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.tier.enabled = true;
  cfg.tier.capacity_bytes = 32ULL << 20;
  cfg.trace_capacity = 1 << 16;
  cfg.telemetry.attribution = true;
  cfg.telemetry.span_capacity = 1 << 15;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);

  // Deterministic in-DRAM rot: pick a clean tier-resident page (its remote
  // copy is current) and smash its compressed blob.
  std::vector<uint64_t> dirty_vas;
  rt.tier()->CollectDirty(rt.tier()->stored_pages(), &dirty_vas);
  uint64_t victim = 0;
  for (uint64_t p = 0; p < pages && victim == 0; ++p) {
    uint64_t va = region + p * kPageSize;
    if (PteTagOf(rt.page_table().Get(va)) == PteTag::kTier &&
        std::find(dirty_vas.begin(), dirty_vas.end(), va) == dirty_vas.end()) {
      victim = va;
    }
  }
  ASSERT_NE(victim, 0u);
  uint32_t n = 0;
  const uint8_t* blob = rt.tier()->BlobData(victim, &n);
  ASSERT_NE(blob, nullptr);
  std::memset(const_cast<uint8_t*>(blob), 0x80, n);

  uint64_t commits_before = Attr(rt).commits();
  uint64_t events_before = rt.stats().fault_breakdown.events();
  uint64_t major_before = rt.stats().major_faults;
  uint64_t p = (victim - region) / kPageSize;
  EXPECT_EQ(rt.Read<uint64_t>(victim), p ^ 0xA77B1);
  EXPECT_EQ(rt.stats().tier_corrupt_drops, 1u);
  EXPECT_EQ(rt.stats().major_faults, major_before + 1);
  // One breakdown event for the fault, though its handler ran twice (the
  // handler cost is still charged per entry).
  EXPECT_EQ(rt.stats().fault_breakdown.events(), events_before + 1);

  // One fault span covers the failed tier attempt AND the remote retry; the
  // retry's fetch-attempt span nests inside it instead of starting a second
  // root. Before the fault-scope fix this was two kFault spans.
  uint32_t fault_spans = 0;
  SpanRecord fault{};
  bool attempt_nested = false;
  for (const SpanRecord& s : rt.tracer().SpanSnapshot()) {
    if (s.kind == SpanKind::kFault && s.page_va == victim) {
      ++fault_spans;
      fault = s;
    }
  }
  ASSERT_EQ(fault_spans, 1u) << "retried demand fetch must not restart the span";
  for (const SpanRecord& s : rt.tracer().SpanSnapshot()) {
    if (s.kind == SpanKind::kFetchAttempt && s.page_va == victim &&
        s.parent == fault.id) {
      attempt_nested = true;
      EXPECT_GE(s.begin_ns, fault.begin_ns);
      EXPECT_LE(s.end_ns, fault.end_ns);
    }
  }
  EXPECT_TRUE(attempt_nested) << "the remote retry must nest under the fault span";

  // And exactly one attribution commit, whose slice spans both attempts
  // (handler charged twice — once per handler entry — still tiles exactly).
  EXPECT_EQ(Attr(rt).commits(), commits_before + 1);
  ExpectTilesExactly(rt, commits_before + 1);
}

// ---------------------------------------------------------------------------
// The two views of fault-path time, and the clock that charges both
// ---------------------------------------------------------------------------

uint64_t BreakdownSumNs(const LatencyBreakdown& bd) {
  uint64_t sum = 0;
  for (size_t i = 0; i < static_cast<size_t>(LatComp::kCount); ++i) {
    sum += bd.total_ns(static_cast<LatComp>(i));
  }
  return sum;
}

// A 512-page sweep after a 512-page populate into 64 frames: every read is
// a remote fault, with no prefetcher and no guide.
std::unique_ptr<DilosRuntime> SweepAfterReset(Fabric& fabric, uint32_t depth) {
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.fault_pipeline_depth = depth;
  cfg.telemetry.attribution = true;
  auto rt = std::make_unique<DilosRuntime>(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 512;
  uint64_t region = rt->AllocRegion(pages * kPageSize);
  Populate(*rt, region, pages);
  rt->stats().fault_breakdown.Reset();
  EXPECT_EQ(VerifySweep(*rt, region, pages), 0u);
  return rt;
}

TEST(AttributionViews, Depth1BreakdownIsTheCriticalPath) {
  Fabric fabric(CostModel::Default(), 1);
  std::unique_ptr<DilosRuntime> rt_owner = SweepAfterReset(fabric, /*depth=*/1);
  DilosRuntime& rt = *rt_owner;
  const LatencyBreakdown& bd = rt.stats().fault_breakdown;
  const FaultAttribution& a = Attr(rt);
  EXPECT_EQ(bd.events(), 512u);
  EXPECT_EQ(bd.events(), a.commits());
  // At depth 1 a fault's core time is its latency: 512 faults of 3164 ns.
  EXPECT_EQ(BreakdownSumNs(bd), a.e2e(-1).sum());
  EXPECT_EQ(BreakdownSumNs(bd), 1'619'968u);
  EXPECT_EQ(bd.total_ns(LatComp::kHwException) + bd.total_ns(LatComp::kOsHandler),
            a.TotalNs(FaultPhase::kHandler));
  EXPECT_EQ(bd.total_ns(LatComp::kReclaim), a.TotalNs(FaultPhase::kAlloc));
  EXPECT_EQ(bd.total_ns(LatComp::kMap), a.TotalNs(FaultPhase::kMap));
  EXPECT_EQ(a.sum_violations(), 0u);
}

TEST(AttributionViews, Depth8BreakdownMapIsEachInstallPlusOneFlushPerBatch) {
  Fabric fabric(CostModel::Default(), 1);
  std::unique_ptr<DilosRuntime> rt_owner = SweepAfterReset(fabric, /*depth=*/8);
  DilosRuntime& rt = *rt_owner;
  const RuntimeStats& st = rt.stats();
  // The breakdown takes the whole batch install; a fault's slice takes only
  // its own install plus the flush, so the views differ here by design.
  EXPECT_EQ(st.fault_breakdown.total_ns(LatComp::kMap),
            st.fault_resumes * rt.cost().dilos_map_ns +
                st.fault_batched_installs * rt.cost().map_tlb_flush_ns);
  EXPECT_EQ(st.fault_resumes, 512u);
  EXPECT_EQ(st.fault_batched_installs, 511u);
  EXPECT_EQ(st.fault_breakdown.total_ns(LatComp::kMap), 76'710u);
  EXPECT_EQ(Attr(rt).sum_violations(), 0u);
}

TEST(FaultClock, AChargeWithNoFaultOpenReachesOnlyTheBreakdown) {
  LatencyBreakdown bd;
  FaultClock fc(bd, nullptr);
  fc.Advance(300, LatComp::kMap);
  fc.AdvanceTo(1'000, LatComp::kFetch);
  fc.Charge(FaultPhase::kWire, 0, 500);
  fc.AwaitFetch(1'200, /*other_fault=*/true);
  EXPECT_EQ(fc.now(), 1'200u);
  EXPECT_EQ(bd.total_ns(LatComp::kMap), 300u);
  EXPECT_EQ(bd.total_ns(LatComp::kFetch), 900u);
  EXPECT_EQ(bd.events(), 0u);
  for (uint64_t ns : fc.slice().ns) {
    EXPECT_EQ(ns, 0u);
  }
  EXPECT_FALSE(fc.Exit()) << "no scope is open";
}

TEST(FaultClock, AfterTheParkOnlyAnExplicitStallReachesTheFibersSlice) {
  LatencyBreakdown bd;
  FaultClock fc(bd, nullptr);
  FaultPipeline pipe(/*depth=*/2);
  fc.Enter(0xA000, /*hw_ns=*/100, /*os_ns=*/200);
  fc.Charge(FaultPhase::kWire, fc.now(), fc.now() + 1'000);  // The fetch's cursor.
  fc.Park(pipe, /*done_ns=*/1'300, /*write=*/false, /*park_ns=*/0);
  fc.Advance(50, LatComp::kPrefetch);              // Hidden work.
  fc.Charge(FaultPhase::kWire, 0, 10'000);         // A cursor charge after the park.
  fc.AwaitFetch(1'300, /*other_fault=*/false);     // Its own completion.
  fc.AwaitFetch(2'000, /*other_fault=*/true);      // Another fault's.
  EXPECT_FALSE(fc.Exit()) << "the fiber commits the slice, not the scope";

  const FaultFiber* fiber = pipe.Find(0xA000);
  ASSERT_NE(fiber, nullptr);
  const FaultSlice& s = fiber->slice;
  EXPECT_EQ(s.start_ns, 0u);
  EXPECT_EQ(s.ns[static_cast<size_t>(FaultPhase::kHandler)], 300u);
  EXPECT_EQ(s.ns[static_cast<size_t>(FaultPhase::kWire)], 1'000u);
  EXPECT_EQ(s.ns[static_cast<size_t>(FaultPhase::kOverlap)], 0u);
  EXPECT_EQ(s.ns[static_cast<size_t>(FaultPhase::kStall)], 700u);
  EXPECT_EQ(fc.slice().OnPathSumNs(), 1'300u) << "the parked-from slice is untouched too";
  EXPECT_EQ(bd.total_ns(LatComp::kPrefetch), 50u);
  EXPECT_EQ(bd.total_ns(LatComp::kFetch), 950u + 700u);
}

TEST(FaultClock, TheInnerExitOfAReenteredFaultCommitsNothing) {
  LatencyBreakdown bd;
  Tracer tracer;
  tracer.EnableSpans(16);
  FaultClock fc(bd, &tracer);
  fc.Enter(0xB000, /*hw_ns=*/100, /*os_ns=*/200);
  fc.Enter(0xB000, /*hw_ns=*/100, /*os_ns=*/200);  // The handler re-entered.
  EXPECT_FALSE(fc.Exit()) << "inner level";
  EXPECT_EQ(tracer.total_spans(), 0u) << "the fault span is still open";
  fc.Advance(40, LatComp::kMap);
  EXPECT_TRUE(fc.Exit()) << "outermost and unparked: the caller commits";

  EXPECT_EQ(bd.events(), 1u);
  EXPECT_EQ(bd.total_ns(LatComp::kHwException), 200u);
  EXPECT_EQ(bd.total_ns(LatComp::kOsHandler), 400u);
  const FaultSlice& s = fc.slice();
  EXPECT_EQ(s.ns[static_cast<size_t>(FaultPhase::kHandler)], 600u) << "charged per entry";
  EXPECT_EQ(s.OnPathSumNs(), fc.now() - s.start_ns) << "the slice tiles the window";
  std::vector<SpanRecord> spans = tracer.SpanSnapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, SpanKind::kFault);
  EXPECT_EQ(spans[0].begin_ns, 300u);
  EXPECT_EQ(spans[0].end_ns, 640u);
}

// ---------------------------------------------------------------------------
// SLO engine units
// ---------------------------------------------------------------------------

SloConfig SmallWindows() {
  SloConfig cfg;
  cfg.enabled = true;
  cfg.fast_window_faults = 64;   // 8 buckets of 8.
  cfg.slow_window_faults = 256;  // 8 buckets of 32.
  return cfg;
}

TEST(SloEngine, InactiveObjectiveScoresNothing) {
  SloEngine slo(SmallWindows());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(slo.Observe(/*tenant=*/0, /*latency_ns=*/1'000'000, /*now_ns=*/i));
  }
  EXPECT_EQ(slo.faults(0), 0u);
  EXPECT_EQ(slo.alerts_fired(0), 0u);
  EXPECT_EQ(slo.burn_rate(0, /*fast=*/true), 0.0);
}

TEST(SloEngine, BurnRateIsBadFractionOverAllowed) {
  SloConfig cfg = SmallWindows();
  SloEngine slo(cfg);
  slo.SetObjective(0, SloObjective{90.0, 1'000});  // p90 < 1µs: allowed = 0.10.
  // 4 bad in 40 observations = bad fraction 0.10 = burn 1.0.
  for (int i = 0; i < 40; ++i) {
    slo.Observe(0, i % 10 == 0 ? 2'000 : 500, /*now_ns=*/i);
  }
  EXPECT_EQ(slo.faults(0), 40u);
  EXPECT_EQ(slo.bad_faults(0), 4u);
  EXPECT_NEAR(slo.burn_rate(0, /*fast=*/true), 1.0, 1e-9);
  // Burning at exactly the allowed rate consumes the budget at 1.0x.
  EXPECT_NEAR(slo.budget_used(0), 1.0, 1e-9);
}

TEST(SloEngine, AlertFiresOnEdgeAndNotAgainWhileActive) {
  SloEngine slo(SmallWindows());
  slo.SetObjective(2, SloObjective{99.0, 10'000});
  // Every fault bad: burn = 1.0/0.01 = 100 >= both thresholds — the first
  // observation fires, subsequent ones must not re-fire.
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    fired += slo.Observe(2, 50'000, /*now_ns=*/i) ? 1 : 0;
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(slo.alerts_fired(2), 1u);
  EXPECT_TRUE(slo.alert_active(2));
  EXPECT_TRUE(slo.budget_exhausted(2));
}

TEST(SloEngine, WindowRolloverClearsWithHysteresisAndReArms) {
  SloConfig cfg = SmallWindows();
  SloEngine slo(cfg);
  slo.SetObjective(0, SloObjective{99.0, 10'000});
  ASSERT_TRUE(slo.Observe(0, 50'000, 0)) << "all-bad stream fires immediately";

  // A long good stream rotates the bad observations out of both windows;
  // the alert clears only once the fast burn drops below
  // kClearRatio * kFastBurnAlert (hysteresis), not at the first good fault.
  slo.Observe(0, 100, 1);
  EXPECT_TRUE(slo.alert_active(0)) << "one good fault must not clear the alert";
  int i = 2;
  for (; i < 2'000 && slo.alert_active(0); ++i) {
    slo.Observe(0, 100, i);
  }
  EXPECT_FALSE(slo.alert_active(0)) << "rollover must eventually clear";
  EXPECT_LT(slo.burn_rate(0, true), SloEngine::kFastBurnAlert * SloEngine::kClearRatio);

  // Regression returns: the alert re-arms and fires a second time.
  bool refired = false;
  for (int j = 0; j < 300 && !refired; ++j) {
    refired = slo.Observe(0, 50'000, i + j);
  }
  EXPECT_TRUE(refired);
  EXPECT_EQ(slo.alerts_fired(0), 2u);
}

TEST(SloEngine, BudgetExhaustionIsLifetimeNotWindowed) {
  SloEngine slo(SmallWindows());
  slo.SetObjective(1, SloObjective{50.0, 1'000});  // Allowed = 0.5.
  // 6 bad / 10 total = 0.6 bad fraction -> budget_used 1.2: blown.
  for (int i = 0; i < 10; ++i) {
    slo.Observe(1, i < 6 ? 5'000 : 100, i);
  }
  EXPECT_NEAR(slo.budget_used(1), 1.2, 1e-9);
  EXPECT_TRUE(slo.budget_exhausted(1));
  // A tenant under its objective is not exhausted.
  slo.SetObjective(3, SloObjective{50.0, 1'000});
  for (int i = 0; i < 10; ++i) {
    slo.Observe(3, i < 2 ? 5'000 : 100, i);
  }
  EXPECT_FALSE(slo.budget_exhausted(3));
}

TEST(SloEngine, PromRowsOnlyForActiveObjectives) {
  SloEngine slo(SmallWindows());
  slo.SetObjective(4, SloObjective{99.0, 20'000});
  slo.Observe(4, 50'000, 1);
  std::string prom = slo.ToProm();
  EXPECT_NE(prom.find("dilos_slo_faults_total{tenant=\"4\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("dilos_slo_threshold_ns{tenant=\"4\"} 20000"), std::string::npos);
  EXPECT_EQ(prom.find("tenant=\"5\""), std::string::npos)
      << "tenants without an objective emit no rows";
}

// ---------------------------------------------------------------------------
// Runtime integration
// ---------------------------------------------------------------------------

TEST(SloRuntime, BreachRecordsTraceEventAndForcesFlightDump) {
  Fabric fabric(CostModel::Default(), 1);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.trace_capacity = 1 << 14;
  cfg.telemetry.slo.enabled = true;
  cfg.telemetry.slo.fast_window_faults = 64;
  cfg.telemetry.slo.slow_window_faults = 256;
  // A 1 ns threshold marks every demand fault bad: the alert fires as soon
  // as both windows carry data.
  cfg.telemetry.slo.default_objective = SloObjective{99.0, 1};
  cfg.telemetry.flight_capacity = 256;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);

  const SloEngine* slo = rt.telemetry()->slo();
  ASSERT_NE(slo, nullptr);
  EXPECT_GE(slo->alerts_fired(-1), 1u);
  EXPECT_GE(rt.tracer().Count(TraceEvent::kSloBreach), 1u);
  const FlightRecorder* fr = rt.telemetry()->flight();
  ASSERT_NE(fr, nullptr);
  EXPECT_GE(fr->dumps(), 1u);
  EXPECT_NE(fr->last_dump().find("trigger=slo-breach"), std::string::npos);
  EXPECT_NE(fr->last_dump().find("fault attribution"), std::string::npos)
      << "the breach dump must carry the attribution snapshot";
  EXPECT_NE(fr->last_dump().find("slo engine"), std::string::npos);
}

TEST(SloRuntime, TenantObjectiveInstalledByCreateTenant) {
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg;
  cfg.local_mem_bytes = 64 * kPageSize;
  cfg.tenants.enabled = true;
  cfg.telemetry.slo.enabled = true;
  cfg.telemetry.slo.fast_window_faults = 64;
  cfg.telemetry.slo.slow_window_faults = 256;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  TenantSpec spec;
  spec.name = "latency-sensitive";
  spec.slo = SloObjective{99.0, 1};  // Everything is bad: must alert.
  int t = rt.CreateTenant(spec);
  ASSERT_GE(t, 0);
  const SloEngine* slo = rt.telemetry()->slo();
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->objective(t).threshold_ns, 1u);

  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize, t);
  Populate(rt, region, pages);
  EXPECT_EQ(VerifySweep(rt, region, pages), 0u);
  EXPECT_GT(slo->faults(t), 0u) << "faults must score against the owning tenant";
  EXPECT_GE(slo->alerts_fired(t), 1u);
  EXPECT_EQ(slo->faults(-1), 0u) << "untenanted bucket stays silent";
}

RuntimeStats RunObservedWorkload(bool observe) {
  Fabric fabric(CostModel::Default(), 2);
  DilosConfig cfg;
  cfg.local_mem_bytes = 32 * kPageSize;
  cfg.replication = 2;
  cfg.recovery.enabled = true;
  cfg.fault_pipeline_depth = 4;
  if (observe) {
    cfg.telemetry.attribution = true;
    cfg.telemetry.slo.enabled = true;
    cfg.telemetry.slo.fast_window_faults = 64;
    cfg.telemetry.slo.slow_window_faults = 256;
    // Deliberately breach-happy: even alert firing must not perturb the sim.
    cfg.telemetry.slo.default_objective = SloObjective{99.0, 1};
    cfg.telemetry.flight_capacity = 128;
  }
  DilosRuntime rt(fabric, cfg, std::make_unique<ReadaheadPrefetcher>());
  const uint64_t pages = 256;
  uint64_t region = rt.AllocRegion(pages * kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    rt.Write<uint64_t>(region + p * kPageSize, p * 7);
  }
  uint64_t rng = 0x5EED5;
  for (int i = 0; i < 4'000; ++i) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    (void)rt.Read<uint64_t>(region + (rng % pages) * kPageSize);
  }
  rt.Quiesce();
  return rt.stats();
}

TEST(SloRuntime, AttributionAndSloAreObservationOnly) {
  RuntimeStats off = RunObservedWorkload(false);
  RuntimeStats on = RunObservedWorkload(true);
  EXPECT_EQ(std::memcmp(&off, &on, sizeof(RuntimeStats)), 0)
      << "attribution/SLO-on run diverged:\n"
      << off.ToString() << "\nvs\n"
      << on.ToString();
}

}  // namespace
}  // namespace dilos
