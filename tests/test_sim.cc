// Unit tests for the simulation substrate: clock, cost model, stats, RNG,
// and the name tables (src/sim/name_table.h).
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>

#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/telemetry/attribution.h"
#include "src/telemetry/metrics.h"

namespace dilos {
namespace {

TEST(Clock, StartsAtZeroAndAdvances) {
  Clock c;
  EXPECT_EQ(c.now(), 0u);
  c.Advance(100);
  EXPECT_EQ(c.now(), 100u);
}

TEST(Clock, AdvanceToOnlyMovesForward) {
  Clock c;
  c.Advance(500);
  EXPECT_EQ(c.AdvanceTo(300), 0u);  // Past target: no-op.
  EXPECT_EQ(c.now(), 500u);
  EXPECT_EQ(c.AdvanceTo(800), 300u);
  EXPECT_EQ(c.now(), 800u);
}

TEST(Clock, ResetReturnsToZero) {
  Clock c;
  c.Advance(42);
  c.Reset();
  EXPECT_EQ(c.now(), 0u);
}

TEST(CostModel, ReadLatencyMatchesPaperFig2) {
  CostModel m = CostModel::Default();
  // Fig. 2: ~1.8 us for 128 B, ~2.4 us for 4 KB; the 4 KB read costs only
  // ~0.6 us more than the 128 B read.
  uint64_t small = m.ReadLatencyNs(128);
  uint64_t page = m.ReadLatencyNs(4096);
  EXPECT_NEAR(static_cast<double>(small), 1800.0, 150.0);
  EXPECT_NEAR(static_cast<double>(page), 2400.0, 150.0);
  EXPECT_NEAR(static_cast<double>(page - small), 600.0, 80.0);
}

TEST(CostModel, WriteCheaperThanRead) {
  CostModel m = CostModel::Default();
  EXPECT_LT(m.WriteLatencyNs(4096), m.ReadLatencyNs(4096));
}

TEST(CostModel, LatencyMonotonicInSize) {
  CostModel m = CostModel::Default();
  uint64_t prev = 0;
  for (uint64_t sz = 64; sz <= 4096; sz *= 2) {
    uint64_t lat = m.ReadLatencyNs(sz);
    EXPECT_GT(lat, prev);
    prev = lat;
  }
}

TEST(CostModel, VectorPenaltyKicksInPastThreeSegments) {
  CostModel m = CostModel::Default();
  uint64_t three = m.ReadLatencyNs(1024, 3);
  uint64_t four = m.ReadLatencyNs(1024, 4);
  // Going 3 -> 4 segments costs more than the ordinary per-segment step.
  EXPECT_GT(four - three, m.rdma_per_seg_ns);
}

TEST(LatencyBreakdown, MeansAndTotals) {
  LatencyBreakdown bd;
  bd.CountEvent();
  bd.Add(LatComp::kFetch, 2000);
  bd.Add(LatComp::kMap, 100);
  bd.CountEvent();
  bd.Add(LatComp::kFetch, 3000);
  EXPECT_DOUBLE_EQ(bd.MeanNs(LatComp::kFetch), 2500.0);
  EXPECT_DOUBLE_EQ(bd.MeanNs(LatComp::kMap), 50.0);
  EXPECT_DOUBLE_EQ(bd.TotalMeanNs(), 2550.0);
  EXPECT_EQ(bd.events(), 2u);
}

TEST(LatencyBreakdown, ResetClears) {
  LatencyBreakdown bd;
  bd.CountEvent();
  bd.Add(LatComp::kFetch, 100);
  bd.Reset();
  EXPECT_EQ(bd.events(), 0u);
  EXPECT_EQ(bd.total_ns(LatComp::kFetch), 0u);
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, NextBelowInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextBelow(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipf, SkewsTowardLowRanks) {
  ZipfSampler z(1000, 0.99, 11);
  std::vector<uint64_t> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    uint64_t v = z.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank 0 must dominate a mid-rank key heavily under theta=0.99.
  EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(RuntimeStats, TotalsAndToString) {
  RuntimeStats s;
  s.major_faults = 3;
  s.minor_faults = 4;
  s.zero_fill_faults = 5;
  EXPECT_EQ(s.total_faults(), 12u);
  EXPECT_NE(s.ToString().find("major_faults=3"), std::string::npos);
  s.Reset();
  EXPECT_EQ(s.total_faults(), 0u);
}

TEST(RuntimeStats, ToStringPrintsEveryCounterByName) {
  // Every uint64_t slot ahead of fault_breakdown is a table row.
  size_t rows = 0;
#define COUNT_ROW(field, section) ++rows;
  DILOS_RUNTIME_STATS(COUNT_ROW)
#undef COUNT_ROW
  EXPECT_EQ(offsetof(RuntimeStats, fault_breakdown), rows * sizeof(uint64_t));

  RuntimeStats s;
  uint64_t v = 1000;
#define SET_ROW(field, section) s.field = ++v;
  DILOS_RUNTIME_STATS(SET_ROW)
#undef SET_ROW
  const std::string out = s.ToString();
  v = 1000;
#define CHECK_ROW(field, section) \
  EXPECT_NE(out.find(" " #field "=" + std::to_string(++v)), std::string::npos) << #field;
  DILOS_RUNTIME_STATS(CHECK_ROW)
#undef CHECK_ROW
}

// Checks one name table: every enumerator below kCount has a distinct
// printed name other than "?", and kCount itself prints "?".
template <typename E, typename NameFn>
void ExpectUniqueNames(const char* table, NameFn name) {
  std::set<std::string> seen;
  for (size_t i = 0; i < static_cast<size_t>(E::kCount); ++i) {
    std::string n(name(static_cast<E>(i)));
    EXPECT_NE(n, "?") << table << " #" << i;
    EXPECT_TRUE(seen.insert(n).second) << table << " repeats \"" << n << "\"";
  }
  EXPECT_EQ(std::string(name(E::kCount)), "?") << table;
}

TEST(NameTables, EveryEnumeratorHasAUniquePrintedName) {
  ExpectUniqueNames<LatComp>("LatComp", LatCompName);
  ExpectUniqueNames<TraceEvent>("TraceEvent", TraceEventName);
  ExpectUniqueNames<SpanKind>("SpanKind", SpanKindName);
  ExpectUniqueNames<FaultPhase>("FaultPhase", FaultPhaseName);
  ExpectUniqueNames<QpClass>("QpClass", QpClassName);
}

}  // namespace
}  // namespace dilos
