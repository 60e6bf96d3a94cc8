// Extension bench (src/tier): what the compressed local cold tier buys.
//
// Three questions, each its own section:
//
//   1. Cold-miss latency — a fault on a tier-resident page costs one local
//      decompress (~0.5 us) instead of the far-memory round trip. The gap
//      widens with the fabric: modest over quiet 100 GbE RDMA, 6x+ once
//      other cores load the link, an order of magnitude over NVMe, two
//      over SATA.
//   2. Effective capacity — compressed pages held locally at a ~2x-and-up
//      compressible workload: logical bytes kept on the machine per byte of
//      DRAM the tier actually burns (size-class rounding included).
//   3. Remote traffic — write-backs and fetched bytes the tier absorbs that
//      would otherwise cross the wire.
//
// `--short` runs a reduced preset (smaller working set, fewer samples) for
// the CI smoke job; numbers are noisier but the shape — tier hits several
// times cheaper than remote misses, capacity gain >= 2x — must hold.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"

namespace dilos {
namespace {

bool g_short = false;

uint64_t WorkingSetBytes() { return g_short ? (4ULL << 20) : (32ULL << 20); }
int SampleTarget() { return g_short ? 500 : 4000; }

uint64_t Xor(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

// Fills `page_va` so that roughly `random_frac` of the page is incompressible
// and the rest zero — random_frac 0.4 compresses ~2.3x through the tier's
// codec, the "memory is about half redundancy" regime TMO/zswap report.
void FillPage(DilosRuntime& rt, uint64_t page_va, double random_frac, uint64_t* rng) {
  uint64_t random_words = static_cast<uint64_t>(random_frac * (kPageSize / 8.0));
  for (uint64_t w = 0; w < random_words; ++w) {
    rt.Write<uint64_t>(page_va + w * 8, Xor(rng));
  }
  if (random_words == 0) {
    rt.Write<uint64_t>(page_va, page_va);  // Tag so reads can verify something.
  }
}

// -- Section 1: cold-miss latency --------------------------------------------

struct MissRow {
  uint64_t tier_p50 = 0, tier_p99 = 0;
  uint64_t remote_p50 = 0, remote_p99 = 0;
  double ratio = 0;
};

// One run: populate a working set 4x the DRAM budget with compressible pages,
// then sample random cold misses, timing only faults that start from the
// wanted PTE state (kTier with the tier on, kRemote with it off) so resident
// re-hits never dilute the distribution. With `cores` > 1 the other cores run
// the same random-read load between samples: their demand fetches occupy the
// shared link, so remote misses queue behind them — tier hits never touch the
// wire and keep their latency. This is the loaded regime the tier is for.
void SampleMisses(const CostModel& cm, bool tier_on, int cores, uint64_t* p50,
                  uint64_t* p99) {
  Fabric fabric(cm, 1);
  DilosConfig cfg;
  uint64_t ws = WorkingSetBytes();
  cfg.local_mem_bytes = ws / 4;
  cfg.num_cores = cores;
  cfg.tier.enabled = tier_on;
  cfg.tier.capacity_bytes = ws;  // Roomy: every compressible victim is admitted.
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(ws);
  uint64_t pages = ws / kPageSize;
  uint64_t rng = 0x7EE12;
  for (uint64_t p = 0; p < pages; ++p) {
    FillPage(rt, region + p * kPageSize, 0.0, &rng);  // Mostly-zero: all admit.
  }

  PteTag want = tier_on ? PteTag::kTier : PteTag::kRemote;
  std::vector<uint64_t> lat;
  lat.reserve(static_cast<size_t>(SampleTarget()));
  uint64_t attempts = 0;
  while (static_cast<int>(lat.size()) < SampleTarget() && attempts < 2'000'000) {
    ++attempts;
    for (int c = 1; c < cores; ++c) {  // Background load on the other cores.
      volatile uint64_t bg = rt.Read<uint64_t>(region + (Xor(&rng) % pages) * kPageSize, c);
      (void)bg;
    }
    uint64_t va = region + (Xor(&rng) % pages) * kPageSize;
    if (PteTagOf(rt.page_table().Get(va)) != want) {
      volatile uint64_t v = rt.Read<uint64_t>(va);  // Churn; not a sample.
      (void)v;
      continue;
    }
    uint64_t t0 = rt.clock(0).now();
    volatile uint64_t v = rt.Read<uint64_t>(va);
    (void)v;
    lat.push_back(rt.clock(0).now() - t0);
  }
  *p50 = BenchPct(lat, 0.50);
  *p99 = BenchPct(lat, 0.99);
}

MissRow MeasureMisses(const CostModel& cm, int cores = 1) {
  MissRow row;
  SampleMisses(cm, /*tier_on=*/true, cores, &row.tier_p50, &row.tier_p99);
  SampleMisses(cm, /*tier_on=*/false, cores, &row.remote_p50, &row.remote_p99);
  row.ratio = row.tier_p50 > 0
                  ? static_cast<double>(row.remote_p50) / static_cast<double>(row.tier_p50)
                  : 0;
  return row;
}

void RunMissLatency() {
  PrintHeader("Extension: compressed tier — cold-miss p50, tier hit vs far fetch\n"
              "1 node, working set 4x DRAM, compressible pages, random reads");
  std::printf("%-22s %12s %12s %12s %12s %9s\n", "far-memory fabric", "tier p50",
              "tier p99", "remote p50", "remote p99", "speedup");
  struct Preset {
    const char* name;
    CostModel cm;
    int cores;
  } presets[] = {
      {"RDMA 100GbE", CostModel::Default(), 1},
      {"RDMA 100GbE, loaded", CostModel::Default(), 12},
      {"NVMe", CostModel::Nvme(), 1},
      {"SATA SSD", CostModel::SataSsd(), 1},
  };
  for (const Preset& p : presets) {
    MissRow r = MeasureMisses(p.cm, p.cores);
    std::printf("%-22s %10llu ns %10llu ns %10llu ns %10llu ns %8.1fx\n", p.name,
                static_cast<unsigned long long>(r.tier_p50),
                static_cast<unsigned long long>(r.tier_p99),
                static_cast<unsigned long long>(r.remote_p50),
                static_cast<unsigned long long>(r.remote_p99), r.ratio);
    BenchJson& j = BenchJson::Instance();
    j.BeginRecord("ext_tier.miss_latency");
    j.Config("fabric", p.name);
    j.Config("cores", static_cast<uint64_t>(p.cores));
    j.Config("working_set_bytes", WorkingSetBytes());
    j.Metric("tier_p50_ns", r.tier_p50);
    j.Metric("tier_p99_ns", r.tier_p99);
    j.Metric("remote_p50_ns", r.remote_p50);
    j.Metric("remote_p99_ns", r.remote_p99);
    j.Metric("speedup", r.ratio);
  }
  std::printf("\n");
}

// -- Section 2: effective capacity --------------------------------------------

void RunCapacity() {
  PrintHeader("Extension: compressed tier — effective local capacity\n"
              "1 node, working set 4x DRAM; page entropy sweep (fraction of\n"
              "each page that is incompressible random bytes)");
  std::printf("%-14s %10s %12s %12s %12s %10s %10s\n", "random frac", "pages",
              "logical", "tier DRAM", "compression", "bypassed", "capacity+");
  for (double frac : {0.0, 0.4, 0.9}) {
    Fabric fabric(CostModel::Default(), 1);
    DilosConfig cfg;
    uint64_t ws = WorkingSetBytes();
    cfg.local_mem_bytes = ws / 4;
    cfg.tier.enabled = true;
    cfg.tier.capacity_bytes = ws;
    DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
    uint64_t region = rt.AllocRegion(ws);
    uint64_t pages = ws / kPageSize;
    uint64_t rng = 0xCAFE;
    for (uint64_t p = 0; p < pages; ++p) {
      FillPage(rt, region + p * kPageSize, frac, &rng);
    }
    const CompressedTier& tier = *rt.tier();
    uint64_t logical = tier.stored_pages() * kPageSize;
    uint64_t dram = tier.block_bytes();
    double comp = dram > 0 ? static_cast<double>(logical) / static_cast<double>(dram) : 0;
    // Locally-held bytes per byte of DRAM, tier included, vs frames alone.
    double gain = static_cast<double>(cfg.local_mem_bytes + logical) /
                  static_cast<double>(cfg.local_mem_bytes + dram);
    std::printf("%-14.2f %10llu %9.1f MB %9.1f MB %11.2fx %10llu %9.2fx\n", frac,
                static_cast<unsigned long long>(tier.stored_pages()),
                static_cast<double>(logical) / 1e6, static_cast<double>(dram) / 1e6, comp,
                static_cast<unsigned long long>(rt.stats().tier_bypass_incompressible),
                gain);
    BenchJson& j = BenchJson::Instance();
    j.BeginRecord("ext_tier.capacity");
    j.Config("random_frac", frac);
    j.Config("working_set_bytes", ws);
    JsonRuntimeConfig(cfg);
    j.Metric("stored_pages", tier.stored_pages());
    j.Metric("logical_bytes", logical);
    j.Metric("tier_dram_bytes", dram);
    j.Metric("compression_ratio", comp);
    j.Metric("bypassed", rt.stats().tier_bypass_incompressible);
    j.Metric("capacity_gain", gain);
  }
  std::printf("\n");
}

// -- Section 3: remote traffic ------------------------------------------------

void RunTraffic() {
  PrintHeader("Extension: compressed tier — far-memory traffic absorbed\n"
              "1 node, working set 4x DRAM, 25% writes, zipf-ish reuse");
  std::printf("%-10s %12s %14s %14s %12s %12s\n", "tier", "tier hits", "bytes fetched",
              "bytes written", "writebacks", "runtime ms");
  for (bool tier_on : {false, true}) {
    Fabric fabric(CostModel::Default(), 1);
    DilosConfig cfg;
    uint64_t ws = WorkingSetBytes();
    cfg.local_mem_bytes = ws / 4;
    cfg.tier.enabled = tier_on;
    cfg.tier.capacity_bytes = ws / 2;
    DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
    uint64_t region = rt.AllocRegion(ws);
    uint64_t pages = ws / kPageSize;
    uint64_t rng = 0xBEEF;
    for (uint64_t p = 0; p < pages; ++p) {
      FillPage(rt, region + p * kPageSize, 0.0, &rng);
    }
    uint64_t ops = g_short ? 20'000 : 200'000;
    uint64_t hot = pages / 8;  // Skewed reuse: most touches hit 1/8 of the set.
    for (uint64_t i = 0; i < ops; ++i) {
      uint64_t p = (Xor(&rng) % 10 < 7) ? Xor(&rng) % hot : Xor(&rng) % pages;
      uint64_t va = region + p * kPageSize;
      if (Xor(&rng) % 4 == 0) {
        rt.Write<uint64_t>(va, p);
      } else {
        volatile uint64_t v = rt.Read<uint64_t>(va);
        (void)v;
      }
    }
    std::printf("%-10s %12llu %11.1f MB %11.1f MB %12llu %12.2f\n",
                tier_on ? "on" : "off",
                static_cast<unsigned long long>(rt.stats().tier_hits),
                static_cast<double>(rt.stats().bytes_fetched) / 1e6,
                static_cast<double>(rt.stats().bytes_written) / 1e6,
                static_cast<unsigned long long>(rt.stats().writebacks),
                static_cast<double>(rt.MaxWorkerTimeNs()) / 1e6);
    BenchJson& j = BenchJson::Instance();
    j.BeginRecord("ext_tier.traffic");
    j.Config("ops", ops);
    JsonRuntimeConfig(cfg);
    j.Metric("tier_hits", rt.stats().tier_hits);
    j.Metric("bytes_fetched", rt.stats().bytes_fetched);
    j.Metric("bytes_written", rt.stats().bytes_written);
    j.Metric("writebacks", rt.stats().writebacks);
    j.Metric("runtime_ms", static_cast<double>(rt.MaxWorkerTimeNs()) / 1e6);
  }
  std::printf("\n");
}

void RunAll() {
  RunMissLatency();
  RunCapacity();
  RunTraffic();
}

}  // namespace
}  // namespace dilos

int main(int argc, char** argv) {
  dilos::BenchParseArgs(argc, argv, &dilos::g_short);
  dilos::RunAll();
  return dilos::BenchJson::Instance().Flush() ? 0 : 1;
}
