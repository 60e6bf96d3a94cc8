// Host-side microbenchmarks (google-benchmark) of the simulator substrates
// themselves: page-table walks, frame pool churn, the far-heap allocator,
// the szip codec, the EC parity kernel and the page checksum. These measure
// the reproduction's own performance, not simulated time — useful for
// keeping the simulator fast enough to run the paper-scale sweeps.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/apps/szip.h"
#include "src/ddc_alloc/far_heap.h"
#include "src/dilos/prefetcher.h"
#include "src/dilos/runtime.h"
#include "src/pt/frame_pool.h"
#include "src/pt/page_table.h"
#include "src/recovery/ec.h"
#include "src/recovery/integrity.h"

namespace dilos {
namespace {

void BM_PageTableWalk(benchmark::State& state) {
  PageTable pt;
  for (uint64_t i = 0; i < 4096; ++i) {
    pt.Set(kFarBase + i * kPageSize, MakeRemotePte(i));
  }
  uint64_t va = kFarBase;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.Get(va));
    va += kPageSize;
    if (va >= kFarBase + 4096 * kPageSize) {
      va = kFarBase;
    }
  }
}
BENCHMARK(BM_PageTableWalk);

void BM_FramePoolAllocFree(benchmark::State& state) {
  FramePool pool(1024);
  for (auto _ : state) {
    auto f = pool.Alloc();
    benchmark::DoNotOptimize(f);
    pool.Free(*f);
  }
}
BENCHMARK(BM_FramePoolAllocFree);

void BM_FarHeapMallocFree(benchmark::State& state) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 64ULL << 20;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  FarHeap heap(rt);
  for (auto _ : state) {
    uint64_t a = heap.Malloc(128);
    benchmark::DoNotOptimize(a);
    heap.Free(a);
  }
}
BENCHMARK(BM_FarHeapMallocFree);

void BM_DilosPinLocal(benchmark::State& state) {
  Fabric fabric;
  DilosConfig cfg;
  cfg.local_mem_bytes = 16ULL << 20;
  DilosRuntime rt(fabric, cfg, std::make_unique<NullPrefetcher>());
  uint64_t region = rt.AllocRegion(1 << 20);
  for (uint64_t off = 0; off < (1 << 20); off += kPageSize) {
    rt.Write<uint8_t>(region + off, 1);
  }
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.Pin(region + off, 8, false, 0));
    off = (off + kPageSize) & ((1 << 20) - 1);
  }
}
BENCHMARK(BM_DilosPinLocal);

void BM_SzipCompress64K(benchmark::State& state) {
  std::vector<uint8_t> src(65536);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>((i % 97 < 64) ? 'a' + (i >> 8) % 26 : i * 31);
  }
  std::vector<uint8_t> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(SzipCompressBlock(src.data(), src.size(), &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 65536);
}
BENCHMARK(BM_SzipCompress64K);

std::vector<uint8_t> NoisePage(uint32_t seed) {
  std::vector<uint8_t> page(kPageSize);
  for (auto& b : page) {
    seed = seed * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(seed >> 24);
  }
  return page;
}

// One page folded into parity with the Cauchy coefficient of data member 1
// in the first parity member of EC(4, 2): the cleaner's parity RMW step.
// portable:0 runs the kernel this CPU dispatches to (named in the label),
// portable:1 the row loop every other CPU runs.
void BM_XorMulInto(benchmark::State& state) {
  std::vector<uint8_t> src = NoisePage(1);
  std::vector<uint8_t> dst = NoisePage(2);
  uint8_t coef = ECCodec(4, 2).Coef(4, 1);
  bool portable = state.range(0) != 0;
  for (auto _ : state) {
    if (portable) {
      ECCodec::XorMulIntoPortable(dst.data(), src.data(), coef, kPageSize);
    } else {
      ECCodec::XorMulInto(dst.data(), src.data(), coef, kPageSize);
    }
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(portable ? "portable" : ECCodec::XorMulKernel());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_XorMulInto)->ArgName("portable")->Arg(0)->Arg(1);

// One page hashed by the integrity layer's checksum (every verified arrival
// and checked write-back). portable:0 runs the kernel this CPU dispatches to
// (named in the label), portable:1 the scalar loop every other CPU runs.
void BM_PageChecksum(benchmark::State& state) {
  std::vector<uint8_t> page = NoisePage(3);
  bool portable = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(portable ? PageChecksumPortable(page.data())
                                      : PageChecksum(page.data()));
  }
  state.SetLabel(portable ? "portable" : PageChecksumKernel());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_PageChecksum)->ArgName("portable")->Arg(0)->Arg(1);

}  // namespace
}  // namespace dilos

BENCHMARK_MAIN();
