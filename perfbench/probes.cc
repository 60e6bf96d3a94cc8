#include "perfbench/probes.h"

#include <algorithm>

#include "src/pt/pte.h"
#include "src/recovery/integrity.h"
#include "src/sim/rng.h"

namespace dilos::perfbench {

namespace {

constexpr int kRounds = 7;
constexpr int kTicks = 64;

// Appends to `rounds` the host ns of kRounds rounds of kProbeCallsPerRound
// calls of `fn(i)`, cycling i through [0, n).
template <typename Fn>
void TimeRounds(size_t n, std::vector<uint64_t>* rounds, Fn&& fn) {
  if (n == 0) {
    return;
  }
  size_t i = 0;
  for (int r = 0; r < kRounds; ++r) {
    uint64_t t0 = HostNowNs();
    for (uint64_t c = 0; c < kProbeCallsPerRound; ++c) {
      fn(i);
      i = i + 1 == n ? 0 : i + 1;
    }
    rounds->push_back(HostNowNs() - t0);
  }
}

}  // namespace

void RunProbes(Workload& w, const std::vector<uint64_t>& touched_pages, ProbeSamples* out) {
  DilosRuntime& rt = w.rt();
  volatile uint64_t sink = 0;

  std::vector<uint64_t> resident(touched_pages);
  std::sort(resident.begin(), resident.end());
  resident.erase(std::unique(resident.begin(), resident.end()), resident.end());
  std::erase_if(resident, [&rt](uint64_t va) {
    return PteTagOf(rt.page_table().Get(va)) != PteTag::kLocal;
  });
  // Visit in a shuffled order so the walk is not a sequential sweep.
  Rng rng(0x9E3779B9ULL);
  for (size_t i = resident.size(); i > 1; --i) {
    std::swap(resident[i - 1], resident[rng.NextBelow(i)]);
  }
  TimeRounds(resident.size(), &out->pt_walk, [&](size_t i) {
    sink = sink + rt.page_table().Get(resident[i]);
  });

  PageStore& store = w.fabric().node(0).store();
  std::vector<uint64_t> stored;
  stored.reserve(store.page_count());
  for (const auto& [page, bytes] : store.pages()) {
    stored.push_back(page);
  }
  std::sort(stored.begin(), stored.end());
  TimeRounds(stored.size(), &out->lookup, [&](size_t i) {
    sink = sink + *store.Resolve(stored[i] << kPageShift, 8, /*for_write=*/false);
  });
  TimeRounds(stored.size(), &out->checksum, [&](size_t i) {
    sink = sink + PageChecksum(store.PageData(stored[i]));
  });

  QueuePair* qp = w.fabric().CreateQp(0, QpClass::kOther);
  std::vector<uint8_t> buf(kPageSize);
  uint64_t now = rt.clock(0).now();
  uint64_t wr = 0;
  TimeRounds(stored.size(), &out->post_read, [&](size_t i) {
    Completion c = qp->PostRead(++wr, reinterpret_cast<uint64_t>(buf.data()),
                                stored[i] << kPageShift, kPageSize, now);
    sink = sink + c.completion_time_ns;
  });

  for (int t = 0; t < kTicks; ++t) {
    uint64_t t0 = HostNowNs();
    rt.page_manager().BackgroundTick(now);
    out->tick.push_back(HostNowNs() - t0);
  }
  (void)sink;
}

}  // namespace dilos::perfbench
