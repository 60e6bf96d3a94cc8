// Lower-layer host probes, run on a workload's end state after its measured
// phase: the per-layer micro costs (PTE walk, RDMA post, page-store lookup,
// page checksum, cleaner tick) at the workload's real resident set rather
// than a synthetic one. Host time below FarRuntime::Pin is split only here.
#ifndef DILOS_PERFBENCH_PROBES_H_
#define DILOS_PERFBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "perfbench/workloads.h"

namespace dilos::perfbench {

// Calls per timed probe round (the cleaner tick is timed one call a round).
constexpr uint64_t kProbeCallsPerRound = 20'000;

// Host nanoseconds of each probe round, appended by every RunProbes call.
struct ProbeSamples {
  std::vector<uint64_t> pt_walk;    // PageTable::Get on resident pages.
  std::vector<uint64_t> post_read;  // QueuePair::PostRead, 4 KB, fresh fabric QP.
  std::vector<uint64_t> lookup;     // PageStore::Resolve on stored pages.
  std::vector<uint64_t> checksum;   // PageChecksum over stored pages.
  std::vector<uint64_t> tick;       // PageManager::BackgroundTick.
};

// `touched_pages` are page addresses the application pinned; the resident
// ones are the walk probe's input. Runs the cleaner tick last: it mutates
// the page manager's state.
void RunProbes(Workload& w, const std::vector<uint64_t>& touched_pages, ProbeSamples* out);

}  // namespace dilos::perfbench

#endif  // DILOS_PERFBENCH_PROBES_H_
