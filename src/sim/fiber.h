// Lightweight continuation scheduler for the async demand-fault pipeline.
//
// Atlas-style user-space swapping ("Revisiting Swapping in User-space with
// Lightweight Threading") keeps fault throughput bounded by link bandwidth
// instead of fault-path latency: the faulting fiber posts its RDMA read,
// saves a µs-scale continuation, and yields the core to the next runnable
// fiber; a coalesced CQ poll later harvests whole batches of completions
// and commits their PTEs with one TLB shootdown per batch.
//
// This header is the sim-layer half of that design. A FaultPipeline holds
// the parked continuations of one core: admission is bounded by `depth`
// (the backpressure knob), harvest returns every fiber whose completion
// timestamp has passed — ordered by (done_ns, admission seq) so resume
// order is deterministic — and external resolution (a second touch of the
// page, or region teardown) retires a fiber without a harvest and hands it
// back. The runtime (src/dilos/runtime.cc) owns the other half: what a
// park/resume costs, what a batched install commits, and how retry/EC/tier
// recovery states fold into the parked fiber's private timeline.
#ifndef DILOS_SRC_SIM_FIBER_H_
#define DILOS_SRC_SIM_FIBER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/telemetry/attribution.h"

namespace dilos {

// One parked demand fault, and its only record: the frame being filled is
// the one the page's kFetching PTE names. The sim resolves the whole remote
// timeline (retries, backoff, EC decode, failover) at issue time via
// DemandFetch, so the fiber only waits for `done_ns`, then is installed.
struct FaultFiber {
  uint64_t page_va = 0;
  uint64_t done_ns = 0;  // Completion timestamp (includes retry/EC/backoff).
  uint64_t seq = 0;      // Admission order; tie-break for deterministic resume.
  bool write = false;    // Faulting access was a write (install sets dirty).
  // The fault's attribution phases, carried from park to install (committed
  // only with telemetry.attribution on).
  FaultSlice slice;
};

// Per-core ring of outstanding fault continuations. Deliberately tiny and
// deterministic: depth is single-digit-to-dozens, so linear scans beat any
// heap, and every ordering rule is explicit enough to unit-test. Depth 1
// (DilosConfig::fault_pipeline_depth's default) admits one outstanding fault
// per core: every fault waits for its own completion.
class FaultPipeline {
 public:
  explicit FaultPipeline(uint32_t depth) : depth_(depth == 0 ? 1 : depth) {
    fibers_.reserve(depth_);
  }

  uint32_t depth() const { return depth_; }
  size_t size() const { return fibers_.size(); }
  bool empty() const { return fibers_.empty(); }
  // Admission backpressure: a full pipeline parks no further faults until
  // the oldest outstanding one is resumed.
  bool Full() const { return fibers_.size() >= depth_; }

  // Earliest completion among parked fibers — the stall target when the
  // depth limit is hit. UINT64_MAX when empty.
  uint64_t OldestDoneNs() const {
    uint64_t t = UINT64_MAX;
    for (const FaultFiber& f : fibers_) {
      t = std::min(t, f.done_ns);
    }
    return t;
  }

  // Parks one fault with the phases its handler charged so far. Caller must
  // check Full() first (the runtime stalls and harvests before admitting;
  // tests assert the refusal instead).
  bool Admit(uint64_t page_va, uint64_t done_ns, bool write, const FaultSlice& slice) {
    if (Full()) {
      return false;
    }
    fibers_.push_back(FaultFiber{page_va, done_ns, next_seq_++, write, slice});
    return true;
  }

  // Coalesced CQ poll: moves every fiber with done_ns <= now into *out
  // (appended), ordered by (done_ns, seq) so the resume sequence is
  // deterministic even when the link reorders completions. Returns the
  // number harvested.
  size_t HarvestUpTo(uint64_t now, std::vector<FaultFiber>* out) {
    size_t start = out->size();
    for (size_t i = 0; i < fibers_.size();) {
      if (fibers_[i].done_ns <= now) {
        out->push_back(fibers_[i]);
        fibers_[i] = fibers_.back();
        fibers_.pop_back();
      } else {
        ++i;
      }
    }
    std::sort(out->begin() + static_cast<ptrdiff_t>(start), out->end(),
              [](const FaultFiber& a, const FaultFiber& b) {
                return a.done_ns != b.done_ns ? a.done_ns < b.done_ns : a.seq < b.seq;
              });
    return out->size() - start;
  }

  // The fiber parked here for `page_va`, or null.
  FaultFiber* Find(uint64_t page_va) {
    for (FaultFiber& f : fibers_) {
      if (f.page_va == page_va) {
        return &f;
      }
    }
    return nullptr;
  }

  // External resolution: the page was resolved without a harvest (a
  // second touch waited on it directly, or FreeRegion tore the region down).
  // Removes and returns the fiber parked here for `page_va`, if any.
  std::optional<FaultFiber> Retire(uint64_t page_va) {
    FaultFiber* f = Find(page_va);
    if (f == nullptr) {
      return std::nullopt;
    }
    FaultFiber retired = *f;
    *f = fibers_.back();
    fibers_.pop_back();
    return retired;
  }

  // Parked pages, unordered (tests / debugging).
  const std::vector<FaultFiber>& parked() const { return fibers_; }

 private:
  uint32_t depth_;
  uint64_t next_seq_ = 0;
  std::vector<FaultFiber> fibers_;  // Unordered; <= depth_ entries.
};

}  // namespace dilos

#endif  // DILOS_SRC_SIM_FIBER_H_
