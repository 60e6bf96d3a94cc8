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
// page, or region teardown) retires a fiber without a harvest. The runtime
// (src/dilos/runtime.cc) owns the other half: what a park/resume costs,
// what a batched install commits, and how retry/EC/tier recovery states
// fold into the parked fiber's private timeline.
#ifndef DILOS_SRC_SIM_FIBER_H_
#define DILOS_SRC_SIM_FIBER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dilos {

// Lifecycle of one parked fault continuation. The sim resolves the whole
// remote timeline (retries, backoff, EC decode, failover) at issue time via
// DemandFetch, so the states a real fiber would sleep through are collapsed
// into the recorded done_ns; what remains observable is park -> ready ->
// installed, which is what the interleaving tests pin down.
enum class FiberState : uint8_t {
  kParked = 0,  // Read posted, core released, completion pending.
  kReady,       // Completion timestamp passed; harvested, install pending.
  kInstalled,   // PTE committed by a batched install; fiber retired.
};

struct FaultFiber {
  uint64_t page_va = 0;
  uint32_t frame = 0;     // Frame the in-flight read fills.
  uint64_t issue_ns = 0;  // When the fault posted its read and parked.
  uint64_t done_ns = 0;   // Completion timestamp (includes retry/EC/backoff).
  uint64_t seq = 0;       // Admission order; tie-break for deterministic resume.
  bool write = false;     // Faulting access was a write (install sets dirty).
  FiberState state = FiberState::kParked;
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

  // Parks one fault. Caller must check Full() first (the runtime stalls and
  // harvests before admitting; tests assert the refusal instead).
  bool Admit(uint64_t page_va, uint32_t frame, uint64_t issue_ns, uint64_t done_ns,
             bool write) {
    if (Full()) {
      return false;
    }
    FaultFiber f;
    f.page_va = page_va;
    f.frame = frame;
    f.issue_ns = issue_ns;
    f.done_ns = done_ns;
    f.seq = next_seq_++;
    f.write = write;
    f.state = FiberState::kParked;
    fibers_.push_back(f);
    return true;
  }

  // Coalesced CQ poll: moves every fiber with done_ns <= now into *out
  // (appended, marked kReady), ordered by (done_ns, seq) so the resume
  // sequence is deterministic even when the link reorders completions.
  // Returns the number harvested.
  size_t HarvestUpTo(uint64_t now, std::vector<FaultFiber>* out) {
    size_t start = out->size();
    for (size_t i = 0; i < fibers_.size();) {
      if (fibers_[i].done_ns <= now) {
        fibers_[i].state = FiberState::kReady;
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

  // External resolution: the page was resolved without a harvest (a
  // second touch waited on it directly, or FreeRegion tore the region down).
  // True if a fiber for `page_va` was parked here and is now retired.
  bool Retire(uint64_t page_va) {
    for (size_t i = 0; i < fibers_.size(); ++i) {
      if (fibers_[i].page_va == page_va) {
        fibers_[i] = fibers_.back();
        fibers_.pop_back();
        return true;
      }
    }
    return false;
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
