// One core's phase clock: the only code that charges fault-path time.
//
// Each simulated fault-path nanosecond lands in two views: the core-time
// breakdown (RuntimeStats::fault_breakdown, one LatComp row per component,
// summed over a run for Fig. 1 and Fig. 6) and the open fault's critical
// path (its FaultSlice, whose on-path phases tile its end-to-end latency;
// src/telemetry/attribution.h). A FaultClock owns the core's Clock, so one
// call moves it and charges both: Advance charges the named breakdown row
// and, while a fault is open and not parked, the phase the DILOS_LAT_COMPS
// table pairs with that row. With no fault open it reaches the breakdown
// only. The other charges below say why they differ.
//
// The clock also owns the fault scope: one breakdown event, one root `fault`
// span and one slice per outermost fault, however often the handler is
// re-entered; and the hand-off of the slice to the fault's parked fiber.
#ifndef DILOS_SRC_SIM_FAULT_CLOCK_H_
#define DILOS_SRC_SIM_FAULT_CLOCK_H_

#include <cstdint>

#include "src/sim/clock.h"
#include "src/sim/fiber.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/telemetry/attribution.h"

namespace dilos {

#define DILOS_LAT_COMP_PHASE(id, name, phase) FaultPhase::phase,
inline constexpr FaultPhase kLatCompPhase[] = {DILOS_LAT_COMPS(DILOS_LAT_COMP_PHASE)};
#undef DILOS_LAT_COMP_PHASE

class FaultClock {
 public:
  // `tracer` may be null: no spans.
  FaultClock(LatencyBreakdown& bd, Tracer* tracer) : bd_(&bd), tracer_(tracer) {}

  Clock& clock() { return clk_; }
  uint64_t now() const { return clk_.now(); }
  // The open (or last) fault's page and phases.
  uint64_t page_va() const { return page_va_; }
  const FaultSlice& slice() const { return slice_; }

  // Opens the scope for `page_va`, or deepens it for a fault re-entered from
  // its own handler (the tier-corrupt fallback), and advances the handler
  // entry: `hw_ns` of exception delivery, `os_ns` of trap and checks.
  void Enter(uint64_t page_va, uint64_t hw_ns, uint64_t os_ns) {
    bool outermost = depth_++ == 0;
    if (outermost) {
      page_va_ = page_va;
      parked_ = false;
      slice_ = FaultSlice{{}, clk_.now()};
      bd_->CountEvent();
    }
    Advance(hw_ns, LatComp::kHwException);
    Advance(os_ns, LatComp::kOsHandler);
    if (outermost && tracer_ != nullptr) {
      span_ = tracer_->BeginSpan(SpanKind::kFault, clk_.now(), page_va);
    }
  }

  // Admits the open fault and its slice to `pipe` (completing at `done_ns`);
  // from here only AwaitFetch reaches the slice. Then advances the uncharged
  // fiber switch `park_ns`: the fault-park span.
  void Park(FaultPipeline& pipe, uint64_t done_ns, bool write, uint64_t park_ns) {
    pipe.Admit(page_va_, done_ns, write, slice_);
    pipe_ = &pipe;
    parked_ = true;
    clk_.Advance(park_ns);
    Span(SpanKind::kFaultPark, clk_.now() - park_ns, clk_.now(),
         static_cast<uint32_t>(pipe.size()));
  }

  // Closes one scope level; the outermost ends the `fault` span. True only
  // when that level closes with its slice unparked: the caller commits it.
  bool Exit() {
    if (depth_ == 0 || --depth_ != 0) {
      return false;
    }
    if (tracer_ != nullptr) {
      tracer_->EndSpan(span_, clk_.now());
    }
    return !parked_;
  }

  // `span`, when named, records the advance as that leaf span.
  void Advance(uint64_t ns, LatComp c, SpanKind span = SpanKind::kCount) {
    clk_.Advance(ns);
    bd_->Add(c, ns);
    Charge(kLatCompPhase[static_cast<size_t>(c)], clk_.now() - ns, clk_.now(), span);
  }

  void AdvanceTo(uint64_t t_ns, LatComp c) { Advance(t_ns > now() ? t_ns - now() : 0, c); }

  // Waits for a fetch completion: breakdown fetch-remote. The fault's own
  // fetch was charged on its wire cursor; another fault's is a stall.
  void AwaitFetch(uint64_t done_ns, bool other_fault) {
    uint64_t waited = clk_.AdvanceTo(done_ns);
    bd_->Add(LatComp::kFetch, waited);
    FaultFiber* fiber = parked_ ? pipe_->Find(page_va_) : nullptr;
    FaultSlice* s = !parked_ ? &slice_ : fiber != nullptr ? &fiber->slice : nullptr;
    if (other_fault && depth_ != 0 && s != nullptr) {
      s->Add(FaultPhase::kStall, waited);
    }
  }

  // Direct reclaim. A zero-fill takes its frame with no fault open and is no
  // breakdown event: only the clock moves.
  void Reclaim(uint64_t ns) { depth_ == 0 ? clk_.Advance(ns) : Advance(ns, LatComp::kReclaim); }

  // Time on the fault's wire cursor, which runs ahead of the core clock:
  // charges [begin_ns, end_ns] to phase `p` of the open, unparked fault only,
  // and records it as `span` (retry-backoff, heal) when one is named.
  void Charge(FaultPhase p, uint64_t begin_ns, uint64_t end_ns,
              SpanKind span = SpanKind::kCount, uint32_t detail = 0) {
    if (depth_ != 0 && !parked_ && end_ns > begin_ns) {
      slice_.Add(p, end_ns - begin_ns);
    }
    Span(span, begin_ns, end_ns, detail);
  }

 private:
  void Span(SpanKind kind, uint64_t begin_ns, uint64_t end_ns, uint32_t detail) {
    if (tracer_ != nullptr && kind != SpanKind::kCount) {
      tracer_->EndSpan(tracer_->BeginSpan(kind, begin_ns, page_va_, detail), end_ns);
    }
  }

  Clock clk_;
  LatencyBreakdown* bd_;
  Tracer* tracer_;
  FaultPipeline* pipe_ = nullptr;  // Where the parked fault's fiber waits.
  FaultSlice slice_;
  uint64_t page_va_ = 0;
  uint32_t depth_ = 0;
  uint32_t span_ = 0;
  bool parked_ = false;
};

}  // namespace dilos

#endif  // DILOS_SRC_SIM_FAULT_CLOCK_H_
