// Span recording for the traced benchmark run.
//
// TracingRuntime is a forwarding FarRuntime: the application layer (KV
// service, Redis-lite, the reread loop) is built on it instead of on the
// DilosRuntime directly, so every Pin the application makes passes through
// one boundary where it can be timed without touching src/. The benchmark loop opens
// one span per application op; each Pin inside it becomes a child span. A
// span carries host (steady_clock) and simulated (core clock) start/end, and
// all spans of one op share the op's id. Spans stay in memory until the run
// ends and are then written out as CSV.
#ifndef DILOS_PERFBENCH_SPANS_H_
#define DILOS_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/dilos/runtime.h"

namespace dilos::perfbench {

inline uint64_t HostNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct Span {
  static constexpr uint32_t kNoParent = UINT32_MAX;
  static constexpr uint32_t kPinName = UINT32_MAX;  // Name id of Pin spans.
  // Pin outcome flags, from the runtime's fault counters around the call.
  static constexpr uint32_t kMajorFault = 1;
  static constexpr uint32_t kMinorFault = 2;  // Minor or zero-fill fault.

  uint32_t name = 0;  // Op-kind index, or kPinName.
  uint32_t parent = kNoParent;
  uint32_t op = 0;
  uint32_t flags = 0;
  uint64_t host_begin_ns = 0;
  uint64_t host_end_ns = 0;
  uint64_t sim_begin_ns = 0;
  uint64_t sim_end_ns = 0;

  uint64_t host_ns() const { return host_end_ns - host_begin_ns; }
  uint64_t sim_ns() const { return sim_end_ns - sim_begin_ns; }
};

class TracingRuntime : public FarRuntime {
 public:
  explicit TracingRuntime(DilosRuntime& inner) : inner_(inner) {}

  // Starts recording spans; host times are stored relative to this call.
  void StartRecording(size_t expected_spans) {
    spans_.clear();
    spans_.reserve(expected_spans);
    pinned_pages_.clear();
    pinned_pages_.reserve(expected_spans);
    host_origin_ns_ = HostNowNs();
    recording_ = true;
  }
  void StopRecording() { recording_ = false; }

  void BeginOp(uint32_t kind, uint32_t op_id) {
    current_op_ = static_cast<uint32_t>(spans_.size());
    Span s;
    s.name = kind;
    s.op = op_id;
    s.sim_begin_ns = inner_.clock(0).now();
    s.host_begin_ns = HostNowNs() - host_origin_ns_;
    spans_.push_back(s);
  }
  void EndOp() {
    Span& s = spans_[current_op_];
    s.host_end_ns = HostNowNs() - host_origin_ns_;
    s.sim_end_ns = inner_.clock(0).now();
    current_op_ = Span::kNoParent;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> TakeSpans() { return std::move(spans_); }

  // -- FarRuntime: forward everything, timing Pin while recording. ---------
  uint64_t AllocRegion(uint64_t bytes) override { return inner_.AllocRegion(bytes); }
  void FreeRegion(uint64_t addr, uint64_t bytes) override { inner_.FreeRegion(addr, bytes); }
  uint8_t* Pin(uint64_t vaddr, uint32_t len, bool write, int core) override {
    if (!recording_ || current_op_ == Span::kNoParent) {
      return inner_.Pin(vaddr, len, write, core);
    }
    const RuntimeStats& st = inner_.stats();
    uint64_t major0 = st.major_faults;
    uint64_t minor0 = st.minor_faults + st.zero_fill_faults;
    Span s;
    s.name = Span::kPinName;
    s.parent = current_op_;
    s.op = spans_[current_op_].op;
    s.sim_begin_ns = inner_.clock(core).now();
    s.host_begin_ns = HostNowNs() - host_origin_ns_;
    uint8_t* p = inner_.Pin(vaddr, len, write, core);
    s.host_end_ns = HostNowNs() - host_origin_ns_;
    s.sim_end_ns = inner_.clock(core).now();
    s.flags = (st.major_faults != major0 ? Span::kMajorFault : 0) |
              (st.minor_faults + st.zero_fill_faults != minor0 ? Span::kMinorFault : 0);
    spans_.push_back(s);
    pinned_pages_.push_back(vaddr & ~static_cast<uint64_t>(kPageSize - 1));
    return p;
  }
  void Quiesce() override { inner_.Quiesce(); }
  using FarRuntime::clock;
  Clock& clock(int core) override { return inner_.clock(core); }
  RuntimeStats& stats() override { return inner_.stats(); }
  int num_cores() const override { return inner_.num_cores(); }

  // Page of every recorded Pin, in call order (the probes' resident-page
  // candidates).
  const std::vector<uint64_t>& pinned_pages() const { return pinned_pages_; }

 private:
  DilosRuntime& inner_;
  bool recording_ = false;
  uint32_t current_op_ = Span::kNoParent;
  uint64_t host_origin_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<uint64_t> pinned_pages_;
};

// Writes every span as one CSV row; false if the file cannot be written.
inline bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans,
                          const std::vector<std::string>& op_names) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("span,op,parent,name,flags,host_begin_ns,host_end_ns,sim_begin_ns,sim_end_ns\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const char* name = s.name == Span::kPinName ? "pin" : op_names[s.name].c_str();
    std::fprintf(f, "%zu,%u,%lld,%s,%u,%llu,%llu,%llu,%llu\n", i, s.op,
                 s.parent == Span::kNoParent ? -1LL : static_cast<long long>(s.parent), name,
                 s.flags, static_cast<unsigned long long>(s.host_begin_ns),
                 static_cast<unsigned long long>(s.host_end_ns),
                 static_cast<unsigned long long>(s.sim_begin_ns),
                 static_cast<unsigned long long>(s.sim_end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace dilos::perfbench

#endif  // DILOS_PERFBENCH_SPANS_H_
