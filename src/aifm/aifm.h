// AIFM baseline (Ruan et al., OSDI '20), modeled with the three properties
// the paper's comparison hinges on (Sec. 2, 6.2):
//
//  1. Object granularity: a remote miss fetches exactly the object's bytes
//     (no 4 KB amplification), over TCP (the emulation delay of Sec. 6.2's
//     footnote 2 applies to every fetch).
//  2. Dereference checks: every access to a remoteable pointer runs extra
//     instructions to test local/remote — cheap, but it never goes away, so
//     AIFM trails paging systems when everything fits in local memory.
//  3. Pauseless, multi-threaded runtime: its streaming prefetcher and
//     evacuator run on background threads, giving near-perfect overlap of
//     compute and network for sequential scans; the application core is
//     never charged for evacuation.
//
// Unlike DiLOS/Fastswap, this is a *library* interface: applications must be
// ported to allocate and dereference AifmObject handles — exactly the
// compatibility cost the paper argues against.
#ifndef DILOS_SRC_AIFM_AIFM_H_
#define DILOS_SRC_AIFM_AIFM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/memnode/fabric.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/stats.h"

namespace dilos {

using ObjId = uint64_t;

struct AifmConfig {
  uint64_t local_mem_bytes = 64ULL << 20;
  uint64_t deref_check_ns = 4;   // Per-dereference local/remote test.
};

class AifmRuntime {
 public:
  AifmRuntime(Fabric& fabric, AifmConfig cfg);

  // Allocates a remoteable object of `size` bytes (zeroed).
  ObjId Allocate(uint64_t size);
  void FreeObj(ObjId id);

  // Dereferences the object: charges the check, fetches if remote (waiting
  // for arrival), marks hot, returns host bytes valid until the next call.
  uint8_t* Deref(ObjId id, bool write);

  // Typed helpers.
  template <typename T>
  T Read(ObjId id, uint64_t offset = 0) {
    return *reinterpret_cast<T*>(Deref(id, false) + offset);
  }
  template <typename T>
  void Write(ObjId id, const T& v, uint64_t offset = 0) {
    *reinterpret_cast<T*>(Deref(id, true) + offset) = v;
  }

  uint64_t ObjSize(ObjId id) const { return objects_[id].size; }

  Clock& clock() { return clock_; }
  RuntimeStats& stats() { return stats_; }
  uint64_t local_bytes() const { return local_bytes_; }

 private:
  struct Object {
    uint64_t far_addr = 0;
    uint32_t size = 0;
    bool local = false;
    bool hot = false;
    bool dirty = false;
    bool freed = false;
    bool prefetched = false;  // In the stream window, not yet consumed.
    uint64_t arrival_ns = 0;  // When in-flight bytes land (0 = settled).
    std::unique_ptr<uint8_t[]> data;
  };

  // Posts a (possibly page-spanning) read/write of the object's far bytes.
  uint64_t PostObjectIo(Object& obj, bool is_write, uint64_t issue_ns);
  void FetchObject(ObjId id);
  void MaybeStreamPrefetch(ObjId id);
  // Evacuates cold objects until under budget; never evicts `pinned` (the
  // object the application is currently dereferencing).
  void EvacuateIfNeeded(ObjId pinned);

  Fabric& fabric_;
  AifmConfig cfg_;
  CostModel cost_;
  QueuePair* qp_;
  Clock clock_;
  RuntimeStats stats_;

  std::vector<Object> objects_;
  std::deque<ObjId> resident_;  // Evacuation clock order.
  uint64_t local_bytes_ = 0;
  uint64_t far_cursor_ = kFarBase;
  uint64_t wr_id_ = 0;

  // Streaming detector state.
  ObjId last_id_ = UINT64_MAX;
  uint32_t streak_ = 0;
  uint64_t prefetch_window_bytes_ = 0;  // Unconsumed prefetched bytes.
};

}  // namespace dilos

#endif  // DILOS_SRC_AIFM_AIFM_H_
