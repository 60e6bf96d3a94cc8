// Local DRAM frame pool of the compute node. The pool's size *is* the local
// cache size knob of every experiment (12.5% / 25% / 50% / 100% of the
// working set). The frames are one HugeMapping (src/memnode/page_arena.h):
// zero until first written, and faulted in 2 MB at a time where the host
// grants transparent huge pages.
#ifndef DILOS_SRC_PT_FRAME_POOL_H_
#define DILOS_SRC_PT_FRAME_POOL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/memnode/page_arena.h"
#include "src/rdma/verbs.h"

namespace dilos {

class FramePool {
 public:
  explicit FramePool(size_t nframes) : mem_(nframes * kPageSize), total_(nframes) {
    free_.reserve(nframes);
    for (size_t i = 0; i < nframes; ++i) {
      free_.push_back(static_cast<uint32_t>(nframes - 1 - i));
    }
  }

  std::optional<uint32_t> Alloc() {
    if (free_.empty()) {
      return std::nullopt;
    }
    uint32_t fid = free_.back();
    free_.pop_back();
    return fid;
  }

  void Free(uint32_t fid) { free_.push_back(fid); }

  uint8_t* Data(uint32_t fid) { return mem_.data() + static_cast<size_t>(fid) * kPageSize; }
  const uint8_t* Data(uint32_t fid) const {
    return mem_.data() + static_cast<size_t>(fid) * kPageSize;
  }
  // Host address of the frame, usable as the local side of an RDMA op.
  uint64_t Addr(uint32_t fid) { return reinterpret_cast<uint64_t>(Data(fid)); }

  size_t free_count() const { return free_.size(); }
  size_t total() const { return total_; }
  size_t used() const { return total_ - free_.size(); }

 private:
  HugeMapping mem_;
  size_t total_;
  std::vector<uint32_t> free_;
};

}  // namespace dilos

#endif  // DILOS_SRC_PT_FRAME_POOL_H_
