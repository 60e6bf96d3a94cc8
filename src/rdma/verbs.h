// Simulated one-sided RDMA verbs: the request/completion vocabulary shared by
// queue pairs and memory regions.
//
// The model follows the subset of ibverbs the paper's systems use: reliable
// connected QPs, one-sided READ/WRITE, scatter/gather lists, rkey-protected
// memory regions (Sec. 5 "Low-latency RDMA driver" / "Memory node").
#ifndef DILOS_SRC_RDMA_VERBS_H_
#define DILOS_SRC_RDMA_VERBS_H_

#include <cstdint>
#include <vector>

namespace dilos {

inline constexpr uint32_t kPageSize = 4096;
inline constexpr uint32_t kPageShift = 12;

enum class RdmaOpcode : uint8_t {
  kRead,   // Remote -> local (fetch).
  kWrite,  // Local -> remote (evict / write-back).
};

enum class WcStatus : uint8_t {
  kSuccess,
  kRemoteAccessError,  // rkey mismatch or out-of-region access.
  kLocalError,
  kTimeout,  // RC transport retries exhausted (remote node unreachable).
};

// One scatter/gather element: `length` bytes between compute-node buffer
// address `local` and memory-node address `remote`. The remote side must not
// cross a 4 KB page boundary (the memory node registers page-granular
// backing).
struct Sge {
  uint64_t local = 0;
  uint64_t remote = 0;
  uint32_t length = 0;
};

struct WorkRequest {
  uint64_t wr_id = 0;
  RdmaOpcode opcode = RdmaOpcode::kRead;
  std::vector<Sge> segs;
  uint32_t rkey = 0;

  uint64_t TotalBytes() const {
    uint64_t n = 0;
    for (const Sge& s : segs) {
      n += s.length;
    }
    return n;
  }
};

// Everything about one posted op. The simulator fixes an op's timing when it
// is posted, so the post returns its completion and keeps no copy.
struct Completion {
  uint64_t wr_id = 0;
  WcStatus status = WcStatus::kSuccess;
  uint64_t completion_time_ns = 0;
  // How long the op waited for its wire slot (scheduler lane or FIFO
  // queueing), capped at its post-to-completion latency; the rest of that
  // latency is fabric propagation and serialization. 0 for an op that never
  // reached the wire (timeout, malformed request). Fault attribution splits
  // its lane-wait and wire phases on this.
  uint64_t queue_ns = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_RDMA_VERBS_H_
