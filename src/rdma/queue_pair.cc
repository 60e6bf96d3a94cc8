#include "src/rdma/queue_pair.h"

#include <algorithm>
#include <cstring>

#include "src/memnode/fault_injector.h"
#include "src/rdma/sched.h"

namespace dilos {

Completion QueuePair::Timeout(uint64_t wr_id, uint64_t now_ns) {
  // The RC transport retransmits until its timer expires, then completes
  // the WQE in error; no data moves. Subsequent ops on this QP still
  // complete in order behind the timed-out one.
  uint64_t done = std::max(now_ns + link_->cost().rdma_op_timeout_ns, last_completion_ns_);
  last_completion_ns_ = done;
  return {wr_id, WcStatus::kTimeout, done};
}

Completion QueuePair::PostSend(const WorkRequest& wr, uint64_t now_ns) {
  Completion c = PostSendImpl(wr, now_ns);
  // The telemetry choke point: one registry hook covers every op from every
  // subsystem. metrics_ points at the fabric's slot, so a registry installed
  // after this QP was created is still observed; unmetered QPs pay one test.
  if (metrics_ != nullptr && *metrics_ != nullptr) {
    bool ok = c.status == WcStatus::kSuccess;
    (*metrics_)->OnOp(node_, cls_, wr.opcode == RdmaOpcode::kWrite, wr.TotalBytes(),
                      ok ? c.completion_time_ns - now_ns : 0, ok,
                      c.status == WcStatus::kTimeout,
                      wr.segs.empty() ? 0 : wr.segs[0].remote);
  }
  return c;
}

Completion QueuePair::PostSendImpl(const WorkRequest& wr, uint64_t now_ns) {
  bool is_write = wr.opcode == RdmaOpcode::kWrite;
  OpFault fault;
  if (injector_ != nullptr && node_ >= 0) {
    fault = injector_->Decide(node_, is_write, now_ns, wr.TotalBytes());
  }
  if (remote_mr_->crashed || fault.drop) {
    return Timeout(wr.wr_id, now_ns);
  }
  if (wr.segs.empty()) {
    return {wr.wr_id, WcStatus::kLocalError, now_ns};
  }
  if (wr.rkey != remote_mr_->key) {
    return {wr.wr_id, WcStatus::kRemoteAccessError, now_ns};
  }
  // Validate and move the payload segment by segment.
  uint64_t payload_off = 0;
  for (const Sge& s : wr.segs) {
    if (s.length == 0) {
      return {wr.wr_id, WcStatus::kLocalError, now_ns};
    }
    if (!remote_mr_->Contains(s.remote, s.length)) {
      return {wr.wr_id, WcStatus::kRemoteAccessError, now_ns};
    }
    uint8_t* lp = local_->Resolve(s.local, s.length, /*for_write=*/!is_write);
    uint8_t* rp = remote_mr_->resolver->Resolve(s.remote, s.length, /*for_write=*/is_write);
    if (lp == nullptr || rp == nullptr) {
      return {wr.wr_id, WcStatus::kRemoteAccessError, now_ns};
    }
    if (is_write) {
      std::memcpy(rp, lp, s.length);
    } else {
      std::memcpy(lp, rp, s.length);
    }
    if (fault.corrupt && fault.corrupt_offset >= payload_off &&
        fault.corrupt_offset < payload_off + s.length) {
      // Injected wire corruption lands on the destination side: the stored
      // bytes for a write, the local buffer for a read.
      uint8_t* victim = (is_write ? rp : lp) + (fault.corrupt_offset - payload_off);
      *victim ^= fault.corrupt_mask;
    }
    payload_off += s.length;
  }

  uint64_t bytes = wr.TotalBytes();
  auto nsegs = static_cast<uint32_t>(wr.segs.size());
  uint64_t fabric = is_write ? link_->cost().WriteLatencyNs(bytes, nsegs)
                             : link_->cost().ReadLatencyNs(bytes, nsegs);
  if (fault.delay_factor > 1.0) {
    // Gray failure: the node answers, just slowly — stretch the fabric
    // latency, not the wire serialization (the link itself is healthy).
    fabric = static_cast<uint64_t>(static_cast<double>(fabric) * fault.delay_factor);
  }
  // Wire arbitration: FIFO through Link::Occupy by default; with a fabric
  // scheduler installed (multi-tenant fair share), the scheduler decides when
  // this op's serialization slot starts. Same double-pointer pattern as
  // metrics_, so a scheduler installed after QP creation is still honored.
  WireSlot slot = sched_ != nullptr && *sched_ != nullptr
                      ? (*sched_)->Occupy(*link_, node_, cls_, wr.segs[0].remote, now_ns,
                                          bytes, nsegs, is_write)
                      : link_->Occupy(now_ns, bytes, nsegs, is_write);
  // RC in-order completion: never before an earlier op on this QP.
  uint64_t done = std::max({now_ns + fabric, slot.done_ns, last_completion_ns_});
  last_completion_ns_ = done;
  // Queueing is capped at the op's total latency: when fabric propagation
  // exceeds wire availability the queueing was hidden, not on the path.
  return {wr.wr_id, WcStatus::kSuccess, done, std::min(slot.start_ns - now_ns, done - now_ns)};
}

Completion QueuePair::PostOne(RdmaOpcode opcode, uint64_t wr_id, uint64_t local_addr,
                              uint64_t remote_addr, uint32_t len, uint64_t now_ns) {
  return PostSend({wr_id, opcode, {{local_addr, remote_addr, len}}, remote_mr_->key}, now_ns);
}

}  // namespace dilos
