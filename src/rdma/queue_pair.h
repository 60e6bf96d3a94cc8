// Reliable-connected queue pair.
//
// DiLOS' communication module creates one QP per (core, module) so that
// fault-handler traffic is never head-of-line blocked behind prefetcher or
// reclaimer traffic (Sec. 4.5). In the model each QP issues ops onto the
// shared Link; data movement happens eagerly and the post returns the
// completion, stamped with the simulated arrival time. Nothing is kept per
// op: the fault pipeline charges Atlas-style coalesced completion polling as
// a cost (cq_poll_ns) instead of draining a stored queue.
#ifndef DILOS_SRC_RDMA_QUEUE_PAIR_H_
#define DILOS_SRC_RDMA_QUEUE_PAIR_H_

#include <cstddef>
#include <cstdint>

#include "src/rdma/link.h"
#include "src/rdma/memory_region.h"
#include "src/rdma/verbs.h"
#include "src/telemetry/metrics.h"

namespace dilos {

class FaultInjector;   // src/memnode/fault_injector.h
class LinkScheduler;   // src/rdma/sched.h

// Always empty: PostSend returns each completion and queues none.
class CompletionQueue {
 public:
  size_t outstanding() const { return 0; }
};

class QueuePair {
 public:
  // `local` resolves compute-node buffer addresses; `remote_mr` is the
  // memory-node region this QP is connected to. `injector`/`node` connect
  // the QP to the fabric's fault plan (src/memnode/fault_injector.h); bare
  // QPs built outside a Fabric run fault-free. `cls` names the module this
  // QP serves and `metrics` points at the fabric's registry slot — a
  // double pointer, so a registry installed on the fabric after QP creation
  // (Fabric::set_metrics) is still seen; both default to "unmetered".
  // `sched` is the fabric's wire-scheduler slot (same double-pointer
  // pattern): when a scheduler is installed it arbitrates the wire in place
  // of Link::Occupy (src/rdma/sched.h).
  QueuePair(Link* link, AddressResolver* local, const MemoryRegion* remote_mr,
            FaultInjector* injector = nullptr, int node = -1,
            QpClass cls = QpClass::kOther, MetricsRegistry* const* metrics = nullptr,
            LinkScheduler* const* sched = nullptr)
      : link_(link),
        local_(local),
        remote_mr_(remote_mr),
        injector_(injector),
        node_(node),
        cls_(cls),
        metrics_(metrics),
        sched_(sched) {}

  // Posts a one-sided work request at simulated time `now_ns`. Data movement
  // is performed immediately; the returned completion carries the time the
  // op lands (fabric latency plus wire serialization) and its wire queueing.
  // This is the one choke point every RDMA op in the repo passes through:
  // per-(node, QP class) telemetry hangs off it (src/telemetry/metrics.h).
  Completion PostSend(const WorkRequest& wr, uint64_t now_ns);

  int node() const { return node_; }
  QpClass qp_class() const { return cls_; }

  // Empty by construction; kept for callers that report retained completions.
  CompletionQueue cq() const { return {}; }
  Link* link() { return link_; }
  // rkey of the connected remote region (the connection handshake result).
  uint32_t remote_rkey() const { return remote_mr_->key; }

  // Convenience: single-segment page-sized or subpage ops.
  Completion PostRead(uint64_t wr_id, uint64_t local_addr, uint64_t remote_addr, uint32_t len,
                      uint64_t now_ns) {
    return PostOne(RdmaOpcode::kRead, wr_id, local_addr, remote_addr, len, now_ns);
  }
  Completion PostWrite(uint64_t wr_id, uint64_t local_addr, uint64_t remote_addr, uint32_t len,
                       uint64_t now_ns) {
    return PostOne(RdmaOpcode::kWrite, wr_id, local_addr, remote_addr, len, now_ns);
  }

 private:
  // RC retransmit-exhausted path, shared by crashes and injected drops.
  Completion Timeout(uint64_t wr_id, uint64_t now_ns);
  Completion PostSendImpl(const WorkRequest& wr, uint64_t now_ns);
  // The body of PostRead and PostWrite: one segment toward the connected
  // region.
  Completion PostOne(RdmaOpcode opcode, uint64_t wr_id, uint64_t local_addr,
                     uint64_t remote_addr, uint32_t len, uint64_t now_ns);

  Link* link_;
  AddressResolver* local_;
  const MemoryRegion* remote_mr_;
  FaultInjector* injector_;
  int node_;
  QpClass cls_ = QpClass::kOther;
  MetricsRegistry* const* metrics_ = nullptr;  // Fabric's registry slot.
  LinkScheduler* const* sched_ = nullptr;      // Fabric's wire-scheduler slot.
  // RC QPs complete strictly in post order: a READ posted after a WRITE on
  // the same QP cannot complete before it. This is the head-of-line
  // blocking a single shared (kernel swap) queue suffers, and why DiLOS
  // gives each module its own QP (Sec. 4.5).
  uint64_t last_completion_ns_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_RDMA_QUEUE_PAIR_H_
