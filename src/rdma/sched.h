// Wire-arbitration hook: an installable replacement for Link::Occupy.
//
// By default every op posted on a QP serializes FIFO on its node's link
// (src/rdma/link.h). A LinkScheduler installed on the fabric
// (Fabric::set_scheduler) is consulted instead at the QueuePair::PostSend
// choke point, with enough context — node, QP class, remote address — to
// arbitrate the wire by traffic class and by tenant. It returns the op's
// wire slot, from which the post derives both the completion time and the
// queueing fault attribution charges to lane wait. The policy
// implementation lives in src/tenant/wire_sched.h; this header only breaks
// the rdma -> tenant dependency that would otherwise cycle.
#ifndef DILOS_SRC_RDMA_SCHED_H_
#define DILOS_SRC_RDMA_SCHED_H_

#include <cstdint>

#include "src/rdma/link.h"
#include "src/telemetry/metrics.h"

namespace dilos {

class LinkScheduler {
 public:
  virtual ~LinkScheduler() = default;

  // Arbitrates one op of `bytes` payload across `nsegs` segments issued at
  // `issue_ns` toward `node`; returns its wire slot (what Link::Occupy would
  // have returned, under this policy). Implementations take the op's
  // serialization time from Link::WireNs and meter bandwidth into the link's
  // BandwidthMeters, since the link's own Occupy is bypassed while a
  // scheduler is installed. `remote_addr` is the op's first remote segment
  // address — the key a tenant-aware scheduler resolves ownership from.
  virtual WireSlot Occupy(Link& link, int node, QpClass cls, uint64_t remote_addr,
                          uint64_t issue_ns, uint64_t bytes, uint32_t nsegs,
                          bool is_write) = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_RDMA_SCHED_H_
