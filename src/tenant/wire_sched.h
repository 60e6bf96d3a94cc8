// Weighted fair-share wire scheduling at QueuePair::Post, the choke point of
// every post.
//
// The default Link is a per-direction FIFO: whoever posts first owns the
// wire, so one tenant's bulk scan (prefetch window after prefetch window)
// pushes every later demand fault — including other tenants' — behind its
// backlog. Installed via Fabric::set_scheduler, this scheduler replaces
// Link::Occupy with a three-band, per-tenant arbitration: band 0 demand
// faults, band 1 guided/readahead prefetch, band 2 maintenance (cleaner,
// repair, probe, unclassified). Each QpClass row (src/telemetry/metrics.h)
// carries its band.
//
// Bands are strict priority: an op in band b starts no earlier than the
// completion frontier of every higher band, so bulk traffic yields the wire
// whenever demand work is queued. Within a band each tenant owns a virtual
// lane (ops on one lane serialize; lanes of different tenants overlap), and
// an op's service time is inflated by (sum of backlogged lane weights /
// own weight) — the processor-sharing approximation of weighted
// deficit-round-robin, which keeps aggregate throughput at wire rate while
// splitting it by weight. The upshot: tenant B's fault starts at its own
// issue time plus at most its fair share of the contention, not behind
// tenant A's entire queue.
//
// The simulation assigns completion times eagerly at post time, so this is
// arbitration by construction rather than by queue reordering: the same
// reason Link can be a pair of busy-until scalars.
#ifndef DILOS_SRC_TENANT_WIRE_SCHED_H_
#define DILOS_SRC_TENANT_WIRE_SCHED_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/rdma/link.h"
#include "src/rdma/sched.h"
#include "src/tenant/tenant.h"

namespace dilos {

class FairLinkScheduler : public LinkScheduler {
 public:
  static constexpr int kBands = kQpMaintenanceBand + 1;

  FairLinkScheduler(int num_nodes, const TenantRegistry* tenants)
      : tenants_(tenants), nodes_(static_cast<size_t>(num_nodes)) {}

  WireSlot Occupy(Link& link, int node, QpClass cls, uint64_t remote_addr,
                  uint64_t issue_ns, uint64_t bytes, uint32_t nsegs,
                  bool is_write) override {
    if (node < 0 || node >= static_cast<int>(nodes_.size())) {
      return link.Occupy(issue_ns, bytes, nsegs, is_write);
    }
    // With the scheduler installed the link's own busy-until bookkeeping is
    // bypassed; only its wire time is used.
    uint64_t wire = link.WireNs(bytes, nsegs);

    int band = QpClassBand(cls);
    int tenant = tenants_ != nullptr ? tenants_->TenantOfAddr(remote_addr) : -1;
    Dir& dir = nodes_[static_cast<size_t>(node)].dir[is_write ? 1 : 0];

    // Strict priority: start behind every higher band's frontier.
    uint64_t start = issue_ns;
    for (int b = 0; b < band; ++b) {
      start = std::max(start, dir.band[b].frontier);
    }
    Band& bs = dir.band[band];
    Lane& lane = LaneOf(bs, tenant);
    start = std::max(start, lane.busy);  // Own lane serializes.

    // Weighted processor sharing: lanes still backlogged at `start` share
    // the wire, so this op's service stretches by the weight ratio.
    uint64_t mine = Weight(tenant);
    uint64_t others = 0;
    for (const Lane& l : bs.lanes) {
      if (l.tenant != tenant && l.busy > start) {
        others += Weight(l.tenant);
      }
    }
    uint64_t svc = wire * (others + mine) / mine;

    deferred_ns_ += start - issue_ns;
    ++ops_[band];
    lane.busy = start + svc;
    bs.frontier = std::max(bs.frontier, lane.busy);
    (is_write ? link.mutable_tx() : link.mutable_rx()).Add(start, bytes);
    return {start, lane.busy};
  }

  // Introspection for tests and benches.
  uint64_t ops(int band) const { return ops_[band]; }
  uint64_t deferred_ns() const { return deferred_ns_; }

 private:
  struct Lane {
    int tenant = -1;
    uint64_t busy = 0;
  };
  struct Band {
    std::vector<Lane> lanes;  // One per tenant seen; linear scan, few tenants.
    uint64_t frontier = 0;    // Max completion in this band so far.
  };
  struct Dir {
    Band band[kBands];
  };
  struct Node {
    Dir dir[2];  // Full duplex: [0] RX (reads), [1] TX (writes).
  };

  uint64_t Weight(int tenant) const {
    if (tenants_ == nullptr || tenant < 0 || tenant >= tenants_->num_tenants()) {
      return 1;
    }
    uint32_t w = tenants_->spec(tenant).weight;
    return w == 0 ? 1 : w;
  }

  static Lane& LaneOf(Band& bs, int tenant) {
    for (Lane& l : bs.lanes) {
      if (l.tenant == tenant) {
        return l;
      }
    }
    bs.lanes.push_back(Lane{tenant, 0});
    return bs.lanes.back();
  }

  const TenantRegistry* tenants_;
  std::vector<Node> nodes_;
  uint64_t ops_[kBands] = {0, 0, 0};
  uint64_t deferred_ns_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_TENANT_WIRE_SCHED_H_
