// Fabric: the two-node testbed in one object — a compute-node local resolver,
// a memory node, and the 100 GbE link connecting them. Queue pairs created
// here model DiLOS' per-core, per-module QPs (Sec. 4.5): each CreateQp()
// returns an independent QP whose ops never queue behind another QP's
// software path, though all share the physical wire. The fabric also owns
// the page arena (src/memnode/page_arena.h) every node's store draws from.
#ifndef DILOS_SRC_MEMNODE_FABRIC_H_
#define DILOS_SRC_MEMNODE_FABRIC_H_

#include <memory>
#include <vector>

#include "src/memnode/fault_injector.h"
#include "src/memnode/memory_node.h"
#include "src/memnode/page_arena.h"
#include "src/rdma/link.h"
#include "src/rdma/queue_pair.h"
#include "src/sim/cost_model.h"

namespace dilos {

class Fabric {
 public:
  // `num_nodes` memory nodes, each on its own 100 GbE port (the Sec. 5.1
  // multi-node extension; the default single node matches the paper's
  // testbed).
  explicit Fabric(const CostModel& cost = CostModel::Default(), int num_nodes = 1)
      : cost_(cost) {
    for (int i = 0; i < num_nodes; ++i) {
      links_.push_back(std::make_unique<Link>(cost));
      nodes_.push_back(std::make_unique<MemoryNode>(&arena_, static_cast<uint32_t>(0x5EED + i)));
      injector_.RegisterNode(nodes_.back().get());
    }
  }

  // `cls` labels the module the QP will serve so the telemetry registry can
  // key its counters by (node x class); callers that predate telemetry (and
  // bare bench QPs) default to kOther.
  QueuePair* CreateQp(int node = 0, QpClass cls = QpClass::kOther) {
    qps_.push_back(std::make_unique<QueuePair>(links_[static_cast<size_t>(node)].get(),
                                               &local_, &nodes_[static_cast<size_t>(node)]->mr(),
                                               &injector_, node, cls, &metrics_, &sched_));
    return qps_.back().get();
  }

  // Installs (or, with nullptr, removes) the per-node metrics registry every
  // QP reports into. QPs hold a pointer to this slot, so installation after
  // QP creation — the normal order: runtime construction wires the router's
  // QPs first, then enables telemetry — takes effect immediately.
  void set_metrics(MetricsRegistry* m) { metrics_ = m; }
  MetricsRegistry* metrics() { return metrics_; }
  // The fabric's metrics slot itself — QPs and background monitors
  // (src/tenant/hotness.h) watch this address, not a snapshot of it.
  MetricsRegistry* const* metrics_slot() const { return &metrics_; }

  // Installs (or removes) a wire scheduler (src/rdma/sched.h) that replaces
  // per-link FIFO arbitration for every QP, existing and future. Used by the
  // multi-tenant fair-share layer (src/tenant/wire_sched.h).
  void set_scheduler(LinkScheduler* s) { sched_ = s; }
  LinkScheduler* scheduler() { return sched_; }

  // Crashes memory node `i`: every QP connected to it times out from now on.
  // Unlike ShardRouter::FailNode this is not an oracle declaration — the
  // compute side only learns of the crash through op timeouts and missed
  // heartbeats (src/recovery/failure_detector.h). A scheduled, window-bounded
  // crash is the same thing as a plan: set_fault_plan with a kCrash spec.
  void CrashNode(int i) { nodes_[static_cast<size_t>(i)]->Crash(); }
  void RestoreNode(int i) { nodes_[static_cast<size_t>(i)]->Restore(); }

  // Installs a deterministic chaos schedule (src/memnode/fault_injector.h).
  // Arm the plan *before* constructing a runtime whose DilosConfig::
  // fault_seed should govern it: the runtime reseeds the injector at
  // construction, and a plan with seed == 0 keeps that seed.
  void set_fault_plan(const FaultPlan& plan) { injector_.Arm(plan); }
  FaultInjector& injector() { return injector_; }

  Link& link(int node = 0) { return *links_[static_cast<size_t>(node)]; }
  MemoryNode& node(int i = 0) { return *nodes_[static_cast<size_t>(i)]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const CostModel& cost() const { return cost_; }
  // The host memory behind every node's stored pages.
  const PageArena& arena() const { return arena_; }

 private:
  CostModel cost_;
  // One arena for all nodes, so the fabric's last slab is its only partly
  // used huge page. Declared before nodes_: it outlives their stores.
  PageArena arena_;
  FaultInjector injector_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<MemoryNode>> nodes_;
  IdentityResolver local_;
  MetricsRegistry* metrics_ = nullptr;  // Telemetry registry; see set_metrics.
  LinkScheduler* sched_ = nullptr;      // Wire scheduler; see set_scheduler.
  std::vector<std::unique_ptr<QueuePair>> qps_;
};

}  // namespace dilos

#endif  // DILOS_SRC_MEMNODE_FABRIC_H_
