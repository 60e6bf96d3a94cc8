// The memory node: a page store registered as one rkey-protected region.
#ifndef DILOS_SRC_MEMNODE_MEMORY_NODE_H_
#define DILOS_SRC_MEMNODE_MEMORY_NODE_H_

#include <cstdint>

#include "src/memnode/page_store.h"
#include "src/rdma/memory_region.h"

namespace dilos {

// Base of the far virtual address space served by the memory node. Compute
// nodes use far addresses directly as remote addresses, so the single
// registered region spans the whole far heap.
inline constexpr uint64_t kFarBase = 1ULL << 40;
inline constexpr uint64_t kFarSpan = 1ULL << 38;  // 256 GB of far address space.

class MemoryNode {
 public:
  // The node's page store draws its slots from `arena`, which must outlive
  // the node.
  MemoryNode(PageArena* arena, uint32_t rkey) : store_(arena) {
    mr_.key = rkey;
    mr_.base = kFarBase;
    mr_.length = kFarSpan;
    mr_.resolver = &store_;
  }

  const MemoryRegion& mr() const { return mr_; }
  PageStore& store() { return store_; }
  const PageStore& store() const { return store_; }

  // Simulated node crash: connected QPs time out instead of moving data.
  // The store's contents are retained but unreachable (a restarted node
  // would come back empty or stale; the recovery subsystem re-replicates
  // from surviving copies rather than trusting them).
  void Crash() { mr_.crashed = true; }
  void Restore() { mr_.crashed = false; }
  bool crashed() const { return mr_.crashed; }

 private:
  PageStore store_;
  MemoryRegion mr_;
};

}  // namespace dilos

#endif  // DILOS_SRC_MEMNODE_MEMORY_NODE_H_
