// Fastswap baseline (Amaro et al., EuroSys '20), modeled as the paper
// describes it (Sec. 2, 3.1, Fig. 1):
//
//  * Linux swap path: a major fault allocates a page *into the swap cache*,
//    pays swap-entry/radix bookkeeping, fetches over RDMA (frontswap), then
//    maps. Readahead pulls a cluster of pages into the swap cache WITHOUT
//    mapping them — so first touch of a prefetched page is a *minor fault*
//    (swap-cache lookup + map), the 87.5% in Table 1.
//  * Reclamation: a dedicated offload thread evicts in the background, but
//    not all work is absorbed; the remaining fraction runs as direct
//    reclamation inside the fault handler (the 29% slice of Fig. 1), and a
//    dirty victim's write-back is waited on in-path.
//  * One shared queue pair (the kernel swap path), so demand fetches queue
//    behind readahead traffic.
//  * Per-frame LRU links, as in each frame's `struct page`: the mapped-page
//    list and the swap-cache drop list are FrameLrus (src/pt/frame_lru.h)
//    over the frame a kLocal PTE or a swap-cache entry names. The swap cache
//    itself stays a separate index keyed by address, the structure DiLOS's
//    PTE tags replace.
//
// Implements the same FarRuntime interface as DiLOS: identical application
// code runs on both.
#ifndef DILOS_SRC_FASTSWAP_FASTSWAP_H_
#define DILOS_SRC_FASTSWAP_FASTSWAP_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/memnode/fabric.h"
#include "src/pt/frame_lru.h"
#include "src/pt/frame_pool.h"
#include "src/pt/page_table.h"
#include "src/sim/far_runtime.h"
#include "src/sim/fault_clock.h"

namespace dilos {

struct FastswapConfig {
  uint64_t local_mem_bytes = 64ULL << 20;
  int num_cores = 1;
  bool readahead_enabled = true;
};

class FastswapRuntime : public FarRuntime {
 public:
  FastswapRuntime(Fabric& fabric, FastswapConfig cfg);

  uint64_t AllocRegion(uint64_t bytes) override;
  void FreeRegion(uint64_t addr, uint64_t bytes) override;
  uint8_t* Pin(uint64_t vaddr, uint32_t len, bool write, int core) override;
  using FarRuntime::clock;
  Clock& clock(int core) override { return clocks_[static_cast<size_t>(core)].clock(); }
  RuntimeStats& stats() override { return stats_; }
  int num_cores() const override { return cfg_.num_cores; }

  PageTable& page_table() { return pt_; }
  FramePool& frame_pool() { return pool_; }
  uint64_t direct_reclaims() const { return direct_reclaims_; }

 private:
  struct CacheEntry {
    uint32_t frame = 0;
    uint64_t done_ns = 0;  // RDMA completion of the fill.
  };

  uint8_t* HandleFault(uint64_t vaddr, uint32_t len, bool write, int core);
  void Readahead(uint64_t fault_page, FaultClock& fc);
  // Gets a frame, reclaiming if needed. Direct reclaim charges `fc`.
  // Nullopt only if the pool is exhausted and nothing is evictable.
  std::optional<uint32_t> EnsureFrame(FaultClock& fc);
  // EnsureFrame for a fault on `page_va`, which cannot go on without a
  // frame: with nothing evictable it aborts, naming the page.
  uint32_t FaultFrame(uint64_t page_va, FaultClock& fc);
  // Evicts one page (or drops one clean swap-cache entry). If `charged`,
  // the software cost lands on `fc`. A dirty victim's frame only becomes
  // reusable once its synchronous swap-out write completes (frontswap
  // store semantics): it is parked in `pending_free_` until then.
  bool EvictOne(FaultClock& fc, bool charged);
  // Moves pending frames whose write-back finished by `now` into the pool.
  void DrainPendingFrees(uint64_t now);
  void MapFrame(uint64_t page_va, uint32_t frame, bool write);

  Fabric& fabric_;
  FastswapConfig cfg_;
  CostModel cost_;
  PageTable pt_;
  FramePool pool_;
  RuntimeStats stats_;
  std::vector<FaultClock> clocks_;
  QueuePair* qp_;  // The single kernel swap queue.

  std::unordered_map<uint64_t, CacheEntry> swap_cache_;  // Unmapped, filled pages.
  FrameLru cache_lru_;  // Swap-cache fills in drop order, front = oldest.
  FrameLru lru_;        // Mapped pages, front = oldest.

  // Evicted-but-write-in-flight frames, ordered by readiness (QP completion
  // order is monotonic, so push order is sorted).
  std::deque<std::pair<uint32_t, uint64_t>> pending_free_;  // (frame, ready_ns).

  uint64_t next_region_ = kFarBase;
  uint64_t wr_id_ = 0;
  uint64_t direct_reclaims_ = 0;
  double reclaim_debt_ = 0.0;

  // Linux VMA readahead adapts its window to the recent hit rate: fills
  // consumed by minor faults grow it, fills dropped unconsumed shrink it.
  uint32_t ra_window_ = 8;
  uint64_t ra_consumed_ = 0;
  uint64_t ra_dropped_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_FASTSWAP_FASTSWAP_H_
