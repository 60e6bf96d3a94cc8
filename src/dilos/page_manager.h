// DiLOS page manager (paper Sec. 4.4).
//
// The allocator hands out free frames; a background *cleaner* writes dirty
// pages back to the memory node and clears their dirty bits; a background
// *reclaimer* evicts the least-recently-used clean pages with a clock
// (second-chance) sweep over the LRU list. Both run eagerly so the fault
// handler virtually always finds a free frame — reclamation never shows up
// in the fault path (paper Fig. 6 shows zero reclaim time for DiLOS).
//
// The LRU list is frame-indexed (src/pt/frame_lru.h): a resident page's
// kLocal PTE names its frame, and the frame id is the page's position in
// the list, its slot in the per-frame state and its key in the cleaner
// queue. No address-keyed index exists, and a push or an unlink allocates
// nothing.
//
// The cleaner takes the oldest *candidates* — local, dirty and not accessed
// pages — in LRU order. It finds them through a queue from each frame's LRU
// sequence number to the frame, so a tick costs the pages it visits, not the
// resident set. A page joins the queue wherever it can become a candidate:
// an LRU push-back with its dirty bit set, the hit tracker clearing the
// accessed bit of a dirty page (OnAccessCleared), and a quota reclaim
// re-marking a page dirty. Every other site that sets the dirty bit (the
// Pin fast path, the fault handler's exit) also sets the accessed bit, so
// that page becomes a candidate only when the clock's second chance or the
// hit tracker clears the bit, and both admit it then. The tick drops entries
// that are no longer candidates.
//
// Guided paging: when a guide supplies per-page live segments (from the
// allocator's bitmaps), the cleaner writes back only live bytes with one
// vectorized RDMA write (≤ max_vector_segs segments; the paper measured a
// sharp slowdown past three), and the reclaimer evicts the page to an
// *action* PTE holding an index into the vector log, so the later re-fetch
// also moves only live bytes.
#ifndef DILOS_SRC_DILOS_PAGE_MANAGER_H_
#define DILOS_SRC_DILOS_PAGE_MANAGER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/dilos/guide.h"
#include "src/dilos/shard.h"
#include "src/pt/frame_lru.h"
#include "src/pt/frame_pool.h"
#include "src/pt/page_table.h"
#include "src/rdma/queue_pair.h"
#include "src/sim/cost_model.h"
#include "src/sim/fault_clock.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/tier/tier.h"

namespace dilos {

inline constexpr size_t kMinFreeFrames = 64;        // Least free-frame target.
inline constexpr size_t kCleanBatch = 32;           // Dirty pages cleaned per background tick.
inline constexpr uint64_t kDirectReclaimNs = 1800;  // Fault-path cost per direct-reclaim victim.

struct PageManagerConfig {
  uint32_t max_vector_segs = 3;  // Longest scatter/gather vector to use.
  // Background scrubber: remote pages re-read and verified per background
  // tick (0 = off). The scrubber walks every granule that ever received a
  // write-back, round-robin, re-hashing each stored replica copy against its
  // checksum and repairing latent corruption from another verified replica
  // (or by EC reconstruction) before a demand read ever meets it.
  size_t scrub_pages_per_tick = 0;
};

class PageManager {
 public:
  // Write-backs go through `router` on the manager channel — to every live
  // replica when replication is enabled, or to the single data copy plus a
  // parity read-modify-write per parity member in EC mode. `cost` prices the
  // EC decode on the degraded old-content path. The reclaimer keeps at least
  // `free_target` frames free.
  PageManager(FramePool& pool, PageTable& pt, ShardRouter& router, RuntimeStats& stats,
              Tracer* tracer, PageManagerConfig cfg, const CostModel* cost,
              size_t free_target);

  void set_guide(Guide* guide) { guide_ = guide; }
  // Arms the compressed local tier (src/tier): clock victims are compressed
  // into it instead of leaving the machine, with write-backs deferred to
  // this manager's background loop. Null disables the tier (default).
  void set_tier(CompressedTier* tier) { tier_ = tier; }
  // Arms tenant accounting: resident gauges track OnMapped/OnUnmapped and
  // eviction, and full write-backs pass quota admission (src/tenant/tenant.h).
  // Null disables tenancy (default).
  void set_tenants(TenantRegistry* t) { tenants_ = t; }

  // Registers a page whose PTE just became kLocal (most recently used).
  void OnMapped(uint64_t page_va);
  // Drops tracking for a page unmapped outside reclamation, and releases its
  // action-log slot if a vectored clean recorded one. Called while the
  // page's PTE still names its frame.
  void OnUnmapped(uint64_t page_va);
  // The hit tracker cleared the accessed bit of a resident page, leaving
  // kLocal `pte`: a dirty page is now a cleaner candidate.
  void OnAccessCleared(Pte pte);

  // Background cleaner + reclaimer work at simulated time `now`. CPU time is
  // not charged to any application core (it runs on spare cores); write-back
  // traffic occupies the shared link. `pinned_va` (the page a fault handler
  // is currently operating on) is never evicted.
  void BackgroundTick(uint64_t now, uint64_t pinned_va = UINT64_MAX);

  // Allocates a frame for the fault handler. On the eager-eviction fast path
  // this is a free-list pop; if the pool is exhausted (the background thread
  // fell behind) a direct reclaim runs in the fault path, on `fc` (see
  // FaultClock::Reclaim). With nothing evictable (every frame pinned, or
  // dirty with no replica accepting write-backs) it aborts, naming the
  // faulting `page_va`.
  uint32_t AllocFrame(FaultClock& fc, uint64_t page_va);

  // Action-log access for the runtime's action-PTE fault path.
  const std::vector<PageSegment>* ActionSegments(uint64_t log_idx) const;
  void ReleaseAction(uint64_t log_idx);

  size_t resident_count() const { return lru_.size(); }
  uint64_t direct_reclaims() const { return direct_reclaims_; }

 private:
  // Writes the page back if dirty (full page, or vectorized live segments if
  // the guide provides them), clearing the dirty bit. Records the vector in
  // the action log so eviction can use it.
  void Clean(uint64_t page_va, Pte* e, uint64_t now);
  // True when the guide's live segments of `page_va` (filled into *segs)
  // make a vectored transfer: 1..max_vector_segs segments, not one whole
  // page. Always false without a guide.
  bool VectoredSegments(uint64_t page_va, std::vector<PageSegment>* segs) const;

  // Full-page checked write-back of `data` to every writable replica (with
  // the EC parity RMW and a write-generation bump), shared by the cleaner
  // and the tier's deferred write-back drain. True if at least one replica
  // accepted the write — the durability bar for dropping local copies.
  bool WriteBackFull(uint64_t page_va, const uint8_t* data, uint64_t now);

  // One clock-algorithm step; returns true if a page was evicted.
  bool EvictOne(uint64_t now, uint64_t pinned_va = UINT64_MAX);

  // Out of the action log's range, so ReleaseAction(kNoAction) is a no-op.
  static constexpr uint64_t kNoAction = UINT64_MAX;
  // What the manager keeps per frame about the resident page it holds.
  struct FrameState {
    // Stamp of the frame's latest LRU push-back. It rises with every
    // push-back, so it orders the cleaner queue exactly as the LRU list.
    uint64_t seq = 0;
    // Action-log index of the live extents a vectored clean wrote back, so
    // eviction produces an action PTE; kNoAction if none.
    uint64_t action = kNoAction;
  };
  // Appends `frame`, holding `page_va` whose PTE is `pte`, at the LRU tail
  // under a fresh sequence number; a dirty page joins the cleaner queue there.
  void PushLru(uint32_t frame, uint64_t page_va, Pte pte);
  // Removes `frame` from the LRU list and the cleaner queue.
  void Unlink(uint32_t frame);

  // Quota admission for a full write-back of `page_va`: true when the page
  // is already charged, untenanted, within quota, or room was reclaimed
  // under kReclaimOwnColdest. False = hard reject; the caller must keep the
  // dirty bit (the same contract as a total-partition write-back failure).
  bool TenantAdmitWriteBack(uint64_t page_va, uint64_t now);
  // Drops the remote copies of `tenant`'s coldest eligible resident charged
  // page (never `skip_va`), re-marking its PTE dirty so the local frame
  // stays authoritative — a lossless way to free one quota slot.
  bool ReclaimTenantRemote(int tenant, uint64_t skip_va, uint64_t now);

  // Compressed-tier admission of the eviction victim behind `e`: returns
  // true if the page moved into the tier (frame freed, PTE -> kTier).
  // Guided pages and incompressible pages decline.
  bool TierAdmit(uint64_t page_va, Pte* e, uint64_t now);
  // Pushes the tier's oldest entry remotely (draining its deferred
  // write-back first); false when the tier is empty or the write-back
  // found no live replica (the entry is kept and requeued).
  bool TierEvictOne(uint64_t now);
  // Drops a tier entry whose blob no longer decompresses (in-DRAM rot),
  // pointing the PTE back at the remote copy and counting the loss.
  void TierDropCorrupt(uint64_t va, uint64_t now);
  // Background tier maintenance: drain a batch of deferred write-backs and
  // trim the pool back under its capacity budget.
  void TierTick(uint64_t now);

  uint64_t AllocActionSlot(std::vector<PageSegment> segs);

  // EC: fetches the page's *current* remote content (direct read, or
  // reconstruction when the home copy is unreadable) so the parity RMW
  // folds an exact old-xor-new delta. Returns false if the stripe has
  // already lost more than m members.
  bool EcOldContent(uint64_t page_va, uint8_t* out, uint64_t now);
  // EC: applies delta = old ^ new to every readable parity member of the
  // page's stripe (read parity, fold Coef(k+p, member) * delta, write back).
  void EcUpdateParity(uint64_t page_va, const uint8_t* old_page, const uint8_t* new_page,
                      uint64_t now);

  // Scrubber: verifies the next scrub_pages_per_tick stored pages, cycling
  // over a sorted snapshot of the written granules (re-snapshotted each full
  // pass so new granules join the rotation).
  void ScrubTick(uint64_t now);
  // Re-reads every readable checksummed copy of one page; a copy whose
  // *stored* bytes no longer hash to the installed checksum is rewritten
  // from a verified replica or an EC reconstruction.
  void ScrubPage(uint64_t page_va, uint64_t now);
  // Rewrites the rotted copy of `page_va` on `node` from redundancy.
  void ScrubRepair(uint64_t page_va, int node, uint64_t now);

  FramePool& pool_;
  PageTable& pt_;
  ShardRouter& router_;
  RuntimeStats& stats_;
  Tracer* tracer_;
  std::vector<QueuePair*> write_qps_;  // Scratch for replica fan-out.
  std::vector<int> write_nodes_;       // Node ids matching write_qps_.
  PageManagerConfig cfg_;
  const CostModel* cost_;
  size_t free_target_;
  Guide* guide_ = nullptr;
  CompressedTier* tier_ = nullptr;
  TenantRegistry* tenants_ = nullptr;  // Quota + residency accounting; may be null.
  std::vector<int> reclaim_nodes_;     // Scratch for quota-reclaim replica drops.

  // LRU order: front = oldest. The clock hand sweeps from the front.
  FrameLru lru_;
  std::vector<FrameState> frames_;  // Indexed by frame id.
  uint64_t lru_seq_ = 0;
  // Cleaner queue: LRU sequence number -> frame. It holds every candidate at
  // its current sequence number, possibly beside pages that stopped being
  // one, and never a frame that left lru_. An ordered map, not a per-frame
  // flag or a heap: OnAccessCleared and ReclaimTenantRemote admit a page at
  // its old sequence number, and a tick's in-order walk must not visit what
  // ReclaimTenantRemote inserts below its cursor mid-tick.
  std::map<uint64_t, uint32_t> clean_queue_;

  std::vector<std::vector<PageSegment>> action_log_;
  std::vector<uint64_t> action_free_;

  // Scrub cursor: sorted granule snapshot + position, so the scan order is
  // deterministic regardless of hash-set iteration order.
  std::vector<uint64_t> scrub_granules_;
  size_t scrub_granule_idx_ = 0;
  uint32_t scrub_page_idx_ = 0;
  std::vector<int> scrub_nodes_;       // Scratch for replica enumeration.
  uint8_t scrub_buf_[kPageSize] = {};  // Arrival buffer for scrub reads.

  uint8_t tier_buf_[kPageSize] = {};        // Decompression buffer for tier drains.
  std::vector<uint64_t> tier_dirty_scratch_;  // Dirty-batch scratch.

  uint64_t wr_id_ = 0;
  uint64_t direct_reclaims_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_DILOS_PAGE_MANAGER_H_
