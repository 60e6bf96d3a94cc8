// Compressed local cold tier between DRAM and remote memory (zswap/TMO
// style; see the Maruf & Chowdhury and Yelam disaggregation surveys).
//
// Pages the reclaimer's clock evicts are compressed into this in-DRAM pool
// instead of leaving the machine; a later fault on such a page decompresses
// it locally in well under a microsecond instead of paying the RDMA round
// trip. The tier is strictly a *cache* of the local/remote hierarchy:
//
//   * Admission: only full-content pages (guided/action evictions bypass —
//     their live-segment encoding already beats compression) whose
//     compressed size stays at or under kTierMaxRatio * kPageSize; pages that
//     don't compress bypass straight to the remote write-back path.
//   * Dirty entries carry a deferred write-back: the page manager's
//     background loop drains them through the same checked write-back
//     (checksums, EC parity RMW, generation tags) the cleaner uses, so
//     redundancy invariants are untouched by the tier.
//   * Eviction: when block_bytes() exceeds the capacity budget, the oldest
//     entry (insertion-order LRU — a fault *removes* its entry, so order is
//     recency of admission) is pushed remotely by the page manager. A dirty
//     entry must complete its write-back before it may be dropped — the
//     tier is never the only copy of durable content.
//
// CompressedTier owns storage and policy only; PTE transitions, write-backs,
// and fault-path decompression charging live in PageManager/DilosRuntime.
#ifndef DILOS_SRC_TIER_TIER_H_
#define DILOS_SRC_TIER_TIER_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/tier/comp_pool.h"

namespace dilos {

// Admission ratio: a page is tier-worthy only if its compressed size is
// <= kTierMaxRatio * kPageSize; anything denser bypasses to RDMA write-back
// (storing near-incompressible pages would burn DRAM for no capacity win).
inline constexpr double kTierMaxRatio = 0.7;
// Dirty tier entries drained (written back remotely) per background tick.
inline constexpr size_t kTierCleanBatch = 8;

struct TierConfig {
  bool enabled = false;
  // Budget for compressed blocks (class-rounded bytes); the page manager
  // trims back under it after each admission.
  uint64_t capacity_bytes = 32ULL << 20;
};

class CompressedTier {
 public:
  enum class Admit : uint8_t {
    kStored,          // Compressed and admitted.
    kIncompressible,  // Over the kTierMaxRatio budget; caller writes back remotely.
  };

  explicit CompressedTier(const TierConfig& cfg) : cfg_(cfg) {}

  // Compresses `page` (kPageSize bytes) and stores it keyed by `page_va`.
  // `dirty` marks a deferred write-back. On kStored, *csize receives the
  // compressed size. Admitting an already-present page replaces it.
  Admit AdmitPage(uint64_t page_va, const uint8_t* page, bool dirty, uint32_t* csize);

  bool Contains(uint64_t page_va) const { return entries_.count(page_va) != 0; }

  // Decompresses the entry into `out` (kPageSize bytes) and removes it —
  // the fault path's exclusive promotion back to DRAM. `*was_dirty` reports
  // the deferred-write-back flag. False if absent, or if the blob fails to
  // decompress (in-DRAM rot) — in that case the entry is dropped too, so a
  // corrupt blob neither leaks pool blocks nor fails every later call.
  bool Take(uint64_t page_va, uint8_t* out, bool* was_dirty);

  // Decompresses without removing (write-back drains read through this).
  // False on a corrupt blob; the entry is left for the caller to drop.
  bool Read(uint64_t page_va, uint8_t* out) const;

  // Read-only view of the stored compressed blob (debug/introspection);
  // null when absent. Valid until the entry is removed.
  const uint8_t* BlobData(uint64_t page_va, uint32_t* csize) const {
    auto it = entries_.find(page_va);
    if (it == entries_.end()) {
      return nullptr;
    }
    if (csize != nullptr) {
      *csize = it->second.csize;
    }
    return pool_.Data(it->second.h);
  }

  void MarkClean(uint64_t page_va);

  // Invalidates without content recovery (FreeRegion).
  void Drop(uint64_t page_va);

  // Oldest entry by admission order; false when empty.
  bool Oldest(uint64_t* page_va, bool* dirty) const;

  // Appends up to `max` dirty page VAs, oldest first (cleaner batch).
  void CollectDirty(size_t max, std::vector<uint64_t>* out) const;

  bool OverCapacity() const { return pool_.block_bytes() > cfg_.capacity_bytes; }

  // Moves an entry to the back of the eviction order (a failed write-back
  // defers its eviction rather than spinning on it).
  void Requeue(uint64_t page_va);

  size_t stored_pages() const { return entries_.size(); }
  uint64_t payload_bytes() const { return pool_.payload_bytes(); }
  uint64_t block_bytes() const { return pool_.block_bytes(); }

 private:
  struct Entry {
    CompHandle h;
    uint32_t csize = 0;
    bool dirty = false;
    std::list<uint64_t>::iterator lru_it;
  };

  TierConfig cfg_;
  CompPool pool_;
  std::list<uint64_t> lru_;  // Front = oldest admission.
  std::unordered_map<uint64_t, Entry> entries_;
  std::vector<uint8_t> scratch_;  // Compression output buffer.
};

}  // namespace dilos

#endif  // DILOS_SRC_TIER_TIER_H_
