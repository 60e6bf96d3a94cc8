// Backing page store of the memory node.
//
// The memory node registers one large region with its RNIC and then serves
// all one-sided READ/WRITE traffic without CPU involvement (Sec. 5 "Memory
// node"). Pages materialize lazily, zero-filled, mirroring a freshly
// registered (and zeroed) hugepage region.
//
// Each stored page is one record, a StoredPage: its 4 KB of bytes, inline,
// and the integrity metadata a real node would keep beside them in a
// metadata region of the same registration (src/recovery/integrity.h):
//  * a 64-bit checksum, installed with each full-page write-back. A page
//    written partially (vectored live segments) carries none, because the
//    store-side content between segments is indeterminate;
//  * a write generation. A checksum authenticates content, not currency: a
//    replica that missed write-backs behind a partition still verifies
//    against its old checksum. The cleaner therefore installs a rising
//    generation with every checked full-page write-back, and readers judge
//    a copy that lags the router's expected generation stale
//    (src/recovery/integrity.h::JudgeCopy). 0 means "never tagged".
// Metadata lives only on stored pages: no setter creates a record, so
// page_count() stays the stored capacity.
#ifndef DILOS_SRC_MEMNODE_PAGE_STORE_H_
#define DILOS_SRC_MEMNODE_PAGE_STORE_H_

#include <cstdint>
#include <unordered_map>

#include "src/rdma/memory_region.h"
#include "src/rdma/verbs.h"

namespace dilos {

struct StoredPage {
  uint8_t bytes[kPageSize] = {};
  uint64_t checksum = 0;  // Valid only while has_checksum.
  uint32_t generation = 0;
  bool has_checksum = false;
};

class PageStore : public AddressResolver {
 public:
  PageStore() = default;

  // A segment must lie within one 4 KB page: the store's registration is
  // page-granular, matching how the RNIC DMA-scatters into host pages.
  uint8_t* Resolve(uint64_t addr, uint32_t len, bool for_write) override {
    if (len == 0 || len > kPageSize) {
      return nullptr;
    }
    uint64_t page = addr >> kPageShift;
    uint32_t off = static_cast<uint32_t>(addr & (kPageSize - 1));
    if (off + len > kPageSize) {
      return nullptr;  // Crosses a page boundary.
    }
    if (StoredPage* rec = Find(page)) {
      return rec->bytes + off;
    }
    if (!for_write) {
      // Reads of never-written pages serve zeros without materializing, so
      // page_count() measures stored capacity (what redundancy benchmarks
      // compare), not read traffic like probes or EC survivor fan-outs.
      return const_cast<uint8_t*>(ZeroPage()) + off;
    }
    return pages_[page].bytes + off;
  }

  // The record of `page`, or null when the store never held it (or dropped
  // it).
  StoredPage* Find(uint64_t page) {
    auto it = pages_.find(page);
    return it == pages_.end() ? nullptr : &it->second;
  }
  const StoredPage* Find(uint64_t page) const {
    auto it = pages_.find(page);
    return it == pages_.end() ? nullptr : &it->second;
  }

  // Returns the backing bytes of `page`, materializing zeros on first use.
  uint8_t* PageData(uint64_t page) { return pages_[page].bytes; }

  // What a read of a never-written page returns.
  static const uint8_t* ZeroPage() {
    static const uint8_t kZeroPage[kPageSize] = {};
    return kZeroPage;
  }

  bool Materialized(uint64_t page) const { return Find(page) != nullptr; }
  size_t page_count() const { return pages_.size(); }
  // Stored page numbers, for capacity accounting in the redundancy benches
  // (splitting data pages from parity pages by address).
  const std::unordered_map<uint64_t, StoredPage>& pages() const { return pages_; }

  // Forgets the page: bytes, checksum and generation together.
  void Drop(uint64_t page) { pages_.erase(page); }

  // -- Per-field metadata accessors; absent pages read 0 / false ------------
  // Reverts the page to unverified (after a vectored write-back), keeping its
  // bytes and generation.
  void DropChecksum(uint64_t page) {
    if (StoredPage* rec = Find(page)) {
      rec->has_checksum = false;
    }
  }
  bool HasChecksum(uint64_t page) const {
    const StoredPage* rec = Find(page);
    return rec != nullptr && rec->has_checksum;
  }
  uint64_t Checksum(uint64_t page) const {
    const StoredPage* rec = Find(page);
    return rec != nullptr && rec->has_checksum ? rec->checksum : 0;
  }
  void SetGeneration(uint64_t page, uint32_t gen) {
    if (StoredPage* rec = Find(page)) {
      rec->generation = gen;
    }
  }
  uint32_t Generation(uint64_t page) const {
    const StoredPage* rec = Find(page);
    return rec == nullptr ? 0 : rec->generation;
  }

 private:
  std::unordered_map<uint64_t, StoredPage> pages_;
};

}  // namespace dilos

#endif  // DILOS_SRC_MEMNODE_PAGE_STORE_H_
