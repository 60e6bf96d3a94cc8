// Backing page store of the memory node.
//
// The memory node registers one large region with its RNIC and then serves
// all one-sided READ/WRITE traffic without CPU involvement (Sec. 5 "Memory
// node"). Pages materialize lazily, zero-filled, mirroring a freshly
// registered (and zeroed) hugepage region.
#ifndef DILOS_SRC_MEMNODE_PAGE_STORE_H_
#define DILOS_SRC_MEMNODE_PAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/rdma/memory_region.h"
#include "src/rdma/verbs.h"

namespace dilos {

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
    auto it = pages_.find(page);
    if (it != pages_.end()) {
      return it->second.get() + off;
    }
    if (!for_write) {
      // Reads of never-written pages serve zeros without materializing, so
      // page_count() measures stored capacity (what redundancy benchmarks
      // compare), not read traffic like probes or EC survivor fan-outs.
      static const uint8_t kZeroPage[kPageSize] = {};
      return const_cast<uint8_t*>(kZeroPage) + off;
    }
    return Materialize(page) + off;
  }

  // Returns the backing bytes of `page`, materializing zeros on first use.
  uint8_t* PageData(uint64_t page) {
    auto it = pages_.find(page);
    return it == pages_.end() ? Materialize(page) : it->second.get();
  }

  bool Materialized(uint64_t page) const { return pages_.count(page) != 0; }
  size_t page_count() const { return pages_.size(); }
  // Stored page numbers, for capacity accounting in the redundancy benches
  // (splitting data pages from parity pages by address).
  const std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>>& pages() const {
    return pages_;
  }

  void Drop(uint64_t page) {
    pages_.erase(page);
    sums_.erase(page);
    gens_.erase(page);
  }

  // -- Per-page integrity metadata (src/recovery/integrity.h) ----------------
  // The cleaner installs a 64-bit checksum with each full-page write-back; a
  // page written partially (vectored live segments) carries none, because the
  // store-side content between segments is indeterminate. Checksums live next
  // to the pages the way a real memory node would keep per-block CRCs in a
  // metadata region of the same registration.
  void SetChecksum(uint64_t page, uint64_t sum) { sums_[page] = sum; }
  void DropChecksum(uint64_t page) { sums_.erase(page); }
  bool HasChecksum(uint64_t page) const { return sums_.count(page) != 0; }
  uint64_t Checksum(uint64_t page) const {
    auto it = sums_.find(page);
    return it == sums_.end() ? 0 : it->second;
  }
  const std::unordered_map<uint64_t, uint64_t>& checksums() const { return sums_; }

  // -- Write-generation tags (freshness metadata) -----------------------------
  // A checksum authenticates *content*, not *currency*: a replica that missed
  // write-backs behind a partition still verifies against its old checksum.
  // The cleaner therefore installs a monotonically increasing generation with
  // every checked full-page write-back; readers compare it against the
  // router's expected generation and treat a lagging copy as stale
  // (src/recovery/integrity.h::PageIsStale). 0 means "never tagged".
  void SetGeneration(uint64_t page, uint32_t gen) { gens_[page] = gen; }
  uint32_t Generation(uint64_t page) const {
    auto it = gens_.find(page);
    return it == gens_.end() ? 0 : it->second;
  }

 private:
  // Stores a zeroed page for `page`, which must not be stored yet.
  uint8_t* Materialize(uint64_t page) {
    auto mem = std::make_unique<uint8_t[]>(kPageSize);
    uint8_t* raw = mem.get();
    pages_.emplace(page, std::move(mem));
    return raw;
  }

  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;
  std::unordered_map<uint64_t, uint64_t> sums_;
  std::unordered_map<uint64_t, uint32_t> gens_;
};

}  // namespace dilos

#endif  // DILOS_SRC_MEMNODE_PAGE_STORE_H_
