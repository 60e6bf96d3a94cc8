// Host memory for page bytes: 2 MB-aligned anonymous mappings, advised
// MADV_HUGEPAGE, and a slot allocator over them.
//
// A stored page or a local frame backed by its own heap block (or by a
// zero-filled vector) costs the host one 4 KB page fault when first touched.
// A real memory node registers one large hugepage region with its RNIC
// (Sec. 5 "Memory node"); the simulator's stores draw their 4 KB slots from
// 2 MB slabs the same way, so with transparent huge pages in `madvise` or
// `always` mode a slab faults in once, not 512 times. In `never` mode the
// same code runs on 4 KB pages. Fresh mappings are zero, so nothing is
// zero-filled up front, and everything is unmapped with its owner: each
// Fabric (and each runtime's frame pool) pays for its own first touches.
#ifndef DILOS_SRC_MEMNODE_PAGE_ARENA_H_
#define DILOS_SRC_MEMNODE_PAGE_ARENA_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "src/rdma/verbs.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace dilos {

inline constexpr size_t kHugePageSize = 2ULL << 20;

// Slots carved from one mapping have no redzones, so under AddressSanitizer
// the arena poisons the slots nobody holds: a page overrun into such a slot,
// or a read of a dropped page, still trips ASan as it did on per-page heap
// blocks. An overrun into a slot another page holds goes unseen.
inline void PoisonBytes([[maybe_unused]] const void* p, [[maybe_unused]] size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}
inline void UnpoisonBytes([[maybe_unused]] const void* p, [[maybe_unused]] size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

// `bytes` (rounded up to whole 4 KB pages) of zeroed, 2 MB-aligned anonymous
// memory. Only whole 2 MB spans are advised MADV_HUGEPAGE, so a partial tail
// stays on 4 KB pages. Unmapped on destruction.
class HugeMapping {
 public:
  explicit HugeMapping(size_t bytes)
      : size_((bytes + kPageSize - 1) / kPageSize * kPageSize) {
    if (size_ == 0) {
      return;
    }
    // Over-map by one huge page, then trim to a 2 MB-aligned start.
    size_t span = size_ + kHugePageSize;
    void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) {
      throw std::bad_alloc();
    }
    auto lo = reinterpret_cast<uintptr_t>(raw);
    uintptr_t base = (lo + kHugePageSize - 1) & ~(kHugePageSize - 1);
    if (base > lo) {
      munmap(raw, base - lo);
    }
    if (lo + span > base + size_) {
      munmap(reinterpret_cast<void*>(base + size_), lo + span - (base + size_));
    }
    data_ = reinterpret_cast<uint8_t*>(base);
    if (size_t whole = size_ / kHugePageSize * kHugePageSize; whole != 0) {
      madvise(data_, whole, MADV_HUGEPAGE);  // Best effort: THP may be off.
    }
  }
  HugeMapping(HugeMapping&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)), size_(std::exchange(o.size_, 0)) {}
  HugeMapping& operator=(HugeMapping&&) = delete;
  ~HugeMapping() {
    if (data_ != nullptr) {
      UnpoisonBytes(data_, size_);  // The next mapping here must not inherit it.
      munmap(data_, size_);
    }
  }

  uint8_t* data() const { return data_; }

 private:
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// Hands out 4 KB page slots from 2 MB slabs. A fresh slot is zero by
// construction; a freed slot is zeroed when it is handed out again. Slots
// never move, and all of them are unmapped with the arena.
class PageArena {
 public:
  static constexpr size_t kSlotsPerSlab = kHugePageSize / kPageSize;

  PageArena() = default;
  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;

  // A zeroed 4 KB slot.
  uint8_t* Alloc() {
    if (!free_.empty()) {
      uint8_t* slot = free_.back();
      free_.pop_back();
      UnpoisonBytes(slot, kPageSize);
      std::memset(slot, 0, kPageSize);
      return slot;
    }
    if (slabs_.empty() || next_ == kSlotsPerSlab) {
      slabs_.emplace_back(kHugePageSize);
      PoisonBytes(slabs_.back().data(), kHugePageSize);
      next_ = 0;
    }
    uint8_t* slot = slabs_.back().data() + next_++ * kPageSize;
    UnpoisonBytes(slot, kPageSize);
    return slot;
  }

  // Returns a slot from Alloc for reuse.
  void Free(uint8_t* slot) {
    PoisonBytes(slot, kPageSize);
    free_.push_back(slot);
  }

  size_t slab_count() const { return slabs_.size(); }

 private:
  std::vector<HugeMapping> slabs_;
  size_t next_ = 0;             // Next unused slot of slabs_.back().
  std::vector<uint8_t*> free_;  // Freed slots, reused last-in first-out.
};

}  // namespace dilos

#endif  // DILOS_SRC_MEMNODE_PAGE_ARENA_H_
