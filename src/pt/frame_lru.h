// LRU order over local frames (paper Sec. 4.4's LRU list).
//
// Linux keeps a frame's LRU links in that frame's `struct page`; FrameLru
// does the same with one array indexed by frame id, sized once for the
// frame pool. Each entry holds the frame's prev/next links and the VA of
// the page it holds. Pushing and erasing never allocate and never hash: the
// caller names the frame, which the page's kLocal PTE (or, for Fastswap's
// swap-cache list, the cache entry) already stores.
//
// Invariant kept by every user: a frame is queued exactly while it holds a
// kLocal page, or, on Fastswap's cache list, a swap-cache fill. A frame is
// therefore erased before its page leaves that state and before the frame
// returns to the pool, and no queued page needs a tag check.
#ifndef DILOS_SRC_PT_FRAME_LRU_H_
#define DILOS_SRC_PT_FRAME_LRU_H_

#include <cstdint>
#include <vector>

namespace dilos {

class FrameLru {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;  // End of the order.

  explicit FrameLru(size_t frames) : links_(frames) {}

  // Appends `frame`, which holds page `va` and is not queued, at the tail
  // (most recently used).
  void PushBack(uint32_t frame, uint64_t va) {
    links_[frame] = {tail_, kNone, va};
    (tail_ == kNone ? head_ : links_[tail_].next) = frame;
    tail_ = frame;
    ++size_;
  }
  // Unlinks queued `frame`.
  void Erase(uint32_t frame) {
    const Link& l = links_[frame];
    (l.prev == kNone ? head_ : links_[l.prev].next) = l.next;
    (l.next == kNone ? tail_ : links_[l.next].prev) = l.prev;
    --size_;
  }

  // The oldest queued frame, or kNone when the queue is empty.
  uint32_t front() const { return head_; }
  // The frame queued after `frame`, or kNone at the tail.
  uint32_t next(uint32_t frame) const { return links_[frame].next; }
  // The page queued `frame` holds.
  uint64_t va(uint32_t frame) const { return links_[frame].va; }
  size_t size() const { return size_; }

 private:
  struct Link {
    uint32_t prev;
    uint32_t next;
    uint64_t va;
  };
  std::vector<Link> links_;
  uint32_t head_ = kNone;
  uint32_t tail_ = kNone;
  size_t size_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_PT_FRAME_LRU_H_
