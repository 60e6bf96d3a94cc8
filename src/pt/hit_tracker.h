// PTE hit tracker (paper Sec. 4.3).
//
// DiLOS maps prefetched pages directly into the page table, so the swap
// cache's minor-fault statistics are gone. The hit tracker recovers the
// prefetch hit ratio by scanning the accessed bits of recently prefetched
// PTEs — work that runs inside the fault handler's RDMA wait window.
#ifndef DILOS_SRC_PT_HIT_TRACKER_H_
#define DILOS_SRC_PT_HIT_TRACKER_H_

#include <cstdint>
#include <deque>

#include "src/pt/page_table.h"

namespace dilos {

class HitTracker {
 public:
  // Most recent prefetched pages tracked; the runtime uses the default.
  static constexpr size_t kDefaultWindow = 256;

  explicit HitTracker(size_t window = kDefaultWindow) : window_(window) {}

  // Registers a page that a prefetcher just requested.
  void Observe(uint64_t vaddr) {
    tracked_.push_back(vaddr);
    if (tracked_.size() > window_) {
      tracked_.pop_front();
    }
  }

  // Scans accessed bits of tracked PTEs, folds the result into the moving
  // hit ratio, and clears both the accessed bits and the window. Each page
  // whose bit it clears is passed to `on_clear(va, pte)` with its new PTE.
  template <typename OnClear>
  void Scan(PageTable& pt, OnClear on_clear) {
    if (tracked_.empty()) {
      return;
    }
    size_t hits = 0;
    for (uint64_t va : tracked_) {
      Pte* e = pt.Entry(va, /*create=*/false);
      if (e != nullptr && (*e & kPtePresent) && (*e & kPteAccessed)) {
        ++hits;
        *e &= ~kPteAccessed;
        on_clear(va, *e);
      }
    }
    double sample = static_cast<double>(hits) / static_cast<double>(tracked_.size());
    hit_ratio_ = hit_ratio_ * (1.0 - kAlpha) + sample * kAlpha;
    ++scans_;
    tracked_.clear();
  }
  void Scan(PageTable& pt) {
    Scan(pt, [](uint64_t, Pte) {});
  }

  double hit_ratio() const { return hit_ratio_; }
  uint64_t scans() const { return scans_; }
  size_t tracked_count() const { return tracked_.size(); }

 private:
  static constexpr double kAlpha = 0.3;

  size_t window_;
  std::deque<uint64_t> tracked_;
  double hit_ratio_ = 1.0;
  uint64_t scans_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_PT_HIT_TRACKER_H_
