// Bounded ring buffer: keeps the newest `capacity` items and counts every
// push. The tracer's event and span rings and the flight recorder's event
// ring are each one of these, so "bounded however long a run goes" is
// implemented once.
#ifndef DILOS_SRC_SIM_RING_H_
#define DILOS_SRC_SIM_RING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dilos {

template <typename T>
class Ring {
 public:
  // Capacity 0 is "off": Push stores and counts nothing.
  explicit Ring(size_t capacity = 0) : items_(capacity) {}

  size_t capacity() const { return items_.size(); }

  // Stores `item` in place of the oldest once the ring is full.
  void Push(const T& item) {
    if (items_.empty()) {
      return;
    }
    items_[pushed_ % items_.size()] = item;
    ++pushed_;
  }

  // Surviving items in push order, oldest first.
  std::vector<T> Snapshot() const {
    uint64_t kept = pushed_ < items_.size() ? pushed_ : items_.size();
    std::vector<T> out;
    out.reserve(kept);
    for (uint64_t i = pushed_ - kept; i < pushed_; ++i) {
      out.push_back(items_[i % items_.size()]);
    }
    return out;
  }

  // Every item ever pushed, including those since overwritten.
  uint64_t pushed() const { return pushed_; }

 private:
  std::vector<T> items_;  // Sized to the capacity up front; slot = push # % capacity.
  uint64_t pushed_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_SIM_RING_H_
