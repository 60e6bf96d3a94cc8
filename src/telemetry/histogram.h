// Constant-memory log-bucketed latency histogram (HdrHistogram-style).
//
// Storing every sample gives exact percentiles, but a million-op bench run
// then carries 8 MB of samples and a per-(node, QP-class) RTT distribution
// at that cost is a non-starter. LogHistogram instead keys
// each value into one of 64 linear sub-buckets per power-of-two octave:
// relative bucket width is <= 1/64 (~1.6%), so nearest-rank percentiles land
// within ~0.8% of the exact answer (the acceptance bound is 3%), at
// O(#buckets) memory regardless of sample count. Buckets are plain counters,
// so histograms merge by addition — per-core or per-node distributions can
// be combined after the fact, which a sorted sample vector cannot do
// without re-sorting the union.
#ifndef DILOS_SRC_TELEMETRY_HISTOGRAM_H_
#define DILOS_SRC_TELEMETRY_HISTOGRAM_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace dilos {

class LogHistogram {
 public:
  // 64 sub-buckets per octave: values below kSub are recorded exactly.
  static constexpr uint32_t kSubBits = 6;
  static constexpr uint32_t kSub = 1u << kSubBits;

  void Record(uint64_t v) {
    size_t i = BucketIndex(v);
    if (i >= counts_.size()) {
      counts_.resize(i + 1, 0);
    }
    ++counts_[i];
    ++count_;
    sum_ += v;
    if (v > max_) {
      max_ = v;
    }
    if (count_ == 1 || v < min_) {
      min_ = v;
    }
  }

  // Bucket-wise addition; the merged histogram answers percentiles over the
  // union of both sample streams.
  void Merge(const LogHistogram& o) {
    if (o.counts_.size() > counts_.size()) {
      counts_.resize(o.counts_.size(), 0);
    }
    for (size_t i = 0; i < o.counts_.size(); ++i) {
      counts_[i] += o.counts_[i];
    }
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.max_ > max_) {
      max_ = o.max_;
    }
    if (o.count_ != 0 && (count_ == o.count_ || o.min_ < min_)) {
      min_ = o.min_;
    }
  }

  // Nearest-rank p-th percentile (p in [0,100]): the sample at rank
  // round(p/100 * (count-1)) in sorted order; returns the matching bucket's
  // representative (midpoint) value. 0 when empty.
  uint64_t Percentile(double p) const {
    if (count_ == 0) {
      return 0;
    }
    double frac = p / 100.0;
    if (frac < 0.0) {
      frac = 0.0;
    }
    if (frac > 1.0) {
      frac = 1.0;
    }
    auto rank = static_cast<uint64_t>(frac * static_cast<double>(count_ - 1) + 0.5);
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) {
        return BucketValue(i);
      }
    }
    return max_;
  }

  double MeanNs() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  uint64_t MaxNs() const { return max_; }
  uint64_t MinNs() const { return count_ == 0 ? 0 : min_; }
  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  uint64_t sum() const { return sum_; }

  // Allocated bucket slots — the histogram's entire variable memory.
  size_t bucket_count() const { return counts_.size(); }

  void Reset() {
    counts_.clear();
    count_ = 0;
    sum_ = 0;
    max_ = 0;
    min_ = 0;
  }

  // Bucket layout: index v for v < kSub (exact); otherwise the value's top
  // kSubBits+1 bits select a linear sub-bucket within its octave —
  // idx = e * kSub + (v >> e) with e = msb(v) - kSubBits. Octave e spans
  // indices [(e+1)*kSub, (e+2)*kSub).
  static size_t BucketIndex(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    auto msb = static_cast<uint32_t>(std::bit_width(v) - 1);
    uint32_t e = msb - kSubBits;
    return static_cast<size_t>(e) * kSub + static_cast<size_t>(v >> e);
  }

  // Midpoint of the bucket's value range: exact below kSub, otherwise
  // lower + width/2 where width = 2^e.
  static uint64_t BucketValue(size_t i) {
    if (i < kSub) {
      return static_cast<uint64_t>(i);
    }
    auto e = static_cast<uint32_t>(i / kSub - 1);
    uint64_t mant = static_cast<uint64_t>(i) - static_cast<uint64_t>(e) * kSub;  // [kSub, 2*kSub)
    return (mant << e) + (static_cast<uint64_t>(1) << e) / 2;
  }

 private:
  std::vector<uint64_t> counts_;  // Grown to the highest recorded bucket only.
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
  uint64_t min_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_TELEMETRY_HISTOGRAM_H_
