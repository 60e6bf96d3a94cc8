// The shared 100 GbE link between the compute node and the memory node.
//
// Ops from every queue pair serialize on the wire: each op occupies the link
// for WireNs(), a per-op overhead plus per-byte time (CostModel). Occupy
// returns the op's wire slot and keeps nothing per op. The link also meters
// bandwidth into time buckets for the Fig. 12 bandwidth plots.
#ifndef DILOS_SRC_RDMA_LINK_H_
#define DILOS_SRC_RDMA_LINK_H_

#include <cstdint>
#include <vector>

#include "src/sim/cost_model.h"

namespace dilos {

// Per-direction bandwidth meter: bytes transferred per fixed time bucket.
class BandwidthMeter {
 public:
  explicit BandwidthMeter(uint64_t bucket_ns = 100'000'000) : bucket_ns_(bucket_ns) {}

  void Add(uint64_t time_ns, uint64_t bytes) {
    size_t idx = time_ns / bucket_ns_;
    if (idx >= buckets_.size()) {
      buckets_.resize(idx + 1, 0);
    }
    buckets_[idx] += bytes;
    total_ += bytes;
  }

  uint64_t total_bytes() const { return total_; }
  uint64_t bucket_ns() const { return bucket_ns_; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  // Mean bandwidth in bytes/s over the metered interval (0 if empty).
  double MeanBytesPerSec() const {
    if (buckets_.empty()) {
      return 0.0;
    }
    double secs = static_cast<double>(buckets_.size()) * static_cast<double>(bucket_ns_) / 1e9;
    return static_cast<double>(total_) / secs;
  }

  void Reset() {
    buckets_.clear();
    total_ = 0;
  }

 private:
  uint64_t bucket_ns_;
  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
};

// One op's turn on the wire: its serialization starts at `start_ns` (the
// issue time plus any queueing) and ends at `done_ns`.
struct WireSlot {
  uint64_t start_ns = 0;
  uint64_t done_ns = 0;
};

class Link {
 public:
  // Extra serialization per scatter/gather segment beyond the first.
  static constexpr uint32_t kSegmentNs = 40;

  explicit Link(const CostModel& cost) : cost_(cost) {}

  // Time an op of `bytes` payload across `nsegs` segments holds the wire.
  uint64_t WireNs(uint64_t bytes, uint32_t nsegs) const {
    return cost_.link_per_op_ns +
           static_cast<uint64_t>(cost_.link_per_byte_ns * static_cast<double>(bytes)) +
           static_cast<uint64_t>(nsegs > 1 ? (nsegs - 1) * kSegmentNs : 0);
  }

  // Serializes an op of `bytes` payload across `nsegs` segments issued at
  // `issue_ns`, FIFO behind earlier ops in its direction. The link is full
  // duplex: reads (memory node -> compute, RX) and writes (TX) occupy
  // independent directions, as on the paper's 100 GbE RoCE link.
  WireSlot Occupy(uint64_t issue_ns, uint64_t bytes, uint32_t nsegs, bool is_write) {
    uint64_t& busy = is_write ? tx_busy_until_ns_ : rx_busy_until_ns_;
    uint64_t start = issue_ns > busy ? issue_ns : busy;
    busy = start + WireNs(bytes, nsegs);
    (is_write ? tx_ : rx_).Add(start, bytes);
    return {start, busy};
  }

  uint64_t busy_until() const {
    return rx_busy_until_ns_ > tx_busy_until_ns_ ? rx_busy_until_ns_ : tx_busy_until_ns_;
  }
  const BandwidthMeter& rx() const { return rx_; }
  const BandwidthMeter& tx() const { return tx_; }
  BandwidthMeter& mutable_rx() { return rx_; }
  BandwidthMeter& mutable_tx() { return tx_; }
  const CostModel& cost() const { return cost_; }

  void Reset() {
    rx_busy_until_ns_ = 0;
    tx_busy_until_ns_ = 0;
    rx_.Reset();
    tx_.Reset();
  }

 private:
  CostModel cost_;
  uint64_t rx_busy_until_ns_ = 0;
  uint64_t tx_busy_until_ns_ = 0;
  BandwidthMeter rx_;
  BandwidthMeter tx_;
};

}  // namespace dilos

#endif  // DILOS_SRC_RDMA_LINK_H_
