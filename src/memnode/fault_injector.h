// Deterministic fault injection for the fabric ("chaos fabric").
//
// Real disaggregated fabrics fail partially: transient completion errors,
// latency spikes from overloaded memory nodes, corrupted payloads, and
// asymmetric partitions — not just the binary crash that Fabric::CrashNode
// models. A FaultPlan is a list of FaultSpecs, each scoping one fault kind
// to a node (or all nodes) and a simulated-time window; the injector draws
// every probabilistic decision from one seeded xorshift64* stream, so a
// given (plan, seed, workload) triple replays the exact same fault
// schedule. CrashNode itself is expressible as an open-ended kCrash entry.
//
// The injector sits on the only choke point every op crosses —
// QueuePair::PostSend — and decides per op: drop it (complete kTimeout),
// stretch its completion latency (gray failure), or flip one payload bit in
// flight. kStorageRot is the exception: it corrupts a bit of a page already
// *stored* on the node (latent corruption the scrubber exists to find),
// rather than a payload in flight.
#ifndef DILOS_SRC_MEMNODE_FAULT_INJECTOR_H_
#define DILOS_SRC_MEMNODE_FAULT_INJECTOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/memnode/memory_node.h"
#include "src/sim/rng.h"

namespace dilos {

enum class FaultKind : uint8_t {
  kCrash,        // Every op to the node times out during the window.
  kTransient,    // Each op independently times out with `probability`.
  kDelay,        // Completion latency is multiplied by `factor` (gray failure).
  kBitFlip,      // With `probability`, one payload bit flips in flight.
  kPartitionIn,  // One-way partition: payload *toward* the node (writes) drops.
  kPartitionOut, // One-way partition: payload *from* the node (reads) drops.
  kStorageRot,   // With `probability` per op, one stored checksummed page rots.
};

struct FaultSpec {
  int node = -1;  // Target node, or -1 for every node.
  FaultKind kind = FaultKind::kTransient;
  double probability = 1.0;      // Per-op chance (kTransient/kBitFlip/kStorageRot).
  double factor = 1.0;           // Latency multiplier (kDelay).
  uint64_t start_ns = 0;         // Window start, inclusive.
  uint64_t end_ns = UINT64_MAX;  // Window end, exclusive.
};

struct FaultPlan {
  // 0 keeps the injector's current seed (so DilosConfig::fault_seed, applied
  // at runtime construction, stays authoritative over per-plan seeds).
  uint64_t seed = 0;
  std::vector<FaultSpec> specs;
};

// The per-op verdict applied by QueuePair::PostSend.
struct OpFault {
  bool drop = false;
  bool corrupt = false;
  uint64_t corrupt_offset = 0;  // Payload byte index of the flipped bit.
  uint8_t corrupt_mask = 1;
  double delay_factor = 1.0;
};

class FaultInjector {
 public:
  void Arm(const FaultPlan& plan) {
    specs_ = plan.specs;
    if (plan.seed != 0) {
      Reseed(plan.seed);
    }
  }
  void Reseed(uint64_t seed) {
    seed_ = seed;
    rng_ = Rng(seed);
  }
  bool armed() const { return !specs_.empty(); }
  uint64_t seed() const { return seed_; }

  // Fabric registers its nodes so kStorageRot can reach their stores.
  void RegisterNode(MemoryNode* node) { nodes_.push_back(node); }

  // Per-op decision, consulted by PostSend in op order (single-threaded
  // simulation), which is what makes the schedule deterministic per seed.
  //
  // Window checks use a monotonic horizon, not the raw caller timestamp: the
  // simulator runs several time cursors (per-core clocks, the demand-fetch
  // cursor, the repair stream), and during a timeout storm the demand cursor
  // races milliseconds ahead of the core clock that drives background work.
  // An op posted on a lagging cursor must not slip *behind* a fault window
  // the simulation has already entered — a probe posted "in the past" would
  // reach a node that is currently crashed. Fault time only moves forward.
  OpFault Decide(int node, bool is_write, uint64_t now_ns, uint64_t bytes) {
    OpFault f;
    if (now_ns > horizon_ns_) {
      horizon_ns_ = now_ns;
    } else {
      now_ns = horizon_ns_;
    }
    if (specs_.empty()) {
      return f;
    }
    for (const FaultSpec& s : specs_) {
      if (s.node != -1 && s.node != node) {
        continue;
      }
      if (now_ns < s.start_ns || now_ns >= s.end_ns) {
        continue;
      }
      switch (s.kind) {
        case FaultKind::kCrash:
          f.drop = true;
          ++injected_timeouts_;
          break;
        case FaultKind::kTransient:
          if (rng_.NextDouble() < s.probability) {
            f.drop = true;
            ++injected_timeouts_;
          }
          break;
        case FaultKind::kPartitionIn:
          if (is_write) {
            f.drop = true;
            ++injected_partition_drops_;
          }
          break;
        case FaultKind::kPartitionOut:
          if (!is_write) {
            f.drop = true;
            ++injected_partition_drops_;
          }
          break;
        case FaultKind::kDelay:
          if (s.factor > f.delay_factor) {
            f.delay_factor = s.factor;
            ++injected_delays_;
          }
          break;
        case FaultKind::kBitFlip:
          if (bytes > 0 && rng_.NextDouble() < s.probability) {
            f.corrupt = true;
            f.corrupt_offset = rng_.NextBelow(bytes);
            f.corrupt_mask = static_cast<uint8_t>(1u << rng_.NextBelow(8));
            ++injected_bit_flips_;
          }
          break;
        case FaultKind::kStorageRot:
          if (rng_.NextDouble() < s.probability) {
            RotStoredPage(s.node == -1 ? node : s.node);
          }
          break;
      }
    }
    if (f.drop) {
      // A dropped op moves no payload: nothing to corrupt or delay.
      f.corrupt = false;
      f.delay_factor = 1.0;
    }
    return f;
  }

  // Total injected faults plus the per-kind breakdown (for the soak tests'
  // determinism assertions and for printing alongside the seed on failure).
  uint64_t injected_faults() const {
    return injected_timeouts_ + injected_delays_ + injected_bit_flips_ +
           injected_partition_drops_ + injected_rots_;
  }
  uint64_t injected_timeouts() const { return injected_timeouts_; }
  uint64_t injected_delays() const { return injected_delays_; }
  uint64_t injected_bit_flips() const { return injected_bit_flips_; }
  uint64_t injected_partition_drops() const { return injected_partition_drops_; }
  uint64_t injected_rots() const { return injected_rots_; }

 private:
  // Flips one bit of one checksummed page on `node` — the checksum stays
  // stale, modeling DRAM rot under the node's CRC metadata. Only checksummed
  // pages are eligible: a page without a checksum has indeterminate content
  // by contract (vectored write-backs) and rotting it would be undetectable
  // by design, not by bug. The victim is the NextBelow(count)-th checksummed
  // page in ascending page order, so it depends on the seed and the stored
  // pages, never on hash-table layout.
  void RotStoredPage(int node) {
    if (node < 0 || node >= static_cast<int>(nodes_.size())) {
      return;
    }
    PageStore& store = nodes_[static_cast<size_t>(node)]->store();
    rot_scratch_.clear();
    for (const auto& [page, rec] : store.pages()) {
      if (rec.has_checksum) {
        rot_scratch_.push_back(page);
      }
    }
    if (rot_scratch_.empty()) {
      return;
    }
    auto victim = rot_scratch_.begin() + static_cast<long>(rng_.NextBelow(rot_scratch_.size()));
    std::nth_element(rot_scratch_.begin(), victim, rot_scratch_.end());
    store.Find(*victim)->bytes[rng_.NextBelow(kPageSize)] ^=
        static_cast<uint8_t>(1u << rng_.NextBelow(8));
    ++injected_rots_;
  }

  std::vector<FaultSpec> specs_;
  std::vector<MemoryNode*> nodes_;
  std::vector<uint64_t> rot_scratch_;  // RotStoredPage's checksummed pages.
  uint64_t horizon_ns_ = 0;  // Latest op time seen; window checks never rewind.
  uint64_t seed_ = 0xD15C0DE;
  Rng rng_{0xD15C0DE};
  uint64_t injected_timeouts_ = 0;
  uint64_t injected_delays_ = 0;
  uint64_t injected_bit_flips_ = 0;
  uint64_t injected_partition_drops_ = 0;
  uint64_t injected_rots_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_MEMNODE_FAULT_INJECTOR_H_
