// Granule copy engine shared by repair and migration.
//
// Both managers restore or move redundancy the same way: copy one granule's
// materialized pages from its readable holders onto a target node that sits
// in the replica set as an uncommitted rebuild target. GranuleCopier owns that
// copy stream — one dedicated repair-class QP per node, the in-flight window,
// and the issue-time cursor serializing the stream — and each manager keeps
// one instance beside its own job lifecycle (repair's retire/commit;
// migration's catch-up, commit handshake and forwarding window).
//
// Copy() fills a window of up to `depth` source reads, all issued at the same
// cursor so their fabric latencies overlap, and drains it with checked target
// writes, each issued as its source read completes (depth 1 degenerates to
// the serial read-then-write loop). Per page:
//   1. Trust-ranked replica read: pass 0 takes checksummed,
//      generation-fresh holders, pass 1 checksummed but generation-lagged
//      ones (they missed a write-back round), pass 2 unverifiable ones. The
//      copy that lands on the target gets fresh metadata, so preferring a
//      fresh source keeps a laggard's stale bytes from being laundered into
//      verified-current state, while a stale copy still beats losing the
//      page when it is the last one standing (its lagging generation travels
//      with it). One re-read covers a wire flip; a second mismatch moves on
//      to the next holder.
//   2. EC decode: regenerate the page from k surviving stripe members.
//   3. Stall: a holder exists but yielded no verified bytes (a source
//      timeout or repeated wire flips, both transient). Committing now would
//      leave the page missing on the target, so the fill rewinds to it and
//      retries on a later tick, up to kMaxPageStalls times per fill.
// A page no holder materialized was never cleaned anywhere remote (its
// content is local or all-zero): there is nothing to copy.
#ifndef DILOS_SRC_RECOVERY_GRANULE_COPY_H_
#define DILOS_SRC_RECOVERY_GRANULE_COPY_H_

#include <cstdint>
#include <vector>

#include "src/dilos/shard.h"
#include "src/memnode/fabric.h"
#include "src/recovery/failure_detector.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace dilos {

// Spacing between repair and migration ticks (simulated ns).
inline constexpr uint64_t kCopyTickIntervalNs = 20'000;
// Stalls a fill may spend on pages whose holders yielded no verified bytes
// before a page counts as lost. Each stall retries on a later tick — a
// transient fault clears by then — so only persistent rot on every readable
// holder exhausts it. Any successful target write refills the budget.
inline constexpr uint32_t kMaxPageStalls = 16;

// Where one granule's fill stands; each manager's job embeds it.
struct GranuleFill {
  uint64_t granule = 0;
  int target = -1;
  uint32_t next_page = 0;  // Index within the granule.
  uint32_t stalls = 0;     // Stalls burned (kMaxPageStalls).
};

class GranuleCopier {
 public:
  enum class Stop : uint8_t {
    kProgress,     // The granule is done or the budget is spent.
    kStalled,      // Rewound to a page whose holders yielded nothing; retry later.
    kWriteFailed,  // A target write failed; rewound to that page.
    kSourceLost,   // A page's stall budget ran out (without write_off_lost).
    kTargetGone,   // The target died or the fill was re-planned; nothing copied.
  };

  struct Result {
    uint64_t bytes = 0;    // Payload moved (source reads + target write).
    uint32_t written = 0;  // Pages written to the target.
    uint32_t read = 0;     // Pages read (or decoded) for the target.
    uint32_t lost = 0;     // Pages written off (write_off_lost).
    Stop stop = Stop::kProgress;
  };

  // Creates one repair-class QP per fabric node, node by node.
  GranuleCopier(Fabric& fabric, ShardRouter& router, FailureDetector& detector,
                RuntimeStats& stats, Tracer* tracer);

  // Copies the next pages of `fill` until the granule ends, `budget` payload
  // bytes have moved, or the copy stops (see Stop). The cursor first catches
  // up to `now_ns`. `skip_fresh` skips pages the target already holds
  // checksummed at the current generation. When a page's stall budget runs
  // out, `write_off_lost` counts it lost and copies on; otherwise the copy
  // stops with kSourceLost and leaves the window unwritten.
  Result Copy(GranuleFill& fill, uint64_t now_ns, uint64_t budget, size_t depth,
              bool skip_fresh, bool write_off_lost);

  // One live round trip to `node` on the copy stream: a 64-byte read of `va`
  // posted at the cursor, which then advances to its completion.
  Completion RoundTrip(int node, uint64_t va);

  // Completion frontier of the serialized copy stream: issue time of the
  // next copy, i.e. when the work drained so far is done in simulated time.
  uint64_t cursor_ns() const { return cursor_ns_; }

 private:
  // One pipelined copy: a verified source page waiting for its target write.
  struct Flight {
    uint64_t page_va = 0;
    uint64_t ready_ns = 0;  // Source read (or EC decode) completion.
    uint64_t bytes = 0;     // Payload accounting for the budget.
    uint32_t gen = 0;       // Write generation travelling with the bytes.
    std::vector<uint8_t> buf;
  };

  // Reads one page for the target into `f`, replicas first (trust-ranked),
  // then the EC decode, advancing `*cursor_ns` past every post. Returns
  // whether verified bytes arrived; `*had_source` tells whether any holder
  // existed at all.
  bool ReadPage(const GranuleFill& fill, uint32_t page_idx, uint32_t expected, Flight* f,
                uint64_t* cursor_ns, bool* had_source);

  Fabric& fabric_;
  ShardRouter& router_;
  FailureDetector& detector_;
  RuntimeStats& stats_;
  Tracer* tracer_;

  std::vector<QueuePair*> qps_;  // One dedicated copy QP per node.
  std::vector<Flight> flights_;  // In-flight window scratch.
  std::vector<int> replica_scratch_;
  uint64_t wr_id_ = 0;
  uint64_t cursor_ns_ = 0;  // Issue-time cursor serializing the copy stream.
};

}  // namespace dilos

#endif  // DILOS_SRC_RECOVERY_GRANULE_COPY_H_
