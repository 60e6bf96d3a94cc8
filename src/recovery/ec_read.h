// Degraded-read reconstruction: decode one page of a lost stripe member from
// k surviving members.
//
// The k survivor reads are posted at the same simulated issue time on the
// per-node QPs of the caller's channel — distinct nodes, distinct QPs, so the
// fetch window is the *max* of the k read latencies, not the sum (this is the
// EC read penalty Carbink reports: one fan-out round trip plus decode, versus
// replication's single read). A survivor that times out mid-reconstruction is
// reported to the detector and replaced by the next readable member, with the
// replacement read issued after the timeout (the failure had to be observed
// before failing over).
//
// Shared by the runtime's demand path, the cleaner's parity read-modify-write
// (old content of an unreadable member), and the repair manager's
// rebuild-from-parity loop.
#ifndef DILOS_SRC_RECOVERY_EC_READ_H_
#define DILOS_SRC_RECOVERY_EC_READ_H_

#include <cstring>
#include <vector>

#include "src/dilos/shard.h"
#include "src/recovery/integrity.h"
#include "src/sim/cost_model.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace dilos {

// Reconstructs page `page_idx` of stripe member `lost` into `out` (kPageSize
// bytes). Advances *cursor_ns to completion (max survivor read + decode) and
// *wr_id per posted op. Returns false — and bumps ec_decode_failures — when
// fewer than k members end up readable. Survivor payload bytes are added to
// stats.bytes_fetched by the caller (accounting differs per call site).
inline bool EcReconstructPage(ShardRouter& router, const CostModel& cost, int core,
                              CommChannel ch, uint64_t stripe, int lost, uint32_t page_idx,
                              uint8_t* out, uint64_t* cursor_ns, uint64_t* wr_id,
                              RuntimeStats& stats, Tracer* tracer) {
  const ECCodec& codec = router.ec_codec();
  int k = codec.k();
  std::vector<int> avail;
  router.EcReadableMembers(stripe, lost, &avail);
  if (static_cast<int>(avail.size()) < k) {
    stats.ec_decode_failures++;
    return false;
  }
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<int> members;
  uint64_t issue = *cursor_ns;
  uint64_t done = issue;
  size_t next = 0;
  while (static_cast<int>(members.size()) < k && next < avail.size()) {
    int j = avail[next++];
    int node = router.EcNode(stripe, j);
    uint64_t member_va = router.EcMemberPageVa(stripe, j, page_idx);
    bufs.emplace_back(kPageSize);
    bool good = false;
    for (int attempt = 0; attempt < 2 && !good; ++attempt) {
      Completion c = router.NodeQp(core, ch, node)
                         ->PostRead(++*wr_id, reinterpret_cast<uint64_t>(bufs.back().data()),
                                    member_va, kPageSize, issue);
      if (c.status != WcStatus::kSuccess) {
        router.ReportOpFailure(node, c.completion_time_ns);
        issue = c.completion_time_ns;  // Failover read starts after the timeout.
        break;
      }
      CopyVerdict v = JudgeCopy(router.fabric().node(node).store(), node, member_va,
                                bufs.back().data(), router.PageGeneration(member_va),
                                c.completion_time_ns, stats, tracer);
      if (v == CopyVerdict::kFresh) {
        good = true;
        if (c.completion_time_ns > done) {
          done = c.completion_time_ns;
        }
        break;
      }
      issue = c.completion_time_ns;
      if (v == CopyVerdict::kStale) {
        // Its write generation lags the cleaner's expected one, so decoding
        // it would mix old and new stripe content. Re-reading cannot freshen
        // a stored copy — skip straight to the next member (the scrubber
        // heals it later).
        break;
      }
      // A corrupt survivor decoded as-is would poison `out`. One re-read
      // covers a wire flip; a second mismatch means the stored copy itself
      // rotted, so the member is skipped (the scrubber repairs it later).
    }
    if (!good) {
      bufs.pop_back();
      continue;
    }
    members.push_back(j);
  }
  if (static_cast<int>(members.size()) < k) {
    stats.ec_decode_failures++;
    return false;
  }
  std::vector<const uint8_t*> blocks;
  blocks.reserve(bufs.size());
  for (const std::vector<uint8_t>& b : bufs) {
    blocks.push_back(b.data());
  }
  if (!codec.Reconstruct(lost, members.data(), blocks.data(), k, out, kPageSize)) {
    stats.ec_decode_failures++;
    return false;
  }
  done += cost.ec_decode_page_ns;
  stats.ec_reconstructed_pages++;
  if (tracer != nullptr) {
    tracer->Record(done, TraceEvent::kEcReconstruct,
                   router.EcMemberPageVa(stripe, lost, page_idx),
                   static_cast<uint32_t>(lost));
  }
  *cursor_ns = done;
  return true;
}

}  // namespace dilos

#endif  // DILOS_SRC_RECOVERY_EC_READ_H_
