#include "src/recovery/granule_copy.h"

#include "src/recovery/ec_read.h"
#include "src/recovery/integrity.h"

namespace dilos {

GranuleCopier::GranuleCopier(Fabric& fabric, ShardRouter& router, FailureDetector& detector,
                             RuntimeStats& stats, Tracer* tracer)
    : fabric_(fabric), router_(router), detector_(detector), stats_(stats), tracer_(tracer) {
  for (int i = 0; i < fabric.num_nodes(); ++i) {
    qps_.push_back(fabric.CreateQp(i, QpClass::kRepair));
  }
}

Completion GranuleCopier::RoundTrip(int node, uint64_t va) {
  uint8_t ack[64];
  Completion c = qps_[static_cast<size_t>(node)]->PostRead(
      ++wr_id_, reinterpret_cast<uint64_t>(ack), va, sizeof(ack), cursor_ns_);
  cursor_ns_ = c.completion_time_ns;
  return c;
}

bool GranuleCopier::ReadPage(const GranuleFill& fill, uint32_t page_idx, uint32_t expected,
                             Flight* f, uint64_t* cursor_ns, bool* had_source) {
  uint64_t page_va = f->page_va;
  router_.ReplicaNodes(page_va, &replica_scratch_);
  for (int pass = 0; pass < 3; ++pass) {
    for (int n : replica_scratch_) {
      if (n == fill.target || !router_.Readable(n, fill.granule)) {
        continue;
      }
      const PageStore& nstore = fabric_.node(n).store();
      const StoredPage* rec = nstore.Find(page_va >> kPageShift);
      if (rec == nullptr) {
        continue;
      }
      int rank = !rec->has_checksum ? 2 : CopyIsCurrent(rec, expected) ? 0 : 1;
      if (rank != pass) {
        continue;
      }
      *had_source = true;
      for (int attempt = 0; attempt < 2; ++attempt) {
        Completion rc = qps_[static_cast<size_t>(n)]->PostRead(
            ++wr_id_, reinterpret_cast<uint64_t>(f->buf.data()), page_va, kPageSize,
            *cursor_ns);
        if (rc.status != WcStatus::kSuccess) {
          detector_.OnOpTimeout(n, rc.completion_time_ns);
          *cursor_ns = rc.completion_time_ns;
          break;  // Next holder.
        }
        // The pass already ranked the source's currency; the read judges
        // its content, and the source's generation travels with the bytes.
        if (JudgeCopy(nstore, n, page_va, f->buf.data(), /*expected_gen=*/0,
                      rc.completion_time_ns, stats_, tracer_) == CopyVerdict::kFresh) {
          f->ready_ns = rc.completion_time_ns;
          f->bytes = 2ULL * kPageSize;  // Source read + target write.
          f->gen = rec->generation;
          return true;
        }
        stats_.refetches++;
        *cursor_ns = rc.completion_time_ns;
      }
    }
  }
  if (!router_.ec_enabled() || router_.ec().m <= 0) {
    return false;
  }
  // EC: the member's single copy is gone — regenerate the page by decoding k
  // surviving stripe members. Pages no survivor materialized decode to zeros;
  // skip them so the target's store stays a capacity-honest image of what
  // was actually written.
  uint64_t stripe = router_.EcStripeOf(fill.granule);
  int member = router_.EcMemberOf(fill.granule);
  bool any = false;
  for (int j = 0; j < router_.ec().k + router_.ec().m && !any; ++j) {
    if (j == member || !router_.EcMemberReadable(stripe, j)) {
      continue;
    }
    uint64_t member_page = router_.EcMemberPageVa(stripe, j, page_idx) >> kPageShift;
    any = fabric_.node(router_.EcNode(stripe, j)).store().Materialized(member_page);
  }
  if (!any) {
    return false;
  }
  *had_source = true;
  if (!EcReconstructPage(router_, fabric_.cost(), /*core=*/0, CommChannel::kManager, stripe,
                         member, page_idx, f->buf.data(), cursor_ns, &wr_id_, stats_,
                         tracer_)) {
    return false;
  }
  f->ready_ns = *cursor_ns;
  f->bytes = static_cast<uint64_t>(router_.ec().k + 1) * kPageSize;
  f->gen = expected;  // A decode of fresh survivors yields the current content.
  return true;
}

GranuleCopier::Result GranuleCopier::Copy(GranuleFill& fill, uint64_t now_ns, uint64_t budget,
                                          size_t depth, bool skip_fresh, bool write_off_lost) {
  Result r;
  if (cursor_ns_ < now_ns) {
    cursor_ns_ = now_ns;
  }
  // The target itself died, or the fill was re-planned onto another target
  // after a second failure: the caller drops it.
  if (router_.state(fill.target) == NodeState::kDead ||
      router_.RebuildTarget(fill.granule) != fill.target) {
    r.stop = Stop::kTargetGone;
    return r;
  }
  uint64_t granule_base = fill.granule << kShardGranuleShift;
  PageStore& tstore = fabric_.node(fill.target).store();
  if (depth == 0) {
    depth = 1;
  }
  while (r.stop == Stop::kProgress && fill.next_page < kPagesPerGranule && r.bytes < budget) {
    flights_.clear();
    uint64_t issue = cursor_ns_;
    uint64_t window_done = cursor_ns_;
    uint64_t window_bytes = 0;
    while (fill.next_page < kPagesPerGranule && flights_.size() < depth &&
           r.bytes + window_bytes < budget) {
      uint32_t page_idx = fill.next_page++;
      uint64_t page_va = granule_base + static_cast<uint64_t>(page_idx) * kPageSize;
      uint32_t expected = router_.PageGeneration(page_va);
      // Already on the target at the current generation — by this copy, an
      // earlier copy attempt, or a racing write-back that fanned out to the
      // uncommitted target.
      const StoredPage* trec = skip_fresh ? tstore.Find(page_va >> kPageShift) : nullptr;
      if (trec != nullptr && trec->has_checksum && CopyIsCurrent(trec, expected)) {
        continue;
      }
      Flight f;
      f.page_va = page_va;
      f.buf.resize(kPageSize);
      bool had_source = false;
      uint64_t fcursor = issue;
      bool have = ReadPage(fill, page_idx, expected, &f, &fcursor, &had_source);
      if (fcursor > window_done) {
        window_done = fcursor;
      }
      if (!have) {
        if (!had_source) {
          continue;
        }
        if (fill.stalls < kMaxPageStalls) {
          ++fill.stalls;
          fill.next_page = page_idx;
          r.stop = Stop::kStalled;
          break;
        }
        if (!write_off_lost) {
          cursor_ns_ = window_done;
          r.stop = Stop::kSourceLost;
          return r;
        }
        ++r.lost;  // Stall budget spent: the bytes are gone.
        continue;
      }
      ++r.read;
      window_bytes += f.bytes;
      flights_.push_back(std::move(f));
    }
    for (Flight& f : flights_) {
      Completion wc = WritePageChecked(qps_[static_cast<size_t>(fill.target)], tstore, f.page_va,
                                       f.buf.data(), f.ready_ns, &wr_id_, stats_, tracer_,
                                       f.gen);
      if (wc.completion_time_ns > window_done) {
        window_done = wc.completion_time_ns;
      }
      if (wc.status != WcStatus::kSuccess) {
        detector_.OnOpTimeout(fill.target, wc.completion_time_ns);
        cursor_ns_ = window_done;
        // Rewind to the failed write: `next_page` already advanced over this
        // whole window, and copying on would commit with every unwritten
        // page of the window missing once the target blip clears. A
        // genuinely dead target stops the next call with kTargetGone.
        fill.next_page = static_cast<uint32_t>((f.page_va - granule_base) >> kPageShift);
        r.stop = Stop::kWriteFailed;
        return r;
      }
      fill.stalls = 0;  // Progress refills the stall budget.
      ++r.written;
      r.bytes += f.bytes;
    }
    cursor_ns_ = window_done;
  }
  return r;
}

}  // namespace dilos
