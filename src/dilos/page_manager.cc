#include "src/dilos/page_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/recovery/ec_read.h"
#include "src/recovery/integrity.h"

namespace dilos {

PageManager::PageManager(FramePool& pool, PageTable& pt, ShardRouter& router,
                         RuntimeStats& stats, Tracer* tracer, PageManagerConfig cfg,
                         const CostModel* cost, size_t free_target)
    : pool_(pool), pt_(pt), router_(router), stats_(stats), tracer_(tracer), cfg_(cfg),
      cost_(cost), free_target_(free_target), lru_(pool.total()), frames_(pool.total()) {}

void PageManager::PushLru(uint32_t frame, uint64_t page_va, Pte pte) {
  uint64_t seq = ++lru_seq_;
  frames_[frame].seq = seq;
  lru_.PushBack(frame, page_va);
  if (pte & kPteDirty) {
    clean_queue_.emplace_hint(clean_queue_.end(), seq, frame);
  }
}

void PageManager::Unlink(uint32_t frame) {
  clean_queue_.erase(frames_[frame].seq);
  lru_.Erase(frame);
}

void PageManager::OnMapped(uint64_t page_va) {
  if (tenants_ != nullptr) {
    tenants_->OnResident(page_va, +1);
  }
  Pte pte = *pt_.Entry(page_va, /*create=*/false);
  PushLru(static_cast<uint32_t>(PtePayload(pte)), page_va, pte);
}

void PageManager::OnUnmapped(uint64_t page_va) {
  uint32_t frame = static_cast<uint32_t>(PtePayload(*pt_.Entry(page_va, /*create=*/false)));
  Unlink(frame);
  if (tenants_ != nullptr) {
    tenants_->OnResident(page_va, -1);
  }
  ReleaseAction(std::exchange(frames_[frame].action, kNoAction));
}

void PageManager::OnAccessCleared(Pte pte) {
  if ((pte & kPteDirty) != 0) {
    uint32_t frame = static_cast<uint32_t>(PtePayload(pte));
    clean_queue_.emplace(frames_[frame].seq, frame);
  }
}

uint64_t PageManager::AllocActionSlot(std::vector<PageSegment> segs) {
  uint64_t idx;
  if (!action_free_.empty()) {
    idx = action_free_.back();
    action_free_.pop_back();
    action_log_[idx] = std::move(segs);
  } else {
    idx = action_log_.size();
    action_log_.push_back(std::move(segs));
  }
  return idx;
}

const std::vector<PageSegment>* PageManager::ActionSegments(uint64_t log_idx) const {
  if (log_idx >= action_log_.size()) {
    return nullptr;
  }
  return &action_log_[log_idx];
}

void PageManager::ReleaseAction(uint64_t log_idx) {
  if (log_idx < action_log_.size()) {
    action_log_[log_idx].clear();
    action_free_.push_back(log_idx);
  }
}

bool PageManager::VectoredSegments(uint64_t page_va, std::vector<PageSegment>* segs) const {
  // A whole-page segment list degenerates to a plain transfer.
  return guide_ != nullptr && guide_->LiveSegments(page_va, segs) && !segs->empty() &&
         segs->size() <= cfg_.max_vector_segs &&
         !(segs->size() == 1 && (*segs)[0].offset == 0 && (*segs)[0].length == kPageSize);
}

void PageManager::Clean(uint64_t page_va, Pte* e, uint64_t now) {
  if ((*e & kPteDirty) == 0) {
    return;
  }
  uint32_t frame = static_cast<uint32_t>(PtePayload(*e));
  uint64_t frame_addr = pool_.Addr(frame);

  std::vector<PageSegment> segs;
  // EC write-backs are always whole pages: the parity delta must cover every
  // byte the data write changes, and vectored segment lists make the
  // old-xor-new bookkeeping cover only live bytes.
  bool vectored = !router_.ec_enabled() && VectoredSegments(page_va, &segs);

  if (vectored) {
    // Vectored write-backs store remote content like full ones and pass the
    // same quota admission; a reject keeps the dirty bit (the reclaimer
    // requeues the page, exactly as on a total-partition write-back).
    if (tenants_ != nullptr && !TenantAdmitWriteBack(page_va, now)) {
      return;
    }
    // Fan the vectored write-back out to every live replica of the page.
    router_.WriteQps(/*core=*/0, CommChannel::kManager, page_va, &write_qps_, &write_nodes_);
    int ok = 0;
    for (size_t i = 0; i < write_qps_.size(); ++i) {
      QueuePair* qp = write_qps_[i];
      WorkRequest wr;
      wr.wr_id = ++wr_id_;
      wr.opcode = RdmaOpcode::kWrite;
      wr.rkey = qp->remote_rkey();
      for (const PageSegment& s : segs) {
        wr.segs.push_back({frame_addr + s.offset, page_va + s.offset, s.length});
      }
      Completion c = qp->PostSend(wr, now);
      if (c.status != WcStatus::kSuccess) {
        router_.ReportOpFailure(write_nodes_[i], c.completion_time_ns);
        continue;  // The surviving replicas carry the page.
      }
      // A partial write leaves the store-side bytes between segments
      // indeterminate: any full-page checksum from an earlier clean is stale
      // now, so the copy reverts to unverified (DESIGN.md §9 documents this
      // guided-paging integrity gap).
      router_.fabric().node(write_nodes_[i]).store().DropChecksum(page_va >> kPageShift);
      stats_.vectored_ops++;
      stats_.bytes_written += TotalBytes(wr.segs);
      ++ok;
    }
    stats_.writebacks++;
    tracer_->Record(now, TraceEvent::kWriteback, page_va, 1);
    // Same contract as WriteBackFull(): only a write-back some replica
    // accepted may clear the dirty bit. With every segment write dropped
    // (total partition) the frame is still the only current copy, and an
    // action PTE recorded now would refetch segments that were never
    // written — a lost update dressed up as a clean page.
    if (ok == 0) {
      return;
    }
    // Remember the valid extents so eviction produces an action PTE.
    ReleaseAction(frames_[frame].action);
    frames_[frame].action = AllocActionSlot(std::move(segs));
  } else {
    // Only a write-back some replica accepted may clear the dirty bit: if
    // every node dropped it (all partitioned/down), the frame — or the tier
    // entry it is about to become — is still the only current copy, and
    // "clean" would license dropping it.
    if (!WriteBackFull(page_va, pool_.Data(frame), now)) {
      return;
    }
    ReleaseAction(std::exchange(frames_[frame].action, kNoAction));
  }
  *e &= ~kPteDirty;
}

bool PageManager::WriteBackFull(uint64_t page_va, const uint8_t* data, uint64_t now) {
  // Quota admission runs before any byte moves or the generation bumps: a
  // rejected write-back leaves no trace remotely and the caller keeps the
  // dirty bit, so the local copy stays the only (authoritative) one.
  if (tenants_ != nullptr && !TenantAdmitWriteBack(page_va, now)) {
    return false;
  }
  // EC: parity is maintained by read-modify-write against the page's current
  // remote content, so the old bytes must be in hand *before* the data write
  // lands. The old copy comes from the home member, or — when that copy is
  // unreadable (crashed node, uncommitted rebuild target) — from a decode of
  // the surviving stripe members; skipping that decode would write fresh data
  // under stale parity and corrupt every later reconstruction of the stripe.
  uint8_t old_page[kPageSize];
  bool ec_parity = router_.ec_enabled() && router_.ec().m > 0 && page_va < kEcParityBase;
  if (ec_parity && !EcOldContent(page_va, old_page, now)) {
    // More than m members already lost: the stripe is unrecoverable anyway;
    // fold against zeros so the write itself still lands.
    std::memset(old_page, 0, kPageSize);
  }

  // Bump-on-attempt generation: the expected generation rises once per
  // write-back round, *before* the fan-out. A replica the round never
  // reaches (partitioned: its write drops on a timeout, installing neither
  // checksum nor generation) is left verifiably behind — readers compare
  // the stored generation against the router's expected one and steer away
  // from the stale-but-checksum-valid copy.
  uint32_t gen = router_.PageGeneration(page_va) + 1;
  router_.SetPageGeneration(page_va, gen);

  // Fan the write-back out to every live replica of the page.
  router_.WriteQps(/*core=*/0, CommChannel::kManager, page_va, &write_qps_, &write_nodes_);
  int ok = 0;
  for (size_t i = 0; i < write_qps_.size(); ++i) {
    // Checked write: installs the page checksum and verifies the stored
    // bytes (the ICRC analog), so a write-path bit flip never becomes
    // durable silently on any replica.
    Completion c = WritePageChecked(write_qps_[i],
                                    router_.fabric().node(write_nodes_[i]).store(), page_va,
                                    data, now, &wr_id_, stats_, tracer_, gen);
    if (c.status != WcStatus::kSuccess) {
      router_.ReportOpFailure(write_nodes_[i], c.completion_time_ns);
      continue;
    }
    stats_.bytes_written += kPageSize;
    ++ok;
  }
  stats_.writebacks++;
  tracer_->Record(now, TraceEvent::kWriteback, page_va, 0);
  if (ec_parity) {
    EcUpdateParity(page_va, old_page, data, now);
  }
  return ok > 0;
}

bool PageManager::TenantAdmitWriteBack(uint64_t page_va, uint64_t now) {
  if (tenants_->TryCharge(page_va)) {
    return true;  // Already charged, untenanted, or within quota.
  }
  int tenant = tenants_->TenantOfAddr(page_va);
  // kReclaimOwnColdest: free one quota slot by dropping the tenant's own
  // coldest remote copy, then retry the charge. Skipped under EC — dropping
  // a data member's only copy would orphan the stripe's parity accounting.
  if (tenant >= 0 && tenants_->spec(tenant).policy == QuotaPolicy::kReclaimOwnColdest &&
      !router_.ec_enabled() && ReclaimTenantRemote(tenant, page_va, now) &&
      tenants_->TryCharge(page_va)) {
    return true;
  }
  stats_.tenant_quota_rejects++;
  tenants_->NoteReject(tenant);
  tracer_->Record(now, TraceEvent::kTenantQuotaReject, page_va,
                  tenant < 0 ? 0 : static_cast<uint32_t>(tenant));
  return false;
}

bool PageManager::ReclaimTenantRemote(int tenant, uint64_t skip_va, uint64_t now) {
  // Coldest-first over the LRU: the first charged page of this tenant whose
  // local frame is a current full copy (kLocal, clean, not action-logged) can
  // lose its remote copies losslessly — re-marking the PTE dirty makes the
  // frame authoritative again, and a later write-back re-admits it.
  for (uint32_t f = lru_.front(); f != FrameLru::kNone; f = lru_.next(f)) {
    uint64_t va = lru_.va(f);
    if (va == skip_va || tenants_->ChargeOwner(va) != tenant ||
        frames_[f].action != kNoAction) {
      continue;
    }
    Pte* e = pt_.Entry(va, /*create=*/false);
    if ((*e & kPteDirty) != 0) {
      continue;
    }
    router_.ReplicaNodes(va, &reclaim_nodes_);
    for (int node : reclaim_nodes_) {
      router_.fabric().node(node).store().Drop(va >> kPageShift);
    }
    *e |= kPteDirty;
    clean_queue_.emplace(frames_[f].seq, f);  // Dirty again: the cleaner may take it.
    tenants_->Uncharge(va);
    tenants_->NoteReclaim(tenant);
    stats_.tenant_quota_reclaims++;
    tracer_->Record(now, TraceEvent::kTenantQuotaReclaim, va,
                    static_cast<uint32_t>(tenant));
    return true;
  }
  return false;
}

bool PageManager::EcOldContent(uint64_t page_va, uint8_t* out, uint64_t now) {
  uint64_t granule = ShardRouter::GranuleOf(page_va);
  uint64_t stripe = router_.EcStripeOf(granule);
  int member = router_.EcMemberOf(granule);
  if (router_.EcMemberReadable(stripe, member)) {
    int node = router_.EcNode(stripe, member);
    Completion c =
        router_.NodeQp(/*core=*/0, CommChannel::kManager, node)
            ->PostRead(++wr_id_, reinterpret_cast<uint64_t>(out), page_va, kPageSize, now);
    if (c.status == WcStatus::kSuccess) {
      // A corrupt home copy (rot, or a flip on this read — also of a page the
      // store never held) or a stale one whose last data write never landed
      // is not the old content parity was encoded from: folding a delta
      // against it would corrupt every parity member. Reconstruction yields
      // the content parity agrees on.
      if (JudgeCopy(router_.fabric().node(node).store(), node, page_va, out,
                    router_.PageGeneration(page_va), c.completion_time_ns, stats_,
                    tracer_) == CopyVerdict::kFresh) {
        stats_.ec_parity_bytes += kPageSize;
        return true;
      }
    } else {
      router_.ReportOpFailure(node, c.completion_time_ns);
    }
  }
  uint32_t page_idx = static_cast<uint32_t>((page_va & (kShardGranuleBytes - 1)) >> kPageShift);
  uint64_t cursor = now;
  return EcReconstructPage(router_, *cost_, /*core=*/0, CommChannel::kManager, stripe, member,
                           page_idx, out, &cursor, &wr_id_, stats_, tracer_);
}

void PageManager::EcUpdateParity(uint64_t page_va, const uint8_t* old_page,
                                 const uint8_t* new_page, uint64_t now) {
  // Eight bytes at a time: the delta words, and their OR as the "changed" test.
  uint8_t delta[kPageSize];
  uint64_t changed = 0;
  for (size_t i = 0; i < kPageSize; i += 8) {
    uint64_t a = 0;
    uint64_t b = 0;
    std::memcpy(&a, old_page + i, 8);
    std::memcpy(&b, new_page + i, 8);
    uint64_t d = a ^ b;
    std::memcpy(delta + i, &d, 8);
    changed |= d;
  }
  if (changed == 0) {
    return;  // Re-clean of identical content: parity already matches.
  }
  uint64_t granule = ShardRouter::GranuleOf(page_va);
  uint64_t stripe = router_.EcStripeOf(granule);
  int member = router_.EcMemberOf(granule);
  uint32_t page_idx = static_cast<uint32_t>((page_va & (kShardGranuleBytes - 1)) >> kPageShift);
  const ECCodec& codec = router_.ec_codec();
  uint8_t pbuf[kPageSize];
  int updated = 0;
  for (int p = 0; p < codec.m(); ++p) {
    int pmember = codec.k() + p;
    // An unreadable parity member (dead node, or mid-rebuild) is skipped:
    // its content is regenerated wholesale by the repair manager from the
    // data members, which already include this write-back.
    if (!router_.EcMemberReadable(stripe, pmember)) {
      continue;
    }
    int node = router_.EcNode(stripe, pmember);
    uint64_t parity_va = router_.EcMemberPageVa(stripe, pmember, page_idx);
    PageStore& pstore = router_.fabric().node(node).store();
    QueuePair* qp = router_.NodeQp(/*core=*/0, CommChannel::kManager, node);
    Completion r = qp->PostRead(++wr_id_, reinterpret_cast<uint64_t>(pbuf), parity_va,
                                kPageSize, now);
    if (r.status != WcStatus::kSuccess) {
      router_.ReportOpFailure(node, r.completion_time_ns);
      continue;
    }
    uint32_t expected_gen = router_.PageGeneration(parity_va);
    // Parity generations use bump-on-attempt too: the expected generation
    // rises before every RMW write, so a parity write dropped behind a
    // partition leaves that member detectably behind for the next round.
    uint32_t pgen = expected_gen + 1;
    if (JudgeCopy(pstore, node, parity_va, pbuf, expected_gen, r.completion_time_ns, stats_,
                  tracer_) != CopyVerdict::kFresh) {
      // Rotted (or flipped-in-flight) parity — or a verified-but-stale one
      // whose last RMW write never landed: folding the delta into it and
      // writing back under a fresh checksum would *launder* the bad content
      // into verified-and-fresh state. Regenerate this parity page from the
      // current members instead — we run after the data write landed, so the
      // encode is consistent with the new content.
      uint64_t cursor = r.completion_time_ns;
      if (!EcReconstructPage(router_, *cost_, /*core=*/0, CommChannel::kManager, stripe,
                             pmember, page_idx, pbuf, &cursor, &wr_id_, stats_, tracer_)) {
        continue;  // Too few readable members; the repair manager owns this.
      }
      router_.SetPageGeneration(parity_va, pgen);
      Completion w = WritePageChecked(qp, pstore, parity_va, pbuf, cursor, &wr_id_, stats_,
                                      tracer_, pgen);
      if (w.status != WcStatus::kSuccess) {
        router_.ReportOpFailure(node, w.completion_time_ns);
        continue;
      }
      stats_.checksum_heals++;
      tracer_->Record(w.completion_time_ns, TraceEvent::kChecksumHeal, parity_va,
                      static_cast<uint32_t>(node));
      router_.NoteWrittenGranule(ShardRouter::GranuleOf(parity_va));
      stats_.ec_parity_bytes += 2 * kPageSize;
      ++updated;
      continue;
    }
    ECCodec::XorMulInto(pbuf, delta, codec.Coef(pmember, member), kPageSize);
    router_.SetPageGeneration(parity_va, pgen);
    Completion w = WritePageChecked(qp, pstore, parity_va, pbuf, r.completion_time_ns,
                                    &wr_id_, stats_, tracer_, pgen);
    if (w.status != WcStatus::kSuccess) {
      router_.ReportOpFailure(node, w.completion_time_ns);
      continue;
    }
    router_.NoteWrittenGranule(ShardRouter::GranuleOf(parity_va));
    stats_.ec_parity_bytes += 2 * kPageSize;
    ++updated;
  }
  if (updated > 0) {
    stats_.ec_parity_updates++;
    tracer_->Record(now, TraceEvent::kParityUpdate, page_va, static_cast<uint32_t>(updated));
  }
}

void PageManager::ScrubTick(uint64_t now) {
  if (cfg_.scrub_pages_per_tick == 0 || router_.written_granules().empty()) {
    return;
  }
  if (scrub_granule_idx_ >= scrub_granules_.size()) {
    // Full pass done (or first tick): re-snapshot so granules written since
    // the last pass join the rotation. Sorted for a deterministic scan order.
    scrub_granules_.assign(router_.written_granules().begin(),
                           router_.written_granules().end());
    std::sort(scrub_granules_.begin(), scrub_granules_.end());
    scrub_granule_idx_ = 0;
    scrub_page_idx_ = 0;
  }
  for (size_t i = 0;
       i < cfg_.scrub_pages_per_tick && scrub_granule_idx_ < scrub_granules_.size(); ++i) {
    uint64_t page_va = (scrub_granules_[scrub_granule_idx_] << kShardGranuleShift) +
                       static_cast<uint64_t>(scrub_page_idx_) * kPageSize;
    ScrubPage(page_va, now);
    if (++scrub_page_idx_ >= kPagesPerGranule) {
      scrub_page_idx_ = 0;
      ++scrub_granule_idx_;
    }
  }
}

void PageManager::ScrubPage(uint64_t page_va, uint64_t now) {
  uint64_t granule = ShardRouter::GranuleOf(page_va);
  router_.ReplicaNodes(page_va, &scrub_nodes_);
  for (int node : scrub_nodes_) {
    if (!router_.Readable(node, granule)) {
      continue;  // Dead or mid-rebuild: the repair manager owns that copy.
    }
    const PageStore& store = router_.fabric().node(node).store();
    const StoredPage* rec = store.Find(page_va >> kPageShift);
    if (rec == nullptr || !rec->has_checksum) {
      continue;  // Never fully written back; nothing to verify against.
    }
    stats_.scrub_pages++;
    Completion c =
        router_.NodeQp(/*core=*/0, CommChannel::kManager, node)
            ->PostRead(++wr_id_, reinterpret_cast<uint64_t>(scrub_buf_), page_va, kPageSize,
                       now);
    if (c.status != WcStatus::kSuccess) {
      router_.ReportOpFailure(node, c.completion_time_ns);
      continue;
    }
    CopyVerdict v = JudgeCopy(store, node, page_va, scrub_buf_, router_.PageGeneration(page_va),
                              c.completion_time_ns, stats_, tracer_);
    // A stale copy missed a write-back round behind a partition or a dropped
    // write: heal it from a fresh replica before a failover could make it the
    // only copy. For a corrupt one, a node-local re-hash of the *stored*
    // bytes separates a bit flipped on the scrub read itself (stored copy
    // fine — nothing to repair) from genuine at-rest rot.
    if (v == CopyVerdict::kStale ||
        (v == CopyVerdict::kCorrupt && JudgeBytes(rec, rec->bytes, 0) == CopyVerdict::kCorrupt)) {
      ScrubRepair(page_va, node, c.completion_time_ns);
    }
  }
}

void PageManager::ScrubRepair(uint64_t page_va, int node, uint64_t now) {
  uint64_t granule = ShardRouter::GranuleOf(page_va);
  uint8_t good[kPageSize];
  bool have_good = false;
  uint64_t cursor = now;
  // The generation installed with the repair write: a reconstruction yields
  // the current content (expected generation); a replica source carries its
  // own stored generation with its bytes.
  uint32_t gen = 0;
  if (router_.ec_enabled() && router_.ec().m > 0) {
    // EC holds one copy per page (data or parity member alike): the verified
    // content can only come from decoding the other stripe members.
    uint64_t stripe = router_.EcStripeOf(granule);
    int member = router_.EcMemberOf(granule);
    uint32_t page_idx =
        static_cast<uint32_t>((page_va & (kShardGranuleBytes - 1)) >> kPageShift);
    have_good = EcReconstructPage(router_, *cost_, /*core=*/0, CommChannel::kManager, stripe,
                                  member, page_idx, good, &cursor, &wr_id_, stats_, tracer_);
    if (have_good) {
      gen = router_.PageGeneration(page_va);
    }
  } else {
    // Replication: any other replica whose arrival verifies is a source.
    // The source must itself hold a checksum and a current generation — the
    // repair write installs fresh metadata, and hashing an unverifiable or
    // lagging copy would launder its stale bytes into verified-fresh state.
    for (int src : scrub_nodes_) {
      if (src == node || !router_.Readable(src, granule)) {
        continue;
      }
      const PageStore& sstore = router_.fabric().node(src).store();
      const StoredPage* rec = sstore.Find(page_va >> kPageShift);
      if (rec == nullptr || !rec->has_checksum ||
          !CopyIsCurrent(rec, router_.PageGeneration(page_va))) {
        continue;
      }
      Completion c = router_.NodeQp(/*core=*/0, CommChannel::kManager, src)
                         ->PostRead(++wr_id_, reinterpret_cast<uint64_t>(good), page_va,
                                    kPageSize, cursor);
      if (c.status != WcStatus::kSuccess) {
        router_.ReportOpFailure(src, c.completion_time_ns);
        continue;
      }
      cursor = c.completion_time_ns;
      // The source was picked current; the read judges its content.
      if (JudgeCopy(sstore, src, page_va, good, /*expected_gen=*/0, cursor, stats_, tracer_) ==
          CopyVerdict::kFresh) {
        have_good = true;
        gen = rec->generation;
        break;
      }
    }
  }
  if (!have_good) {
    return;  // No verified source left; a later demand read will report loss.
  }
  Completion w =
      WritePageChecked(router_.NodeQp(/*core=*/0, CommChannel::kManager, node),
                       router_.fabric().node(node).store(), page_va, good, cursor, &wr_id_,
                       stats_, tracer_, gen);
  if (w.status != WcStatus::kSuccess) {
    router_.ReportOpFailure(node, w.completion_time_ns);
    return;
  }
  stats_.scrub_repairs++;
  tracer_->Record(w.completion_time_ns, TraceEvent::kScrubRepair, page_va,
                  static_cast<uint32_t>(node));
}

bool PageManager::EvictOne(uint64_t now, uint64_t pinned_va) {
  size_t scanned = 0;
  size_t limit = lru_.size() * 2 + 1;
  while (lru_.size() > 0 && scanned < limit) {
    ++scanned;
    uint32_t frame = lru_.front();
    uint64_t page_va = lru_.va(frame);
    Unlink(frame);
    Pte* e = pt_.Entry(page_va, /*create=*/false);
    if (page_va == pinned_va) {
      PushLru(frame, page_va, *e);
      continue;
    }
    if (*e & kPteAccessed) {
      // Second chance: clear the accessed bit and rotate to the back.
      *e &= ~kPteAccessed;
      PushLru(frame, page_va, *e);
      continue;
    }
    // Victim found. Offer it to the compressed tier first — a tier-resident
    // page costs one local decompress on refault instead of an RDMA round
    // trip, and a dirty one defers its write-back to the background drain.
    if (tier_ != nullptr && TierAdmit(page_va, e, now)) {
      if (tenants_ != nullptr) {
        tenants_->OnResident(page_va, -1);  // Compressed, no longer frame-backed.
      }
      return true;
    }
    // Ensure the memory-node copy is current. Clean() deliberately keeps
    // the dirty bit when no replica accepted the write-back (total
    // partition): this frame is then the only current copy, and freeing it
    // would discard the page. Requeue such a victim and keep scanning —
    // clean pages (whose remote copy is current) remain evictable.
    if (*e & kPteDirty) {
      Clean(page_va, e, now);
      if (*e & kPteDirty) {
        PushLru(frame, page_va, *e);
        continue;
      }
    }
    uint64_t action = std::exchange(frames_[frame].action, kNoAction);
    if (action != kNoAction) {
      *pt_.Entry(page_va, true) = MakeActionPte(action);
    } else {
      // Even a clean page can evict to an action PTE: the memory node holds
      // the full (current) content, and the guide's live map tells the later
      // re-fetch which bytes are worth moving.
      std::vector<PageSegment> segs;
      if (VectoredSegments(page_va, &segs)) {
        *pt_.Entry(page_va, true) = MakeActionPte(AllocActionSlot(std::move(segs)));
      } else {
        *pt_.Entry(page_va, true) = MakeRemotePte(page_va >> kPageShift);
      }
    }
    pool_.Free(frame);
    if (tenants_ != nullptr) {
      tenants_->OnResident(page_va, -1);
    }
    stats_.evictions++;
    tracer_->Record(now, TraceEvent::kEvict, page_va);
    return true;
  }
  return false;
}

bool PageManager::TierAdmit(uint64_t page_va, Pte* e, uint64_t now) {
  // Guided pages decline: their action-PTE eviction (live-segment encoding)
  // moves fewer bytes on the refault than whole-page compression saves.
  uint32_t frame = static_cast<uint32_t>(PtePayload(*e));
  if (frames_[frame].action != kNoAction) {
    return false;
  }
  std::vector<PageSegment> segs;
  if (VectoredSegments(page_va, &segs)) {
    return false;
  }
  bool dirty = (*e & kPteDirty) != 0;
  uint32_t csize = 0;
  if (tier_->AdmitPage(page_va, pool_.Data(frame), dirty, &csize) !=
      CompressedTier::Admit::kStored) {
    stats_.tier_bypass_incompressible++;
    return false;  // Denser than kTierMaxRatio: take the normal remote path.
  }
  *pt_.Entry(page_va, true) = MakeTierPte(page_va >> kPageShift);
  pool_.Free(frame);
  stats_.evictions++;
  stats_.tier_stored_pages++;
  stats_.tier_compressed_bytes += csize;
  tracer_->Record(now, TraceEvent::kTierAdmit, page_va, csize);
  tracer_->Record(now, TraceEvent::kEvict, page_va);
  // One admission can push the pool at most one entry over budget; trim it
  // back right away so the DRAM budget holds between background ticks. The
  // stored_pages() > 1 guard keeps a sub-page-capacity tier from evicting
  // the entry it just admitted.
  while (tier_->OverCapacity() && tier_->stored_pages() > 1) {
    if (!TierEvictOne(now)) {
      break;
    }
  }
  return true;
}

bool PageManager::TierEvictOne(uint64_t now) {
  uint64_t va = 0;
  bool dirty = false;
  if (!tier_->Oldest(&va, &dirty)) {
    return false;
  }
  if (dirty) {
    // The tier may only drop content that has reached remote redundancy:
    // drain the deferred write-back first. A blob that no longer
    // decompresses (in-DRAM rot) can never drain — drop it rather than
    // wedge eviction behind it forever. If no replica accepts the write
    // (every node down or partitioned), keep the entry and requeue it —
    // the tier stays the only copy until a later tick succeeds.
    if (!tier_->Read(va, tier_buf_)) {
      TierDropCorrupt(va, now);
      return true;
    }
    if (!WriteBackFull(va, tier_buf_, now)) {
      tier_->Requeue(va);
      return false;
    }
    tier_->MarkClean(va);
  }
  tier_->Drop(va);
  *pt_.Entry(va, true) = MakeRemotePte(va >> kPageShift);
  stats_.tier_evictions++;
  tracer_->Record(now, TraceEvent::kTierEvict, va);
  return true;
}

void PageManager::TierDropCorrupt(uint64_t va, uint64_t now) {
  // A compressed blob that fails decompression holds nothing recoverable:
  // leaving it would leak its pool blocks against the capacity budget and
  // wedge LRU eviction on a Read() that can never succeed. Drop it and
  // fall back to the remote copy — which, for a dirty entry, misses the
  // deferred write-back: that loss is exactly what this counter makes
  // observable.
  tier_->Drop(va);
  *pt_.Entry(va, true) = MakeRemotePte(va >> kPageShift);
  stats_.tier_corrupt_drops++;
  tracer_->Record(now, TraceEvent::kTierCorrupt, va);
}

void PageManager::TierTick(uint64_t now) {
  if (tier_ == nullptr) {
    return;
  }
  // Drain deferred write-backs oldest-first, so entries nearing eviction are
  // already clean (droppable without a fault-path write) when pressure hits.
  tier_dirty_scratch_.clear();
  tier_->CollectDirty(kTierCleanBatch, &tier_dirty_scratch_);
  for (uint64_t va : tier_dirty_scratch_) {
    if (!tier_->Read(va, tier_buf_)) {
      TierDropCorrupt(va, now);  // Undecompressable: it can never drain.
      continue;
    }
    if (WriteBackFull(va, tier_buf_, now)) {
      tier_->MarkClean(va);
    }
  }
  while (tier_->OverCapacity() && tier_->stored_pages() > 1) {
    if (!TierEvictOne(now)) {
      break;
    }
  }
}

void PageManager::BackgroundTick(uint64_t now, uint64_t pinned_va) {
  // Cleaner: write back a batch of the oldest candidates (local, dirty, not
  // accessed) so the reclaimer always finds clean victims. The queue holds
  // them in LRU order; an entry that stopped being one is dropped until an
  // admission point requeues it.
  size_t cleaned = 0;
  for (auto it = clean_queue_.begin(); it != clean_queue_.end() && cleaned < kCleanBatch;) {
    uint64_t page_va = lru_.va(it->second);
    Pte* e = pt_.Entry(page_va, /*create=*/false);
    if ((*e & kPteDirty) == 0 || (*e & kPteAccessed) != 0) {
      it = clean_queue_.erase(it);
      continue;
    }
    Clean(page_va, e, now);
    ++cleaned;
    // A write-back no replica accepted keeps the page dirty and queued, so
    // the next tick retries it.
    it = (*e & kPteDirty) != 0 ? std::next(it) : clean_queue_.erase(it);
  }
  // Reclaimer: eagerly evict until the free target is met.
  size_t target = free_target_;
  size_t cap = pool_.total() / 4 + 1;
  if (target > cap) {
    target = cap;  // Never hold more than a quarter of a tiny pool free.
  }
  while (pool_.free_count() < target) {
    if (!EvictOne(now, pinned_va)) {
      break;
    }
  }
  // Compressed tier: drain deferred write-backs and trim to budget.
  TierTick(now);
  // Scrubber: opportunistic integrity sweep in the same idle loop (no-op
  // unless scrub_pages_per_tick is set).
  ScrubTick(now);
}

uint32_t PageManager::AllocFrame(FaultClock& fc, uint64_t page_va) {
  std::optional<uint32_t> fid = pool_.Alloc();
  if (!fid.has_value()) {
    // The background thread fell behind: direct reclaim in the fault path.
    ++direct_reclaims_;
    while (!fid.has_value()) {
      uint64_t admitted_before = stats_.tier_stored_pages;
      if (!EvictOne(fc.now())) {
        // Nothing evictable: the pool is exhausted and every resident page
        // is pinned — or dirty with no replica accepting write-backs, in
        // which case no frame can be freed without discarding a sole copy.
        // Fail loudly rather than corrupt silently.
        std::fprintf(stderr, "DiLOS out of frames at page 0x%llx: all %zu frames unevictable\n",
                     static_cast<unsigned long long>(page_va), pool_.total());
        std::abort();
      }
      uint64_t reclaim_ns = kDirectReclaimNs;
      if (stats_.tier_stored_pages != admitted_before) {
        // Direct reclaim into the tier compresses in the fault path — the
        // one place compression is charged to an application core (the
        // background cleaner/reclaimer runs on spare cores).
        reclaim_ns += cost_->tier_compress_page_ns;
      }
      fc.Reclaim(reclaim_ns);
      fid = pool_.Alloc();
    }
  }
  return *fid;
}

}  // namespace dilos
