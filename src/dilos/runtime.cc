#include "src/dilos/runtime.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/recovery/ec_read.h"
#include "src/recovery/integrity.h"

namespace dilos {

namespace {

uint64_t PageOf(uint64_t vaddr) { return vaddr & ~static_cast<uint64_t>(kPageSize - 1); }

// Free frames each core's readahead window may hold in flight.
constexpr size_t kReadaheadFramesPerCore = 32;
// Do not start new prefetches when free frames would drop below this
// (prevents prefetch-driven thrash of the resident set).
constexpr size_t kPrefetchFreeReserve = 16;

}  // namespace

// Causality-tracking context handed to app-aware guides at fault time.
class RuntimeGuideContext : public GuideContext {
 public:
  RuntimeGuideContext(DilosRuntime& rt, int core, uint64_t start_ns)
      : rt_(rt), core_(core), cursor_ns_(start_ns) {}

  uint64_t SubpageRead(uint64_t vaddr, uint32_t len, void* dst) override {
    ShardRouter::ReadTarget t = rt_.router_.PickRead(core_, CommChannel::kGuide, vaddr);
    if (t.qp == nullptr) {
      uint64_t page_va = PageOf(vaddr);
      if (t.reconstruct &&
          rt_.EcDemandReconstruct(page_va, reinterpret_cast<uint64_t>(scratch_), nullptr,
                                  core_, CommChannel::kGuide, &cursor_ns_)) {
        std::memcpy(dst, scratch_ + (vaddr - page_va), len);
        rt_.stats_.subpage_fetches++;
        rt_.stats_.bytes_fetched += len;
        return cursor_ns_;
      }
      std::memset(dst, 0, len);  // Every replica is down; the chase ends here.
      return cursor_ns_;
    }
    Completion c = t.qp->PostRead(++rt_.wr_id_, reinterpret_cast<uint64_t>(scratch_), vaddr,
                                  len, cursor_ns_);
    if (c.status != WcStatus::kSuccess) {
      rt_.router_.ReportOpFailure(t.node, c.completion_time_ns);
      std::memset(scratch_, 0, len);
    }
    std::memcpy(dst, scratch_, len);
    rt_.stats_.subpage_fetches++;
    rt_.stats_.bytes_fetched += len;
    cursor_ns_ = c.completion_time_ns;
    return cursor_ns_;
  }

  bool PrefetchPage(uint64_t vaddr) override {
    // Full-page fetches ride the prefetch queue; the guide queue is kept
    // for subpage reads so the pointer-chasing chain is never serialized
    // behind its own page fills (Sec. 4.5: guides get separate queues).
    return rt_.StartPrefetch(PageOf(vaddr), cursor_ns_, core_, CommChannel::kPrefetch);
  }

  bool IsResident(uint64_t vaddr) override {
    Pte pte = rt_.pt_.Get(vaddr);
    PteTag tag = PteTagOf(pte);
    return tag == PteTag::kLocal || tag == PteTag::kFetching;
  }

  bool ReadResident(uint64_t vaddr, uint32_t len, void* dst) override {
    Pte pte = rt_.pt_.Get(vaddr);
    if (PteTagOf(pte) != PteTag::kLocal) {
      return false;
    }
    uint32_t off = static_cast<uint32_t>(vaddr & (kPageSize - 1));
    if (off + len > kPageSize) {
      return false;
    }
    auto frame = static_cast<uint32_t>(PtePayload(pte & ~(kPteAccessed | kPteDirty)));
    std::memcpy(dst, rt_.pool_.Data(frame) + off, len);
    return true;
  }

  uint64_t now() const override { return cursor_ns_; }

 private:
  DilosRuntime& rt_;
  int core_;
  uint64_t cursor_ns_;
  uint8_t scratch_[kPageSize];
};

DilosRuntime::DilosRuntime(Fabric& fabric, DilosConfig cfg,
                           std::unique_ptr<Prefetcher> prefetcher)
    : fabric_(fabric),
      cfg_(cfg),
      cost_(fabric.cost()),
      tracer_(cfg.trace_capacity),
      pool_(cfg.local_mem_bytes / kPageSize),
      clocks_(static_cast<size_t>(cfg.num_cores), FaultClock(stats_.fault_breakdown, &tracer_)),
      router_(fabric, cfg.num_cores, cfg.replication, cfg.shared_queue,
              cfg.recovery.spare_nodes, cfg.ec),
      // Each core keeps a readahead window in flight; the eager free pool
      // must cover all of them or prefetching self-throttles.
      pm_(pool_, pt_, router_, stats_, &tracer_, cfg.pm, &cost_,
          std::max(kMinFreeFrames,
                   kReadaheadFramesPerCore * static_cast<size_t>(cfg.num_cores))) {
  prefetchers_.push_back(std::move(prefetcher));
  for (int c = 1; c < cfg.num_cores; ++c) {
    prefetchers_.push_back(prefetchers_[0]->Clone());
  }
  if (cfg_.fault_seed != 0) {
    fabric_.injector().Reseed(cfg_.fault_seed);
  }
  if (cfg_.tier.enabled) {
    tier_ = std::make_unique<CompressedTier>(cfg_.tier);
    pm_.set_tier(tier_.get());
  }
  if (cfg_.tenants.enabled) {
    tenants_ = std::make_unique<TenantRegistry>(kShardGranuleShift);
    router_.set_tenants(tenants_.get());  // Per-tenant placement salt.
    pm_.set_tenants(tenants_.get());      // Residency gauges + quota admission.
    if (cfg_.tenants.fair_share) {
      wire_sched_ = std::make_unique<FairLinkScheduler>(fabric_.num_nodes(), tenants_.get());
      fabric_.set_scheduler(wire_sched_.get());
    }
  }
  pipelines_.reserve(static_cast<size_t>(cfg_.num_cores));
  for (int c = 0; c < cfg_.num_cores; ++c) {
    pipelines_.emplace_back(cfg_.fault_pipeline_depth);
  }
  harvest_scratch_.reserve(pipelines_.front().depth());  // The pipeline clamps 0 to 1.
  if (cfg_.recovery.enabled) {
    detector_ = std::make_unique<FailureDetector>(fabric_, router_, stats_, &tracer_);
    repair_ = std::make_unique<RepairManager>(fabric_, router_, *detector_, stats_, &tracer_,
                                              cfg_.recovery.repair);
    migration_ = std::make_unique<MigrationManager>(fabric_, router_, *detector_, stats_,
                                                    &tracer_, cfg_.recovery.migration);
    size_t stride = tenants_ != nullptr ? TenantRegistry::kMaxTenants + 1 : 1;
    retry_budget_.assign(static_cast<size_t>(cfg_.num_cores) * stride,
                         RetryBudget{cfg_.recovery.retry_burst, 0});
    // Timed-out ops anywhere in the paging paths become detector evidence.
    router_.set_op_failure_observer(
        [this](int node, uint64_t now_ns) { detector_->OnOpTimeout(node, now_ns); });
    // A restored node answering probes again re-enters through the repair
    // manager: re-admitted as rebuilding, its stale granules refilled.
    detector_->set_readmit_observer(
        [this](int node, uint64_t now_ns) { repair_->OnNodeReadmitted(node, now_ns); });
  }
  if (tenants_ != nullptr && cfg_.tenants.hotness.enabled && migration_ != nullptr) {
    // The auto-migrator drives MigrateGranule from per-node serve-load EWMAs;
    // it watches the fabric's metrics *slot* so a registry installed below
    // (telemetry) is seen without re-wiring.
    hotness_ = std::make_unique<HotnessMonitor>(router_, *migration_, fabric_.metrics_slot(),
                                                stats_, &tracer_, cfg_.tenants.hotness,
                                                fabric_.num_nodes());
  }
  if (cfg_.telemetry.enabled()) {
    telemetry_ = std::make_unique<Telemetry>(cfg_.telemetry, fabric.num_nodes());
    metrics_registry_ = telemetry_->metrics();
    flight_ = telemetry_->flight();
    attr_ = telemetry_->attribution();
    slo_ = telemetry_->slo();
    if (metrics_registry_ != nullptr) {
      // QPs (created above, via the router/detector/repair ctors) hold a
      // pointer to the fabric's registry slot, so installing now covers them.
      fabric_.set_metrics(metrics_registry_);
      if (repair_ != nullptr) {
        // Per-node traffic becomes the rebuild-placement tiebreaker.
        repair_->set_metrics(metrics_registry_);
      }
      if (migration_ != nullptr) {
        migration_->set_metrics(metrics_registry_);
      }
      if (tenants_ != nullptr) {
        // Per-(node, tenant) serve/maint cells: the registry resolves each
        // op's remote address to its owning tenant.
        TenantRegistry* reg = tenants_.get();
        metrics_registry_->set_tenant_lookup(
            [reg](uint64_t addr) { return reg->TenantOfAddr(addr); });
      }
    }
    if (flight_ != nullptr) {
      tracer_.set_sink(flight_);
    }
    if (cfg_.telemetry.span_capacity != 0) {
      tracer_.EnableSpans(cfg_.telemetry.span_capacity);
    }
  }
}

DilosRuntime::~DilosRuntime() {
  if (wire_sched_ != nullptr && fabric_.scheduler() == wire_sched_.get()) {
    fabric_.set_scheduler(nullptr);  // The fabric may outlive this runtime.
  }
  if (telemetry_ == nullptr) {
    return;
  }
  if (metrics_registry_ != nullptr && fabric_.metrics() == metrics_registry_) {
    fabric_.set_metrics(nullptr);  // The fabric may outlive this runtime.
  }
  tracer_.set_sink(nullptr);
  if (telemetry_->config().check_invariants) {
    std::vector<std::string> violations =
        CheckStatsInvariants(stats_, /*tier_enabled=*/tier_ != nullptr);
    if (tenants_ != nullptr) {
      // Tenancy shutdown audit: per-tenant gauges must sum to the global
      // totals, retired tenants must own nothing, quotas must hold.
      std::vector<std::string> tv = CheckTenantInvariants(tenants_->InvariantView());
      violations.insert(violations.end(), tv.begin(), tv.end());
    }
    if (!violations.empty()) {
      for (const std::string& v : violations) {
        std::fprintf(stderr, "RuntimeStats invariant violated: %s\n", v.c_str());
      }
      std::abort();
    }
  }
}

void DilosRuntime::RecoveryTick(uint64_t now) {
  if (detector_ != nullptr) {
    detector_->Tick(now);
  }
  if (repair_ != nullptr) {
    repair_->Tick(now);
  }
  if (migration_ != nullptr) {
    migration_->Tick(now);
  }
  if (hotness_ != nullptr) {
    hotness_->Tick(now);
  }
}

void DilosRuntime::Background(uint64_t now, uint64_t pinned_va) {
  pm_.BackgroundTick(now, pinned_va);
  RecoveryTick(now);
  if (flight_ != nullptr) {
    // Anomaly check on the background hook: the recorder dumps at (nearly)
    // the moment a loss counter first moves, not at shutdown.
    flight_->MaybeTrigger(now, stats_, metrics_registry_);
  }
}

void DilosRuntime::DriveRecovery(uint64_t duration_ns) {
  Clock& clk = clocks_[0].clock();
  uint64_t end = clk.now() + duration_ns;
  uint64_t step = detector_ != nullptr ? kProbeIntervalNs : 10'000;
  while (clk.now() < end) {
    clk.Advance(step);
    RecoveryTick(clk.now());
  }
}

Completion DilosRuntime::DemandFetch(uint64_t page_va, uint64_t frame_addr,
                                     const std::vector<PageSegment>* segs, int core,
                                     CommChannel ch, uint64_t* cursor_ns) {
  FaultClock& fc = clocks_[static_cast<size_t>(core)];
  uint32_t max_retries = detector_ != nullptr ? kDemandMaxRetries : 0;
  uint64_t backoff = detector_ != nullptr ? kDemandBackoffBaseNs : 0;
  // Mismatch retries are budgeted separately from timeout retries: a wire
  // flip and a dead node are different failures and one must not starve the
  // other's recovery path. The budget is deliberately generous — wire flips
  // on successive reads are independent, so each extra re-read multiplies
  // the abandon probability down by the flip rate, while the cost of a
  // retry is one page read. Abandoning surfaces a zero-filled page, so only
  // a copy that mismatches persistently (stored rot with every partner
  // unreachable) should exhaust it.
  constexpr uint32_t kMaxMismatchRetries = 8;
  Completion c{0, WcStatus::kTimeout, *cursor_ns};
  uint32_t timeout_attempts = 0;
  uint32_t mismatch_attempts = 0;
  int exclude = -1;        // Node whose stored copy proved corrupt.
  int last_mismatch = -1;  // Node whose last arrival failed verification.
  bool poisoned = false;   // The frame currently holds unverified bytes.
  while (timeout_attempts <= max_retries && mismatch_attempts <= kMaxMismatchRetries) {
    ShardRouter::ReadTarget t = router_.PickRead(core, ch, page_va, exclude);
    if (t.reconstruct) {
      // EC steering: the single copy is unreadable, corrupt, or on a suspect
      // node — decode from survivors first; t.qp (a suspect copy, if any)
      // is the fallback when fewer than k members are readable.
      uint64_t ec_start_ns = *cursor_ns;
      bool decoded = EcDemandReconstruct(page_va, frame_addr, segs, core, ch, cursor_ns);
      // Charged here at the demand call site, not inside EcDemandReconstruct:
      // guide contexts reconstruct on private cursors, outside this fault.
      fc.Charge(FaultPhase::kEcDecode, ec_start_ns, *cursor_ns);
      if (decoded) {
        if (exclude >= 0 && segs == nullptr) {
          HealCorruptReplica(page_va, exclude, reinterpret_cast<const uint8_t*>(frame_addr),
                             *cursor_ns, core);
        }
        return Completion{wr_id_, WcStatus::kSuccess, *cursor_ns};
      }
    }
    if (t.qp == nullptr) {
      if (exclude >= 0) {
        // Excluding the corrupt copy left nothing to read (its partners are
        // dead or partitioned). A copy whose arrivals mismatched may still
        // be flips on the wire, not rot in the store — un-exclude it and
        // keep re-reading on the remaining mismatch budget rather than
        // abandoning the fetch.
        exclude = -1;
        last_mismatch = -1;
        continue;
      }
      break;  // No readable replica left at all.
    }
    uint32_t attempt_span = tracer_.BeginSpan(SpanKind::kFetchAttempt, *cursor_ns, page_va,
                                              static_cast<uint32_t>(t.node));
    uint64_t post_ns = *cursor_ns;
    if (segs == nullptr) {
      c = t.qp->PostRead(++wr_id_, frame_addr, page_va, kPageSize, *cursor_ns);
    } else {
      WorkRequest wr;
      wr.wr_id = ++wr_id_;
      wr.opcode = RdmaOpcode::kRead;
      wr.rkey = t.qp->remote_rkey();
      for (const PageSegment& s : *segs) {
        wr.segs.push_back({frame_addr + s.offset, page_va + s.offset, s.length});
      }
      c = t.qp->PostSend(wr, *cursor_ns);
    }
    *cursor_ns = c.completion_time_ns;
    tracer_.EndSpan(attempt_span, *cursor_ns);
    // Split this attempt between scheduler-lane queueing and the wire itself;
    // the completion's queueing is already capped at its latency.
    fc.Charge(FaultPhase::kLaneWait, post_ns, post_ns + c.queue_ns);
    fc.Charge(FaultPhase::kWire, post_ns + c.queue_ns, *cursor_ns);
    if (c.status == WcStatus::kSuccess) {
      if (segs == nullptr && exclude < 0 && CopyIsUnverifiable(page_va, t.node)) {
        // Unverifiable arrival from a replica that should have been cleaned:
        // its bytes are stale or zero; steer to a verifiable copy instead of
        // trusting them.
        stats_.refetches++;
        ++mismatch_attempts;
        poisoned = true;
        tracer_.Record(*cursor_ns, TraceEvent::kChecksumMismatch, page_va,
                       /*detail=*/2);  // 2 = unverifiable copy bypassed.
        exclude = t.node;
        continue;
      }
      // A vectored (action-PTE) refetch is judged for freshness only: the
      // generation is store-side metadata, the checksum covers a full page.
      CopyVerdict v = JudgeCopy(fabric_.node(t.node).store(), t.node, page_va,
                                segs == nullptr ? reinterpret_cast<const uint8_t*>(frame_addr)
                                                : nullptr,
                                router_.PageGeneration(page_va), *cursor_ns, stats_, &tracer_);
      if (v != CopyVerdict::kFresh) {
        stats_.refetches++;
        ++mismatch_attempts;
        poisoned = true;
        if (v == CopyVerdict::kStale) {
          // Verified-but-stale: the copy missed at least one full write-back
          // round (dropped behind a partition). Steer to a fresh replica or
          // the EC survivors; the successful fetch then heals this copy.
          exclude = t.node;
        } else {
          // Corrupt. First mismatch from a node: assume a wire flip and
          // re-read (possibly the same replica). A second mismatch from the
          // same node means its *stored* copy rotted: exclude it, fetch from
          // another replica (or EC survivors), then heal it.
          if (t.node == last_mismatch) {
            exclude = t.node;
          }
          last_mismatch = t.node;
        }
        continue;
      }
      poisoned = false;
      if (detector_ != nullptr) {
        detector_->OnOpSuccess(t.node, *cursor_ns);
      }
      if (t.degraded) {
        stats_.degraded_reads++;
        tracer_.Record(*cursor_ns, TraceEvent::kDegradedRead, page_va,
                       static_cast<uint32_t>(t.node));
      }
      if (t.forwarded) {
        // This read raced a migration cutover and was redirected by the
        // forwarding window instead of failing against the old mapping.
        stats_.migration_forwards++;
        tracer_.Record(*cursor_ns, TraceEvent::kMigrateForward, page_va,
                       static_cast<uint32_t>(t.node));
      }
      if (exclude >= 0 && segs == nullptr) {
        HealCorruptReplica(page_va, exclude, reinterpret_cast<const uint8_t*>(frame_addr),
                           *cursor_ns, core);
      }
      return c;
    }
    ++timeout_attempts;
    if (!retry_budget_.empty()) {
      // Per-core retry token bucket: a long partition degrades to failover
      // instead of a retry storm. The timeouts already burned fed the
      // detector its strikes — by the time a (generous) bucket drains, the
      // node is declared dead and PickRead steers away without retrying —
      // so suppressing the remaining retries loses no evidence.
      // With tenancy enabled the bucket is per (core, tenant) and the refill
      // period is the tenant's weight share — a partition hammered by one
      // tenant cannot drain another tenant's retry budget.
      RetryBudget& rb = retry_budget_[RetryIndex(core, page_va)];
      uint64_t refill_ns = RetryRefillNs(page_va);
      if (refill_ns > 0 && *cursor_ns > rb.last_refill_ns) {
        uint64_t earned = (*cursor_ns - rb.last_refill_ns) / refill_ns;
        if (earned > 0) {
          rb.tokens = std::min<uint64_t>(rb.tokens + earned, cfg_.recovery.retry_burst);
          rb.last_refill_ns += earned * refill_ns;
        }
      }
      if (rb.tokens == 0) {
        stats_.fault_retries_suppressed++;
        router_.ReportOpFailure(t.node, *cursor_ns);
        break;
      }
      --rb.tokens;
    }
    stats_.fetch_retries++;
    if (metrics_registry_ != nullptr) {
      // The choke point saw the individual timed-out post; the *decision* to
      // retry is runtime-level and attributed here.
      metrics_registry_->OnRetry(t.node, QpClassForChannel(ch));
    }
    router_.ReportOpFailure(t.node, *cursor_ns);
    uint64_t backoff_ns = backoff << (timeout_attempts - 1);  // Exponential backoff.
    fc.Charge(FaultPhase::kBackoff, *cursor_ns, *cursor_ns + backoff_ns, SpanKind::kRetryBackoff,
              timeout_attempts);
    *cursor_ns += backoff_ns;
  }
  stats_.failed_fetches++;
  if (poisoned && segs == nullptr) {
    // Bytes that failed verification are never surfaced: zero the frame and
    // report the fetch failed (the caller's !kSuccess path zeroes too).
    std::memset(reinterpret_cast<uint8_t*>(frame_addr), 0, kPageSize);
    c.status = WcStatus::kTimeout;
  }
  return c;
}

void DilosRuntime::HealCorruptReplica(uint64_t page_va, int node, const uint8_t* good,
                                      uint64_t issue_ns, int core) {
  if (node < 0) {
    return;
  }
  if (!router_.Readable(node, ShardRouter::GranuleOf(page_va))) {
    return;  // Died or went into rebuild meanwhile; the repair manager owns it.
  }
  PageStore& store = fabric_.node(node).store();
  // The healed copy carries the current expected generation: the bytes we
  // write are the ones the successful (fresh) fetch verified.
  Completion c = WritePageChecked(router_.NodeQp(/*core=*/0, CommChannel::kManager, node),
                                  store, page_va, good, issue_ns, &wr_id_, stats_, &tracer_,
                                  router_.PageGeneration(page_va));
  // kHeal is off-path by construction: the heal write is posted at the
  // demand fetch's completion time without advancing the fault cursor, so
  // it never extends the faulting thread's latency.
  clocks_[static_cast<size_t>(core)].Charge(FaultPhase::kHeal, issue_ns, c.completion_time_ns,
                                            SpanKind::kHeal, static_cast<uint32_t>(node));
  if (c.status != WcStatus::kSuccess) {
    router_.ReportOpFailure(node, c.completion_time_ns);
    return;
  }
  stats_.checksum_heals++;
  tracer_.Record(c.completion_time_ns, TraceEvent::kChecksumHeal, page_va,
                 static_cast<uint32_t>(node));
}

bool DilosRuntime::CopyIsUnverifiable(uint64_t page_va, int node) {
  uint64_t page = page_va >> kPageShift;
  if (fabric_.node(node).store().HasChecksum(page)) {
    return false;
  }
  router_.ReplicaNodes(page_va, &replica_scratch_);
  uint64_t granule = ShardRouter::GranuleOf(page_va);
  for (int n : replica_scratch_) {
    if (n != node && router_.Readable(n, granule) && fabric_.node(n).store().HasChecksum(page)) {
      return true;
    }
  }
  return false;
}

bool DilosRuntime::EcDemandReconstruct(uint64_t page_va, uint64_t frame_addr,
                                       const std::vector<PageSegment>* segs, int core,
                                       CommChannel ch, uint64_t* cursor_ns) {
  uint64_t granule = ShardRouter::GranuleOf(page_va);
  uint64_t stripe = router_.EcStripeOf(granule);
  int member = router_.EcMemberOf(granule);
  uint32_t page_idx = static_cast<uint32_t>((page_va & (kShardGranuleBytes - 1)) >> kPageShift);
  uint8_t page[kPageSize];
  uint32_t decode_span = tracer_.BeginSpan(SpanKind::kEcDecode, *cursor_ns, page_va,
                                           static_cast<uint32_t>(member));
  if (!EcReconstructPage(router_, cost_, core, ch, stripe, member, page_idx, page, cursor_ns,
                         &wr_id_, stats_, &tracer_)) {
    tracer_.EndSpan(decode_span, *cursor_ns);
    return false;
  }
  tracer_.EndSpan(decode_span, *cursor_ns);
  uint8_t* dst = reinterpret_cast<uint8_t*>(frame_addr);
  if (segs == nullptr) {
    std::memcpy(dst, page, kPageSize);
  } else {
    for (const PageSegment& s : *segs) {
      std::memcpy(dst + s.offset, page + s.offset, s.length);
    }
  }
  // A reconstruction reads k survivor pages where a healthy fetch reads one;
  // the caller accounts the first page, the fan-out surplus lands here.
  stats_.bytes_fetched +=
      static_cast<uint64_t>(router_.ec_codec().k() - 1) * kPageSize;
  stats_.ec_degraded_reads++;
  stats_.degraded_reads++;
  tracer_.Record(*cursor_ns, TraceEvent::kDegradedRead, page_va,
                 static_cast<uint32_t>(member));
  return true;
}

uint64_t DilosRuntime::AllocRegion(uint64_t bytes) {
  uint64_t base = next_region_;
  uint64_t pages = (bytes + kPageSize - 1) / kPageSize;
  next_region_ += (pages + 16) * kPageSize;  // Guard gap between regions.
  return base;
}

uint64_t DilosRuntime::AllocRegion(uint64_t bytes, int tenant) {
  // Granule-aligned base and span: BindRange maps whole granules to the
  // tenant, so a granule shared with a neighbor would mis-attribute pages.
  next_region_ = (next_region_ + kShardGranuleBytes - 1) & ~(kShardGranuleBytes - 1);
  uint64_t base = next_region_;
  uint64_t span = (bytes + kShardGranuleBytes - 1) & ~(kShardGranuleBytes - 1);
  next_region_ += span + 16 * kPageSize;  // Guard gap between regions.
  if (tenants_ != nullptr && tenant >= 0) {
    tenants_->BindRange(base, span, tenant);
  }
  return base;
}

void DilosRuntime::FreeRegion(uint64_t addr, uint64_t bytes) {
  uint64_t end = addr + bytes;
  for (uint64_t page_va = PageOf(addr); page_va < end; page_va += kPageSize) {
    Pte* e = pt_.Entry(page_va, /*create=*/false);
    if (e == nullptr) {
      continue;
    }
    if (tenants_ != nullptr) {
      // Freed content is no longer stored on the tenant's behalf: release
      // its quota slot (no-op for never-charged pages).
      tenants_->Uncharge(page_va);
    }
    switch (PteTagOf(*e)) {
      case PteTag::kLocal:
        pool_.Free(static_cast<uint32_t>(PtePayload(*e & ~(kPteAccessed | kPteDirty))));
        pm_.OnUnmapped(page_va);
        break;
      case PteTag::kFetching:
        // Let the in-flight fill land in its frame, then drop it. A parked
        // demand fault is torn down, not resumed: its fiber (and with it the
        // fault's attribution slice) is dropped uncommitted.
        pool_.Free(static_cast<uint32_t>(PtePayload(*e)));
        if (inflight_.erase(page_va) == 0 && RetireParked(page_va)) {
          stats_.fault_inflight--;
        }
        break;
      case PteTag::kAction:
        pm_.ReleaseAction(PtePayload(*e));
        break;
      case PteTag::kTier:
        tier_->Drop(page_va);  // Freed content needs no write-back.
        break;
      case PteTag::kRemote:
      case PteTag::kEmpty:
        break;
    }
    *e = 0;
  }
}

std::optional<FaultFiber> DilosRuntime::RetireParked(uint64_t page_va) {
  for (FaultPipeline& p : pipelines_) {
    if (std::optional<FaultFiber> f = p.Retire(page_va)) {
      return f;
    }
  }
  return std::nullopt;
}

void DilosRuntime::EndFault(FaultClock& fc) {
  if (fc.Exit() && attr_ != nullptr) {
    CommitFaultSlice(fc.slice(), fc.page_va(), fc.now());
  }
}

void DilosRuntime::CommitFaultSlice(const FaultSlice& slice, uint64_t page_va,
                                    uint64_t end_ns) {
  uint64_t e2e = end_ns >= slice.start_ns ? end_ns - slice.start_ns : 0;
  int tenant = tenants_ != nullptr ? tenants_->TenantOfAddr(page_va) : -1;
  attr_->Commit(tenant, slice, e2e);
  if (slo_ != nullptr && slo_->Observe(tenant, e2e, end_ns)) {
    tracer_.Record(end_ns, TraceEvent::kSloBreach, page_va,
                   tenant < 0 ? 0 : static_cast<uint32_t>(tenant));
    if (flight_ != nullptr) {
      // A burn-rate breach is exactly the moment the flight recorder exists
      // for: dump the recent window plus the attribution/SLO snapshot that
      // says *where* the latency went.
      std::string extra = attr_->Report();
      extra += slo_->Report();
      flight_->ForceDump(end_ns, stats_, metrics_registry_, "slo-breach", extra);
    }
  }
}

void DilosRuntime::HarvestFaultPipeline(int core, uint64_t now) {
  FaultPipeline& pipe = pipelines_[static_cast<size_t>(core)];
  harvest_scratch_.clear();
  if (pipe.HarvestUpTo(now, &harvest_scratch_) == 0) {
    return;
  }
  Clock& clk = clocks_[static_cast<size_t>(core)].clock();
  uint32_t resume_span =
      tracer_.BeginSpan(SpanKind::kFaultResume, clk.now(), harvest_scratch_.front().page_va,
                        static_cast<uint32_t>(harvest_scratch_.size()));
  if (pipe.depth() > 1) {
    clk.Advance(cost_.cq_poll_ns);  // One coalesced poll covers the batch.
  }
  InstallFibers(core, resume_span);
}

void DilosRuntime::InstallFibers(int core, uint32_t resume_span) {
  FaultClock& fc = clocks_[static_cast<size_t>(core)];
  // Every fiber still owns its page: FreeRegion retires the fibers it tears
  // down, so none reaches an install.
  for (const FaultFiber& f : harvest_scratch_) {
    MapInflight(f.page_va, kPteAccessed | (f.write ? kPteDirty : 0));
  }
  // One install per page, then a single TLB/PTE flush for the batch — the
  // install cost the pipeline amortizes over the whole batch.
  fc.Advance(harvest_scratch_.size() * cost_.dilos_map_ns + cost_.map_tlb_flush_ns, LatComp::kMap);
  stats_.fault_resumes += harvest_scratch_.size();
  stats_.fault_inflight -= harvest_scratch_.size();
  stats_.fault_batched_installs++;
  if (attr_ != nullptr) {
    // Each fiber's window closes right after the flush: kMap is its own
    // install plus the flush, kOverlap the rest since its data arrived.
    const uint64_t map_ns = cost_.dilos_map_ns + cost_.map_tlb_flush_ns;
    for (FaultFiber& f : harvest_scratch_) {
      f.slice.Add(FaultPhase::kOverlap, fc.now() - f.done_ns - map_ns);
      f.slice.Add(FaultPhase::kMap, map_ns);
      CommitFaultSlice(f.slice, f.page_va, fc.now());
    }
  }
  if (pipelines_[static_cast<size_t>(core)].depth() > 1) {
    fc.clock().Advance(cost_.fiber_resume_ns);
  }
  tracer_.EndSpan(resume_span, fc.now());
}

void DilosRuntime::Quiesce() {
  for (size_t c = 0; c < pipelines_.size(); ++c) {
    while (!pipelines_[c].empty()) {
      clocks_[c].clock().AdvanceTo(pipelines_[c].OldestDoneNs());
      HarvestFaultPipeline(static_cast<int>(c), clocks_[c].now());
    }
  }
}

uint8_t* DilosRuntime::Pin(uint64_t vaddr, uint32_t len, bool write, int core) {
  Clock& clk = clocks_[static_cast<size_t>(core)].clock();
  Pte* e = pt_.Entry(vaddr, /*create=*/true);
  if (PteTagOf(*e) == PteTag::kLocal) {
    // Fast path: the software stand-in for the MMU walk.
    *e |= kPteAccessed | (write ? kPteDirty : 0);
    clk.Advance(cost_.local_pin_ns +
                static_cast<uint64_t>(cost_.local_per_byte_ns * static_cast<double>(len)));
    return pool_.Data(static_cast<uint32_t>(PtePayload(*e))) + (vaddr & (kPageSize - 1));
  }
  return HandleFault(vaddr, len, write, core);
}

void DilosRuntime::MapInflight(uint64_t page_va, Pte bits) {
  Pte* e = pt_.Entry(page_va, true);
  *e = MakeLocalPte(PtePayload(*e), /*writable=*/true) | bits;
  pm_.OnMapped(page_va);
}

void DilosRuntime::DrainArrivals(uint64_t now) {
  // The fault handler maps arrived prefetches while it waits; pages mapped
  // here are never faulted on at all (Table 3's "fewer minor faults").
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second <= now) {
      // Mapping from the handler does not set the accessed bit: the app has
      // not touched the page yet, so the hit tracker can still observe it.
      MapInflight(it->first, /*bits=*/0);
      stats_.prefetch_mapped_early++;
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
}

bool DilosRuntime::StartPrefetch(uint64_t page_va, uint64_t issue_ns, int core,
                                 CommChannel ch) {
  Pte* e = pt_.Entry(page_va, /*create=*/true);
  if (PteTagOf(*e) != PteTag::kRemote) {
    return false;  // Local, in flight, empty, or action-tagged: nothing to do.
  }
  ShardRouter::ReadTarget target = router_.PickRead(core, ch, page_va);
  if (target.qp == nullptr) {
    return false;  // Every replica is down; the demand path will report it.
  }
  size_t reserve = kPrefetchFreeReserve;
  size_t cap = pool_.total() / 8 + 1;
  if (reserve > cap) {
    reserve = cap;  // Scale the reserve down for tiny pools.
  }
  if (pool_.free_count() <= reserve) {
    return false;  // Don't thrash the resident set for speculation.
  }
  std::optional<uint32_t> fid = pool_.Alloc();
  if (!fid.has_value()) {
    return false;
  }
  Completion c = target.qp->PostRead(++wr_id_, pool_.Addr(*fid), page_va, kPageSize, issue_ns);
  if (c.status != WcStatus::kSuccess) {
    // Speculation is not worth a retry loop: free the frame, feed the
    // detector, and leave the page remote for the demand path.
    router_.ReportOpFailure(target.node, c.completion_time_ns);
    pool_.Free(*fid);
    return false;
  }
  // A speculative fill that is not fresh is dropped: the page stays remote
  // and the demand path (which owns the refetch/heal machinery) serves it.
  if (CopyIsUnverifiable(page_va, target.node)) {
    stats_.refetches++;
    tracer_.Record(c.completion_time_ns, TraceEvent::kChecksumMismatch, page_va,
                   /*detail=*/2);
    pool_.Free(*fid);
    return false;
  }
  CopyVerdict v =
      JudgeCopy(fabric_.node(target.node).store(), target.node, page_va, pool_.Data(*fid),
                router_.PageGeneration(page_va), c.completion_time_ns, stats_, &tracer_);
  if (v != CopyVerdict::kFresh) {
    if (v == CopyVerdict::kStale) {
      stats_.refetches++;  // A corrupt fill is not counted as a refetch.
    }
    pool_.Free(*fid);
    return false;
  }
  *e = MakeFetchingPte(*fid);
  inflight_[page_va] = c.completion_time_ns;
  stats_.prefetch_issued++;
  stats_.bytes_fetched += kPageSize;
  tracer_.Record(issue_ns, TraceEvent::kPrefetchIssue, page_va);
  tracker_.Observe(page_va);
  return true;
}

void DilosRuntime::RunPrefetcher(const FaultInfo& info, int core) {
  prefetch_scratch_.clear();
  prefetchers_[static_cast<size_t>(core)]->OnFault(info, &prefetch_scratch_);
  FaultClock& fc = clocks_[static_cast<size_t>(core)];
  uint64_t issue_work = 0;
  for (uint64_t p : prefetch_scratch_) {
    if (StartPrefetch(PageOf(p), fc.now() + issue_work, core, CommChannel::kPrefetch)) {
      issue_work += cost_.dilos_prefetch_issue_ns;
    }
  }
  fc.Advance(issue_work, LatComp::kPrefetch);
}

uint8_t* DilosRuntime::HandleFault(uint64_t vaddr, uint32_t len, bool write, int core) {
  FaultClock& fc = clocks_[static_cast<size_t>(core)];
  Clock& clk = fc.clock();
  uint64_t page_va = PageOf(vaddr);
  Pte* e = pt_.Entry(page_va, /*create=*/true);
  PteTag tag = PteTagOf(*e);
  // A fault that fills a frame is a breakdown event with a critical path: its
  // scope opens (or deepens) before the exception, trap and PTE check.
  if (tag == PteTag::kAction || tag == PteTag::kTier || tag == PteTag::kRemote) {
    fc.Enter(page_va, cost_.hw_exception_ns, cost_.os_trap_entry_ns + cost_.dilos_pte_check_ns);
  } else {
    clk.Advance(cost_.hw_exception_ns + cost_.os_trap_entry_ns + cost_.dilos_pte_check_ns);
  }

  switch (tag) {
    case PteTag::kLocal:
      break;  // Raced with a concurrent map; fall through to return below.

    case PteTag::kEmpty: {
      // Anonymous first touch: allocate a zero frame, no network.
      stats_.zero_fill_faults++;
      tracer_.Record(clk.now(), TraceEvent::kZeroFill, page_va);
      uint32_t frame = pm_.AllocFrame(fc, page_va);
      std::memset(pool_.Data(frame), 0, kPageSize);
      *pt_.Entry(page_va, true) =
          MakeLocalPte(frame, true) | kPteAccessed | kPteDirty;  // Content exists only locally.
      pm_.OnMapped(page_va);
      clk.Advance(cost_.zero_fill_ns);
      Background(clk.now(), page_va);
      break;
    }

    case PteTag::kFetching: {
      if (std::optional<FaultFiber> fiber = RetireParked(page_va)) {
        // Touch of a page whose own demand fault is still parked (depth > 1):
        // wait for its data and install that fiber directly, as a batch of
        // one, instead of counting a new minor fault — at depth 1 this second
        // touch would have been a plain local hit, because the first fault
        // resolved in-handler.
        uint32_t resume_span =
            tracer_.BeginSpan(SpanKind::kFaultResume, clk.now(), page_va, /*detail=*/1);
        clk.AdvanceTo(fiber->done_ns);
        fiber->write = fiber->write || write;  // Dirty if either access wrote.
        harvest_scratch_.assign(1, *fiber);
        InstallFibers(core, resume_span);
        DrainArrivals(clk.now());
        Background(clk.now(), page_va);
        break;
      }
      // Minor fault: the page is in flight for a prefetch. Let window
      // prefetchers stream ahead while we wait.
      stats_.minor_faults++;
      tracer_.Record(clk.now(), TraceEvent::kMinorFault, page_va);
      auto it = inflight_.find(page_va);
      if (it == inflight_.end()) {
        // Another core mapped it between our check and now (model artifact);
        // retry the walk.
        return Pin(vaddr, len, write, core);
      }
      // Read now: the prefetches below insert into inflight_, and a rehash
      // would invalidate `it`.
      const uint64_t done_ns = it->second;
      FaultInfo info{vaddr, write, /*major=*/false, tracker_.hit_ratio()};
      RunPrefetcher(info, core);
      if (guide_ != nullptr) {
        // Guides keep chasing while we wait for the in-flight page, just as
        // they do inside a major fault's fetch window.
        RuntimeGuideContext ctx(*this, core, clk.now());
        guide_->OnFault(ctx, vaddr, write);
      }
      // Erased only after that work: the erase point shapes inflight_'s
      // iteration order, and so the order in which DrainArrivals maps
      // arrived prefetches into the LRU.
      inflight_.erase(page_va);
      clk.AdvanceTo(done_ns);
      MapInflight(page_va, kPteAccessed | (write ? kPteDirty : 0));
      clk.Advance(cost_.dilos_map_ns + cost_.map_tlb_flush_ns);
      DrainArrivals(clk.now());
      Background(clk.now(), page_va);
      break;
    }

    case PteTag::kAction: {
      // Guided paging re-fetch: move only the live segments recorded at
      // eviction time, zero the rest (it was dead to the allocator).
      stats_.major_faults++;
      tracer_.Record(clk.now(), TraceEvent::kActionFetch, page_va);
      uint64_t log_idx = PtePayload(*e);
      uint32_t frame = pm_.AllocFrame(fc, page_va);
      // Looked up after the frame is allocated: direct reclaim may evict
      // through an action slot, and growing the action log moves the lists.
      const std::vector<PageSegment>* segs = pm_.ActionSegments(log_idx);
      std::memset(pool_.Data(frame), 0, kPageSize);
      uint64_t cursor = clk.now();
      DemandFetch(page_va, pool_.Addr(frame), segs, core, CommChannel::kFault, &cursor);
      stats_.vectored_ops++;
      for (const PageSegment& s : *segs) {
        stats_.bytes_fetched += s.length;
      }
      uint64_t done = cursor + (cfg_.tcp_emulation ? cost_.tcp_delay_ns : 0);
      fc.Charge(FaultPhase::kWire, cursor, done);
      fc.AwaitFetch(done, /*other_fault=*/false);
      pm_.ReleaseAction(log_idx);
      *pt_.Entry(page_va, true) =
          MakeLocalPte(frame, true) | kPteAccessed | (write ? kPteDirty : 0);
      pm_.OnMapped(page_va);
      fc.Advance(cost_.dilos_map_ns + cost_.map_tlb_flush_ns, LatComp::kMap);
      DrainArrivals(clk.now());
      Background(clk.now(), page_va);
      EndFault(fc);
      break;
    }

    case PteTag::kTier: {
      // Tier hit: the page sits compressed in local DRAM — expand it in
      // place, no network. A cold miss costs one decompress instead of the
      // RDMA round trip; that gap is the tier's entire point.
      stats_.minor_faults++;
      stats_.tier_hits++;
      uint32_t frame = pm_.AllocFrame(fc, page_va);
      bool was_dirty = false;
      bool present = tier_ != nullptr && tier_->Contains(page_va);
      if (tier_ == nullptr || !tier_->Take(page_va, pool_.Data(frame), &was_dirty)) {
        if (present) {
          // The entry existed but its blob failed decompression (in-DRAM
          // rot): Take() dropped it. The remote copy serves the fault —
          // minus any deferred write-back the entry still carried; the
          // counter is what makes that loss observable.
          stats_.tier_corrupt_drops++;
          tracer_.Record(clk.now(), TraceEvent::kTierCorrupt, page_va);
        }
        // Otherwise defensive: a tier PTE without a tier entry should not
        // happen. Either way fall back to the remote copy (re-faulting
        // charges the exception again).
        pool_.Free(frame);
        stats_.tier_hits--;
        stats_.minor_faults--;
        *pt_.Entry(page_va, true) = MakeRemotePte(page_va >> kPageShift);
        // One fault: the remote retry re-enters this fault's scope, so one
        // `fault` span, one breakdown event and one slice cover it all.
        uint8_t* resolved = Pin(vaddr, len, write, core);
        EndFault(fc);
        return resolved;
      }
      fc.Advance(cost_.tier_decompress_page_ns, LatComp::kDecompress, SpanKind::kTierDecompress);
      // A page admitted dirty whose deferred write-back has not drained yet
      // comes back dirty: its content still exists nowhere but here.
      *pt_.Entry(page_va, true) = MakeLocalPte(frame, true) | kPteAccessed |
                                  ((write || was_dirty) ? kPteDirty : 0);
      pm_.OnMapped(page_va);
      fc.Advance(cost_.dilos_map_ns + cost_.map_tlb_flush_ns, LatComp::kMap);
      tracer_.Record(clk.now(), TraceEvent::kTierHit, page_va, was_dirty ? 1 : 0);
      DrainArrivals(clk.now());
      Background(clk.now(), page_va);
      EndFault(fc);
      break;
    }

    case PteTag::kRemote: {
      // Major fault: post the read, park a fiber, hide every other piece of
      // work inside the fetch window, then install.
      stats_.major_faults++;
      if (tier_ != nullptr) {
        stats_.tier_misses++;  // Cold miss the tier no longer holds (or never did).
      }
      if (hotness_ != nullptr) {
        hotness_->OnDemandFault(page_va);  // Granule heat for the auto-migrator.
      }
      tracer_.Record(clk.now(), TraceEvent::kMajorFault, page_va);
      uint32_t frame = pm_.AllocFrame(fc, page_va);
      uint64_t cursor = clk.now();
      Completion c =
          DemandFetch(page_va, pool_.Addr(frame), nullptr, core, CommChannel::kFault, &cursor);
      stats_.bytes_fetched += kPageSize;
      // The read's whole resolution timeline (retries, backoff, EC decode,
      // failover — DemandFetch advanced `cursor` past all of it) is known:
      // park a fiber carrying the completion time. The data already sits in
      // the frame (the sim moves bytes synchronously; only time is
      // simulated), so the faulting access can complete — the page just
      // stays kFetching until an install commits its PTE.
      uint64_t done = cursor + (cfg_.tcp_emulation ? cost_.tcp_delay_ns : 0);
      fc.Charge(FaultPhase::kWire, cursor, done);
      if (c.status != WcStatus::kSuccess) {
        // Every replica is gone: the content is unrecoverable. Surface a
        // zero page (failed_fetches records the loss) rather than whatever
        // the recycled frame last held.
        std::memset(pool_.Data(frame), 0, kPageSize);
      }
      *pt_.Entry(page_va, true) = MakeFetchingPte(frame);
      FaultPipeline& pipe = pipelines_[static_cast<size_t>(core)];
      if (pipe.Full()) {
        // Only this case admits, and its end-of-handler stall below leaves
        // fewer than depth fibers parked, so a full pipeline here is a bug.
        std::fprintf(stderr, "fault pipeline full at admission: core %d, depth %u\n", core,
                     static_cast<unsigned>(pipe.depth()));
        std::abort();
      }
      // The fiber now carries the slice. Fiber switch costs exist only when
      // there is another fiber to switch to; at depth 1 the fault costs
      // exactly a blocking wait.
      fc.Park(pipe, done, write, pipe.depth() > 1 ? cost_.fiber_park_ns : 0);
      stats_.fault_parks++;
      stats_.fault_inflight_peak = std::max(stats_.fault_inflight_peak, ++stats_.fault_inflight);

      // Work hidden in the fetch window: guide, hit tracker, prefetcher,
      // background manager.
      if (guide_ != nullptr) {
        RuntimeGuideContext ctx(*this, core, clk.now());
        guide_->OnFault(ctx, vaddr, write);
      }
      tracker_.Scan(pt_, [this](uint64_t, Pte pte) { pm_.OnAccessCleared(pte); });
      fc.Advance(cost_.dilos_hit_tracker_ns, LatComp::kPrefetch);
      FaultInfo info{vaddr, write, /*major=*/true, tracker_.hit_ratio()};
      RunPrefetcher(info, core);
      Background(clk.now(), page_va);

      if (pipe.Full()) {
        // Depth limit: stall the core until the oldest completion so the
        // next fault finds an admission slot. At depth 1 the oldest is this
        // fault, which therefore resolves in-handler.
        stats_.fault_pipeline_stalls++;
        uint64_t oldest_ns = pipe.OldestDoneNs();
        fc.AwaitFetch(oldest_ns, /*other_fault=*/oldest_ns < done);
      }
      HarvestFaultPipeline(core, clk.now());
      DrainArrivals(clk.now());
      EndFault(fc);
      if (PteTagOf(*pt_.Entry(page_va, true)) == PteTag::kLocal) {
        break;  // Installed in-handler; the common exit sets the A/D bits.
      }
      // Still parked: hand the frame to the faulting access directly. The
      // PTE stays kFetching until a later harvest installs it.
      return pool_.Data(frame) + (vaddr & (kPageSize - 1));
    }
  }

  e = pt_.Entry(page_va, true);
  *e |= kPteAccessed | (write ? kPteDirty : 0);
  return pool_.Data(static_cast<uint32_t>(PtePayload(*e))) + (vaddr & (kPageSize - 1));
}

}  // namespace dilos
