#include "src/fastswap/fastswap.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dilos {

namespace {

constexpr uint32_t kReadaheadCluster = 8;  // Linux swap readahead window (2^3).
constexpr size_t kFreeTarget = 8;          // Low watermark that triggers per-fault reclaim.

uint64_t PageOf(uint64_t vaddr) { return vaddr & ~static_cast<uint64_t>(kPageSize - 1); }

}  // namespace

FastswapRuntime::FastswapRuntime(Fabric& fabric, FastswapConfig cfg)
    : fabric_(fabric),
      cfg_(cfg),
      cost_(fabric.cost()),
      pool_(cfg.local_mem_bytes / kPageSize),
      clocks_(static_cast<size_t>(cfg.num_cores), FaultClock(stats_.fault_breakdown, nullptr)),
      qp_(fabric.CreateQp()),
      cache_lru_(pool_.total()),
      lru_(pool_.total()) {}

uint64_t FastswapRuntime::AllocRegion(uint64_t bytes) {
  uint64_t base = next_region_;
  uint64_t pages = (bytes + kPageSize - 1) / kPageSize;
  next_region_ += (pages + 16) * kPageSize;
  return base;
}

void FastswapRuntime::FreeRegion(uint64_t addr, uint64_t bytes) {
  uint64_t end = addr + bytes;
  for (uint64_t page_va = PageOf(addr); page_va < end; page_va += kPageSize) {
    auto cached = swap_cache_.find(page_va);
    if (cached != swap_cache_.end()) {
      pool_.Free(cached->second.frame);
      cache_lru_.Erase(cached->second.frame);
      swap_cache_.erase(cached);
    }
    Pte* e = pt_.Entry(page_va, /*create=*/false);
    if (e == nullptr) {
      continue;
    }
    if (PteTagOf(*e) == PteTag::kLocal) {
      uint32_t frame = static_cast<uint32_t>(PtePayload(*e));
      pool_.Free(frame);
      lru_.Erase(frame);
    }
    *e = 0;
  }
}

void FastswapRuntime::MapFrame(uint64_t page_va, uint32_t frame, bool write) {
  *pt_.Entry(page_va, true) =
      MakeLocalPte(frame, true) | kPteAccessed | (write ? kPteDirty : 0);
  lru_.PushBack(frame, page_va);
}

bool FastswapRuntime::EvictOne(FaultClock& fc, bool charged) {
  // Sweep mapped pages with second chance (the inactive list analogue).
  size_t limit = lru_.size() * 2 + 1;
  for (size_t scanned = 0; scanned < limit && lru_.size() > 0; ++scanned) {
    uint32_t frame = lru_.front();
    uint64_t page_va = lru_.va(frame);
    lru_.Erase(frame);
    Pte* e = pt_.Entry(page_va, /*create=*/false);
    if (*e & kPteAccessed) {
      *e &= ~kPteAccessed;
      lru_.PushBack(frame, page_va);
      continue;
    }
    bool dirty = (*e & kPteDirty) != 0;
    if (charged) {
      fc.Advance(cost_.fsw_direct_reclaim_ns, LatComp::kReclaim);
    }
    *pt_.Entry(page_va, true) = MakeRemotePte(page_va >> kPageShift);
    if (dirty) {
      // Frontswap stores are synchronous: direct reclaim polls the write to
      // completion in the fault path; the offload thread parks the frame
      // until its write completes.
      Completion c = qp_->PostWrite(++wr_id_, pool_.Addr(frame), page_va, kPageSize, fc.now());
      stats_.writebacks++;
      stats_.bytes_written += kPageSize;
      if (charged) {
        fc.AdvanceTo(c.completion_time_ns, LatComp::kReclaim);
        pool_.Free(frame);
      } else {
        pending_free_.emplace_back(frame, c.completion_time_ns);
      }
    } else {
      pool_.Free(frame);
    }
    stats_.evictions++;
    return true;
  }
  // Fallback: drop a clean, never-touched swap-cache fill.
  if (cache_lru_.size() > 0) {
    uint32_t frame = cache_lru_.front();
    swap_cache_.erase(cache_lru_.va(frame));
    cache_lru_.Erase(frame);
    pool_.Free(frame);
    stats_.evictions++;
    ra_dropped_++;
    if (charged) {
      fc.Advance(cost_.fsw_direct_reclaim_ns / 2, LatComp::kReclaim);  // Cache drop is cheaper.
    }
    return true;
  }
  return false;
}

void FastswapRuntime::DrainPendingFrees(uint64_t now) {
  while (!pending_free_.empty() && pending_free_.front().second <= now) {
    pool_.Free(pending_free_.front().first);
    pending_free_.pop_front();
  }
}

std::optional<uint32_t> FastswapRuntime::EnsureFrame(FaultClock& fc) {
  // Fastswap reclaims one page per fault while under memory pressure: the
  // offload thread absorbs (1 - fraction) of those events, the rest run as
  // direct reclamation inside the fault handler (charged). Deterministic
  // rotation via a debt accumulator.
  DrainPendingFrees(fc.now());
  size_t watermark = kFreeTarget;
  size_t cap = pool_.total() / 8 + 1;
  if (watermark > cap) {
    watermark = cap;
  }
  if (pool_.free_count() + pending_free_.size() < watermark) {
    reclaim_debt_ += cost_.fsw_direct_reclaim_fraction;
    bool direct = reclaim_debt_ >= 1.0;
    if (direct) {
      reclaim_debt_ -= 1.0;
      ++direct_reclaims_;
    }
    EvictOne(fc, /*charged=*/direct);
    DrainPendingFrees(fc.now());
  }
  std::optional<uint32_t> fid = pool_.Alloc();
  while (!fid.has_value()) {
    // Pool drained: wait for an in-flight swap-out, or reclaim synchronously.
    if (!pending_free_.empty()) {
      fc.AdvanceTo(pending_free_.front().second, LatComp::kReclaim);
      DrainPendingFrees(fc.now());
    } else {
      ++direct_reclaims_;
      if (!EvictOne(fc, /*charged=*/true)) {
        break;
      }
      DrainPendingFrees(fc.now());
    }
    fid = pool_.Alloc();
  }
  return fid;
}

uint32_t FastswapRuntime::FaultFrame(uint64_t page_va, FaultClock& fc) {
  std::optional<uint32_t> fid = EnsureFrame(fc);
  if (!fid.has_value()) {
    std::fprintf(stderr, "Fastswap out of frames at page 0x%llx: all %zu frames unevictable\n",
                 static_cast<unsigned long long>(page_va), pool_.total());
    std::abort();
  }
  return *fid;
}

void FastswapRuntime::Readahead(uint64_t fault_page, FaultClock& fc) {
  if (!cfg_.readahead_enabled) {
    return;
  }
  // Adapt the window to the recent fill hit rate (swap_vma_readahead).
  if (ra_consumed_ + ra_dropped_ >= 64) {
    double ratio = static_cast<double>(ra_consumed_) /
                   static_cast<double>(ra_consumed_ + ra_dropped_);
    ra_window_ = ratio > 0.8 ? kReadaheadCluster : ratio > 0.5 ? 4 : ratio > 0.2 ? 2 : 1;
    ra_consumed_ = 0;
    ra_dropped_ = 0;
  }
  for (uint32_t i = 1; i < ra_window_; ++i) {
    uint64_t page_va = fault_page + static_cast<uint64_t>(i) * kPageSize;
    Pte pte = pt_.Get(page_va);
    if (PteTagOf(pte) != PteTag::kRemote || swap_cache_.count(page_va) != 0) {
      continue;
    }
    // Readahead pages go through the same allocation path as the demand
    // page: under memory pressure that means reclamation work, a share of
    // which runs right here in the fault context.
    std::optional<uint32_t> fid = EnsureFrame(fc);
    if (!fid.has_value()) {
      break;
    }
    // Page allocation + swap-cache insertion for every readahead page costs
    // fault-path CPU (the Linux swap path's per-page software overhead).
    fc.clock().Advance(cost_.fsw_page_alloc_ns + cost_.fsw_swapcache_mgmt_ns);
    Completion c = qp_->PostRead(++wr_id_, pool_.Addr(*fid), page_va, kPageSize, fc.now());
    stats_.prefetch_issued++;
    stats_.bytes_fetched += kPageSize;
    swap_cache_[page_va] = CacheEntry{*fid, c.completion_time_ns};
    cache_lru_.PushBack(*fid, page_va);
  }
}

uint8_t* FastswapRuntime::Pin(uint64_t vaddr, uint32_t len, bool write, int core) {
  Clock& clk = clocks_[static_cast<size_t>(core)].clock();
  Pte* e = pt_.Entry(vaddr, /*create=*/true);
  if (PteTagOf(*e) == PteTag::kLocal) {
    *e |= kPteAccessed | (write ? kPteDirty : 0);
    clk.Advance(cost_.local_pin_ns +
                static_cast<uint64_t>(cost_.local_per_byte_ns * static_cast<double>(len)));
    return pool_.Data(static_cast<uint32_t>(PtePayload(*e))) + (vaddr & (kPageSize - 1));
  }
  return HandleFault(vaddr, len, write, core);
}

uint8_t* FastswapRuntime::HandleFault(uint64_t vaddr, uint32_t len, bool write, int core) {
  (void)len;
  FaultClock& fc = clocks_[static_cast<size_t>(core)];
  Clock& clk = fc.clock();
  uint64_t page_va = PageOf(vaddr);
  auto cached = swap_cache_.find(page_va);
  Pte* e = pt_.Entry(page_va, /*create=*/true);
  PteTag tag = PteTagOf(*e);
  // Only a major fault is a breakdown event: it opens the fault scope, which
  // charges the exception and trap entry.
  if (cached == swap_cache_.end() && tag != PteTag::kLocal && tag != PteTag::kEmpty) {
    fc.Enter(page_va, cost_.hw_exception_ns, cost_.os_trap_entry_ns);
  } else {
    clk.Advance(cost_.hw_exception_ns + cost_.os_trap_entry_ns);
  }

  // Minor fault: the page sits in the swap cache (filled or filling).
  if (cached != swap_cache_.end()) {
    stats_.minor_faults++;
    ra_consumed_++;
    clk.Advance(cost_.fsw_minor_fault_sw_ns);
    clk.AdvanceTo(cached->second.done_ns);
    uint32_t frame = cached->second.frame;
    cache_lru_.Erase(frame);
    swap_cache_.erase(cached);
    MapFrame(page_va, frame, write);
    clk.Advance(cost_.map_tlb_flush_ns);
    return pool_.Data(frame) + (vaddr & (kPageSize - 1));
  }

  if (tag == PteTag::kLocal) {
    // Raced with our own earlier map (page-crossing pin); just return.
    return pool_.Data(static_cast<uint32_t>(PtePayload(*e))) + (vaddr & (kPageSize - 1));
  }

  if (tag == PteTag::kEmpty) {
    // Anonymous zero-fill, no swap entry yet.
    stats_.zero_fill_faults++;
    uint32_t frame = FaultFrame(page_va, fc);
    std::memset(pool_.Data(frame), 0, kPageSize);
    clk.Advance(cost_.zero_fill_ns);
    MapFrame(page_va, frame, /*write=*/true);  // Content exists only locally.
    return pool_.Data(frame) + (vaddr & (kPageSize - 1));
  }

  // Major fault through the swap subsystem.
  stats_.major_faults++;
  fc.Advance(cost_.fsw_swap_entry_ns, LatComp::kSwapEntry);
  uint32_t frame = FaultFrame(page_va, fc);
  fc.Advance(cost_.fsw_page_alloc_ns, LatComp::kPageAlloc);
  fc.Advance(cost_.fsw_swapcache_mgmt_ns, LatComp::kSwapCacheMgmt);

  Completion c = qp_->PostRead(++wr_id_, pool_.Addr(frame), page_va, kPageSize, clk.now());
  stats_.bytes_fetched += kPageSize;

  // Readahead issues cluster fills while the demand fetch is in flight.
  Readahead(page_va, fc);
  fc.AdvanceTo(c.completion_time_ns, LatComp::kFetch);

  MapFrame(page_va, frame, write);
  fc.Advance(cost_.map_tlb_flush_ns, LatComp::kMap);
  fc.Exit();
  return pool_.Data(frame) + (vaddr & (kPageSize - 1));
}

}  // namespace dilos
