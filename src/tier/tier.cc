#include "src/tier/tier.h"

#include "src/rdma/verbs.h"
#include "src/tier/compress.h"

namespace dilos {

CompressedTier::Admit CompressedTier::AdmitPage(uint64_t page_va, const uint8_t* page,
                                                bool dirty, uint32_t* csize) {
  constexpr size_t cap = static_cast<size_t>(kTierMaxRatio * static_cast<double>(kPageSize));
  if (scratch_.size() < cap) {
    scratch_.resize(cap);
  }
  size_t n = TierCompress(page, kPageSize, scratch_.data(), cap);
  if (n == 0) {
    return Admit::kIncompressible;
  }
  Drop(page_va);  // Replace any stale entry for the same page.
  Entry e;
  e.h = pool_.Alloc(scratch_.data(), static_cast<uint32_t>(n));
  e.csize = static_cast<uint32_t>(n);
  e.dirty = dirty;
  lru_.push_back(page_va);
  e.lru_it = std::prev(lru_.end());
  entries_.emplace(page_va, e);
  if (csize != nullptr) {
    *csize = e.csize;
  }
  return Admit::kStored;
}

bool CompressedTier::Take(uint64_t page_va, uint8_t* out, bool* was_dirty) {
  auto it = entries_.find(page_va);
  if (it == entries_.end()) {
    return false;
  }
  const Entry& e = it->second;
  if (TierDecompress(pool_.Data(e.h), e.csize, out, kPageSize) != kPageSize) {
    // Corrupt blob: the content is unrecoverable, so keeping the entry
    // would only leak its pool blocks against the capacity budget and fail
    // every later Take()/Read() the same way. Drop it; the caller falls
    // back to the remote copy and accounts the loss.
    pool_.Free(e.h, e.csize);
    lru_.erase(e.lru_it);
    entries_.erase(it);
    return false;
  }
  if (was_dirty != nullptr) {
    *was_dirty = e.dirty;
  }
  pool_.Free(e.h, e.csize);
  lru_.erase(e.lru_it);
  entries_.erase(it);
  return true;
}

bool CompressedTier::Read(uint64_t page_va, uint8_t* out) const {
  auto it = entries_.find(page_va);
  if (it == entries_.end()) {
    return false;
  }
  const Entry& e = it->second;
  return TierDecompress(pool_.Data(e.h), e.csize, out, kPageSize) == kPageSize;
}

void CompressedTier::MarkClean(uint64_t page_va) {
  auto it = entries_.find(page_va);
  if (it != entries_.end()) {
    it->second.dirty = false;
  }
}

void CompressedTier::Drop(uint64_t page_va) {
  auto it = entries_.find(page_va);
  if (it == entries_.end()) {
    return;
  }
  pool_.Free(it->second.h, it->second.csize);
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

bool CompressedTier::Oldest(uint64_t* page_va, bool* dirty) const {
  if (lru_.empty()) {
    return false;
  }
  uint64_t va = lru_.front();
  const Entry& e = entries_.at(va);
  *page_va = va;
  *dirty = e.dirty;
  return true;
}

void CompressedTier::CollectDirty(size_t max, std::vector<uint64_t>* out) const {
  for (uint64_t va : lru_) {
    if (out->size() >= max) {
      return;
    }
    if (entries_.at(va).dirty) {
      out->push_back(va);
    }
  }
}

void CompressedTier::Requeue(uint64_t page_va) {
  auto it = entries_.find(page_va);
  if (it == entries_.end()) {
    return;
  }
  lru_.erase(it->second.lru_it);
  lru_.push_back(page_va);
  it->second.lru_it = std::prev(lru_.end());
}

}  // namespace dilos
