#include "src/aifm/aifm.h"

#include <cstring>

namespace dilos {

namespace {

constexpr size_t kPrefetchDepth = 16;  // Streaming prefetcher look-ahead (objects).

}  // namespace

AifmRuntime::AifmRuntime(Fabric& fabric, AifmConfig cfg)
    : fabric_(fabric), cfg_(cfg), cost_(fabric.cost()), qp_(fabric.CreateQp()) {}

ObjId AifmRuntime::Allocate(uint64_t size) {
  // Zeroing a fresh object costs the same first-touch work the paged
  // systems pay in their zero-fill fault path.
  clock_.Advance(((size + kPageSize - 1) / kPageSize) *
                 (cost_.hw_exception_ns + cost_.zero_fill_ns) / 2);
  Object obj;
  obj.size = static_cast<uint32_t>(size);
  // Far backing is page-aligned per object so remote segments are simple.
  uint64_t npages = (size + kPageSize - 1) / kPageSize;
  obj.far_addr = far_cursor_;
  far_cursor_ += npages * kPageSize;
  obj.local = true;
  obj.dirty = true;  // Content exists only locally until first evacuation.
  obj.data = std::make_unique<uint8_t[]>(size);
  std::memset(obj.data.get(), 0, size);
  local_bytes_ += size;
  objects_.push_back(std::move(obj));
  ObjId id = objects_.size() - 1;
  resident_.push_back(id);
  EvacuateIfNeeded(id);
  return id;
}

void AifmRuntime::FreeObj(ObjId id) {
  Object& obj = objects_[id];
  if (obj.freed) {
    return;
  }
  if (obj.local) {
    local_bytes_ -= obj.size;
    obj.data.reset();
    obj.local = false;
  }
  obj.freed = true;
}

uint64_t AifmRuntime::PostObjectIo(Object& obj, bool is_write, uint64_t issue_ns) {
  WorkRequest wr;
  wr.wr_id = ++wr_id_;
  wr.opcode = is_write ? RdmaOpcode::kWrite : RdmaOpcode::kRead;
  wr.rkey = qp_->remote_rkey();
  uint64_t local = reinterpret_cast<uint64_t>(obj.data.get());
  uint64_t remote = obj.far_addr;
  uint64_t left = obj.size;
  while (left > 0) {
    uint32_t in_page = static_cast<uint32_t>(kPageSize - (remote & (kPageSize - 1)));
    uint32_t chunk = left < in_page ? static_cast<uint32_t>(left) : in_page;
    wr.segs.push_back({local, remote, chunk});
    local += chunk;
    remote += chunk;
    left -= chunk;
  }
  Completion c = qp_->PostSend(wr, issue_ns);
  uint64_t done = c.completion_time_ns + cost_.tcp_delay_ns;  // AIFM's data path is TCP.
  if (is_write) {
    stats_.bytes_written += obj.size;
  } else {
    stats_.bytes_fetched += obj.size;
  }
  return done;
}

void AifmRuntime::EvacuateIfNeeded(ObjId pinned) {
  // The evacuator runs pauselessly on background threads: the app core pays
  // nothing; write-back traffic still occupies the link.
  size_t guard = resident_.size() * 2 + 1;
  while (local_bytes_ > cfg_.local_mem_bytes && guard-- > 0 && !resident_.empty()) {
    ObjId victim = resident_.front();
    resident_.pop_front();
    Object& obj = objects_[victim];
    if (!obj.local || obj.freed) {
      continue;
    }
    if (victim == pinned) {
      resident_.push_back(victim);
      continue;
    }
    if (obj.hot) {
      obj.hot = false;  // Second chance for recently dereferenced objects.
      resident_.push_back(victim);
      continue;
    }
    if (obj.dirty) {
      PostObjectIo(obj, /*is_write=*/true, clock_.now());
      stats_.writebacks++;
      obj.dirty = false;
    }
    obj.data.reset();
    obj.local = false;
    obj.arrival_ns = 0;
    if (obj.prefetched) {
      obj.prefetched = false;
      prefetch_window_bytes_ -= obj.size;
    }
    local_bytes_ -= obj.size;
    stats_.evictions++;
  }
}

void AifmRuntime::FetchObject(ObjId id) {
  Object& obj = objects_[id];
  obj.data = std::make_unique<uint8_t[]>(obj.size);
  obj.local = true;
  local_bytes_ += obj.size;
  resident_.push_back(id);
  obj.arrival_ns = PostObjectIo(obj, /*is_write=*/false, clock_.now());
  EvacuateIfNeeded(id);
}

void AifmRuntime::MaybeStreamPrefetch(ObjId id) {
  if (last_id_ != UINT64_MAX && id == last_id_ + 1) {
    ++streak_;
  } else if (id != last_id_) {
    streak_ = 0;
  }
  last_id_ = id;
  if (streak_ < 2) {
    return;
  }
  // Background prefetch threads pull the next objects of the stream; issue
  // time is now, arrival is wire-paced. The app core is not charged.
  for (size_t k = 1; k <= kPrefetchDepth; ++k) {
    ObjId next = id + k;
    if (next >= objects_.size()) {
      break;
    }
    Object& obj = objects_[next];
    if (obj.local || obj.freed) {
      continue;
    }
    // Keep the unconsumed stream window bounded to half the local budget so
    // the evacuator never has to eat the window's own tail.
    if (prefetch_window_bytes_ + obj.size > cfg_.local_mem_bytes / 2) {
      break;
    }
    obj.data = std::make_unique<uint8_t[]>(obj.size);
    obj.local = true;
    obj.hot = true;  // Shield the in-flight window from the evacuator.
    obj.prefetched = true;
    prefetch_window_bytes_ += obj.size;
    local_bytes_ += obj.size;
    resident_.push_back(next);
    obj.arrival_ns = PostObjectIo(obj, /*is_write=*/false, clock_.now());
    stats_.prefetch_issued++;
  }
  EvacuateIfNeeded(id);
}

uint8_t* AifmRuntime::Deref(ObjId id, bool write) {
  Object& obj = objects_[id];
  clock_.Advance(cfg_.deref_check_ns + cost_.local_pin_ns);
  obj.hot = true;  // Mark before any evacuation can run.
  MaybeStreamPrefetch(id);
  if (!obj.local) {
    stats_.major_faults++;  // "Miss" in AIFM terms.
    FetchObject(id);
    clock_.AdvanceTo(obj.arrival_ns);
    obj.arrival_ns = 0;
  } else if (obj.arrival_ns != 0) {
    // Prefetched and still in flight.
    stats_.minor_faults++;
    clock_.AdvanceTo(obj.arrival_ns);
    obj.arrival_ns = 0;
  }
  obj.hot = true;
  if (obj.prefetched) {
    obj.prefetched = false;
    prefetch_window_bytes_ -= obj.size;
  }
  if (write) {
    obj.dirty = true;
  }
  return obj.data.get();
}

}  // namespace dilos
