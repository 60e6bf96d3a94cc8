// End-to-end page integrity: per-page checksums, arrival verification, and
// the checked write-back primitive.
//
// The cleaner computes a 64-bit checksum for every full page it writes back
// and installs it next to the page on the memory node (PageStore keeps the
// checksum map the way a real node keeps per-block CRCs in a metadata region
// of the same registration). Three properties follow:
//
//  * Write-side ("ICRC analog"): WritePageChecked compares the *stored*
//    bytes with the source right after the write lands — the way an RNIC
//    validates the ICRC trailer before committing a packet — and re-posts
//    the write on mismatch. A payload bit flipped in flight on the write
//    path therefore never becomes durable silently. The compare is a
//    memcmp: exact, and it spares hashing the page a second time.
//  * Read-side: every full-page arrival (demand fetch, prefetch, EC survivor
//    read, repair source read, scrub read) re-hashes the received bytes and
//    compares against the stored checksum. Computing the hash costs zero
//    simulated time: NICs do CRC at line rate, so verification adds no
//    latency and no wire ops on healthy runs.
//  * Pages without a checksum verify trivially. Only full-page write-backs
//    install one; a vectored (guided) write-back drops it, because the bytes
//    between live segments are indeterminate by design. That gap is
//    documented in DESIGN.md §9 — guided paging trades it for bandwidth.
#ifndef DILOS_SRC_RECOVERY_INTEGRITY_H_
#define DILOS_SRC_RECOVERY_INTEGRITY_H_

#include <cstdint>
#include <cstring>

#include "src/memnode/page_store.h"
#include "src/rdma/queue_pair.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace dilos {

// One step of a PageChecksum lane: xor in a word, multiply by an odd
// constant, xor-shift. Each part is a bijection of `h` for a fixed `w`, and
// the xor makes the result differ for any two words.
inline uint64_t ChecksumStep(uint64_t h, uint64_t w) {
  h ^= w;
  h *= 0x100000001B3ULL;
  return h ^ (h >> 29);
}

// 64-bit FNV-1a-style mix over the page — the stand-in for the CRC an RNIC
// computes at line rate. Word i feeds lane i mod 4, so the four independent
// multiply chains overlap in the pipeline (kept in scalars: an array of
// lanes is not kept in registers at -O2), and the lanes fold together with
// the same step. Since every step is a bijection of its lane, a change
// confined to one 8-byte word, such as any single flipped bit, always
// changes the result.
inline uint64_t PageChecksum(const uint8_t* data) {
  auto word = [data](uint32_t i) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    return w;
  };
  constexpr uint64_t kBasis = 0xCBF29CE484222325ULL;
  uint64_t a = kBasis, b = kBasis ^ 1, c = kBasis ^ 2, d = kBasis ^ 3;
  for (uint32_t i = 0; i < kPageSize; i += 32) {
    a = ChecksumStep(a, word(i));
    b = ChecksumStep(b, word(i + 8));
    c = ChecksumStep(c, word(i + 16));
    d = ChecksumStep(d, word(i + 24));
  }
  return ChecksumStep(ChecksumStep(ChecksumStep(a, b), c), d);
}

// Verifies `bytes` (a full page received for `page_va`) against the checksum
// installed on `store`. True when no checksum exists — nothing to verify
// against (the page was never fully written back).
inline bool VerifyPageBytes(const PageStore& store, uint64_t page_va, const uint8_t* bytes) {
  auto it = store.checksums().find(page_va >> kPageShift);
  return it == store.checksums().end() || it->second == PageChecksum(bytes);
}

// Freshness check beside the content check: true when the copy on `store`
// lags the expected write generation — it verified against its (old)
// checksum but missed at least one later full-page write-back (the
// partitioned-replica gap: stale-but-verified bytes). expected_gen == 0
// (page never generation-tagged by a cleaner) verifies trivially.
inline bool PageIsStale(const PageStore& store, uint64_t page_va, uint32_t expected_gen) {
  if (expected_gen == 0) {
    return false;
  }
  return store.Generation(page_va >> kPageShift) < expected_gen;
}

// Full-page write with target-side integrity: posts the write at `issue_ns`,
// installs the checksum (and, when `generation` is nonzero, the write
// generation — freshness metadata travelling with the payload), and
// compares the bytes that actually landed with `data` — re-posting on
// mismatch (a wire flip on the write path), up to `max_retries` times.
// Returns the final completion; liveness failures (kTimeout etc.) are
// returned untouched for the caller's failover logic — a dropped write
// installs neither checksum nor generation, which is exactly what lets
// readers detect the laggard.
// If retries exhaust with the stored copy still corrupt, the (correct)
// checksum stays installed, so every later read detects the rot and heals
// from redundancy — metadata is never made to agree with bad bytes.
inline Completion WritePageChecked(QueuePair* qp, PageStore& store, uint64_t page_va,
                                   const uint8_t* data, uint64_t issue_ns, uint64_t* wr_id,
                                   RuntimeStats& stats, Tracer* tracer,
                                   uint32_t generation = 0, int max_retries = 3) {
  uint64_t page = page_va >> kPageShift;
  uint64_t sum = PageChecksum(data);
  Completion c{};
  for (int attempt = 0;; ++attempt) {
    c = qp->PostWrite(++*wr_id, reinterpret_cast<uint64_t>(data), page_va, kPageSize, issue_ns);
    if (c.status != WcStatus::kSuccess) {
      return c;
    }
    store.SetChecksum(page, sum);
    if (generation != 0) {
      store.SetGeneration(page, generation);
    }
    if (std::memcmp(store.PageData(page), data, kPageSize) == 0) {
      return c;
    }
    stats.checksum_mismatches++;
    stats.checksum_write_retries++;
    if (tracer != nullptr) {
      tracer->Record(c.completion_time_ns, TraceEvent::kChecksumMismatch, page_va,
                     /*detail=*/1);  // 1 = write side.
    }
    if (attempt >= max_retries) {
      return c;
    }
    issue_ns = c.completion_time_ns;
  }
}

}  // namespace dilos

#endif  // DILOS_SRC_RECOVERY_INTEGRITY_H_
