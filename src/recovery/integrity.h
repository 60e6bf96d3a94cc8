// End-to-end page integrity: per-page checksums, the verdict on every copy
// read, and the checked write-back primitive.
//
// The cleaner computes a 64-bit checksum for every full page it writes back
// and installs it in the page's record on the memory node (PageStore keeps
// one StoredPage per page: bytes, checksum and write generation, the way a
// real node keeps per-block CRCs in a metadata region of the same
// registration). Three properties follow:
//
//  * Write-side ("ICRC analog"): WritePageChecked compares the *stored*
//    bytes with the source right after the write lands — the way an RNIC
//    validates the ICRC trailer before committing a packet — and re-posts
//    the write on mismatch. A payload bit flipped in flight on the write
//    path therefore never becomes durable silently. The compare is a
//    memcmp: exact, and it spares hashing the page a second time.
//  * Read-side: every copy read (demand fetch, prefetch, EC survivor read,
//    parity read-modify-write, repair source read, scrub read) gets one
//    verdict from JudgeCopy: fresh, corrupt or stale. Only the verdict
//    counts checksum_mismatches and stale_copies_detected on the read side;
//    each caller keeps its own recovery action. Computing the hash costs
//    zero simulated time: NICs do CRC at line rate, so verification adds no
//    latency and no wire ops on healthy runs.
//  * A stored page without a checksum cannot be verified. Only full-page
//    write-backs install one; a vectored (guided) write-back drops it,
//    because the bytes between live segments are indeterminate by design.
//    That gap is documented in DESIGN.md §9 — guided paging trades it for
//    bandwidth. A page the store never held is different: the store serves
//    its zero page, so a copy of it must arrive as zeros, and anything else
//    is a flip on the wire.
#ifndef DILOS_SRC_RECOVERY_INTEGRITY_H_
#define DILOS_SRC_RECOVERY_INTEGRITY_H_

#include <cstdint>
#include <cstring>

#include "src/memnode/page_store.h"
#include "src/rdma/queue_pair.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"

namespace dilos {

// 64-bit checksum of a full page: the stand-in for the CRC an RNIC computes
// at line rate (see the file comment; src/recovery/integrity.cc). Word i
// feeds lane i mod 16; each lane step xors the word in, multiplies by an odd
// constant and xor-shifts, and the lanes fold together with the same step.
// Every lane step is a bijection of its lane and the fold is bijective in
// each lane, so a change confined to one 8-byte word, such as any single
// flipped bit, always changes the result. On a CPU with AVX2 four vectors of
// four lanes run the steps, the multiply done as two shift-adds; every other
// CPU runs eight scalar lanes at a time. The CPU picks the path once per
// process (__builtin_cpu_supports), not a build flag or a setting, so one
// binary is fast where it can be and correct everywhere; both paths return
// the same value, which test_chaos checks.
uint64_t PageChecksum(const uint8_t* data);
// The same value through the portable loop on any CPU, so tests and benches
// reach it where PageChecksum would take the AVX2 path.
uint64_t PageChecksumPortable(const uint8_t* data);
// "avx2" or "portable": the kernel PageChecksum runs on this CPU.
const char* PageChecksumKernel();

enum class CopyVerdict : uint8_t {
  kFresh,    // Trustworthy: verified (or unverifiable by design) and current.
  kCorrupt,  // The bytes disagree with the record: a wire flip or rot.
  kStale,    // The bytes verify, but the copy missed a later write-back.
};

// Whether a copy whose record is `rec` (null: never stored) carries write
// generation `expected_gen` or a later one. expected_gen == 0 (the page was
// never generation-tagged by a cleaner) is always current.
inline bool CopyIsCurrent(const StoredPage* rec, uint32_t expected_gen) {
  return expected_gen == 0 || (rec != nullptr && rec->generation >= expected_gen);
}

// The verdict on `bytes`, a full page read for the page whose record is
// `rec`, judged against `expected_gen`; it counts and traces nothing. Null
// `bytes` judges freshness only (a vectored read). Content: with a checksum
// the bytes must hash to it; a stored page without one passes; a page never
// stored must arrive as the zero page. Content is judged before currency.
CopyVerdict JudgeBytes(const StoredPage* rec, const uint8_t* bytes, uint32_t expected_gen);

// JudgeBytes on a copy of `page_va` read from `node`'s `store` at `at_ns`,
// counting and tracing what it rejects: checksum_mismatches and a
// `checksum-mismatch` event (detail 0) for a corrupt copy,
// stale_copies_detected and a `stale-copy` event (detail = node) for a
// stale one. The caller decides what to do next.
CopyVerdict JudgeCopy(const PageStore& store, int node, uint64_t page_va, const uint8_t* bytes,
                      uint32_t expected_gen, uint64_t at_ns, RuntimeStats& stats,
                      Tracer* tracer);

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
    // The write landed, so the page is stored: its record takes the metadata.
    StoredPage& rec = *store.Find(page);
    rec.checksum = sum;
    rec.has_checksum = true;
    if (generation != 0) {
      rec.generation = generation;
    }
    if (std::memcmp(rec.bytes, data, kPageSize) == 0) {
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
