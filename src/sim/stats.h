// Simulation statistics: counters and per-component latency breakdowns.
#ifndef DILOS_SRC_SIM_STATS_H_
#define DILOS_SRC_SIM_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/sim/name_table.h"

namespace dilos {

// Fault-handler latency components (the Fig. 1 / Fig. 6 breakdowns).
// X(enumerator, printed name, phase): a FaultClock advance charged to the
// component also charges that FaultPhase of the open fault (fault_clock.h).
#define DILOS_LAT_COMPS(X)                                                                         \
  X(kHwException, "hw-exception", kHandler) /* Hardware exception delivery. */                     \
  X(kOsHandler, "os-handler", kHandler)     /* Trap entry + handler dispatch. */                   \
  X(kSwapCacheMgmt, "swap-cache", kHandler) /* (Fastswap) swap cache bookkeeping. */               \
  X(kPageAlloc, "page-alloc", kAlloc)       /* Page/frame allocation. */                           \
  X(kSwapEntry, "swap-entry", kHandler)     /* (Fastswap) swap entry + frontswap bookkeeping. */   \
  X(kFetch, "fetch-remote", kWire)          /* Waiting for the remote page via RDMA. */            \
  X(kReclaim, "reclaim", kAlloc)            /* In-path (direct) reclamation. */                    \
  X(kMap, "map", kMap)                      /* Mapping the fetched frame. */                       \
  X(kPrefetch, "prefetch-work", kOverlap)   /* Prefetch issue + hit tracker in the fault path. */  \
  X(kDecompress, "decompress", kDecompress) /* Expanding a compressed-tier page on a tier hit. */

enum class LatComp : uint8_t { DILOS_LAT_COMPS(DILOS_TABLE_ENUMERATOR) kCount };

inline constexpr const char* kLatCompNames[] = {DILOS_LAT_COMPS(DILOS_TABLE_NAME)};

constexpr std::string_view LatCompName(LatComp c) { return TableName(kLatCompNames, c); }

// Accumulates time per LatComp over many fault events.
class LatencyBreakdown {
 public:
  void Add(LatComp c, uint64_t ns) { total_ns_[static_cast<size_t>(c)] += ns; }
  void CountEvent() { ++events_; }

  uint64_t total_ns(LatComp c) const { return total_ns_[static_cast<size_t>(c)]; }
  uint64_t events() const { return events_; }

  // Mean nanoseconds of component `c` per recorded event (0 if no events).
  double MeanNs(LatComp c) const {
    return events_ == 0 ? 0.0
                        : static_cast<double>(total_ns(c)) / static_cast<double>(events_);
  }
  // Sum of all component means.
  double TotalMeanNs() const;

  void Reset();

  // Renders a human-readable table of mean ns and percentage per component.
  std::string ToString() const;

 private:
  std::array<uint64_t, static_cast<size_t>(LatComp::kCount)> total_ns_ = {};
  uint64_t events_ = 0;
};

// Counter set shared by all far-memory runtimes, one row per counter in
// field order: X(field, section). The field name is the printed name;
// ToString prints one line per section, so a section's rows stay adjacent.
#define DILOS_RUNTIME_STATS(X)                                                                     \
  X(major_faults, paging)                /* Faults that had to fetch from the memory node. */      \
  /* Faults resolved locally (swap cache / in-flight page). */                                     \
  X(minor_faults, paging)                                                                          \
  X(zero_fill_faults, paging)            /* First-touch anonymous faults (no fetch). */            \
  X(prefetch_issued, paging)             /* Pages posted by a prefetcher. */                       \
  X(prefetch_mapped_early, paging)       /* Prefetched pages mapped before first touch. */         \
  X(evictions, paging)                                                                             \
  X(writebacks, paging)                                                                            \
  X(bytes_fetched, paging)               /* Payload bytes read from the memory node. */            \
  X(bytes_written, paging)               /* Payload bytes written to the memory node. */           \
  X(subpage_fetches, paging)             /* Guide-issued subpage (partial page) reads. */          \
  X(vectored_ops, paging)                /* Scatter/gather ops issued by guided paging. */         \
  /* --- Recovery subsystem (src/recovery) --- */                                                  \
  X(op_timeouts, recovery)               /* RDMA ops that timed out against a node. */             \
  X(fetch_retries, recovery)             /* Demand fetches retried after a timeout. */             \
  X(failed_fetches, recovery)            /* Fetches with no live replica (zero-filled). */         \
  X(degraded_reads, recovery)            /* Demand reads served by a non-primary replica. */       \
  X(probes_sent, recovery)               /* Failure-detector heartbeats issued. */                 \
  X(probe_misses, recovery)              /* Heartbeats that went unanswered. */                    \
  X(nodes_failed, recovery)              /* Nodes the failure detector declared dead. */           \
  X(repairs_issued, recovery)            /* Granule rebuilds scheduled. */                         \
  X(repair_granules, recovery)           /* Granule rebuilds committed. */                         \
  X(repair_pages, recovery)              /* Pages re-replicated by the repair manager. */          \
  X(repair_bytes, recovery)              /* Repair traffic (read + write payload). */              \
  X(repair_pages_lost, recovery)         /* Pages with no surviving readable copy. */              \
  X(nodes_readmitted, recovery)          /* Restored nodes re-admitted as rebuilding. */           \
  /* --- Erasure coding (src/recovery/ec.h) --- */                                                 \
  X(ec_degraded_reads, ec)               /* Demand reads served by reconstruction. */              \
  X(ec_reconstructed_pages, ec)          /* Pages decoded from k surviving members. */             \
  X(ec_parity_updates, ec)               /* Parity RMW rounds on the write-back path. */           \
  X(ec_parity_bytes, ec)                 /* Parity traffic (read + write payload). */              \
  X(ec_decode_failures, ec)              /* Reconstructions with < k readable members. */          \
  /* --- Integrity / chaos (src/recovery/integrity.h, fault_injector.h) --- */                     \
  X(checksum_mismatches, integrity)      /* Page payloads that failed verification. */             \
  X(checksum_write_retries, integrity)   /* Write-backs re-posted after the target-side check. */  \
  X(refetches, integrity)                /* Copy reads rejected and left to another read. */       \
  X(checksum_heals, integrity)           /* Corrupt stored copies rewritten from a good one. */    \
  X(scrub_pages, integrity)              /* Remote pages verified by the scrubber. */              \
  X(scrub_repairs, integrity)            /* Latent corruptions the scrubber repaired. */           \
  X(gray_suspects, integrity)            /* Gray-failure (latency EWMA) suspicions raised. */      \
  X(repair_no_target, integrity)         /* Degraded granules with no legal rebuild target. */     \
  /* Verified-but-stale copies caught by generation tags. */                                       \
  X(stale_copies_detected, integrity)                                                              \
  /* --- Compressed local tier (src/tier) --- */                                                   \
  X(tier_hits, tier)                     /* Faults served by local decompression. */               \
  X(tier_misses, tier)                   /* Faults that went remote with the tier enabled. */      \
  X(tier_stored_pages, tier)             /* Pages admitted into the tier (cumulative). */          \
  X(tier_bypass_incompressible, tier)    /* Evictions too dense for the tier. */                   \
  X(tier_evictions, tier)                /* Tier-pressure evictions pushed remote. */              \
  X(tier_compressed_bytes, tier)         /* Compressed payload bytes admitted. */                  \
  X(tier_corrupt_drops, tier)            /* Blobs that failed decompression, dropped. */           \
  /* --- Live migration / drain (src/recovery/migration.h) --- */                                  \
  X(migrations_started, migration)       /* Granule migrations that entered the copy phase. */     \
  X(migrations_committed, migration)     /* Migrations whose cutover committed. */                 \
  X(migrations_rolled_back, migration)   /* Migrations aborted and rolled back pre-commit. */      \
  /* Gauge: migrations neither committed nor rolled back. */                                       \
  X(migrations_inflight, migration)                                                                \
  X(migration_pages, migration)          /* Pages copied by the migration manager. */              \
  X(migration_bytes, migration)          /* Migration traffic (read + write payload). */           \
  X(migration_reships, migration)        /* Dirty pages re-shipped by the catch-up pass. */        \
  X(migration_forwards, migration)       /* Reads redirected by a forwarding window. */            \
  X(migration_failbacks, migration)      /* Committed cutovers undone (target died in-window). */  \
  X(nodes_drained, migration)            /* Nodes fully emptied and retired by DrainNode. */       \
  X(ec_colocated_placements, migration)  /* EC rebuilds placed with bounded stripe co-location. */ \
  X(readmit_copies_merged, migration)    /* Orphaned fresh-by-generation copies merged back. */    \
  X(readmit_orphans_dropped, migration)  /* Orphaned stale copies dropped on readmission. */       \
  X(fault_retries_suppressed, migration) /* Demand retries skipped by the retry budget. */         \
  /* --- Multi-tenant policy layer (src/tenant) --- */                                             \
  X(tenant_quota_rejects, tenant)        /* Write-backs refused on a quota breach. */              \
  X(tenant_quota_reclaims, tenant)       /* Own-coldest remote drops made for quota room. */       \
  X(hotness_migrations, tenant)          /* Migrations started by the hotness monitor. */          \
  /* --- KV service (src/kv) --- */                                                                \
  X(kv_guided_scans, kv)                 /* Range scans that ran with a scan guide installed. */   \
  X(kv_scan_prefetch_pages, kv)          /* Leaf pages prefetched by scan guidance. */             \
  /* --- Async fault pipeline (src/sim/fiber.h, DESIGN.md §12) --- */                              \
  X(fault_parks, pipeline)               /* Demand faults that parked a fiber. */                  \
  X(fault_resumes, pipeline)             /* Parked fibers installed (harvest or direct touch). */  \
  X(fault_batched_installs, pipeline)    /* Install batches committed (1 TLB flush each). */       \
  X(fault_pipeline_stalls, pipeline)     /* Handler waits forced by the depth limit. */            \
  X(fault_inflight, pipeline)            /* Gauge: currently parked demand faults. */              \
  X(fault_inflight_peak, pipeline)       /* High-water mark of fault_inflight. */

struct RuntimeStats {
#define DILOS_STATS_FIELD(field, section) uint64_t field = 0;
  DILOS_RUNTIME_STATS(DILOS_STATS_FIELD)
#undef DILOS_STATS_FIELD

  LatencyBreakdown fault_breakdown;

  uint64_t total_faults() const { return major_faults + minor_faults + zero_fill_faults; }
  // Whole-struct assignment: covers every counter by construction.
  void Reset() { *this = RuntimeStats{}; }
  // One `section: field=value ...` line per section with a nonzero counter
  // (the paging section always prints), then the fault breakdown.
  std::string ToString() const;
};

// Reset() is whole-struct assignment and the telemetry Reset-audit test
// compares poisoned-then-Reset instances bytewise; both need this.
static_assert(std::is_trivially_copyable_v<RuntimeStats>,
              "RuntimeStats must stay trivially copyable");

}  // namespace dilos

#endif  // DILOS_SRC_SIM_STATS_H_
