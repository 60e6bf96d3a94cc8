// Lightweight paging-event tracer.
//
// A bounded ring of timestamped events the runtimes emit when tracing is
// enabled: fault handling, prefetch issue, eviction, write-back. Used to
// debug paging behavior ("why did this page refault?") and by tests to
// assert event ordering without poking at internals. Disabled by default;
// recording is a few stores.
//
// Two optional extensions, both off unless explicitly enabled:
//  - A TraceSink tee (set_sink) forwards every Record() call to a second
//    consumer — the telemetry flight recorder uses it to keep its own
//    always-on cheap ring without the sim layer depending on telemetry.
//  - Causal spans (EnableSpans): begin/end records with a fault-scoped id
//    and parent link, so a demand fault's children (fetch attempt, retry
//    backoff, failover, EC decode, tier decompress, checksum heal) nest
//    under it. ToChromeJson() exports spans + point events as Chrome
//    trace-event JSON that loads in Perfetto / chrome://tracing.
#ifndef DILOS_SRC_SIM_TRACE_H_
#define DILOS_SRC_SIM_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/name_table.h"
#include "src/sim/ring.h"

namespace dilos {

// Paging events, one row per event: X(enumerator, printed name).
#define DILOS_TRACE_EVENTS(X)                                                                      \
  X(kMajorFault, "major-fault")                                                                    \
  X(kMinorFault, "minor-fault")                                                                    \
  X(kZeroFill, "zero-fill")                                                                        \
  X(kPrefetchIssue, "prefetch")                                                                    \
  X(kEvict, "evict")                                                                               \
  X(kWriteback, "writeback")                                                                       \
  X(kActionFetch, "action-fetch")                                                                  \
  /* --- Recovery subsystem (src/recovery): detail carries the node id. */                         \
  /* An RDMA op timed out against an unreachable node. */                                          \
  X(kOpTimeout, "op-timeout")                                                                      \
  /* A failure-detector heartbeat went unanswered. */                                              \
  X(kProbeMiss, "probe-miss")                                                                      \
  /* Detector moved a node to the suspect state. */                                                \
  X(kNodeSuspect, "node-suspect")                                                                  \
  /* Detector declared a node dead. */                                                             \
  X(kNodeDead, "node-dead")                                                                        \
  /* Repair of one under-replicated granule scheduled. */                                          \
  X(kRepairStart, "repair-start")                                                                  \
  /* Granule restored to full replication (remap committed). */                                    \
  X(kRepairDone, "repair-done")                                                                    \
  /* Demand read served by a non-primary replica. */                                               \
  X(kDegradedRead, "degraded-read")                                                                \
  /* --- Erasure coding (src/recovery/ec.h). */                                                    \
  /* Cleaner RMW'd a stripe's parity members for one page. */                                      \
  X(kParityUpdate, "parity-update")                                                                \
  /* A page was decoded from k surviving stripe members. */                                        \
  X(kEcReconstruct, "ec-reconstruct")                                                              \
  /* Detector re-admitted a restored node as rebuilding. */                                        \
  X(kNodeReadmitted, "node-readmit")                                                               \
  /* --- Integrity / chaos (src/recovery/integrity.h): detail is 0 for a read- */                  \
  /* side mismatch, 1 for a write-side (ICRC-analog) one, node id otherwise. */                    \
  /* A page payload failed checksum verification. */                                               \
  X(kChecksumMismatch, "checksum-mismatch")                                                        \
  /* A corrupt stored copy was rewritten from a good one. */                                       \
  X(kChecksumHeal, "checksum-heal")                                                                \
  /* The background scrubber repaired latent corruption. */                                        \
  X(kScrubRepair, "scrub-repair")                                                                  \
  /* Latency EWMA marked an alive-but-slow node suspect. */                                        \
  X(kGraySuspect, "gray-suspect")                                                                  \
  /* A gray-suspected node's latency recovered. */                                                 \
  X(kGrayClear, "gray-clear")                                                                      \
  /* A degraded granule found no legal rebuild target. */                                          \
  X(kRepairNoTarget, "repair-no-target")                                                           \
  /* --- Compressed local tier (src/tier). */                                                      \
  /* Fault served by local decompression (detail: 1 if dirty). */                                  \
  X(kTierHit, "tier-hit")                                                                          \
  /* Evicted page compressed into the tier (detail: csize). */                                     \
  X(kTierAdmit, "tier-admit")                                                                      \
  /* Tier pressure pushed a compressed page remote. */                                             \
  X(kTierEvict, "tier-evict")                                                                      \
  /* A blob failed decompression and was dropped (content lost). */                                \
  X(kTierCorrupt, "tier-corrupt")                                                                  \
  /* --- Write-generation staleness (src/recovery/integrity.h): a verified-but- */                 \
  /* stale copy (missed write-backs behind a partition) was detected and */                        \
  /* bypassed. detail carries the node id. */                                                      \
  X(kStaleCopy, "stale-copy")                                                                      \
  /* --- KV service (src/kv): page_va is the first planned leaf page. */                           \
  /* A guided range scan began (detail: planned leaf count). */                                    \
  X(kKvScan, "kv-scan")                                                                            \
  /* Leaves prefetched for a scan (detail: page count). */                                         \
  X(kKvScanPrefetch, "kv-scan-prefetch")                                                           \
  /* --- Live migration / drain (src/recovery/migration.h): page_va is the */                      \
  /* granule base; detail carries the node id unless noted. */                                     \
  /* A granule migration entered the copy phase (detail: target). */                               \
  X(kMigrateStart, "migrate-start")                                                                \
  /* Cutover committed; the forwarding window opened (detail: target). */                          \
  X(kMigrateCommit, "migrate-commit")                                                              \
  /* Migration rolled back pre-commit (detail: target). */                                         \
  X(kMigrateAbort, "migrate-abort")                                                                \
  /* A read that raced the remap was redirected (detail: new node). */                             \
  X(kMigrateForward, "migrate-forward")                                                            \
  /* Target died inside the window; source restored (detail: target). */                           \
  X(kMigrateFailback, "migrate-failback")                                                          \
  /* DrainNode marked a node draining (page_va unused). */                                         \
  X(kNodeDraining, "node-draining")                                                                \
  /* A drained node was emptied and retired (page_va unused). */                                   \
  X(kNodeDrained, "node-drained")                                                                  \
  /* A fresh orphaned copy rejoined the replica set on readmission. */                             \
  X(kReadmitMerge, "readmit-merge")                                                                \
  /* A stale orphaned copy was dropped on readmission. */                                          \
  X(kReadmitOrphanDrop, "readmit-orphan-drop")                                                     \
  /* An EC rebuild target shares a node with another stripe member. */                             \
  X(kEcCoLocated, "ec-colocated")                                                                  \
  /* A write-back was refused on a tenant quota breach. */                                         \
  X(kTenantQuotaReject, "tenant-quota-reject")                                                     \
  /* A tenant's own coldest remote page was dropped for quota room. */                             \
  X(kTenantQuotaReclaim, "tenant-quota-reclaim")                                                   \
  /* The hotness monitor started a migration (detail: hot<<8|cold). */                             \
  X(kHotnessMigrate, "hotness-migrate")                                                            \
  /* A tenant's SLO burn-rate alert fired (detail: tenant id). */                                  \
  X(kSloBreach, "slo-breach")

enum class TraceEvent : uint8_t { DILOS_TRACE_EVENTS(DILOS_TABLE_ENUMERATOR) kCount };

inline constexpr const char* kTraceEventNames[] = {DILOS_TRACE_EVENTS(DILOS_TABLE_NAME)};

constexpr const char* TraceEventName(TraceEvent e) { return TableName(kTraceEventNames, e); }

struct TraceRecord {
  uint64_t time_ns = 0;
  TraceEvent event = TraceEvent::kMajorFault;
  uint64_t page_va = 0;
  uint32_t detail = 0;  // Event-specific: latency ns, node id, ...
};

// Secondary consumer of trace records (the telemetry flight recorder). A
// sink sees every Record() call even when the primary ring is disabled
// (trace_capacity == 0), so the flight recorder can stay always-on while
// the debug ring stays off.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnTrace(const TraceRecord& r) = 0;
};

// Span kinds on the fault path, one row per kind: X(enumerator, printed
// name). A kFault span is the root; everything the runtime does to resolve
// that fault opens a child span under it.
#define DILOS_SPAN_KINDS(X)                                                                        \
  X(kFault, "fault")                    /* Demand fault, entry to map (root). */                   \
  X(kFetchAttempt, "fetch-attempt")     /* One remote read attempt against one replica. */         \
  X(kRetryBackoff, "retry-backoff")     /* Exponential-backoff wait between attempts. */           \
  X(kEcDecode, "ec-decode")             /* EC reconstruction from k surviving members. */          \
  X(kTierDecompress, "tier-decompress") /* Local compressed-tier hit expansion. */                 \
  X(kHeal, "heal")                      /* Checksum heal rewrite of a corrupt stored copy. */      \
  X(kFaultPark, "fault-park")           /* Fiber parked: read posted, core released (pipeline). */ \
  X(kFaultResume, "fault-resume")       /* Harvest batch: coalesced poll + batched PTE install. */ \
  /* One granule's copy -> freeze -> remap -> forward lifetime. */                                 \
  X(kMigrateGranule, "migrate-granule")

enum class SpanKind : uint8_t { DILOS_SPAN_KINDS(DILOS_TABLE_ENUMERATOR) kCount };

inline constexpr const char* kSpanKindNames[] = {DILOS_SPAN_KINDS(DILOS_TABLE_NAME)};

constexpr const char* SpanKindName(SpanKind k) { return TableName(kSpanKindNames, k); }

struct SpanRecord {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint64_t page_va = 0;
  uint32_t id = 0;      // Fault-scoped span id, 1-based; 0 is "no span".
  uint32_t parent = 0;  // Enclosing span's id; 0 for roots.
  uint32_t detail = 0;  // Kind-specific: node id, attempt #, ...
  SpanKind kind = SpanKind::kFault;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity = 0) : ring_(capacity) {}

  bool enabled() const { return ring_.capacity() != 0; }

  void set_sink(TraceSink* sink) { sink_ = sink; }

  void Record(uint64_t time_ns, TraceEvent event, uint64_t page_va, uint32_t detail = 0) {
    if (sink_ != nullptr) {
      sink_->OnTrace({time_ns, event, page_va, detail});
    }
    ring_.Push({time_ns, event, page_va, detail});
  }

  // Events in chronological order (oldest surviving first).
  std::vector<TraceRecord> Snapshot() const { return ring_.Snapshot(); }

  uint64_t total_recorded() const { return ring_.pushed(); }

  // Count of a given event among surviving records.
  uint64_t Count(TraceEvent e) const {
    uint64_t n = 0;
    for (const TraceRecord& r : ring_.Snapshot()) {
      if (r.event == e) {
        ++n;
      }
    }
    return n;
  }

  std::string ToString(size_t max_lines = 50) const {
    std::string out;
    char line[96];
    auto snap = Snapshot();
    size_t start = snap.size() > max_lines ? snap.size() - max_lines : 0;
    for (size_t i = start; i < snap.size(); ++i) {
      std::snprintf(line, sizeof(line), "%12llu ns  %-12s page=0x%llx detail=%u\n",
                    static_cast<unsigned long long>(snap[i].time_ns),
                    TraceEventName(snap[i].event),
                    static_cast<unsigned long long>(snap[i].page_va), snap[i].detail);
      out += line;
    }
    return out;
  }

  // --- Causal spans ----------------------------------------------------------

  void EnableSpans(size_t capacity) { spans_ = Ring<SpanRecord>(capacity); }
  bool spans_enabled() const { return spans_.capacity() != 0; }

  // Opens a span under the innermost still-open one (the sim is single
  // threaded, so lexical nesting IS causal nesting). Returns the span id,
  // or 0 when spans are disabled — EndSpan(0, ...) is a no-op, so call
  // sites need no guards of their own.
  uint32_t BeginSpan(SpanKind kind, uint64_t now_ns, uint64_t page_va, uint32_t detail = 0) {
    if (!spans_enabled()) {
      return 0;
    }
    SpanRecord r;
    r.begin_ns = now_ns;
    r.page_va = page_va;
    r.id = ++span_seq_;
    r.parent = current_parent_;
    r.detail = detail;
    r.kind = kind;
    open_.push_back(r);
    current_parent_ = r.id;
    return r.id;
  }

  void EndSpan(uint32_t id, uint64_t now_ns) {
    if (id == 0) {
      return;
    }
    for (size_t i = open_.size(); i-- > 0;) {
      if (open_[i].id == id) {
        SpanRecord r = open_[i];
        r.end_ns = now_ns;
        open_.erase(open_.begin() + static_cast<ptrdiff_t>(i));
        current_parent_ = r.parent;
        spans_.Push(r);
        return;
      }
    }
  }

  uint32_t current_parent() const { return current_parent_; }
  uint64_t total_spans() const { return spans_.pushed(); }
  size_t open_spans() const { return open_.size(); }

  // Closed spans in completion order (oldest surviving first).
  std::vector<SpanRecord> SpanSnapshot() const { return spans_.Snapshot(); }

  // Chrome trace-event JSON (the format Perfetto and chrome://tracing load):
  // closed spans become complete events (ph:"X", ts/dur in microseconds) and
  // point trace records become instants (ph:"i"). All on one pid/tid — the
  // sim is single-threaded, and Perfetto nests same-track X events by time
  // containment, which our LIFO span discipline guarantees.
  std::string ToChromeJson() const {
    std::string out = "[";
    char buf[256];
    bool first = true;
    for (const SpanRecord& s : SpanSnapshot()) {
      uint64_t dur = s.end_ns > s.begin_ns ? s.end_ns - s.begin_ns : 0;
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":0,\"tid\":0,\"args\":{\"page\":\"0x%llx\","
                    "\"id\":%u,\"parent\":%u,\"detail\":%u}}",
                    first ? "" : ",", SpanKindName(s.kind),
                    static_cast<double>(s.begin_ns) / 1000.0,
                    static_cast<double>(dur) / 1000.0,
                    static_cast<unsigned long long>(s.page_va), s.id, s.parent, s.detail);
      out += buf;
      first = false;
    }
    for (const TraceRecord& r : Snapshot()) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":%.3f,"
                    "\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{\"page\":\"0x%llx\","
                    "\"detail\":%u}}",
                    first ? "" : ",", TraceEventName(r.event),
                    static_cast<double>(r.time_ns) / 1000.0,
                    static_cast<unsigned long long>(r.page_va), r.detail);
      out += buf;
      first = false;
    }
    out += "\n]\n";
    return out;
  }

 private:
  Ring<TraceRecord> ring_;
  TraceSink* sink_ = nullptr;

  Ring<SpanRecord> spans_;        // Closed spans, ring ordered by completion.
  std::vector<SpanRecord> open_;  // Begun, not yet ended (small; LIFO use).
  uint32_t span_seq_ = 0;
  uint32_t current_parent_ = 0;
};

}  // namespace dilos

#endif  // DILOS_SRC_SIM_TRACE_H_
