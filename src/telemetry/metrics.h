// Per-(node, QP-class) fabric metrics registry.
//
// Every RDMA op in this repo funnels through QueuePair::PostSend, and every
// QP is created with the node it connects to and the module it serves
// (fault handler, prefetcher, cleaner, guide, failure-detector probe,
// repair copy). Hooking that one choke point gives op counts, payload
// bytes, timeout counts, and an RTT histogram per (node x class) with zero
// per-call-site edits — the coverage the ROADMAP's load-aware-rebalancing
// item needs ("per-node traffic counters") and the operational view the
// disaggregation surveys call a production prerequisite.
//
// The registry is installed on the Fabric (Fabric::set_metrics) by a
// runtime whose TelemetryConfig enables it; a null registry (the default)
// costs one pointer test per op.
#ifndef DILOS_SRC_TELEMETRY_METRICS_H_
#define DILOS_SRC_TELEMETRY_METRICS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/name_table.h"
#include "src/telemetry/histogram.h"

namespace dilos {

// Which module a queue pair serves, one row per class: X(enumerator, printed
// name, wire band). Mirrors CommChannel (src/dilos/comm.h) plus the recovery
// subsystem's dedicated QPs; kOther covers bare QPs made outside the router
// (baselines, micro-benches). The band is the class's strict-priority band
// in the fair-share wire scheduler (src/tenant/wire_sched.h): 0 demand, 1
// application-driven prefetch, kQpMaintenanceBand for background work.
// Bands below maintenance are the traffic a tenant's reads cost ("serve").
#define DILOS_QP_CLASSES(X)                                                                        \
  X(kFault, "fault", 0)       /* Demand-fetch QPs (CommChannel::kFault). */                        \
  X(kPrefetch, "prefetch", 1) /* Prefetcher QPs. */                                                \
  X(kCleaner, "cleaner", 2)   /* Page-manager write-back / parity / scrub QPs (kManager). */       \
  X(kGuide, "guide", 1)       /* App-aware guide subpage-read QPs. */                              \
  X(kProbe, "probe", 2)       /* Failure-detector heartbeat QPs. */                                \
  X(kRepair, "repair", 2)     /* Repair-manager copy QPs. */                                       \
  X(kOther, "other", 2)       /* Unclassified (Fastswap/AIFM baselines, raw bench QPs). */

enum class QpClass : uint8_t { DILOS_QP_CLASSES(DILOS_TABLE_ENUMERATOR) kCount };

inline constexpr int kQpMaintenanceBand = 2;

inline constexpr const char* kQpClassNames[] = {DILOS_QP_CLASSES(DILOS_TABLE_NAME)};
#define DILOS_QP_CLASS_BAND(id, name, band) band,
inline constexpr int kQpClassBands[] = {DILOS_QP_CLASSES(DILOS_QP_CLASS_BAND)};
#undef DILOS_QP_CLASS_BAND

constexpr const char* QpClassName(QpClass c) { return TableName(kQpClassNames, c); }

// Wire band of `c`; kQpMaintenanceBand past the end.
constexpr int QpClassBand(QpClass c) {
  auto i = static_cast<size_t>(c);
  return i < std::size(kQpClassBands) ? kQpClassBands[i] : kQpMaintenanceBand;
}

// Counters for one (node, class) cell. Bytes count successful ops only (a
// timed-out op moves no payload); the RTT histogram likewise records only
// completed ops so timeout plateaus cannot masquerade as tail latency.
struct QpMetrics {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t timeouts = 0;  // Ops completed with kTimeout (crash, drop, partition).
  uint64_t errors = 0;    // Local/remote-access errors (malformed WRs).
  uint64_t retries = 0;   // Runtime-level retry decisions attributed to this cell.
  LogHistogram rtt;       // post -> completion, successful ops, ns.

  uint64_t ops() const { return reads + writes; }
  uint64_t bytes() const { return read_bytes + write_bytes; }

  void Merge(const QpMetrics& o) {
    reads += o.reads;
    writes += o.writes;
    read_bytes += o.read_bytes;
    write_bytes += o.write_bytes;
    timeouts += o.timeouts;
    errors += o.errors;
    retries += o.retries;
    rtt.Merge(o.rtt);
  }
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(int num_nodes)
      : num_nodes_(num_nodes),
        cells_(static_cast<size_t>(num_nodes) * static_cast<size_t>(QpClass::kCount)) {}

  // The PostSend choke-point hook. `ok` — op completed successfully;
  // `timed_out` — RC retransmit exhaustion (the crash/partition signature).
  // `remote_addr` (first remote segment, 0 if none) is only consulted when a
  // tenant lookup is installed, to attribute the op to its owning tenant.
  void OnOp(int node, QpClass cls, bool is_write, uint64_t bytes, uint64_t rtt_ns, bool ok,
            bool timed_out, uint64_t remote_addr = 0) {
    if (node < 0 || node >= num_nodes_) {
      return;
    }
    Apply(&Cell(node, cls), is_write, bytes, rtt_ns, ok, timed_out);
    if (tenant_lookup_) {
      TenantCell& t = TenantCellAt(node, tenant_lookup_(remote_addr));
      Apply(ServesTenant(cls) ? &t.serve : &t.maint, is_write, bytes, rtt_ns, ok,
            timed_out);
    }
  }

  // Runtime-level retry attribution (the choke point sees individual posts,
  // not the retry decision around them).
  void OnRetry(int node, QpClass cls) {
    if (node >= 0 && node < num_nodes_) {
      ++Cell(node, cls).retries;
    }
  }

  const QpMetrics& at(int node, QpClass cls) const {
    return cells_[Index(node, cls)];
  }

  // All classes of one node, merged.
  QpMetrics NodeTotal(int node) const {
    QpMetrics out;
    for (size_t c = 0; c < static_cast<size_t>(QpClass::kCount); ++c) {
      out.Merge(at(node, static_cast<QpClass>(c)));
    }
    return out;
  }

  QpMetrics Total() const {
    QpMetrics out;
    for (int n = 0; n < num_nodes_; ++n) {
      out.Merge(NodeTotal(n));
    }
    return out;
  }

  int num_nodes() const { return num_nodes_; }

  // -- Per-(node, tenant) attribution ----------------------------------------
  //
  // Installing a tenant lookup (address -> tenant id, -1 for untenanted)
  // adds a second cell grid keyed by (node x tenant), split into "serve"
  // (fault/prefetch/guide — what a tenant's application traffic costs each
  // node) and "maint" (cleaner/repair/probe/other). The hotness monitor
  // reads the serve split; ToProm() exposes both.
  static constexpr int kTenantBuckets = 17;  // 16 tenants + the untenanted bucket.

  struct TenantCell {
    QpMetrics serve;
    QpMetrics maint;
  };

  void set_tenant_lookup(std::function<int(uint64_t)> lookup) {
    tenant_lookup_ = std::move(lookup);
    tenant_cells_.assign(
        static_cast<size_t>(num_nodes_) * static_cast<size_t>(kTenantBuckets),
        TenantCell{});
  }
  bool tenant_aware() const { return static_cast<bool>(tenant_lookup_); }

  static bool ServesTenant(QpClass cls) { return QpClassBand(cls) < kQpMaintenanceBand; }

  // `tenant` -1 reads the untenanted bucket. Zero-value cells if no lookup
  // was ever installed.
  const QpMetrics& TenantServe(int node, int tenant) const {
    return TenantCellConst(node, tenant).serve;
  }
  const QpMetrics& TenantMaint(int node, int tenant) const {
    return TenantCellConst(node, tenant).maint;
  }

  void Reset() {
    for (QpMetrics& m : cells_) {
      m = QpMetrics{};
    }
    for (TenantCell& t : tenant_cells_) {
      t = TenantCell{};
    }
  }

  // Prometheus text exposition (counters + RTT quantile summaries).
  // All-zero cells are skipped so small runs stay readable.
  std::string ToProm() const {
    std::string out;
    out += "# HELP dilos_qp_ops_total RDMA ops completed per node, QP class, and opcode.\n";
    out += "# TYPE dilos_qp_ops_total counter\n";
    ForEachActive([&out](int n, QpClass c, const QpMetrics& m) {
      if (m.reads != 0) {
        AppendMetric(&out, "dilos_qp_ops_total", n, c, "op=\"read\"", m.reads);
      }
      if (m.writes != 0) {
        AppendMetric(&out, "dilos_qp_ops_total", n, c, "op=\"write\"", m.writes);
      }
    });
    out += "# HELP dilos_qp_bytes_total Payload bytes moved per node, QP class, and direction.\n";
    out += "# TYPE dilos_qp_bytes_total counter\n";
    ForEachActive([&out](int n, QpClass c, const QpMetrics& m) {
      if (m.read_bytes != 0) {
        AppendMetric(&out, "dilos_qp_bytes_total", n, c, "dir=\"read\"", m.read_bytes);
      }
      if (m.write_bytes != 0) {
        AppendMetric(&out, "dilos_qp_bytes_total", n, c, "dir=\"write\"", m.write_bytes);
      }
    });
    out += "# HELP dilos_qp_timeouts_total Ops that exhausted RC retransmission.\n";
    out += "# TYPE dilos_qp_timeouts_total counter\n";
    ForEachActive([&out](int n, QpClass c, const QpMetrics& m) {
      if (m.timeouts != 0) {
        AppendMetric(&out, "dilos_qp_timeouts_total", n, c, nullptr, m.timeouts);
      }
    });
    out += "# HELP dilos_qp_retries_total Runtime retry decisions per node and QP class.\n";
    out += "# TYPE dilos_qp_retries_total counter\n";
    ForEachActive([&out](int n, QpClass c, const QpMetrics& m) {
      if (m.retries != 0) {
        AppendMetric(&out, "dilos_qp_retries_total", n, c, nullptr, m.retries);
      }
    });
    out += "# HELP dilos_qp_rtt_ns RTT of successful ops, post to completion.\n";
    out += "# TYPE dilos_qp_rtt_ns summary\n";
    ForEachActive([&out](int n, QpClass c, const QpMetrics& m) {
      if (m.rtt.empty()) {
        return;
      }
      static constexpr double kQs[] = {0.5, 0.9, 0.99, 0.999};
      char label[64];
      for (double q : kQs) {
        std::snprintf(label, sizeof(label), "quantile=\"%g\"", q);
        AppendMetric(&out, "dilos_qp_rtt_ns", n, c, label, m.rtt.Percentile(q * 100.0));
      }
      AppendMetric(&out, "dilos_qp_rtt_ns_sum", n, c, nullptr, m.rtt.sum());
      AppendMetric(&out, "dilos_qp_rtt_ns_count", n, c, nullptr, m.rtt.count());
    });
    if (!tenant_cells_.empty()) {
      out += "# HELP dilos_tenant_ops_total Ops per node and tenant (serve vs maint).\n";
      out += "# TYPE dilos_tenant_ops_total counter\n";
      ForEachActiveTenant([&out](int n, int t, const char* path, const QpMetrics& m) {
        AppendTenantMetric(&out, "dilos_tenant_ops_total", n, t, path, m.ops());
      });
      out += "# HELP dilos_tenant_bytes_total Payload bytes per node and tenant.\n";
      out += "# TYPE dilos_tenant_bytes_total counter\n";
      ForEachActiveTenant([&out](int n, int t, const char* path, const QpMetrics& m) {
        AppendTenantMetric(&out, "dilos_tenant_bytes_total", n, t, path, m.bytes());
      });
      out += "# HELP dilos_tenant_timeouts_total Timed-out ops per node and tenant.\n";
      out += "# TYPE dilos_tenant_timeouts_total counter\n";
      ForEachActiveTenant([&out](int n, int t, const char* path, const QpMetrics& m) {
        if (m.timeouts != 0) {
          AppendTenantMetric(&out, "dilos_tenant_timeouts_total", n, t, path, m.timeouts);
        }
      });
    }
    return out;
  }

  // Compact human-readable dump (flight-recorder format): one line per
  // active cell.
  std::string ToString() const {
    std::string out;
    char line[192];
    ForEachActive([&out, &line](int n, QpClass c, const QpMetrics& m) {
      std::snprintf(line, sizeof(line),
                    "  node %d %-8s ops=%llu (r=%llu w=%llu) bytes=%llu timeouts=%llu "
                    "retries=%llu rtt p50=%llu p99=%llu\n",
                    n, QpClassName(c), static_cast<unsigned long long>(m.ops()),
                    static_cast<unsigned long long>(m.reads),
                    static_cast<unsigned long long>(m.writes),
                    static_cast<unsigned long long>(m.bytes()),
                    static_cast<unsigned long long>(m.timeouts),
                    static_cast<unsigned long long>(m.retries),
                    static_cast<unsigned long long>(m.rtt.Percentile(50)),
                    static_cast<unsigned long long>(m.rtt.Percentile(99)));
      out += line;
    });
    return out;
  }

 private:
  size_t Index(int node, QpClass cls) const {
    return static_cast<size_t>(node) * static_cast<size_t>(QpClass::kCount) +
           static_cast<size_t>(cls);
  }
  QpMetrics& Cell(int node, QpClass cls) { return cells_[Index(node, cls)]; }

  static void Apply(QpMetrics* m, bool is_write, uint64_t bytes, uint64_t rtt_ns, bool ok,
                    bool timed_out) {
    if (!ok) {
      if (timed_out) {
        ++m->timeouts;
      } else {
        ++m->errors;
      }
      return;
    }
    if (is_write) {
      ++m->writes;
      m->write_bytes += bytes;
    } else {
      ++m->reads;
      m->read_bytes += bytes;
    }
    m->rtt.Record(rtt_ns);
  }

  // Tenant ids outside [0, kTenantBuckets-2] (unbound addresses, overflow
  // registrations) collapse into bucket 0.
  size_t TenantIndex(int node, int tenant) const {
    int b = tenant >= 0 && tenant < kTenantBuckets - 1 ? tenant + 1 : 0;
    return static_cast<size_t>(node) * static_cast<size_t>(kTenantBuckets) +
           static_cast<size_t>(b);
  }
  TenantCell& TenantCellAt(int node, int tenant) {
    return tenant_cells_[TenantIndex(node, tenant)];
  }
  const TenantCell& TenantCellConst(int node, int tenant) const {
    static const TenantCell kEmpty{};
    if (tenant_cells_.empty() || node < 0 || node >= num_nodes_) {
      return kEmpty;
    }
    return tenant_cells_[TenantIndex(node, tenant)];
  }

  template <typename Fn>
  void ForEachActiveTenant(Fn&& fn) const {
    for (int n = 0; n < num_nodes_; ++n) {
      for (int b = 0; b < kTenantBuckets; ++b) {
        const TenantCell& t = TenantCellConst(n, b - 1);
        if (t.serve.ops() != 0 || t.serve.timeouts != 0) {
          fn(n, b - 1, "serve", t.serve);
        }
        if (t.maint.ops() != 0 || t.maint.timeouts != 0) {
          fn(n, b - 1, "maint", t.maint);
        }
      }
    }
  }

  static void AppendTenantMetric(std::string* out, const char* name, int node, int tenant,
                                 const char* path, uint64_t value) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s{node=\"%d\",tenant=\"%d\",path=\"%s\"} %llu\n",
                  name, node, tenant, path, static_cast<unsigned long long>(value));
    *out += line;
  }

  template <typename Fn>
  void ForEachActive(Fn&& fn) const {
    for (int n = 0; n < num_nodes_; ++n) {
      for (size_t c = 0; c < static_cast<size_t>(QpClass::kCount); ++c) {
        const QpMetrics& m = at(n, static_cast<QpClass>(c));
        if (m.ops() != 0 || m.timeouts != 0 || m.errors != 0 || m.retries != 0) {
          fn(n, static_cast<QpClass>(c), m);
        }
      }
    }
  }

  static void AppendMetric(std::string* out, const char* name, int node, QpClass cls,
                           const char* extra_label, uint64_t value) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s{node=\"%d\",qp=\"%s\"%s%s} %llu\n", name, node,
                  QpClassName(cls), extra_label != nullptr ? "," : "",
                  extra_label != nullptr ? extra_label : "",
                  static_cast<unsigned long long>(value));
    *out += line;
  }

  int num_nodes_;
  std::vector<QpMetrics> cells_;  // [node][class], row-major.
  std::function<int(uint64_t)> tenant_lookup_;  // addr -> tenant; empty = off.
  std::vector<TenantCell> tenant_cells_;        // [node][tenant bucket], row-major.
};

// True when node `a` carries strictly less observed fabric load than `b`:
// fewer bytes moved, then a lower p99 RTT. Without a registry there is no
// signal, so the incumbent `b` is kept. Rebuild and migration placement use
// it as their final tiebreaker.
inline bool LessLoaded(const MetricsRegistry* metrics, int a, int b) {
  if (metrics == nullptr) {
    return false;
  }
  QpMetrics ma = metrics->NodeTotal(a);
  QpMetrics mb = metrics->NodeTotal(b);
  if (ma.bytes() != mb.bytes()) {
    return ma.bytes() < mb.bytes();
  }
  return ma.rtt.Percentile(99) < mb.rtt.Percentile(99);
}

}  // namespace dilos

#endif  // DILOS_SRC_TELEMETRY_METRICS_H_
