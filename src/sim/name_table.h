// Helpers for the repo's name tables.
//
// Each name set the evidence is read through -- RuntimeStats counters
// (src/sim/stats.h), LatComp (same), TraceEvent and SpanKind
// (src/sim/trace.h), FaultPhase (src/telemetry/attribution.h) and QpClass
// (src/telemetry/metrics.h) -- is defined once, as an X-macro table in the
// header that owns it:
//
//   #define DILOS_SPAN_KINDS(X) X(kFault, "fault") X(kFetchAttempt, ...) ...
//
// one row per name: the identifier, its printed name, then any per-row
// column (a counter's section, a phase's on-path flag, a QP class's wire
// band). The enum, the printed-name lookup and every column lookup are
// expanded from the table, so adding a name is adding one row.
// tools/check_docs.py reads the same rows to check docs/observability.md.
#ifndef DILOS_SRC_SIM_NAME_TABLE_H_
#define DILOS_SRC_SIM_NAME_TABLE_H_

#include <cstddef>

// Row expanders for tables whose first two columns are the enumerator and
// its printed name.
#define DILOS_TABLE_ENUMERATOR(id, name, ...) id,
#define DILOS_TABLE_NAME(id, name, ...) name,

namespace dilos {

// Printed name of `e` from a table's name column; "?" past the end.
template <typename E, size_t N>
constexpr const char* TableName(const char* const (&names)[N], E e) {
  auto i = static_cast<size_t>(e);
  return i < N ? names[i] : "?";
}

}  // namespace dilos

#endif  // DILOS_SRC_SIM_NAME_TABLE_H_
