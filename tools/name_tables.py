"""Reads the X-macro name tables out of the C++ headers.

Each name set is defined once, as `#define DILOS_<SET>(X)` followed by
backslash-continued `X(col, col, ...)` rows (src/sim/name_table.h explains
the convention). `rows(name)` returns one tuple of column strings per row,
in table order, with string literals unquoted: ("kWire", "wire", "true")
for a FaultPhase row, ("major_faults", "paging") for a RuntimeStats row.
Stdlib only; used by check_docs.py and phase_report.py.
"""

import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Name set -> (owning header, table macro).
TABLES = {
    "RuntimeStats": ("src/sim/stats.h", "DILOS_RUNTIME_STATS"),
    "LatComp": ("src/sim/stats.h", "DILOS_LAT_COMPS"),
    "TraceEvent": ("src/sim/trace.h", "DILOS_TRACE_EVENTS"),
    "SpanKind": ("src/sim/trace.h", "DILOS_SPAN_KINDS"),
    "FaultPhase": ("src/telemetry/attribution.h", "DILOS_FAULT_PHASES"),
    "QpClass": ("src/telemetry/metrics.h", "DILOS_QP_CLASSES"),
}


def rows(name):
    """Rows of table `name`; raises ValueError when the macro is missing."""
    header, macro = TABLES[name]
    with open(os.path.join(REPO, header), encoding="utf-8") as fh:
        text = fh.read()
    m = re.search(r"^#define\s+%s\(X\)((?:[^\n]*\\\n)*[^\n]*)" % macro, text, re.MULTILINE)
    if m is None:
        raise ValueError(f"{header}: no `#define {macro}(X)` table")
    body = re.sub(r"/\*.*?\*/", "", m.group(1).replace("\\\n", "\n"), flags=re.DOTALL)
    out = [
        tuple(col.strip().strip('"') for col in row.split(","))
        for row in re.findall(r"\bX\(([^)]*)\)", body)
    ]
    if not out:
        raise ValueError(f"{header}: table {macro} has no rows")
    return out
