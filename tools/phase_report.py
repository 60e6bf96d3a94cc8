#!/usr/bin/env python3
"""Fault-phase waterfall renderer for archived bench JSON.

Usage: `python3 tools/phase_report.py BENCH_table4_tail_latency.json [more.json]`

Reads the BenchJson array format the bench binaries emit with `--json`
(`[{"bench": ..., "config": {...}, "metrics": {...}}, ...]`), picks out every
record that carries per-fault attribution shares — metrics named
`<prefix>share_<phase>` (bench_table4_tail_latency's `get_share_wire` etc.)
or `<prefix>lane_share` (bench_ablation_hol's SLO record) — and renders each
as an ASCII waterfall: one bar per phase, scaled to its share of attributed
fault time. Stdlib only; exits nonzero when no input file contains a single
attribution record (so CI notices a silently-dropped waterfall).
"""

import json
import os
import re
import sys

import name_tables

BAR_WIDTH = 40
SHARE_METRIC = re.compile(r"^(.*?)(?:share_([\w-]+)|(lane)_share)$")

# Display order is the FaultPhase table's (src/telemetry/attribution.h);
# unknown phase names sort after these, alphabetically.
PHASES = name_tables.rows("FaultPhase")
PHASE_ORDER = [name for _, name, _ in PHASES]
OFF_PATH = "/".join(name for _, name, on_path in PHASES if on_path == "false")


def phase_key(name):
    return (PHASE_ORDER.index(name), "") if name in PHASE_ORDER else (len(PHASE_ORDER), name)


def bar(share):
    n = int(round(share * BAR_WIDTH))
    return "#" * n + "." * (BAR_WIDTH - n)


def waterfalls(record):
    """Yields (group, {phase: share}) per share-metric prefix in the record."""
    groups = {}
    for key, value in record.get("metrics", {}).items():
        m = SHARE_METRIC.match(key)
        if m is None or not isinstance(value, (int, float)):
            continue
        prefix = m.group(1).rstrip("_")
        # Metric names flatten FaultPhaseName's hyphens; "lane_share" is the
        # ablation bench's lane-wait share.
        phase = (m.group(2) or "lane-wait").replace("_", "-")
        groups.setdefault(prefix, {})[phase] = float(value)
    return sorted(groups.items())


def label(record):
    cfg = record.get("config", {})
    parts = [record.get("bench", "?")]
    for key in ("system", "variant", "workload"):
        if key in cfg:
            parts.append(str(cfg[key]))
    return " / ".join(parts)


def render(record):
    rendered = 0
    for group, shares in waterfalls(record):
        print(f"{label(record)}" + (f" [{group}]" if group else ""))
        for phase in sorted(shares, key=phase_key):
            share = shares[phase]
            print(f"  {phase:<10} {100.0 * share:6.2f}%  {bar(share)}")
        total = sum(shares.values())
        print(f"  {'total':<10} {100.0 * total:6.2f}%  (on-path shares shown; "
              f"off-path {OFF_PATH} excluded from the tiling sum)")
        print()
        rendered += 1
    return rendered


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    rendered = 0
    for path in argv[1:]:
        if not os.path.exists(path):
            print(f"phase_report: no such file: {path}")
            return 1
        with open(path, encoding="utf-8") as fh:
            try:
                records = json.load(fh)
            except json.JSONDecodeError as e:
                print(f"phase_report: {path}: invalid JSON ({e})")
                return 1
        for record in records:
            rendered += render(record)
    if rendered == 0:
        print("phase_report: no attribution share metrics found in the input")
        return 1
    print(f"phase_report: {rendered} waterfall(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
