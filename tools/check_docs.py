#!/usr/bin/env python3
"""Documentation linter: broken intra-repo links and README coverage.

Run from anywhere: `python3 tools/check_docs.py`. Checks, stdlib only:

  1. Every intra-repo markdown link ([text](path) and bare `path` mentions
     of files that look like repo paths) in tracked *.md files resolves to
     an existing file or directory.
  2. Every top-level directory under src/ appears in README.md's
     repository-layout table, so the directory map cannot silently rot.
  3. docs/observability.md stays in lockstep with the code's name tables
     (read by tools/name_tables.py): every RuntimeStats counter, TraceEvent,
     SpanKind, FaultPhase and LatComp row has one doc table row, with the
     same printed name (for phases, the same on-path flag; for latency
     components, the same printed name of the phase they charge), and every
     exported SLO / attribution Prometheus series (dilos_slo_*,
     dilos_fault_*) has a row. Doc rows naming something no table defines
     also fail, so removing a table row forces removing its doc row.
  4. Every benchmark binary (bench/bench_*.cc) is mentioned in
     EXPERIMENTS.md, so each bench stays reproducible from the docs.
  5. Every file under docs/ is a markdown-link target in README.md's doc
     index — a doc nobody can navigate to is a doc that rots.

Exits nonzero with one line per violation.
"""

import os
import re
import sys

import name_tables

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — markdown links only; external schemes and anchors skipped.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)]*)?\)")


def md_files():
    out = []
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in (".git", "build", "build-asan")]
        for f in files:
            if f.endswith(".md"):
                out.append(os.path.join(root, f))
    return sorted(out)


def check_links(errors):
    for path in md_files():
        rel = os.path.relpath(path, REPO)
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                for target in MD_LINK.findall(line):
                    if "://" in target or target.startswith("mailto:"):
                        continue
                    # Resolve relative to the file, falling back to repo root
                    # (docs commonly link "src/..." from anywhere).
                    cand = [
                        os.path.normpath(os.path.join(os.path.dirname(path), target)),
                        os.path.normpath(os.path.join(REPO, target)),
                    ]
                    if not any(os.path.exists(c) for c in cand):
                        errors.append(f"{rel}:{lineno}: broken link -> {target}")


def check_readme_covers_src(errors):
    readme_path = os.path.join(REPO, "README.md")
    if not os.path.exists(readme_path):
        errors.append("README.md: missing")
        return
    with open(readme_path, encoding="utf-8") as fh:
        readme = fh.read()
    src = os.path.join(REPO, "src")
    for d in sorted(os.listdir(src)):
        if not os.path.isdir(os.path.join(src, d)):
            continue
        if f"src/{d}" not in readme:
            errors.append(
                f"README.md: directory src/{d} missing from the repository layout"
            )


# Doc table kind (its header's first cell) -> the name set its rows list.
DOC_TABLE_KINDS = {
    "Counter": "RuntimeStats",
    "Event": "TraceEvent",
    "Span": "SpanKind",
    "Phase": "FaultPhase",
    "Component": "LatComp",
}


def doc_table_rows(doc):
    """Yields (name set, lineno, cells) for each row of a name-set table."""
    kind = None
    for lineno, line in enumerate(doc.splitlines(), 1):
        if not line.startswith("|"):
            kind = None
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if kind is None:
            kind = DOC_TABLE_KINDS.get(cells[0], "")
        elif kind and not set(cells[0]) <= set("-: "):
            yield kind, lineno, cells


def check_observability_drift(errors):
    """The name-set tables in docs/observability.md must match the code's.

    Every row of a code table (tools/name_tables.py) needs exactly one doc
    row, every doc row must name a row that exists, and the doc's printed
    names, on-path flags and component phases must equal the code's.
    """
    doc_path = os.path.join(REPO, "docs", "observability.md")
    if not os.path.exists(doc_path):
        errors.append("docs/observability.md: missing")
        return
    with open(doc_path, encoding="utf-8") as fh:
        doc = fh.read()

    code = {}
    for kind in DOC_TABLE_KINDS.values():
        try:
            code[kind] = {row[0]: row[1:] for row in name_tables.rows(kind)}
        except (OSError, ValueError) as e:
            errors.append(f"check_docs: {e}")
            return
    seen = {kind: set() for kind in code}
    for kind, lineno, cells in doc_table_rows(doc):
        where = f"docs/observability.md:{lineno}"
        name = cells[0].strip("`")
        if name not in code[kind]:
            errors.append(f"{where}: `{name}` has a {kind} row but no {kind} table row")
            continue
        if name in seen[kind]:
            errors.append(f"{where}: {kind} `{name}` has a second row")
        seen[kind].add(name)
        cols = code[kind][name]
        if kind == "RuntimeStats":
            continue  # Counters print as their field name.
        printed = cells[1].strip("`") if len(cells) > 1 else ""
        if printed != cols[0]:
            errors.append(
                f"{where}: {kind} `{name}` is printed as `{cols[0]}`, not `{printed}`"
            )
        if kind == "FaultPhase":
            on_path = "yes" if cols[1] == "true" else "no"
            doc_on_path = cells[2].strip("*") if len(cells) > 2 else ""
            if doc_on_path != on_path:
                errors.append(
                    f"{where}: FaultPhase `{name}` on-path is `{on_path}`, not `{doc_on_path}`"
                )
        if kind == "LatComp":
            phase = code["FaultPhase"].get(cols[1], ("?",))[0]
            doc_phase = cells[2].strip("`") if len(cells) > 2 else ""
            if doc_phase != phase:
                errors.append(
                    f"{where}: LatComp `{name}` charges phase `{phase}`, not `{doc_phase}`"
                )
    for kind, names in code.items():
        for name in names:
            if name not in seen[kind]:
                errors.append(f"docs/observability.md: {kind} `{name}` has no row")

    # Attribution / SLO Prometheus series exported by ToProm() must each have
    # a row; the series names are pinned here so renaming one in the code
    # without updating the doc (or vice versa) fails the lint.
    documented = set(re.findall(r"`(\w+)`", doc))
    slo_series = [
        "dilos_fault_phase_ns",
        "dilos_fault_e2e_ns",
        "dilos_slo_faults_total",
        "dilos_slo_bad_total",
        "dilos_slo_alerts_total",
        "dilos_slo_burn_fast",
        "dilos_slo_burn_slow",
        "dilos_slo_budget_used",
        "dilos_slo_threshold_ns",
    ]
    for s in slo_series:
        if s not in documented:
            errors.append(
                f"docs/observability.md: Prometheus series `{s}` has no row"
            )


def check_experiments_cover_benches(errors):
    """Every bench/bench_*.cc target must be mentioned in EXPERIMENTS.md."""
    exp_path = os.path.join(REPO, "EXPERIMENTS.md")
    if not os.path.exists(exp_path):
        errors.append("EXPERIMENTS.md: missing")
        return
    with open(exp_path, encoding="utf-8") as fh:
        exp = fh.read()
    bench_dir = os.path.join(REPO, "bench")
    for f in sorted(os.listdir(bench_dir)):
        if f.startswith("bench_") and f.endswith(".cc"):
            target = f[: -len(".cc")]
            if target not in exp:
                errors.append(
                    f"EXPERIMENTS.md: bench target `{target}` (bench/{f}) "
                    "has no mention — add a section with its reproduce command"
                )


def check_readme_links_docs(errors):
    """Every docs/*.md must be a markdown-link target in README.md."""
    readme_path = os.path.join(REPO, "README.md")
    if not os.path.exists(readme_path):
        return  # check_readme_covers_src already reported it.
    with open(readme_path, encoding="utf-8") as fh:
        targets = {os.path.normpath(t) for t in MD_LINK.findall(fh.read())}
    docs_dir = os.path.join(REPO, "docs")
    if not os.path.isdir(docs_dir):
        return
    for f in sorted(os.listdir(docs_dir)):
        if f.endswith(".md") and os.path.normpath(f"docs/{f}") not in targets:
            errors.append(
                f"README.md: docs/{f} is not linked from the documentation index"
            )


def main():
    errors = []
    check_links(errors)
    check_readme_covers_src(errors)
    check_observability_drift(errors)
    check_experiments_cover_benches(errors)
    check_readme_links_docs(errors)
    for e in errors:
        print(e)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)")
        return 1
    print(f"check_docs: OK ({len(md_files())} markdown files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
