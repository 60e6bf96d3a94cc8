#!/usr/bin/env python3
"""Golden-output gate: every runtime surface prints exactly its committed bytes.

Usage: `python3 tools/check_golden.py [--update] <build dir>`.

A surface is one deterministic program run from the build tree:

  - every bench (bench/bench_*.cc) except bench_sim_micro, whose output is
    host-timed;
  - every example (examples/*.cpp);
  - `dilos_sim --workload=pointer-chase --local=0.25`.

The repository benchmark adds six more surfaces, perfbench_<workload> and
perfbench_<workload>_traced: `python3 perfbench/run.py --workload <workload>
--seed 1 --seconds 0 --trace 0|1` for each workload in BENCHMARK.json, run
from the repository root. The first one builds perfbench into .bench_build/.
Their stdout is the run's result as one "name value" line per simulated
metric; the host-timed metrics (HOST_TIMED_METRICS, and every name
containing "host") are left out. Their stderr is the build output, so it
counts only when the run fails.

Surfaces are listed from the sources, so a bench whose binary is missing
fails rather than being skipped. They run in parallel, one per CPU, the
build-tree ones each from a scratch working directory. Each one's stdout,
stderr and
exit code must match tests/golden/<name>.out, <name>.err and <name>.code
byte for byte. A missing .err or .code file stands for empty stderr or exit
code 0, so a clean surface has one golden file. Every mismatch prints a
unified diff. A surface with no golden file fails, and so does a golden file
that no surface produces.

--update rewrites the golden files from this build instead of comparing, for
a change that means to move an output; the golden-file diff then shows
exactly what moved. Both modes refuse to run, and --update writes nothing,
if any surface's binary is missing. Outputs depend only on the simulated
clock and fixed seeds, so a toolchain that prints different bytes has a
determinism bug. Stdlib only; exits nonzero on any mismatch.
"""

import argparse
import concurrent.futures
import difflib
import glob
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "tests", "golden")
HOST_TIMED = {"bench_sim_micro"}
# perfbench metrics read from the host's wall clock or RSS. Names containing
# "host" are host-timed too; every other metric is simulated.
HOST_TIMED_METRICS = {"setup_s", "peak_rss_mb", "host_ops_per_s", "rss_growth_mb",
                      "trace.overhead_ratio"}
PERFBENCH = "perfbench"  # argv[0] of a perfbench surface: run.py, not a build-tree binary.


def surfaces():
    """(name, argv) for every surface, by name; argv[0] is relative to the build dir."""
    out = []
    for src in glob.glob(os.path.join(REPO, "bench", "bench_*.cc")):
        name = os.path.splitext(os.path.basename(src))[0]
        if name not in HOST_TIMED:
            out.append((name, ["bench/" + name]))
    for src in glob.glob(os.path.join(REPO, "examples", "*.cpp")):
        name = os.path.splitext(os.path.basename(src))[0]
        out.append((name, ["examples/" + name]))
    out.append(("dilos_sim", ["tools/dilos_sim", "--workload=pointer-chase", "--local=0.25"]))
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    for workload in workloads:
        for trace in ("0", "1"):
            name = "perfbench_" + workload + ("_traced" if trace == "1" else "")
            out.append((name, [PERFBENCH, "--workload", workload, "--trace", trace]))
    return sorted(out)


def executable(build, argv):
    return os.path.join(os.path.abspath(build), argv[0])


def run(build, argv):
    """(stdout, stderr, exit code) of one surface."""
    if argv[0] == PERFBENCH:
        return run_perfbench(argv[1:])
    with tempfile.TemporaryDirectory() as cwd:
        p = subprocess.run(
            [executable(build, argv)] + argv[1:], cwd=cwd, capture_output=True, check=False
        )
    return p.stdout, p.stderr, p.returncode


def run_perfbench(args):
    """Seed-1 perfbench result: its simulated metrics, one "name value" line each."""
    p = subprocess.run(
        [sys.executable, os.path.join(REPO, "perfbench", "run.py"), "--seed", "1",
         "--seconds", "0"] + args,
        cwd=REPO, capture_output=True, check=False,
    )
    if p.returncode != 0:
        return p.stdout, p.stderr, p.returncode
    result = json.loads(p.stdout.decode().splitlines()[-1])
    lines = ["%s %s" % (key, json.dumps(result[key])) for key in ("correct", "attempted", "failed")]
    for name, metric in sorted(result["metrics"].items()):
        if name not in HOST_TIMED_METRICS and "host" not in name:
            lines.append("%s %s" % (name, json.dumps(metric["value"])))
    return ("\n".join(lines) + "\n").encode(), b"", 0


def golden_paths(name):
    return [os.path.join(GOLDEN, name + ext) for ext in (".out", ".err", ".code")]


def read(path, default=None):
    if default is not None and not os.path.exists(path):
        return default
    with open(path, "rb") as fh:
        return fh.read()


def write(path, data, default):
    if data == default:
        if os.path.exists(path):
            os.remove(path)
        return
    with open(path, "wb") as fh:
        fh.write(data)


def diff(label, want, got):
    lines = difflib.unified_diff(
        want.decode(errors="replace").splitlines(keepends=True),
        got.decode(errors="replace").splitlines(keepends=True),
        fromfile="golden/" + label,
        tofile="build/" + label,
    )
    return "".join(lines)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build", help="CMake build directory")
    ap.add_argument("--update", action="store_true", help="rewrite the golden files")
    args = ap.parse_args(argv[1:])

    todo = surfaces()
    missing = [
        name
        for name, cmd in todo
        if cmd[0] != PERFBENCH and not os.access(executable(args.build, cmd), os.X_OK)
    ]
    if missing:
        print("no binary in %s for: %s; nothing was run" % (args.build, " ".join(missing)))
        return 1
    with concurrent.futures.ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = list(pool.map(lambda s: run(args.build, s[1]), todo))

    names = {name for name, _ in todo}
    stale = [
        path
        for path in sorted(glob.glob(os.path.join(GOLDEN, "*")))
        if os.path.splitext(os.path.basename(path))[0] not in names
    ]
    if args.update:
        os.makedirs(GOLDEN, exist_ok=True)
        for (name, _), (out, err, code) in zip(todo, results):
            out_path, err_path, code_path = golden_paths(name)
            write(out_path, out, None)
            write(err_path, err, b"")
            write(code_path, b"%d\n" % code, b"0\n")
        for path in stale:
            os.remove(path)
        print("%d surfaces written to %s" % (len(todo), os.path.relpath(GOLDEN, REPO)))
        return 0

    failed = set()
    for (name, _), (out, err, code) in zip(todo, results):
        out_path, err_path, code_path = golden_paths(name)
        if not os.path.exists(out_path):
            print("%s: no golden file %s" % (name, os.path.relpath(out_path, REPO)))
            failed.add(name)
            continue
        for label, want, got in (
            (name + ".out", read(out_path), out),
            (name + ".err", read(err_path, b""), err),
            (name + ".code", read(code_path, b"0\n"), b"%d\n" % code),
        ):
            if want != got:
                print("%s differs\n%s" % (label, diff(label, want, got)))
                failed.add(name)
    for path in stale:
        print("%s: golden file with no surface" % os.path.relpath(path, REPO))
    if failed or stale:
        print("%d of %d surfaces differ, %d stale golden files" % (len(failed), len(todo), len(stale)))
        return 1
    print("%d surfaces match %s" % (len(todo), os.path.relpath(GOLDEN, REPO)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
