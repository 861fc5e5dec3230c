#!/usr/bin/env python3
"""Run the Olden benchmark suite as a regression matrix and emit BENCH JSON.

Usage: bench_runner.py [--build-dir DIR] [--out FILE] [--tiny | --paper]
                       [--nprocs N] [--revision REV] [--benchmarks A,B,...]
                       [--jobs N] [--timeout SECS] [--keep-traces DIR]

For every benchmark in the suite (or the --benchmarks subset) this runs
`bench_cell` across the three coherence schemes with --stats-json and
a binary trace streamed to disk (--trace-bin), analyzes the trace in
bounded memory (`olden-analyze --json`), and merges the two
documents into one cell per (benchmark, scheme): makespan, per-bucket
cycle totals, key counters, the remote-miss rate, and the critical-path
attribution. The result is written as a deterministic, sorted JSON file
(BENCH_<rev>.json by default) that tools/bench_compare.py can diff
against a committed baseline.

--jobs N runs up to N benchmarks' bench_cell processes concurrently;
each child stays serial internally, so every cell's simulated results,
traces and stats are identical to a serial run, and the output document
is assembled in suite order regardless of completion order.

--keep-traces DIR archives each benchmark's binary trace as
DIR/<benchmark>.trace.bin instead of deleting it after analysis. Paired
with a baseline's archive, tools/bench_compare.py --traces-old/--traces-new
can then attribute any regression with `olden-analyze --diff` (the runs
inside are labeled BENCH/<benchmark>/p=<nprocs>/<scheme>).

--paper selects the original paper problem sizes, whose traces run to
gigabytes (no trace limit applies); streaming keeps every tier in
bounded memory.

bench_cell validates every cell's checksum against the host-side
sequential reference, so a nonzero exit here means a *correctness*
regression, not just a slow one. A failing child's exit code is
propagated; a child exceeding --timeout is killed and reported with
exit 124.

Stdlib only, so it can run in any CI image.
"""

import argparse
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_SCHEMA_VERSION = 1

SCHEMES = ["local", "global", "bilateral"]

BUCKET_KEYS = ["compute", "migration", "cache_stall", "coherence", "idle"]

# The counters worth tracking release-over-release; the full set lives in
# the stats JSON if a regression needs deeper digging.
COUNTER_KEYS = [
    "cache_hits", "cache_misses",
    "timestamp_checks", "timestamp_stalls",
    "cacheable_reads_remote", "cacheable_writes_remote",
    "migrations", "return_migrations",
    "futurecalls", "futures_inlined", "futures_stolen", "touches_blocked",
    "lines_invalidated", "pages_cached", "threads_created",
]


def fail(msg, code=1):
    print(f"bench_runner: {msg}", file=sys.stderr)
    sys.exit(code)


class CellError(Exception):
    """A child process failed; carries the exit code to propagate."""

    def __init__(self, msg, code):
        super().__init__(msg)
        self.code = code


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def list_benchmarks(bench_cell):
    out = subprocess.run([bench_cell, "--list"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"{bench_cell} --list failed:\n{out.stderr}")
    return [line for line in out.stdout.splitlines() if line]


def miss_rate_percent(counters):
    """Mirror of MachineStats::remote_miss_percent() in support/stats.hpp."""
    remote = (counters["cacheable_reads_remote"]
              + counters["cacheable_writes_remote"])
    if remote == 0:
        return 0.0
    return 100.0 * (counters["cache_misses"]
                    + counters["timestamp_stalls"]) / remote


def run_child(cmd, what, timeout):
    """Run one child process; raise CellError on failure or timeout."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        tail = (e.stdout or b"")[-2000:] if e.stdout else b""
        if isinstance(tail, bytes):
            tail = tail.decode("utf-8", "replace")
        raise CellError(
            f"{what} exceeded --timeout={timeout:g}s and was killed; "
            f"last output:\n{tail}", 124) from e
    if proc.returncode != 0:
        raise CellError(f"{what} failed (exit {proc.returncode}):\n"
                        f"{proc.stdout}{proc.stderr}", proc.returncode)
    return proc


def run_benchmark(bench_cell, analyze, name, nprocs, mode, timeout, tmpdir,
                  keep_traces=None):
    """Run one benchmark across all schemes; return its cells.

    Thread-safe: all paths under tmpdir are keyed by benchmark name and
    failures are raised as CellError, never sys.exit (which a worker
    thread could not deliver)."""
    stats_path = os.path.join(tmpdir, f"{name}.stats.json")
    trace_path = os.path.join(tmpdir, f"{name}.trace.bin")
    cmd = [bench_cell, f"--benchmark={name}", f"--nprocs={nprocs}",
           f"--schemes={','.join(SCHEMES)}",
           f"--stats-json={stats_path}", f"--trace-bin={trace_path}"]
    if mode == "tiny":
        cmd.append("--tiny")
    elif mode == "paper":
        cmd.append("--paper-size")
    run_child(cmd, f"bench_cell for {name}", timeout)

    proc = run_child([analyze, "--trace-bin", trace_path, "--json"],
                     f"olden-analyze for {name}", timeout)
    analysis = json.loads(proc.stdout)
    if keep_traces is not None:
        # Archive for later cross-run diffing (bench_compare.py
        # --traces-old/--traces-new); shutil.move survives tmpdir living
        # on a different filesystem than the archive.
        shutil.move(trace_path,
                    os.path.join(keep_traces, f"{name}.trace.bin"))
    else:
        os.unlink(trace_path)  # paper traces are large; drop eagerly
    paths_by_label = {run["label"]: run for run in analysis["runs"]}

    with open(stats_path, "r", encoding="utf-8") as f:
        stats = json.load(f)

    cells = []
    for run in stats["runs"]:
        cfg = run["config"]
        counters = run["counters"]
        buckets = {key: sum(row[key] for row in run["breakdown"])
                   for key in BUCKET_KEYS}
        # No trace limit is set, so every run's path is whole.
        path = paths_by_label[run["label"]]["critical_path"]
        if path["total_cycles"] != run["makespan_cycles"]:
            raise CellError(
                f"{run['label']}: critical path ({path['total_cycles']}"
                f" cycles) != makespan ({run['makespan_cycles']})", 1)
        cells.append({
            "benchmark": cfg["benchmark"],
            "scheme": cfg["scheme"],
            "nprocs": cfg["nprocs"],
            "makespan_cycles": run["makespan_cycles"],
            "buckets": buckets,
            "counters": {key: counters[key] for key in COUNTER_KEYS},
            "miss_rate_percent": round(miss_rate_percent(counters), 4),
            "critical_path": {"total_cycles": path["total_cycles"],
                              "attribution": path["attribution"]},
        })
    return cells


def run_matrix(bench_cell, analyze, names, args, mode, cells):
    """Run every benchmark, serially or on a --jobs thread pool."""
    with tempfile.TemporaryDirectory(prefix="olden-bench-") as tmpdir:
        if args.jobs == 1:
            for name in names:
                cells.extend(run_benchmark(bench_cell, analyze, name,
                                           args.nprocs, mode, args.timeout,
                                           tmpdir, args.keep_traces))
                print(f"  {name}: {len(SCHEMES)} cells ok")
            return
        # Completion order is nondeterministic; assembly order is not:
        # results are gathered per future and appended in suite order.
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=args.jobs) as pool:
            futures = {
                name: pool.submit(run_benchmark, bench_cell, analyze, name,
                                  args.nprocs, mode, args.timeout, tmpdir,
                                  args.keep_traces)
                for name in names}
            for name in names:
                cells.extend(futures[name].result())
                print(f"  {name}: {len(SCHEMES)} cells ok")


def main(argv):
    ap = argparse.ArgumentParser(
        description="Run the benchmark regression matrix into BENCH JSON.")
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory (default: build)")
    ap.add_argument("--out", default=None,
                    help="output file (default: BENCH_<rev>.json)")
    size = ap.add_mutually_exclusive_group()
    size.add_argument("--tiny", action="store_true",
                      help="pinned tiny problem sizes (the CI configuration)")
    size.add_argument("--paper", action="store_true",
                      help="original paper problem sizes")
    ap.add_argument("--nprocs", type=int, default=8,
                    help="processors per cell (default: 8)")
    ap.add_argument("--jobs", type=int, default=1,
                    help="benchmarks to run concurrently (default: 1; "
                    "results identical to serial)")
    ap.add_argument("--timeout", type=float, default=None,
                    help="per-child timeout in seconds (default: none); "
                    "a killed child exits this runner with code 124")
    ap.add_argument("--keep-traces", default=None, metavar="DIR",
                    help="archive each benchmark's binary trace as "
                    "DIR/<benchmark>.trace.bin for later cross-run diffing "
                    "(default: traces are deleted after analysis)")
    ap.add_argument("--revision", default=None,
                    help="revision label (default: git rev-parse --short)")
    ap.add_argument("--benchmarks", default=None,
                    help="comma-separated subset (default: full suite)")
    args = ap.parse_args(argv[1:])
    if args.jobs < 1:
        ap.error("--jobs must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        ap.error("--timeout must be > 0")

    bench_cell = os.path.join(args.build_dir, "bench", "bench_cell")
    analyze = os.path.join(args.build_dir, "tools", "olden-analyze")
    for binary in (bench_cell, analyze):
        if not os.access(binary, os.X_OK):
            fail(f"missing binary {binary} (build the repo first)")

    names = list_benchmarks(bench_cell)
    if args.benchmarks:
        wanted = args.benchmarks.split(",")
        unknown = [w for w in wanted if w not in names]
        if unknown:
            fail(f"unknown benchmark(s) {unknown}; suite has {names}")
        names = [n for n in names if n in wanted]

    revision = args.revision or git_revision()
    if args.keep_traces is not None:
        os.makedirs(args.keep_traces, exist_ok=True)
    mode = "tiny" if args.tiny else "paper" if args.paper else "default"
    cells = []
    try:
        run_matrix(bench_cell, analyze, names, args, mode, cells)
    except CellError as e:
        fail(str(e), e.code)
    cells.sort(key=lambda c: (c["benchmark"], c["scheme"]))

    doc = {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "generator": "bench_runner",
        "revision": revision,
        "mode": mode,
        "nprocs": args.nprocs,
        "cells": cells,
    }
    out_path = args.out or f"BENCH_{revision}.json"
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path}: {len(cells)} cells "
          f"({len(names)} benchmarks x {len(SCHEMES)} schemes, "
          f"p={args.nprocs}, {doc['mode']} size)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
