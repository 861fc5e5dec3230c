#!/usr/bin/env python3
"""Regression tests for bench_compare.py's failure-mode contract.

The comparison half is exercised by CI end-to-end; what needs pinning
here is the degradation contract around --traces-old/--traces-new: an
archive missing one cell's trace (an interrupted --keep-traces run), an
analyze binary emitting garbage, or a malformed diff document must each
degrade to a per-cell note — never a traceback, never an abort of the
whole attribution pass — while the documented exit codes (1/3/4/5) stay
exactly as advertised.

Stdlib only; registered with ctest from tools/CMakeLists.txt.
"""

import json
import os
import stat
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_COMPARE = os.path.join(TOOLS_DIR, "bench_compare.py")


def bench_doc(revision, makespans):
    """A schema-valid BENCH document: {benchmark: (scheme, makespan)}."""
    cells = []
    for bench, (scheme, makespan) in makespans.items():
        nprocs = 4
        cells.append({
            "benchmark": bench,
            "scheme": scheme,
            "nprocs": nprocs,
            "makespan_cycles": makespan,
            "buckets": {
                "compute": nprocs * makespan,
                "migration": 0,
                "cache_stall": 0,
                "coherence": 0,
                "idle": 0,
            },
            "counters": {},
            "miss_rate_percent": 1.0,
        })
    return {
        "bench_schema_version": 1,
        "generator": "bench_runner",
        "revision": revision,
        "mode": "tiny",
        "nprocs": 4,
        "cells": cells,
    }


DIFF_OK = {
    "diff_schema_version": 1,
    "diffs": [{
        "makespan_delta_cycles": 500,
        "makespan_delta_percent": 50.0,
        "buckets": [{"bucket": "compute", "delta": 500, "a": 1000,
                     "b": 1500}],
        "edges": {"top": []},
        "sites": {"top": []},
    }],
}


class BenchCompareTracesTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="bench_compare_test_")
        self.addCleanup(self.tmp.cleanup)
        self.dir = self.tmp.name

    def path(self, name):
        return os.path.join(self.dir, name)

    def write_json(self, name, doc):
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return p

    def write_stub_analyze(self, stdout, returncode=0):
        """A fake olden-analyze that prints `stdout` and exits."""
        p = self.path("fake_analyze.py")
        with open(p, "w", encoding="utf-8") as f:
            f.write("#!%s\nimport sys\nsys.stdout.write(%r)\n"
                    "sys.exit(%d)\n" % (sys.executable, stdout, returncode))
        os.chmod(p, os.stat(p).st_mode | stat.S_IXUSR)
        return p

    def make_traces(self, dirname, benches):
        d = self.path(dirname)
        os.makedirs(d, exist_ok=True)
        for bench in benches:
            with open(os.path.join(d, bench + ".trace.bin"), "wb") as f:
                f.write(b"OLDNTRC2 stub")
        return d

    def run_compare(self, *extra):
        old = self.write_json("old.json", bench_doc("seed", {
            "TreeAdd": ("local", 1000), "MST": ("local", 1000)}))
        new = self.write_json("new.json", bench_doc("head", {
            "TreeAdd": ("local", 1500), "MST": ("local", 1500)}))
        return subprocess.run(
            [sys.executable, BENCH_COMPARE, old, new, *extra],
            capture_output=True, text=True)

    def assert_no_traceback(self, proc):
        self.assertNotIn("Traceback", proc.stderr, proc.stderr)
        self.assertNotIn("Traceback", proc.stdout, proc.stdout)

    def test_incomplete_archive_degrades_per_cell(self):
        # OLD has both traces, NEW lost MST's (interrupted --keep-traces):
        # TreeAdd still gets its attribution (exit 5), MST degrades to a
        # "trace unavailable" note instead of aborting the pass.
        traces_old = self.make_traces("traces_old", ["TreeAdd", "MST"])
        traces_new = self.make_traces("traces_new", ["TreeAdd"])
        analyze = self.write_stub_analyze(json.dumps(DIFF_OK))
        proc = self.run_compare("--traces-old", traces_old,
                                "--traces-new", traces_new,
                                "--analyze", analyze)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 5, proc.stdout + proc.stderr)
        self.assertIn("TreeAdd/local/p=4: +500 cycles", proc.stdout)
        self.assertIn("MST/local/p=4: trace unavailable", proc.stdout)

    def test_fully_missing_archive_still_reports_the_regression(self):
        # Neither side has any trace (or the directory doesn't exist at
        # all): every cell degrades, no attribution attaches, and the
        # plain regression exit code 1 is preserved — not 5, not a crash.
        analyze = self.write_stub_analyze(json.dumps(DIFF_OK))
        proc = self.run_compare("--traces-old", self.path("nonexistent_old"),
                                "--traces-new", self.path("nonexistent_new"),
                                "--analyze", analyze)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("trace unavailable", proc.stdout)

    def test_malformed_diff_document_degrades_not_tracebacks(self):
        # The analyze binary runs fine but emits a diff document missing
        # the fields the report renders — per-cell note, exit 1.
        traces_old = self.make_traces("traces_old", ["TreeAdd", "MST"])
        traces_new = self.make_traces("traces_new", ["TreeAdd", "MST"])
        analyze = self.write_stub_analyze(
            json.dumps({"diff_schema_version": 1, "diffs": [{}]}))
        proc = self.run_compare("--traces-old", traces_old,
                                "--traces-new", traces_new,
                                "--analyze", analyze)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("no diff attribution", proc.stdout)

    def test_failing_analyze_binary_degrades(self):
        traces_old = self.make_traces("traces_old", ["TreeAdd", "MST"])
        traces_new = self.make_traces("traces_new", ["TreeAdd", "MST"])
        analyze = self.write_stub_analyze("", returncode=7)
        proc = self.run_compare("--traces-old", traces_old,
                                "--traces-new", traces_new,
                                "--analyze", analyze)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("no diff attribution", proc.stdout)

    def test_bad_input_file_exits_3(self):
        bad = self.path("garbage.json")
        with open(bad, "w", encoding="utf-8") as f:
            f.write("not json at all")
        proc = subprocess.run(
            [sys.executable, BENCH_COMPARE, "--check", bad],
            capture_output=True, text=True)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 3, proc.stderr)

    def test_absent_cell_exits_4(self):
        proc = self.run_compare("--cell", "Power/bilateral/8")
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 4, proc.stdout + proc.stderr)

    def test_check_rejects_an_adaptive_cell(self):
        # The adaptive scheme was removed; a cell claiming it is invalid.
        doc = self.write_json("adaptive.json", bench_doc("head", {
            "TreeAdd": ("adaptive", 1000)}))
        proc = subprocess.run(
            [sys.executable, BENCH_COMPARE, "--check", doc],
            capture_output=True, text=True)
        self.assert_no_traceback(proc)
        self.assertEqual(proc.returncode, 3, proc.stdout + proc.stderr)
        self.assertIn("scheme must be one of", proc.stderr)


if __name__ == "__main__":
    unittest.main()
