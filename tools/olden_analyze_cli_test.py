#!/usr/bin/env python3
"""Hold olden-analyze's command line to its exit-code contract.

Usage: olden_analyze_cli_test.py OLDEN_ANALYZE BENCH_CELL

bench_cell writes a tiny TreeAdd trace; olden-analyze must then reject a
malformed --top with exit 2 and a message naming the flag, and report a
JSON report or Chrome rendering it could not write (/dev/full) with exit
1. --chrome-out goes with --trace-bin only: with --diff it exits 2. --profile, whose document bench
binaries now grade themselves, is an unknown argument (exit 2).

--diff A B with no --run flag pairs runs by index: a two-run trace against
itself gives one all-zero diff per run, and against a one-run trace exits
1 naming both counts. A run cut short by --trace-limit analyzes with exit
0, a warning naming the run and what it dropped, and "truncated":true.

Stdlib only; registered with ctest from tools/CMakeLists.txt.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ANALYZE = BENCH_CELL = None  # set from argv in __main__


class OldenAnalyzeCliTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(prefix="olden_analyze_cli_")

        def trace(name, *args):
            path = os.path.join(cls.tmp.name, name)
            subprocess.run([BENCH_CELL, "--benchmark=TreeAdd", "--tiny",
                            f"--trace-bin={path}", *args],
                           check=True, capture_output=True)
            return path

        cls.trace = trace("t.bin", "--schemes=local")
        cls.two_runs = trace("two.bin", "--schemes=local,global")
        cls.cut = trace("cut.bin", "--schemes=local", "--trace-limit=100")

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def analyze(self, *args, trace=None):
        return subprocess.run([ANALYZE, "--trace-bin", trace or self.trace,
                               *args], capture_output=True, text=True)

    def diff(self, a, b):
        return subprocess.run([ANALYZE, "--diff", a, b, "--json"],
                              capture_output=True, text=True)

    def test_top_rejects_what_is_not_a_count(self):
        for bad in ["abc", "-1", "99999999999999999999", ""]:
            with self.subTest(top=bad):
                proc = self.analyze("--top", bad)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("--top", proc.stderr)
        self.assertEqual(self.analyze("--top", "3").returncode, 0)

    @unittest.skipUnless(os.path.exists("/dev/full"), "no /dev/full")
    def test_failed_write_exits_1(self):
        for flag in ("--json-out", "--chrome-out"):
            with self.subTest(flag=flag):
                proc = self.analyze(flag, "/dev/full")
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertIn("cannot write /dev/full", proc.stderr)

    def test_chrome_out_with_diff_exits_2(self):
        out = os.path.join(self.tmp.name, "diff.json")
        proc = subprocess.run([ANALYZE, "--diff", self.trace, self.trace,
                               "--chrome-out", out],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("--chrome-out", proc.stderr)
        self.assertFalse(os.path.exists(out))

    def test_diff_pairs_runs_by_index(self):
        proc = self.diff(self.two_runs, self.two_runs)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        diffs = json.loads(proc.stdout)["diffs"]
        self.assertEqual([(d["a"]["label"], d["b"]["label"]) for d in diffs],
                         [(f"BENCH/TreeAdd/p=8/{s}",) * 2
                          for s in ("local", "global")])

        def deltas(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    if "delta" in key and not isinstance(value, (dict, list)):
                        yield key, value
                    else:
                        yield from deltas(value)
            elif isinstance(node, list):
                for value in node:
                    yield from deltas(value)

        found = list(deltas(diffs))
        self.assertIn(("makespan_delta_cycles", 0), found)
        self.assertEqual([kv for kv in found if kv[1] != 0], [])

    def test_diff_of_unequal_run_counts_exits_1(self):
        proc = self.diff(self.trace, self.two_runs)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn(f"cannot pair runs: {self.trace} has 1, "
                      f"{self.two_runs} has 2", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_truncated_run_warns_and_reports_truncated(self):
        full = json.loads(self.analyze("--json").stdout)["runs"][0]
        proc = self.analyze("--json", trace=self.cut)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        dropped = full["events"] - 100
        self.assertIn(f"warning: run 'BENCH/TreeAdd/p=8/local' dropped "
                      f"{dropped} events at the trace limit", proc.stderr)
        run = json.loads(proc.stdout)["runs"][0]
        self.assertEqual((run["events"], run["events_dropped"],
                          run["truncated"]), (100, dropped, True))

    def test_profile_is_an_unknown_argument(self):
        path = os.path.join(self.tmp.name, "t.profile.json")
        proc = subprocess.run([ANALYZE, "--profile", path],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("unknown argument '--profile'", proc.stderr)


if __name__ == "__main__":
    ANALYZE, BENCH_CELL = sys.argv[1], sys.argv[2]
    unittest.main(argv=sys.argv[:1])
