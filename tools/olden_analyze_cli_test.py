#!/usr/bin/env python3
"""Hold olden-analyze's command line to its exit-code contract.

Usage: olden_analyze_cli_test.py OLDEN_ANALYZE BENCH_CELL

bench_cell writes a tiny TreeAdd trace; olden-analyze must then reject a
malformed --top with exit 2 and a message naming the flag, and report a
JSON report or Chrome rendering it could not write (/dev/full) with exit
1. --chrome-out goes with --trace-bin only: with --diff it exits 2. --profile, whose document bench
binaries now grade themselves, is an unknown argument (exit 2).

Stdlib only; registered with ctest from tools/CMakeLists.txt.
"""

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
        cls.trace = os.path.join(cls.tmp.name, "t.bin")
        subprocess.run([BENCH_CELL, "--benchmark=TreeAdd", "--tiny",
                        "--schemes=local", f"--trace-bin={cls.trace}"],
                       check=True, capture_output=True)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def analyze(self, *args):
        return subprocess.run([ANALYZE, "--trace-bin", self.trace, *args],
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

    def test_profile_is_an_unknown_argument(self):
        path = os.path.join(self.tmp.name, "t.profile.json")
        proc = subprocess.run([ANALYZE, "--profile", path],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("unknown argument '--profile'", proc.stderr)


if __name__ == "__main__":
    ANALYZE, BENCH_CELL = sys.argv[1], sys.argv[2]
    unittest.main(argv=sys.argv[:1])
