#!/usr/bin/env python3
"""Hold olden-analyze's command line to its exit-code contract.

Usage: olden_analyze_cli_test.py OLDEN_ANALYZE BENCH_CELL

bench_cell writes a tiny TreeAdd trace; olden-analyze must then reject a
malformed --top with exit 2 and a message naming the flag, and report a
JSON report it could not write (/dev/full) with exit 1. --profile must
reject a 200,000-deep document and a missing file with exit 1 and one
message naming the file once, never a signal.

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
    def test_failed_json_write_exits_1(self):
        proc = self.analyze("--json-out", "/dev/full")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("cannot write /dev/full", proc.stderr)

    def profile(self, path):
        return subprocess.run([ANALYZE, "--profile", path],
                              capture_output=True, text=True)

    def test_deeply_nested_profile_exits_1(self):
        for opener in ["[", '{"a":']:
            with self.subTest(opener=opener):
                path = os.path.join(self.tmp.name, "deep.json")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(opener * 200000)
                proc = self.profile(path)
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertIn("nesting deeper than", proc.stderr)

    def test_missing_profile_names_the_path_once(self):
        path = os.path.join(self.tmp.name, "nonexistent.json")
        proc = self.profile(path)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(proc.stderr,
                         f"olden-analyze: cannot open {path}\n")


if __name__ == "__main__":
    ANALYZE, BENCH_CELL = sys.argv[1], sys.argv[2]
    unittest.main(argv=sys.argv[:1])
