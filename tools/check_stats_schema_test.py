#!/usr/bin/env python3
"""Run the stats schema checker against a document the exporter just wrote.

Usage: check_stats_schema_test.py BENCH_CELL

The exporter (src/olden/trace/export.cpp) and the checker
(check_stats_schema.py) each carry the stats schema version and its
invariants. This test makes them meet on every tier-1 run: bench_cell
writes a stats document for TreeAdd and EM3D at tiny size under the three
coherence schemes on a lossy coherence wire, and the checker must accept it (exit
0), refuse the same document relabelled as an older version (exit 2),
and reject it with one breakdown bucket changed (exit 1). A flag the
checker does not have, removed or misspelt, is a usage error (exit 2).

Stdlib only; registered with ctest from tools/CMakeLists.txt.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(TOOLS_DIR, "check_stats_schema.py")
BENCH_CELL = None  # set from argv in __main__

# The coherence fault spec CI's sanitizer job runs under.
FAULTS = "drop=0.1,dup=0.05,delay=0.2:500,classes=fill:invalidate:ts_check"


class CheckStatsSchemaTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(prefix="check_stats_test_")
        cls.stats = os.path.join(cls.tmp.name, "stats.json")
        proc = subprocess.run(
            [BENCH_CELL, "--benchmark=TreeAdd,EM3D", "--tiny",
             "--schemes=local,global,bilateral", f"--faults={FAULTS}",
             "--fault-seed=21", f"--stats-json={cls.stats}"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"bench_cell failed (exit {proc.returncode})"
                               f":\n{proc.stdout}{proc.stderr}")
        with open(cls.stats, "r", encoding="utf-8") as f:
            cls.doc = json.load(f)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def check(self, *args):
        return subprocess.run([sys.executable, CHECKER, *args],
                              capture_output=True, text=True)

    def write_copy(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def test_exported_document_passes(self):
        self.assertEqual(len(self.doc["runs"]), 6)
        proc = self.check(self.stats)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_older_version_exits_2(self):
        doc = json.loads(json.dumps(self.doc))
        doc["schema_version"] = 6
        proc = self.check(self.write_copy("v6.json", doc))
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("unknown schema_version 6", proc.stderr)

    def test_changed_bucket_exits_1(self):
        doc = json.loads(json.dumps(self.doc))
        doc["runs"][0]["breakdown"][0]["compute"] += 1
        proc = self.check(self.write_copy("bucket.json", doc))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("buckets sum to", proc.stderr)

    def test_removed_mode_is_a_usage_error(self):
        proc = self.check("--profile", self.stats)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("Usage:", proc.stderr)

    def test_misspelt_flag_is_a_usage_error(self):
        for args in (["--dif", self.stats], [self.stats, "--diff"]):
            proc = self.check(*args)
            self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
            self.assertIn("Usage:", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    BENCH_CELL = sys.argv.pop(1)
    unittest.main()
