#!/usr/bin/env python3
"""Hold the bench binaries to the watchdog's exit-code contract.

Usage: watchdog_exit_test.py BENCH_CELL TABLE1_SUITE

Under --faults=drop=1 no message is ever delivered, so the first one
exhausts its retransmissions and trips the fault plane's watchdog. A trip
is an error, not a crash: each binary must name the tripped cell by its
run label with the diagnostic and exit 1, never die on a signal.
bench_cell must fail the same way at --jobs=1 and 2, byte for byte, and
a tripped cell must not leak into the stats or trace of later cells.

Stdlib only; registered with ctest from tools/CMakeLists.txt.
"""

import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

BENCH_CELL = TABLE1_SUITE = None  # set from argv in __main__

TRIP = "watchdog: retry-cap-exceeded"


def run(*argv):
    return subprocess.run(list(argv), capture_output=True, text=True)


class WatchdogExitTest(unittest.TestCase):
    def test_bench_cell_fails_the_same_at_every_job_count(self):
        procs = [run(BENCH_CELL, "--benchmark=TreeAdd,EM3D", "--tiny",
                     "--schemes=local", "--faults=drop=1", f"--jobs={jobs}")
                 for jobs in (1, 2)]
        for proc in procs:
            # A negative return code is a signal (SIGABRT is -6).
            self.assertEqual(proc.returncode, 1, proc.stderr)
            self.assertIn(f"bench_cell: BENCH/TreeAdd/p=8/local failed: {TRIP}",
                          proc.stderr)
            self.assertIn(f"bench_cell: BENCH/EM3D/p=8/local failed: {TRIP}",
                          proc.stderr)
        self.assertEqual(procs[0].stdout, procs[1].stdout)
        self.assertEqual(procs[0].stderr, procs[1].stderr)

    def test_a_failed_cell_leaves_the_next_cells_outputs_alone(self):
        # EM3D trips on its first fill; TreeAdd makes none and completes.
        # The tripped cell's partial record must not leak into TreeAdd's
        # stats, and the trace must hold TreeAdd's run.
        with tempfile.TemporaryDirectory(prefix="watchdog_exit_") as tmp:
            outs = []
            for jobs in (1, 2):
                paths = [os.path.join(tmp, f"{jobs}.{ext}")
                         for ext in ("json", "bin")]
                proc = run(BENCH_CELL, "--benchmark=EM3D,TreeAdd", "--tiny",
                           "--schemes=local", "--faults=drop=1,classes=fill",
                           f"--jobs={jobs}", f"--stats-json={paths[0]}",
                           f"--trace-bin={paths[1]}")
                self.assertEqual(proc.returncode, 1, proc.stderr)
                self.assertIn(
                    f"bench_cell: BENCH/EM3D/p=8/local failed: {TRIP}",
                    proc.stderr)
                self.assertIn("TreeAdd      local", proc.stdout)
                outs.append([pathlib.Path(p).read_bytes() for p in paths])
            self.assertEqual(outs[0], outs[1])
            self.assertIn(b"BENCH/TreeAdd/p=8/local", outs[0][1])
            self.assertNotIn(b"BENCH/EM3D", outs[0][1])

    def test_table_binary_prints_the_diagnostic_and_exits_1(self):
        proc = run(TABLE1_SUITE, "--faults=drop=1")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn(
            f"table1_suite: BENCH/TreeAdd/p=4/local failed: {TRIP}",
            proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    BENCH_CELL, TABLE1_SUITE = sys.argv[1], sys.argv[2]
    unittest.main(argv=sys.argv[:1])
