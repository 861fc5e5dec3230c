#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny problem size.

    python3 perfbench/selftest.py

Builds the driver like run.py does, then checks that every workload runs,
validates, and prints exactly the metrics BENCHMARK.json names, with their
units; that a wrong expected checksum is counted as a failed attempt; that
the virtual-statistics digest repeats across invocations; and that the
layers a workload does not exercise read zero.
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
DRIVER = None
RESULTS = {}


def drive(workload, trace, *extra, seed=7):
    """Run the driver at tiny size; returns (result JSON, other stdout lines)."""
    run.out_dir().mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.out_dir()) as tmp:
        r = subprocess.run(
            [str(DRIVER), f"--workload={workload}", f"--seed={seed}",
             "--seconds=1", f"--trace={trace}", f"--tmp={tmp}", "--tiny",
             *extra],
            capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{r.returncode}: {r.stderr}")
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def info(lines, key):
    for line in lines:
        if line.startswith(key + " "):
            return line.split(" ", 1)[1]
    raise AssertionError(f"no '{key}' line")


def result(workload, trace):
    if (workload, trace) not in RESULTS:
        RESULTS[(workload, trace)] = drive(workload, trace)
    return RESULTS[(workload, trace)]


class SelfTest(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in run.WORKLOADS:
                res, _ = result(w, trace)
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want, f"{w} trace={trace}")
                self.assertTrue(res["correct"], f"{w} trace={trace}")
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)

    def test_end_to_end_metrics_are_nonzero(self):
        for w in run.WORKLOADS:
            res, _ = result(w, 0)
            for name, m in res["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w} {name}")

    def test_wrong_checksum_counts_in_error_rate(self):
        res, lines = drive("migrate", 0, "--wrong-checksum")
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertLessEqual(res["failed"], res["attempted"])
        rate = float(info(lines, "error_rate").split()[0])
        self.assertAlmostEqual(rate, res["failed"] / res["attempted"])

    def test_virtual_digest_repeats_across_invocations(self):
        for w in run.WORKLOADS:
            _, first = result(w, 0)
            _, second = drive(w, 0)
            _, traced = result(w, 1)
            digest = info(first, "virtual_digest")
            self.assertEqual(info(second, "virtual_digest"), digest, w)
            self.assertEqual(info(traced, "virtual_digest"), digest, w)

    def test_unexercised_layers_read_zero(self):
        for w in run.WORKLOADS:
            metrics = result(w, 1)[0]["metrics"]
            for name, m in metrics.items():
                if name.startswith("fault.") and w != "lossy":
                    self.assertEqual(m["value"], 0, f"{w} {name}")
                if name.startswith(("trace.", "analyze.")) and w != "pipeline":
                    self.assertEqual(m["value"], 0, f"{w} {name}")
        lossy = result("lossy", 1)[0]["metrics"]
        self.assertGreater(lossy["fault.messages"]["value"], 0)
        pipeline = result("pipeline", 1)[0]["metrics"]
        self.assertGreater(pipeline["trace.events"]["value"], 0)
        self.assertGreater(pipeline["analyze.events_per_s"]["value"], 0)


if __name__ == "__main__":
    DRIVER = run.build("RelWithDebInfo")
    unittest.main()
