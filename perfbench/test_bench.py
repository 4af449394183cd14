#!/usr/bin/env python3
"""Tests of the repo benchmark itself, in a fast smoke configuration.

    python3 perfbench/test_bench.py        (from the repository root)

Checks that every metric BENCHMARK.json names is emitted, finite and in
its declared unit (end-to-end metrics per workload, per-layer metrics by
the traced run), that a correct program passes every check, and that a
deliberately wrong reference drives the failure rate above 0 on every
workload.  Takes about a minute plus the first build.
"""
import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().split("\n")[-1])


class BenchmarkTest(unittest.TestCase):
    def assert_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_metrics_emitted_and_finite(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 0)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assert_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_per_layer_metrics_emitted_and_finite(self):
        result = bench("map", 1)
        self.assertTrue(result["correct"])
        self.assert_metrics(result, SPEC["per_layer"])
        # Exact counts: the map's integrated cells and the stream's split.
        metrics = result["metrics"]
        self.assertEqual(metrics["analysis.integrated_share"]["value"],
                         1447 / 9409)
        self.assertEqual(metrics["service.hit_share"]["value"], 0.9)
        self.assertGreater(metrics["ode.batch_ns_per_lane_step"]["value"], 0)

    def test_wrong_reference_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 0, "--corrupt-reference")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
