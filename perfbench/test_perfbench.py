#!/usr/bin/env python3
"""Smoke tests of the benchmark: every workload, untraced and traced, on
tiny inputs, plus the refusal to run without the STGSim sources.

    python3 perfbench/test_perfbench.py

Run from the repository root; the first test builds the benchmark binary.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, timeout=900):
    return subprocess.run([sys.executable] + args, cwd=cwd, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_workload(self, workload, trace):
        proc = run(["perfbench/run.py", "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--smoke"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        self.assertIn("host {", proc.stdout)
        if trace:
            stem = os.path.join(ROOT, ".bench_out",
                                "trace-%s-1" % workload)
            with open(stem + ".json") as f:
                self.assertTrue(json.load(f)["traceEvents"])
            self.assertTrue(os.path.isfile(stem + ".selftime.txt"))
            if workload != "validate_serve":
                # The five pipeline calls account for the prediction.
                self.assertGreaterEqual(
                    result["metrics"]["trace.coverage_min"]["value"], 0.95)

    def test_workloads(self):
        # Seed 1 is the default: am_scale and parallel_host also compare
        # their digests with golden.json.
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_workload(w["name"], trace)

    def test_refuses_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_out", "no-sources")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        try:
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "am_scale",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, env=env, timeout=180, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
