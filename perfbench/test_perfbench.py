#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py          # smoke size, about a minute
    python3 perfbench/test_perfbench.py --full   # determinism at full size too

- Every workload runs at smoke size, untraced and traced, with all output
  checks passing.
- The printed metric names and units equal BENCHMARK.json's: end_to_end
  for --trace 0, per_layer for --trace 1.
- Every exact metric -- congest_rounds, ratio, and each per-layer metric
  whose unit is `count` or `frac` -- is identical across two runs of one
  seed.
- In a directory holding only BENCHMARK.json and the benchmark's files,
  the command exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "frac")
EXACT_END_TO_END = ("congest_rounds", "ratio")
FULL = "--full" in sys.argv

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, smoke=True, cwd=ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    if smoke:
        cmd += ["--smoke", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Benchmark(unittest.TestCase):
    def check_run(self, workload, seed, trace, smoke=True):
        proc = run(workload, seed, trace, smoke)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        r = result(proc)
        self.assertEqual(set(r), {"correct", "attempted", "failed",
                                  "metrics"})
        self.assertTrue(r["correct"], proc.stderr[-3000:])
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)
        table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in r["metrics"].items()},
            {m["name"]: m["unit"] for m in table})
        return r

    def exact(self, r, trace):
        table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        names = [m["name"] for m in table
                 if m["unit"] in EXACT_UNITS or m["name"] in EXACT_END_TO_END]
        return {n: r["metrics"][n]["value"] for n in names}

    def test_smoke_runs_and_exact_metrics_repeat(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    a = self.check_run(workload, 7, trace)
                    b = self.check_run(workload, 7, trace)
                    self.assertEqual(self.exact(a, trace),
                                     self.exact(b, trace))

    @unittest.skipUnless(FULL, "full size only with --full")
    def test_full_size_exact_metrics_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = self.check_run(workload, 3, 1, smoke=False)
                b = self.check_run(workload, 3, 1, smoke=False)
                self.assertEqual(self.exact(a, 1), self.exact(b, 1))

    def test_spec_is_well_formed(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def test_fails_without_the_library_sources(self):
        isolated = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(isolated, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run(WORKLOADS[0], 1, 0, smoke=False, cwd=isolated)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result(proc))
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0]] + [a for a in sys.argv[1:]
                                        if a != "--full"])
