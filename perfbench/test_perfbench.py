#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

* smoke mode passes: every workload runs briefly, every metric is present
  and finite, each traced breakdown plus unattributed_ms sums to its wall
  time, the open-loop generator's lag is reported, and the 1-thread and
  nproc-thread answer digests match;
* a contract run prints, as its last stdout line, exactly the metrics
  BENCHMARK.json lists, with their units;
* a copy holding only BENCHMARK.json and perfbench/ exits non-zero without
  printing a result.

Scratch files go under .bench_build/ (gitignored).
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    def test_smoke(self):
        proc = subprocess.run(RUN + ["--smoke"], capture_output=True,
                              text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])
        self.assertIn("smoke: OK", proc.stdout)

    def test_contract_output(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                RUN + ["--workload", "service-small", "--seed", "3",
                       "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300)
            self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            expected = {m["name"]: m["unit"] for m in spec()[key]}
            self.assertEqual(set(result["metrics"]), set(expected))
            for name, entry in result["metrics"].items():
                self.assertEqual(entry["unit"], expected[name], name)
                self.assertTrue(math.isfinite(entry["value"]), name)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mqo-paper",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
