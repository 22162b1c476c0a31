#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 trexbench/test_bench.py

  * every end-to-end metric of BENCHMARK.json prints with its unit, on
    every workload, through the benchmark's own command;
  * on era_base and self_manage_churn the work counts repeat exactly
    across two runs of one seed (same ops, same work);
  * a tampered reference answer drives error_rate above 0, and so does a
    wrong golden hash where a workload checks its answers against them.

Takes about three minutes; builds the driver first if needed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORK = os.path.join(run.ROOT, ".bench_build", "test-work")
WORK_COUNTS = ["storage.bptree_seeks_per_query",
               "storage.pages_fetched_per_query",
               "index.postings_scanned_per_query",
               "advisor.lists_materialized_per_tick"]


def driver(*flags):
    """Runs the driver binary; returns (stdout lines, result object)."""
    proc = subprocess.run([run.BINARY, "--work-dir", WORK] + list(flags),
                          capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise AssertionError(f"driver failed: {proc.stderr}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_every_end_to_end_metric_prints_with_its_unit(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            with self.subTest(workload=workload):
                proc = subprocess.run(
                    [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                     "--workload", workload, "--seed", "3",
                     "--seconds", str(self.spec["run_seconds"]),
                     "--trace", "0"],
                    cwd=run.ROOT, capture_output=True, text=True,
                    timeout=run.RUN_TIMEOUT_S)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.rstrip("\n").split("\n")
                result = json.loads(lines[-1])
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed",
                                  "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(
                    list(metrics),
                    [m["name"] for m in self.spec["end_to_end"]])
                for m in self.spec["end_to_end"]:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    self.assertGreater(metrics[m["name"]]["value"], 0)
                    printed = [l.split() for l in lines[:-1]]
                    self.assertIn(m["unit"],
                                  [p[2] for p in printed
                                   if len(p) >= 3 and p[0] == m["name"]])

    def test_work_counts_repeat_exactly(self):
        cases = [("era_base", "200"), ("self_manage_churn", "400")]
        for workload, ops in cases:
            with self.subTest(workload=workload):
                runs = [driver("--workload", workload, "--seed", "5",
                               "--seconds", "1", "--mode", "traced",
                               "--ops", ops)[1]["metrics"]
                        for _ in range(2)]
                for name in WORK_COUNTS:
                    self.assertEqual(runs[0][name]["value"],
                                     runs[1][name]["value"], name)
                self.assertGreater(
                    runs[0]["storage.bptree_seeks_per_query"]["value"], 0)
                if workload == "self_manage_churn":
                    self.assertGreater(
                        runs[0]["advisor.lists_materialized_per_tick"]
                        ["value"], 0)

    def test_tampered_reference_raises_error_rate(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            with self.subTest(workload=workload):
                _, result = driver("--workload", workload, "--seed", "5",
                                   "--seconds", "1", "--mode", "timed",
                                   "--ops", "60", "--tamper")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(
                    result["metrics"]["error_rate"]["value"], 0)
                golden = result["metrics"].get("bench.golden_mismatches")
                # era_base and topk_lists check against golden hashes.
                if workload in ("era_base", "topk_lists"):
                    self.assertEqual(golden["value"], 1)
                else:
                    self.assertIsNone(golden)
                # The same run untampered is clean.
                _, clean = driver("--workload", workload, "--seed", "5",
                                  "--seconds", "1", "--mode", "timed",
                                  "--ops", "60")
                self.assertTrue(clean["correct"])
                self.assertEqual(clean["metrics"]["error_rate"]["value"], 0)
                if golden is not None:
                    self.assertEqual(
                        clean["metrics"]["bench.golden_mismatches"]["value"],
                        0)


if __name__ == "__main__":
    unittest.main()
