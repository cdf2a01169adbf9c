#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

The first run builds the harness (see perfbench/run.py).
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def harness(*args, check=True):
    done = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          env=run.harness_env(), timeout=170,
                          check=False)
    if check and done.returncode != 0:
        raise AssertionError(f"harness failed: {done.stderr}")
    return done


def report_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def setUpModule():
    global BINARY
    BINARY = run.build()


class NamesTest(unittest.TestCase):
    def test_metric_and_workload_names(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"]]
        names += [m["name"] for m in spec["per_layer"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         run.WORKLOADS)


class PlanTest(unittest.TestCase):
    def plan(self, workload, seed):
        return harness("--print-plan", "--workload", workload, "--seed",
                       str(seed)).stdout.splitlines()

    def test_sweep_draw_is_seeded(self):
        first = self.plan("sweep_cache_grid", 7)
        self.assertEqual(first, self.plan("sweep_cache_grid", 7))
        self.assertNotEqual(first, self.plan("sweep_cache_grid", 8))
        self.assertEqual(len(first), 12)
        self.assertEqual(len(set(first)), len(first))

    def test_figure_order_is_seeded_and_complete(self):
        a = [json.loads(line) for line in self.plan("figures_cold", 1)]
        b = [json.loads(line) for line in self.plan("figures_cold", 2)]
        self.assertEqual(len(a), 4)
        self.assertNotEqual([r["workloads"] for r in a],
                            [r["workloads"] for r in b])
        for x, y in zip(a, b):
            self.assertEqual(sorted(x["workloads"]), sorted(y["workloads"]))
            self.assertEqual(len(x["workloads"]), 15)


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.work = Path(tempfile.mkdtemp(dir=run.build_dir().parent))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run_cold(self, expected, trace="0"):
        return harness("--workload", "figures_cold", "--seed", "1",
                       "--seconds", "0", "--trace", trace, "--threads",
                       str(run.POOL_THREADS), "--work-dir",
                       str(self.work / "work"), "--expected",
                       str(expected))

    def test_corrupted_expected_output_fails_cells(self):
        doc = json.loads(run.EXPECTED.read_text())
        doc["workloads"]["wc"]["output"] += "1\n"
        corrupted = self.work / "expected.json"
        corrupted.write_text(json.dumps(doc))
        report = report_of(self.run_cold(corrupted))
        # wc's three model cells in each of the four figures.
        self.assertEqual(report["failed"], 12)
        self.assertEqual(report["attempted"], 180)
        self.assertIn("program output differs", report["failures"][0])

    def test_traced_pass_matches_untraced_counts(self):
        report = report_of(self.run_cold(run.EXPECTED, trace="1"))
        self.assertEqual(report["failed"], 0)
        traced = report["traced"]
        self.assertEqual(traced["counts"], report["untraced_counts"])
        self.assertEqual(traced["speedups"], report["speedups"])
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        layer_names = {m["name"] for m in spec["per_layer"]
                       if not m["name"].startswith("driver.")}
        self.assertEqual(layer_names, set(traced["layers"]))

    def test_speedup_means_equal_bench_figures_all(self):
        subprocess.run(["cmake", "--build", str(run.build_dir()),
                        "--target", "bench_figures_all"],
                       stdout=subprocess.DEVNULL, check=True)
        subprocess.run([str(run.build_dir() / "bench_figures_all")],
                       cwd=self.work, stdout=subprocess.DEVNULL,
                       env=run.harness_env(), check=True)
        figures = json.loads(
            (self.work / "BENCH_figures_all.json").read_text())
        report = report_of(self.run_cold(run.EXPECTED))
        for model in ("full_pred", "cond_move"):
            # The harness sums logs in "<figure>/<workload>" order.
            cells = sorted(
                (row["name"],
                 row["base_cycles"] / row["models"][model]["cycles"])
                for row in figures["benchmarks"])
            self.assertEqual(len(cells), 60)
            mean = math.exp(sum(math.log(s) for _, s in cells) /
                            len(cells))
            self.assertEqual(report["speedups"][model], mean)


if __name__ == "__main__":
    unittest.main()
