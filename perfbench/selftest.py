#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced (twice, with one seed) and checks
that the result line follows the contract, that every metric of
BENCHMARK.json is printed with its unit, that the traced runs have spans in
all six framerep layers, that count metrics repeat exactly, and that the
benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
WORK = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = {"frames", "linalg", "represent", "solve", "io", "cli"}
COUNTS = ("frames.built_per_op", "linalg.pseudoinverse_calls", "linalg.hermitian_eigs_calls",
          "linalg.svd_work", "io.bytes_read", "io.bytes_written")
SEED = 7


def run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def span_layers(workload):
    layers = set()
    with open(WORK / f"spans-{workload}.jsonl", encoding="utf-8") as fh:
        for line in fh:
            name = json.loads(line)[0]
            if name != "op":
                layers.add(name.split(".", 1)[0])
    return layers


class Selftest(unittest.TestCase):
    traced: dict = {}

    @classmethod
    def setUpClass(cls):
        cls.untraced = {w: run(w, 0) for w in WORKLOADS}
        cls.traced = {}
        cls.layers = {}
        for w in WORKLOADS:
            cls.traced[w] = [run(w, 1)]
            cls.layers[w] = span_layers(w)
            cls.traced[w].append(run(w, 1))

    def result(self, done, declared):
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            printed = [l for l in lines if l.startswith(f"{m['name']} = ")]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertTrue(printed[0].endswith(" " + m["unit"]), printed[0])
        return result

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.result(self.untraced[w], SPEC["end_to_end"])["metrics"]
                self.assertGreater(metrics["setup_s"]["value"], 0)
                self.assertEqual(metrics["success_ratio"]["value"], 1.0)

    def test_traced_prints_every_per_layer_metric(self):
        for w in WORKLOADS:
            for done in self.traced[w]:
                with self.subTest(workload=w):
                    self.result(done, SPEC["per_layer"])

    def test_traced_runs_span_all_six_layers(self):
        self.assertEqual(self.layers["cli-json"], LAYERS)
        self.assertTrue({"frames", "linalg", "solve"} <= self.layers["solve-redundant"])
        self.assertIn("represent", self.layers["represent-warm"])

    def test_count_metrics_repeat_exactly(self):
        for w in WORKLOADS:
            first, second = (self.result(d, SPEC["per_layer"])["metrics"] for d in self.traced[w])
            for name in COUNTS:
                with self.subTest(workload=w, metric=name):
                    self.assertEqual(first[name]["value"], second[name]["value"])

    def test_represent_warm_never_calls_pseudoinverse(self):
        metrics = self.result(self.traced["represent-warm"][0], SPEC["per_layer"])["metrics"]
        self.assertEqual(metrics["linalg.pseudoinverse_calls"]["value"], 0)

    def test_fails_without_program_source(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(WORKLOADS[0], 0, cwd=bare, script=bare / "perfbench" / "run.py")
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
