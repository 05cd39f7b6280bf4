#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the root of the checkout (builds the benchmark on first use):

    python3 perfbench/test_bench.py
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(".bench_out", "test")
WORKLOADS = ("flow_sweep", "serve_eco", "serve_report")
TINY_OPS = {"flow_sweep": "4", "serve_eco": "200", "serve_report": "120"}


def run(workload, seed, trace="0", *extra):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", trace,
           "--out-dir", OUT_DIR] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=900, check=False)
    return done.returncode, done.stdout.decode()


def result(workload, seed, trace="0", *extra):
    code, out = run(workload, seed, trace, *extra)
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)

    def test_tiny_run_prints_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    r = result(workload, 1, trace, "--max-ops",
                               TINY_OPS[workload])
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(r["attempted"], int(TINY_OPS[workload]))
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, declared(kind))
                    if trace == "0":
                        for name, m in r["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_corrupted_expected_value_makes_runs_fail(self):
        path = os.path.join(ROOT, "perfbench/expected/flow_sweep_seed1.json")
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        doc["flows"][0]["freq_mhz"] += 1.0
        bad = os.path.join(OUT_DIR, "expected_corrupted.json")
        with open(os.path.join(ROOT, bad), "w", encoding="utf-8") as f:
            json.dump(doc, f)
        # One full pass runs every config once, the corrupted one included.
        r = result("flow_sweep", 1, "0", "--max-ops", "36", "--expected", bad)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)
        self.assertLess(r["metrics"]["ok_frac"]["value"], 1.0)
        clean = result("flow_sweep", 1, "0", "--max-ops", "36")
        self.assertTrue(clean["correct"])

    def test_same_seed_gives_the_same_operation_stream(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = run(workload, 5, "0", "--dump-stream", "300")
                b = run(workload, 5, "0", "--dump-stream", "300")
                c = run(workload, 6, "0", "--dump-stream", "300")
                self.assertEqual(a[0], 0)
                self.assertEqual(len(a[1].splitlines()), 300)
                self.assertEqual(a, b)
                self.assertNotEqual(a[1], c[1])

    def test_missing_sources_fail_without_a_result(self):
        code, out = run("flow_sweep", 1, "0", "--max-ops", "1")
        self.assertEqual(code, 0)
        # The same command from a directory holding only the benchmark.
        bare = os.path.join(ROOT, OUT_DIR, "bare")
        os.makedirs(os.path.join(bare, "perfbench"), exist_ok=True)
        for name in ("run.py", "CMakeLists.txt"):
            with open(os.path.join(ROOT, "perfbench", name), "rb") as src, \
                    open(os.path.join(bare, "perfbench", name), "wb") as dst:
                dst.write(src.read())
        done = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "flow_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=120, check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, b"")


if __name__ == "__main__":
    unittest.main()
