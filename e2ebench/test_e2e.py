#!/usr/bin/env python3
"""Smoke tests of the end-to-end benchmark (tiny problem sizes, ~1 minute).

    python3 e2ebench/test_e2e.py

Each workload must run clean and report exactly the metrics BENCHMARK.json
names, and each correctness check must fire when deliberately broken: a
replay with one perturbed trial seed, a 1-thread vs N-thread digest
mismatch, and broken count conservation all have to show up in `failed`.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def bench(workload, trace=0, inject=None, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=cwd, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CleanRuns(unittest.TestCase):
    def test_every_workload_is_correct_and_complete(self):
        for w in (w["name"] for w in SPEC["workloads"]):
            for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=w, trace=trace):
                    r = result(bench(w, trace))
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(set(r["metrics"]), names)

    def test_layer_map_covers_every_per_layer_metric(self):
        entries = json.loads((HERE / "layer_map.json").read_text())["entries"]
        self.assertEqual({e["metric"] for e in entries}, PER_LAYER)
        workloads = {w["name"] for w in SPEC["workloads"]}
        for e in entries:
            self.assertIn(e["workload"], workloads)
            self.assertTrue(set(e["moves"]) <= END_TO_END)


class ChecksFire(unittest.TestCase):
    def assert_fails(self, workload, trace, inject):
        r = result(bench(workload, trace, inject))
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertLessEqual(r["failed"], r["attempted"])

    def test_perturbed_replay_seed(self):
        self.assert_fails("per_dsss_2m", 1, "replay_seed")
        self.assert_fails("uplink_backscatter", 1, "replay_seed")

    def test_thread_digest_mismatch(self):
        self.assert_fails("fleet_1m_faults", 0, "thread_digest")
        self.assert_fails("fleet_1m_faults", 1, "thread_digest")

    def test_broken_count_conservation(self):
        self.assert_fails("fleet_1m_faults", 0, "conservation")

    def test_no_library_sources_no_result(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("per_dsss_2m", cwd=bare, script=bare / HERE.name / "run.py")
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
