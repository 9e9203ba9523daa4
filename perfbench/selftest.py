#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of a source checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, job_id, jobs_for, pool  # noqa: E402

sys.path.insert(0, str(run.SRC))

CHEAP = ["verify", "twist", "--rank", "1", "--cutoff", "4"]


class JobLists(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for name in WORKLOADS:
            for seed in (0, 1, 17):
                self.assertEqual(jobs_for(name, seed), jobs_for(name, seed))

    def test_seeds_change_the_jobs(self):
        for name in WORKLOADS:
            lists = {tuple(map(tuple, jobs_for(name, s))) for s in range(10)}
            self.assertGreater(len(lists), 5, name)

    def test_jobs_come_from_the_pool(self):
        for name in WORKLOADS:
            ids = {job_id(j) for j in pool(name)}
            for seed in range(20):
                self.assertLessEqual({job_id(j) for j in jobs_for(name, seed)}, ids)

    def test_every_pool_job_has_a_golden_output(self):
        for name in WORKLOADS:
            golden = run.load_golden(name)
            self.assertEqual(set(golden), {job_id(j) for j in pool(name)}, name)


class GoldenCheck(unittest.TestCase):
    def setUp(self):
        self.golden = run.load_golden("certify")
        self.jobs = [CHEAP]
        self.reply = run.run_pass(self.jobs, False, time.monotonic() + 60)

    def test_golden_output_passes(self):
        self.assertEqual(run.check_pass(self.jobs, self.reply, self.golden), [])

    def test_mutated_stdout_is_caught(self):
        golden = json.loads(json.dumps(self.golden))
        golden[job_id(CHEAP)]["stdout"] = golden[job_id(CHEAP)]["stdout"].replace(
            "pass", "FAIL")
        self.assertEqual(len(run.check_pass(self.jobs, self.reply, golden)), 1)

    def test_mutated_exit_code_is_caught(self):
        golden = json.loads(json.dumps(self.golden))
        golden[job_id(CHEAP)]["exit"] = 1
        self.assertEqual(len(run.check_pass(self.jobs, self.reply, golden)), 1)

    def test_dead_worker_fails_every_job(self):
        self.assertEqual(len(run.check_pass(self.jobs, None, self.golden)), 1)


class Budget(unittest.TestCase):
    def test_job_over_budget_fails_and_the_pass_goes_on(self):
        slow = ["compute", "E", "--lambda", "3,2,1,0", "--format", "json"]
        request = {"src": str(run.SRC), "jobs": [slow, CHEAP], "budget_s": 0.2,
                   "deadline_s": 30, "trace": False, "spans_path": None}
        proc = subprocess.run([sys.executable, "-I", str(HERE / "worker.py")],
                              input=json.dumps(request), capture_output=True,
                              text=True, timeout=60)
        reply = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual([j["status"] for j in reply["jobs"]], ["timeout", "ok"])
        self.assertTrue(all(j["ref_s"] > 0 for j in reply["jobs"]))
        self.assertLess(reply["jobs"][0]["seconds"], 2.0)
        fails = run.check_pass(request["jobs"], reply, run.load_golden("certify"))
        self.assertEqual(fails, [f"{job_id(slow)}: timeout"])


class Tracing(unittest.TestCase):
    def test_wrappers_are_removed_and_self_times_fit_the_wall(self):
        from macprod import cli, hecke, matprod, oracles, qtfield
        originals = (matprod.compute_f, hecke.compute_f, oracles.murphy_apply,
                     qtfield.QTRat.__dict__["__radd__"], qtfield._dict_gcd,
                     cli.main)
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(hecke.compute_f, originals[1])
            self.assertIs(hecke.compute_f, matprod.compute_f)
            self.assertIsNot(qtfield.QTRat.__dict__["__radd__"], originals[3])
            self.assertTrue(tracer.leftover_patches())
            start = time.perf_counter()
            tracer.job = 0
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["verify", "oracle", "--lambda", "1,0,2"])
            self.assertEqual(rc, 0)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.leftover_patches(), [])
        self.assertEqual(originals, (matprod.compute_f, hecke.compute_f,
                                     oracles.murphy_apply,
                                     qtfield.QTRat.__dict__["__radd__"],
                                     qtfield._dict_gcd, cli.main))
        layers = tracer.metrics(wall)
        self.assertGreater(layers["oracles.eigen_solve_E.calls"], 0)
        self.assertGreater(layers["hecke.murphy_apply.calls"], 0)
        self.assertGreater(layers["qtfield.gcd.calls"], 0)
        self_sum = sum(v for k, v in layers.items()
                       if k.endswith(".self_s") and k.count(".") == 1)
        self.assertLessEqual(self_sum, wall)
        self.assertGreater(self_sum, 0.5 * wall)


class Specs(unittest.TestCase):
    def test_every_metric_has_its_place_in_the_map(self):
        e2e, per_layer = run.load_specs()
        with open(HERE / "metrics.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertEqual([s["name"] for s in e2e], list(doc["end_to_end"]))
        self.assertEqual([s["name"] for s in per_layer], list(doc["per_layer"]))
        names = {s["name"] for s in e2e}
        for name, entry in doc["per_layer"].items():
            self.assertLessEqual(set(entry["moves"]), names, name)
            self.assertLessEqual(set(entry["on"]), set(WORKLOADS), name)

    def test_workloads_match_benchmark_json(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(bench["workloads"],
                         [{"name": n, "why": w.why} for n, w in WORKLOADS.items()])

    def test_traced_pass_reports_every_per_layer_metric(self):
        tracer = Tracer()
        names = set(tracer.metrics(1.0)) | {"trace.overhead_s"}
        _, per_layer = run.load_specs()
        self.assertEqual({s["name"] for s in per_layer}, names)


class Contract(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "certify",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
