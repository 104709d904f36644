#!/usr/bin/env python3
"""The benchmark's own tests, on the workloads' smoke sizes.

    python3 perfbench/test_bench.py

Each workload runs untraced and traced for one second. The tests check
that every metric BENCHMARK.json names is emitted with its unit, that the
run's outputs are correct, that the traced run attributes every Spark job
to a layer, that the counts that must repeat do repeat for one seed, and
that the benchmark refuses to run without the program's sources.
"""
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return done


def parse(done):
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    info = next(json.loads(l[len("# info: "):]) for l in lines if l.startswith("# info: "))
    return json.loads(lines[-1]), info


class SmokeTest(unittest.TestCase):
    runs = {}

    @classmethod
    def run_of(cls, workload, trace):
        key = (workload, trace)
        if key not in cls.runs:
            cls.runs[key] = parse(bench(workload, trace))
        return cls.runs[key]

    def check_metrics(self, result, spec):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_untraced_emits_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, info = self.run_of(w, 0)
                self.check_metrics(result, SPEC["end_to_end"])
                jobs = result["metrics"]["jobs_per_query"]["value"]
                self.assertGreaterEqual(jobs, 1)
                self.assertEqual(jobs, round(jobs))
                for key in ("within_e_frac", "abs_err_over_e_mean", "query_ms_tail", "tail_pct",
                            "tail_beyond", "failed_frac", "heap_peak_mb", "heap_retained_mb",
                            "spark", "java", "master"):
                    self.assertIn(key, info)

    def test_traced_emits_every_per_layer_metric_and_attributes_every_job(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, info = self.run_of(w, 1)
                self.check_metrics(result, SPEC["per_layer"])
                seen = info["layers_seen"]
                self.assertEqual(result["metrics"]["spark.unattributed_jobs"]["value"], 0, seen)
                # Every job of a traced query is filed under some layer, so the
                # layers' jobs add up to the untraced run's count for the seed.
                untraced, _ = self.run_of(w, 0)
                self.assertEqual(sum(seen.values()) / info["traced_queries"],
                                 untraced["metrics"]["jobs_per_query"]["value"], seen)

    def test_counts_and_accuracy_repeat_for_one_seed(self):
        w = WORKLOADS[0]
        first, first_info = self.run_of(w, 0)
        again, again_info = parse(bench(w, 0))
        self.assertEqual(first["metrics"]["jobs_per_query"], again["metrics"]["jobs_per_query"])
        for key in ("within_e_frac", "abs_err_over_e_mean", "exact_avg"):
            self.assertEqual(first_info[key], again_info[key], key)

    def test_refuses_to_run_without_the_program(self):
        (ROOT / ".bench_build").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(HERE, pathlib.Path(d) / "perfbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            done = bench(WORKLOADS[0], 0, cwd=d)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
