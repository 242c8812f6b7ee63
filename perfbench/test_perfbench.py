"""Tests of the benchmark's own arithmetic, tracer and workloads.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bench  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Arithmetic(unittest.TestCase):

    def test_outcomes_and_fail_frac_from_exit_codes(self):
        cases = [  # (exit code, exception escaped, verdict ok) -> outcome
            ((0, False, True), "ok"),
            ((3, False, False), "exit3"),
            ((4, False, False), "wrong"),
            ((2, False, False), "wrong"),
            ((None, True, False), "wrong"),
            ((0, False, False), "wrong"),
        ]
        outcomes = [stats.outcome(*args) for args, _ in cases]
        self.assertEqual(outcomes, [want for _, want in cases])
        self.assertEqual(stats.fail_frac(outcomes), 5 / 6)
        self.assertEqual(stats.fail_frac(["ok", "ok"]), 0.0)
        with self.assertRaises(ValueError):
            stats.fail_frac([])

    def test_median_counts_failed_jobs_as_infinitely_slow(self):
        med = stats.median_with_failures
        self.assertEqual(med([3.0, 1.0, 2.0], ["ok"] * 3), 2.0)
        # the failed 0.5 s job sorts last: [1, 2, 3, inf]
        self.assertEqual(med([1.0, 0.5, 2.0, 3.0], ["ok", "exit3", "ok", "ok"]), 2.5)
        self.assertEqual(med([1.0, 2.0, 3.0], ["ok", "wrong", "exit3"]), math.inf)
        self.assertEqual(med([1.0, 2.0], ["ok", "exit3"]), math.inf)

    def test_goodput_counts_only_passing_jobs(self):
        self.assertEqual(stats.goodput(["ok", "ok", "exit3"], [1.0, 1.0, 2.0]), 0.5)
        self.assertEqual(stats.goodput(["wrong"], [2.0]), 0.0)

    def test_best_of_takes_fastest_run_and_worst_outcome(self):
        runs = [(0, "ok", 2.0, 1.9), (1, "ok", 1.0, 1.0),
                (0, "ok", 1.5, 1.6), (1, "exit3", 0.5, 0.4)]
        self.assertEqual(stats.best_of(runs),
                         [("ok", 1.5, 1.6), ("exit3", 0.5, 0.4)])

    def test_self_time_subtracts_direct_children_only(self):
        # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
        starts, ends, parents = [0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]
        self.assertEqual(list(stats.self_times(starts, ends, parents)),
                         [3.0, 2.0, 1.0, 4.0])
        self.assertEqual(list(stats.per_name([0, 1, 1, 0], [3, 2, 1, 4], 2)),
                         [7.0, 3.0])

    def test_quartile_spread(self):
        self.assertAlmostEqual(stats.quartile_spread([1, 2, 3, 4, 5]), 3.0 / 3.0)


class Tracer(unittest.TestCase):

    def test_wraps_every_namespace_and_restores(self):
        from obslab import observability, semigroup
        original = semigroup.evolve
        self.assertIs(observability.evolve, original)
        with tracing.Tracer() as tracer:
            self.assertIsNot(observability.evolve, original)
            self.assertIs(observability.evolve, semigroup.evolve)
            dom = workloads.ExperimentConfig(n_modes=4, nx=16).build_domain()
            state = semigroup.SpectralState.single_mode(dom, 1, (1.0, 0.0))
            tracer.call(0, observability.evolve, state,
                        workloads.ExperimentConfig().build_params(), 0.5)
        self.assertIs(observability.evolve, original)
        calls, self_s, _ = tracer.totals()
        self.assertEqual(calls[tracing.ROOT], 1)
        self.assertEqual(calls["semigroup.evolve"], 1)
        self.assertEqual(calls["spectral.eigen_table"], 0)
        self.assertEqual(list(tracer.parent), [-1, 0])
        self.assertGreaterEqual(self_s[tracing.ROOT], 0.0)


class BenchmarkFile(unittest.TestCase):

    def test_metric_names_match_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
            bench.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            {k: v[:2] for k, v in tracing.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.TIMED))


class Smoke(unittest.TestCase):
    """One traced job of each timed workload passes its verdict check."""

    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="perfbench-")

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_each_workload_runs_one_checked_job(self):
        for name in workloads.TIMED:
            with self.subTest(workload=name):
                workload = workloads.WORKLOADS[name]
                configs = workloads.prepare(
                    workload, 7, os.path.join(self.dir, name, "configs"))
                self.assertEqual(len(configs), workload.jobs)
                with tracing.Tracer() as tracer:
                    outcome, *_ = bench.run_job(
                        workload, workload.job(7, 0, 0), configs[0],
                        os.path.join(self.dir, name, "out"), tracer)
                self.assertEqual(outcome, "ok", name)
                calls, _, _ = tracer.totals()
                self.assertEqual(calls[tracing.ROOT], 1)
                for span in tracing.DOMINANT[name]:
                    self.assertGreater(calls[span], 0, span)

    def test_jobs_are_a_function_of_the_seed(self):
        for name, w in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(workloads.round_jobs(w, 3, 1),
                                 workloads.round_jobs(w, 3, 1))
                self.assertNotEqual(workloads.round_jobs(w, 3, 1),
                                    workloads.round_jobs(w, 4, 1))

    def test_rounds_repeat_no_input_and_keep_each_slots_config(self):
        for name, w in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                jobs = [(slot, job) for r in range(5)
                        for slot, job in workloads.round_jobs(w, 3, r)]
                self.assertEqual(len({job for _, job in jobs}), len(jobs))
                for slot, job in jobs:
                    self.assertEqual(job.config, w.job(3, 0, slot).config)

    def test_all_gives_each_workload_its_own_peak_rss(self):
        # chain's peak is about 2 MB above dual's own; run in one process,
        # dual's reading would be at least chain's
        with contextlib.redirect_stdout(io.StringIO()):
            outcome = run.run_each(["chain", "dual"], 7, 0.1, 0)
        self.assertIsNotNone(outcome)
        correct, attempted, failed, metrics = outcome
        self.assertTrue(correct)
        self.assertEqual(failed, 0)
        self.assertLess(metrics["dual.peak_rss_mb"]["value"],
                        metrics["chain.peak_rss_mb"]["value"])


if __name__ == "__main__":
    unittest.main()
