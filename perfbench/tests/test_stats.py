"""Unit tests of the benchmark's statistics (perfbench/stats.py) and of how
perfbench/run.py turns the harness's raw observations into metrics.

    python3 -m unittest discover -s perfbench/tests
"""
import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import stats  # noqa: E402

BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"


def span(name, t0, t1, parent=-1, step=1):
    return {"name": name, "t0": t0, "t1": t1, "parent": parent, "step": step}


def job(step_times, setup=1.0, **fields):
    """A raw job record: `setup` seconds from the job's start to its first
    step, then steps of the given durations back to back."""
    starts, ends, t = [], [], setup
    for duration in step_times:
        starts.append(t)
        t += duration
        ends.append(t)
    record = {"t_start": 0.0, "step_start": starts, "step_end": ends,
              "recv_wait": [], "exposed_wait": [], "comm_bytes": 0,
              "comm_msgs": 0, "shard_s": 0.0, "mass0": 1.0,
              "mass_end": 1.0 + 1e-7, "finite": True, "digest": "00",
              "cells": 1000, "local_cells": 1000, "tree_p2p": 0,
              "tree_nodes": 0, "replay_tree_p2p": 0, "replay_tree_nodes": 0,
              "replay_tree_passes": 0, "spans": []}
    record.update(fields)
    return record


def traced_job():
    """Steps 1 and 2 replayed: drift and kick under the step, the tree walk
    nested in the force pass, plus comm waits on the real steps."""
    spans = []
    for step, t in ((1, 10.0), (2, 20.0)):
        root = len(spans)
        spans.append(span("hybrid.step", t, t + 5.0, step=step))
        spans.append(span("vlasov.drift", t + 0.5, t + 2.0, root, step))
        spans.append(span("vlasov.kick", t + 2.0, t + 2.5, root, step))
        forces = len(spans)
        spans.append(span("hybrid.forces", t + 2.5, t + 4.5, root, step))
        spans.append(span("gravity.tree_walk", t + 3.0, t + 4.0, forces, step))
    return job([8.0, 3.0, 3.5], spans=spans, recv_wait=[0.0625, 0.125],
               exposed_wait=[0.03125, 0.0625], comm_bytes=4096, comm_msgs=8,
               replay_tree_p2p=600, replay_tree_nodes=40,
               replay_tree_passes=2)


IC_SPANS = [span("cosmology.ic_nu", 0.0, 0.5, step=-1),
            span("cosmology.ic_cdm", 0.5, 0.75, step=-1)]


class MedianTest(unittest.TestCase):
    def test_odd_count_takes_the_middle_sample(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)

    def test_even_count_averages_the_middle_two(self):
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class TailPercentileTest(unittest.TestCase):
    def test_exactly_ten_samples_lie_above_the_tail(self):
        values = [float(v) for v in range(100, 0, -1)]
        percentile, tail = stats.tail_percentile(values)
        self.assertEqual(tail, 90.0)
        self.assertEqual(sum(v > tail for v in values), 10)
        self.assertEqual(percentile, 90.0)

    def test_eleven_samples_give_the_smallest(self):
        percentile, tail = stats.tail_percentile(range(11))
        self.assertEqual(tail, 0)
        self.assertAlmostEqual(percentile, 100.0 / 11)

    def test_ten_samples_are_too_few(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile(range(10))


class StepWindowTest(unittest.TestCase):
    # One second of setup, a cold 1.5 s first step, then three steps.
    JOB = job([1.5, 1.0, 1.5, 0.5])

    def test_first_step_is_excluded_from_the_samples(self):
        self.assertEqual(stats.step_samples(self.JOB), [1.0, 1.5, 0.5])

    def test_setup_ends_at_the_end_of_the_first_step(self):
        self.assertEqual(stats.setup_window(self.JOB), 2.5)

    def test_end_to_end_takes_the_median_setup_and_pools_steps(self):
        jobs = [job([2.0] + [0.25] * 6, setup=s) for s in (1.0, 3.0, 2.0)]
        metrics, context = run.end_to_end(jobs, peak_rss_kib=2048.0)
        self.assertEqual(metrics["setup_s"], (4.0, "s"))
        self.assertEqual(metrics["step_s"], (0.25, "s"))
        self.assertEqual(metrics["peak_rss_mb"], (2.0, "MiB"))
        self.assertEqual(context["step_samples"], 18)


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_are_subtracted_once(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 3.0, 0),
                 span("b", 2.0, 4.0, 0), span("c", 2.5, 3.5, 1)]
        self.assertEqual(stats.self_times(spans), [7.0, 1.5, 2.0, 1.0])

    def test_child_time_outside_the_parent_is_clipped(self):
        spans = [span("parent", 0.0, 1.0), span("child", 0.5, 2.0, 0)]
        self.assertEqual(stats.self_times(spans)[0], 0.5)

    def test_by_step_sums_names_and_skips_spans_outside_steps(self):
        spans = [span("ic", 0.0, 5.0, step=-1), span("step", 10.0, 20.0),
                 span("k", 11.0, 12.0, 1), span("k", 13.0, 15.0, 1)]
        self.assertEqual(stats.self_time_by_step(spans),
                         {1: {"step": 7.0, "k": 3.0}})


class ClosureTest(unittest.TestCase):
    def test_layers_plus_unattributed_equal_the_traced_step(self):
        metrics = run.per_layer(job([8.0, 1.0, 1.0]), traced_job(), IC_SPANS)
        closed = sum(metrics[name + "_s"][0] for name in run.LAYER_SPANS)
        closed += metrics["comm.recv_wait_s"][0]
        self.assertAlmostEqual(closed + metrics["hybrid.unattributed_s"][0],
                               metrics["bench.traced_step_s"][0], places=12)
        self.assertEqual(metrics["bench.traced_step_s"], (3.25, "s"))
        self.assertEqual(metrics["vlasov.drift_s"], (1.5, "s"))
        self.assertEqual(metrics["gravity.tree_walk_s"], (1.0, "s"))
        self.assertEqual(metrics["gravity.tree_p2p"], (300.0, "count"))
        self.assertEqual(metrics["comm.msgs_per_step"], (4.0, "count"))


class OutputCheckTest(unittest.TestCase):
    def test_a_job_that_differs_from_the_others_fails(self):
        jobs = [job([1.0] * 3), job([1.0] * 3), job([1.0] * 3, digest="ff")]
        self.assertEqual(run.failed_jobs(jobs, steps=3), [2])

    def test_mass_drift_over_the_tolerance_fails(self):
        jobs = [job([1.0] * 3, mass_end=1.1), job([1.0] * 3)]
        self.assertEqual(run.failed_jobs(jobs, steps=3), [0])


@unittest.skipUnless(BENCHMARK_JSON.exists(), "no BENCHMARK.json")
class ContractTest(unittest.TestCase):
    def test_reports_exactly_the_declared_metrics_and_units(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        reported = dict(run.end_to_end([job([1.0] * 12)], 1024.0)[0])
        reported.update(run.per_layer(job([1.0] * 3), traced_job(), IC_SPANS))
        declared = spec["end_to_end"] + spec["per_layer"]
        self.assertEqual(set(reported), {m["name"] for m in declared})
        for metric in declared:
            self.assertEqual(reported[metric["name"]][1], metric["unit"])
        for workload in spec["workloads"]:
            self.assertIn(workload["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
