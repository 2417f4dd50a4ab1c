"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers self-time accounting on nested synthetic spans, patching of names
bound by ``from .x import y`` and switching it off, the overhead ratio of a
pair of half-traced passes, the speed probe's clock and the scaling by it, the correctness gate (a corrupted expectation
must fail its job), determinism of the seeded plans, and the metric names in
BENCHMARK.json.  Takes about ten seconds.
"""

import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import jobs as J
import probe as P
import run as R
import tracer as T


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tr = T.Tracer(clock=self.clock)

    def work(self, dt):
        self.clock.advance(dt)

    def test_nested_spans(self):
        tr, work = self.tr, self.work
        leaf = tr.span("leaf", lambda: work(2.0))
        hot = tr.counter("hot", lambda x: work(0.5) or x)

        def middle_fn():
            work(1.0)
            leaf()
            hot(1)
            work(0.25)

        middle = tr.span("middle", middle_fn)

        def outer_fn():
            work(3.0)
            middle()
            leaf()
            work(0.75)

        outer = tr.span("outer", outer_fn)
        tr.begin_job("j")
        work(0.125)
        outer()
        work(0.375)
        own, outside = tr.end_job(self.clock.now)

        self.assertEqual(tr.agg["outer"], [1, 9.5, 3.75])
        self.assertEqual(tr.agg["middle"], [1, 3.75, 1.25])
        self.assertEqual(tr.agg["leaf"], [2, 4.0, 4.0])
        self.assertEqual(tr.hot["hot"], [1, 0.5])
        self.assertAlmostEqual(outside, 0.5)
        self.assertAlmostEqual(own + outside, self.clock.now)
        # rows: outer, middle, leaf (in middle), leaf (in outer)
        self.assertEqual([row[3] for row in tr.spans], [-1, 0, 1, 0])

    def test_exception_unwinds(self):
        tr = self.tr

        def boom():
            self.work(1.0)
            raise ValueError("boom")

        outer = tr.span("outer", lambda: self.work(1.0) or tr.span("inner", boom)())
        tr.begin_job("j")
        with self.assertRaises(ValueError):
            outer()
        own, outside = tr.end_job(self.clock.now)
        self.assertEqual(tr.agg["inner"], [1, 1.0, 1.0])
        self.assertEqual(tr.agg["outer"], [1, 2.0, 1.0])
        self.assertAlmostEqual(own + outside, 2.0)


class InstallTest(unittest.TestCase):
    def test_patches_every_binding(self):
        code = (
            "import jobs, tracer, mdskit.acceptance as acc, mdskit.linalg as la, mdskit.mdscheck as mc\n"
            "orig = la.det\n"
            "mul = jobs.mk.FieldElement.__mul__\n"
            "patches = tracer.install(tracer.Tracer())\n"
            "assert la.det.__wrapped__ is orig\n"
            "assert mc.det is la.det and acc.det is la.det and jobs.mk.det is la.det\n"
            "x = jobs.mk.field_make(7).from_int(3)\n"
            "assert (x * x).to_int() == 2 and (x + x).to_int() == 6 and (2 - x).to_int() == 6\n"
            "tracer.switch(patches, False)\n"
            "assert la.det is orig and mc.det is orig and acc.det is orig and jobs.mk.det is orig\n"
            "assert jobs.mk.FieldElement.__mul__ is mul\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=J.BENCH, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class OverheadTest(unittest.TestCase):
    def test_pair_ratio_cancels_process_speed(self):
        # jobs of 1 s and 2 s untraced, tracing adds 10%, and the second
        # process runs 1.5 times slower than the first
        def job(ms, traced, slow):
            return {"ms": ms * (1.1 if traced else 1.0) * slow, "traced": traced, "scale": 1.0}

        first = {"jobs": [job(1000, True, 1.0), job(2000, False, 1.0)]}
        second = {"jobs": [job(1000, False, 1.5), job(2000, True, 1.5)]}
        self.assertAlmostEqual(R.overhead_ratio([first, second]), 1.1)

    def test_merge_sums_both_halves(self):
        half = {"trace": {"agg": {"a": [1, 2.0, 1.0]}, "hot": {"h": [3, 0.5]}, "counts": {"c": 2}}}
        merged = R.merge_traces([half, half])
        self.assertEqual(merged, {"agg": {"a": [2, 4.0, 2.0]}, "hot": {"h": [6, 1.0]}, "counts": {"c": 4}})


class ProbeTest(unittest.TestCase):
    def test_sampler_clock_leaves_out_the_probe(self):
        sampler = P.Sampler(interval_s=0.002)
        sampler.start()
        try:
            start, wall0 = sampler.clock(), time.perf_counter()
            while time.perf_counter() - wall0 < 0.2:
                pass
            work, wall = sampler.clock() - start, time.perf_counter() - wall0
        finally:
            sampler.stop()
        self.assertGreater(len(sampler.samples), 10)
        self.assertGreater(sampler.spent, 0.0)
        self.assertAlmostEqual(work + sampler.spent, wall, delta=1e-3)

    def test_scale_is_nominal_over_mean_of_nearby_samples(self):
        nominal, window = P.NOMINAL_MS, R.PROBE_WINDOW_S
        probes = [[0.0, nominal], [0.05, 3 * nominal], [10.0, 6 * nominal]]
        jobs = [{"start": window, "end": window + 0.01}, {"start": 5.0, "end": 6.0}]
        R.scale_jobs(jobs, probes)
        self.assertAlmostEqual(jobs[0]["scale"], 0.5)  # the two samples near it
        self.assertAlmostEqual(jobs[1]["scale"], 0.3)  # none near: every sample


class GateTest(unittest.TestCase):
    def test_corrupted_expectation_fails_its_job(self):
        expected = J.load_expected()
        key = "k3-n4:n=7"
        want = json.loads(expected[key]["check"])
        self.assertEqual(want["tuples"], 105)
        want["tuples"] += 1
        expected[key]["check"] = json.dumps(want, sort_keys=True) + "\n"
        with tempfile.NamedTemporaryFile("w", suffix=".json", dir=J.BENCH, delete=False) as fh:
            json.dump(expected, fh)
        try:
            proc = subprocess.run(
                [sys.executable, "worker.py", "--workload", "family", "--seed", "0",
                 "--expected", fh.name],
                cwd=J.BENCH, capture_output=True, text=True,
            )
        finally:
            Path(fh.name).unlink()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        records = json.loads(proc.stdout.splitlines()[-1])["jobs"]
        failed = {r["key"] for r in records if r["error"]}
        self.assertEqual(failed, {key})

    def test_disagreeing_paths_fail(self):
        self.assertIsNone(J.check_job({"kind": "rs3"}, {"pair": [True, True]}, {}))
        self.assertIsNotNone(J.check_job({"kind": "rs3"}, {"pair": [True, False]}, {}))
        self.assertIsNotNone(J.check_job({"kind": "member"}, {"zero": False}, {}))


class PlanTest(unittest.TestCase):
    def test_seeded_and_pinned(self):
        expected = J.load_expected()
        self.assertEqual(sorted(expected), sorted(J.pool_keys()))
        for workload in J.WORKLOADS:
            self.assertEqual(J.plan(workload, 5, 1), J.plan(workload, 5, 1))
            self.assertNotEqual(J.plan(workload, 5, 1), J.plan(workload, 6, 1))


class StatsTest(unittest.TestCase):
    def test_tail(self):
        value, beyond = R.tail_stat([float(v) for v in range(1, 101)], 90)
        self.assertAlmostEqual(value, 90.1)
        self.assertEqual(beyond, 10)

    def test_tail_percentiles_are_highest_with_ten_beyond(self):
        # the pass counts named next to TAIL_PERCENTILE in run.py
        for workload, passes in {"family": 3, "oracle": 4, "search": 2, "certify": 3}.items():
            times = [float(v) for v in range(passes * len(J.plan(workload, 0, 0)))]
            pct = R.TAIL_PERCENTILE[workload]
            self.assertGreaterEqual(R.tail_stat(times, pct)[1], 10, workload)
            self.assertLess(R.tail_stat(times, pct + 1)[1], 10, workload)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        spec = json.loads((J.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, dict(R.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, R.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(J.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
