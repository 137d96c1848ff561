"""Tests of the benchmark's own logic (not of xpharq).

    python3 benchmarks/selfcheck.py

Kept out of the package's test suite: they need ``refs.json`` and say
nothing about the program under test.
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402


def record_line(q, value):
    return f"{q.cmd} scheme={q.scheme} method={q.method} value={value!r} uncertainty=0\n"


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(run.tail_percentile(values, 0.9), (90, 10))
        self.assertEqual(run.tail_percentile(values[:99], 0.9), (None, 9))
        self.assertEqual(run.tail_percentile(values[:12], 0.9), (None, 1))

    def test_order_of_samples_does_not_matter(self):
        values = list(range(200, 0, -1))
        self.assertEqual(run.tail_percentile(values, 0.9), (180, 20))


class Aggregates(unittest.TestCase):
    def test_typical_pass_takes_each_items_median(self):
        by_item = {0: [1.0, 9.0, 2.0], 1: [0.5, 0.5, 4.0]}
        self.assertEqual(run.typical_pass(by_item), 2.5)


class Generator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in wl.WORKLOADS:
            self.assertEqual(wl.build(workload, 11), wl.build(workload, 11), workload)

    def test_seed_changes_drawn_inputs(self):
        for workload in ("point-analytic", "point-mc", "sweep-ref"):
            self.assertNotEqual(wl.build(workload, 1), wl.build(workload, 2), workload)

    def test_every_item_has_a_reference(self):
        refs = wl.load_refs()
        for seed in range(20):
            for workload in ("point-analytic", "point-mc"):
                for q in wl.build(workload, seed):
                    self.assertIn(wl.query_key(q), refs)

    def test_program_never_gets_more_than_two_workers(self):
        for seed in range(20):
            self.assertLessEqual(max(q.workers for q in wl.build("point-mc", seed)), 2)


class WrongValuesFail(unittest.TestCase):
    def setUp(self):
        self.runner = run.PointRunner("point-analytic", 3, wl.load_refs())
        self.query = next(q for q in self.runner.items if q.method == "oracle")
        self.ref = self.runner.refs[wl.query_key(self.query)]["value"]

    def tally_for(self, value):
        tally = run.Tally()
        problem = self.runner.check(self.query, 0, record_line(self.query, value), {})
        tally.record(0.001, 0.001, problem, 0)
        return tally

    def test_reference_value_passes(self):
        self.assertEqual(self.tally_for(self.ref).failed, 0)

    def test_wrong_value_raises_error_frac(self):
        tally = self.tally_for(self.ref * 1.001 + 1e-9)
        self.assertEqual((tally.failed, tally.attempted), (1, 1))

    def test_nonzero_exit_and_garbage_fail(self):
        self.assertIsNotNone(self.runner.check(self.query, 2, "", {}))
        self.assertIsNotNone(self.runner.check(self.query, 0, "no record here\n", {}))

    def test_worker_counts_must_agree(self):
        q1 = wl.Query("outage", "xp", "mc", (1.0, 1.0), 10.0, 1, 5)
        q2 = wl.Query("outage", "xp", "mc", (1.0, 1.0), 10.0, 2, 5)
        ref = self.runner.refs[wl.query_key(q1)]["value"]
        paired = {}
        self.assertIsNone(self.runner.check(q1, 0, record_line(q1, ref), paired))
        self.assertIsNotNone(self.runner.check(q2, 0, record_line(q2, ref + 1e-6), paired))

    def test_wrong_sweep_row_fails(self):
        refs = self.runner.refs
        lines = ["snr_db,K,R_csv,scheme,method,value,uncertainty,seed"]
        for snr in wl.SWEEP_SNR:
            for method in wl.SWEEP_METHODS:
                q = wl.Query("outage", "xp", method, wl.SWEEP_RATES, snr, 1, 9)
                lines.append(f'{snr:g},3,"1,1,1",xp,{method},{refs[wl.query_key(q)]["value"]!r},0,9')
        self.assertEqual(wl.check_sweep_csv("\n".join(lines), refs, 9), [])
        lines[3] = lines[3].replace(",xp,oracle,", ",xp,oracle,1")  # 0.47 -> 10.47
        self.assertEqual(len(wl.check_sweep_csv("\n".join(lines), refs, 9)), 1)

    def test_binomial_tolerance(self):
        q = wl.Query("outage", "xp", "mc", (1.0, 1.0), 10.0, 1, 5)
        ref = {"value": 0.01}
        sd = (0.01 * 0.99 / wl.MC_TRIALS) ** 0.5
        self.assertIsNone(wl.check_value(q, 0.01 + 5 * sd, ref))
        self.assertIsNotNone(wl.check_value(q, 0.01 + 8 * sd, ref))


if __name__ == "__main__":
    unittest.main()
