"""Self-tests of the benchmark's statistics and reporting rules.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import stats  # noqa: E402
from stats import Metric  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(stats.highest_percentile(200), 95.0)
        self.assertEqual(stats.highest_percentile(199), 90.0)
        self.assertEqual(stats.highest_percentile(1000), 99.0)
        self.assertEqual(stats.highest_percentile(10000), 99.9)
        self.assertEqual(stats.highest_percentile(20), 50.0)
        self.assertIsNone(stats.highest_percentile(19))

    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(stats.beyond(200, 95.0), 10)
        self.assertEqual(stats.beyond(199, 95.0), 9)
        self.assertEqual(stats.beyond(1, 50.0), 0)

    def test_nearest_rank_percentile(self):
        values = list(range(100, 0, -1))  # order must not matter
        self.assertEqual(stats.percentile(values, 95.0), 95)
        self.assertEqual(stats.percentile(values, 50.0), 50)
        self.assertEqual(stats.percentile(values, 100.0), 100)
        self.assertEqual(stats.percentile([7.0], 99.0), 7.0)

    def test_tail_refuses_a_percentile_with_too_few_samples_beyond(self):
        self.assertEqual(stats.tail(list(range(1, 201)), 95.0), 190)
        with self.assertRaises(ValueError):
            stats.tail(list(range(1, 200)), 95.0)
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 5, 50.0)

    def test_bad_inputs(self):
        with self.assertRaises(ValueError):
            stats.rank(0, 50.0)
        with self.assertRaises(ValueError):
            stats.rank(10, 0.0)
        with self.assertRaises(ValueError):
            stats.median([])


class ReportingTest(unittest.TestCase):
    def test_every_metric_states_its_sample_count(self):
        m = Metric("slice_ms_p95", 4.25, "ms", 3000)
        self.assertIn("(n=3000)", m.text())
        self.assertEqual(m.json(), {"value": 4.25, "unit": "ms"})

    def test_ratio_is_reported_with_its_base(self):
        m = Metric.ratio("reservation.term_reuse_ratio", 3, 4)
        self.assertEqual(m.value, 0.75)
        self.assertIn("3 / base 4", m.text())
        self.assertEqual(Metric.ratio("failed_frac", 0, 0).value, 0.0)

    def test_end_to_end_metrics_carry_counts(self):
        runs = [{"sim_s": 100.0, "wall_s": 0.5 + 0.1 * i, "events": 1000,
                 "setup_s": 0.2, "n_calc": 1.5,
                 "slice_ms": [float(k % 7 + 1) for k in range(200)]}
                for i in range(3)]
        raw = {"runs": runs, "slice_ms": [], "setup_s": [],
               "peak_rss_mb": 12.0}
        got = {m.name: m for m in run.end_to_end(raw)}
        self.assertEqual(got["sim_s_per_s"].value, 100.0 / 0.6)
        self.assertEqual(got["sim_s_per_s"].n, 3)
        self.assertEqual(got["slice_ms_p95"].n, 600)
        self.assertEqual(got["slice_ms_p95"].value, 7.0)
        self.assertEqual(got["setup_s"].n, 3)

    def test_pooled_slices_take_precedence(self):
        raw = {"runs": [{"slice_ms": []}], "setup_s": [],
               "slice_ms": [float(k) for k in range(1, 201)]}
        self.assertEqual(run.slice_percentiles(raw), (100.5, 190.0, 200))


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("events_per_s", "hoef.probe_ns", "admission.ns_p99",
                     "a-b.c_d", "9lives", "x" * 64):
            self.assertEqual(stats.check_name(name), name)

    def test_invalid_names(self):
        for name in ("", "a b", "ns/event", "x" * 65, "-lead", ".lead",
                     "café", "p95%", None):
            with self.assertRaises(ValueError):
                stats.check_name(name)
            with self.assertRaises(ValueError):
                Metric(name, 1.0, "ms", 1)

    def test_benchmark_json_names_are_valid(self):
        bench = run.load_benchmark()
        for kind in ("workloads", "end_to_end", "per_layer"):
            for entry in bench[kind]:
                stats.check_name(entry["name"])


if __name__ == "__main__":
    unittest.main()
