"""Unit tests for the benchmark's metric helpers (metrics.py).

    python3 -m unittest discover -s perfbench -p test_metrics.py

run.py runs them before every benchmark run.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_level_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_quantile_level(10))
        self.assertAlmostEqual(metrics.tail_quantile_level(11), 1 - 10 / 11)
        self.assertAlmostEqual(metrics.tail_quantile_level(100), 0.9)
        self.assertAlmostEqual(metrics.tail_quantile_level(200), 0.95)

    def test_level_is_capped_at_p99(self):
        self.assertEqual(metrics.tail_quantile_level(1000), 0.99)
        self.assertEqual(metrics.tail_quantile_level(100000), 0.99)

    def test_tail_leaves_ten_samples_above(self):
        values = list(range(1, 101))  # 1..100
        s = metrics.latency_summary(values)
        self.assertEqual(s["n"], 100)
        self.assertAlmostEqual(s["tail_level"], 0.9)
        self.assertEqual(sum(v > s["tail"] for v in values), 10)
        self.assertAlmostEqual(s["p50"], 50.5)

    def test_small_sample_reports_maximum(self):
        s = metrics.latency_summary([3.0, 1.0, 2.0])
        self.assertEqual(s["tail"], 3.0)
        self.assertEqual(s["tail_level"], 1.0)

    def test_quantile_interpolates(self):
        self.assertEqual(metrics.quantile([4, 1, 3, 2], 0.0), 1)
        self.assertEqual(metrics.quantile([4, 1, 3, 2], 1.0), 4)
        self.assertAlmostEqual(metrics.quantile([1, 2, 3, 4], 0.5), 2.5)


def span(sid, parent, start, end, name="s"):
    return {"id": sid, "parent": parent, "start_ns": start, "end_ns": end,
            "name": name, "stmt": 1}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([span(1, 0, 0, 100)]), {1: 100})

    def test_children_are_subtracted(self):
        got = metrics.self_times([span(1, 0, 0, 100), span(2, 1, 10, 30),
                                  span(3, 1, 50, 80)])
        self.assertEqual(got[1], 100 - 20 - 30)
        self.assertEqual(got[2], 20)

    def test_overlapping_children_count_once(self):
        got = metrics.self_times([span(1, 0, 0, 100), span(2, 1, 10, 60),
                                  span(3, 1, 40, 70)])
        self.assertEqual(got[1], 100 - 60)

    def test_children_are_clipped_to_the_parent(self):
        got = metrics.self_times([span(1, 0, 100, 200), span(2, 1, 50, 150),
                                  span(3, 1, 190, 260)])
        self.assertEqual(got[1], 100 - 50 - 10)

    def test_grandchildren_do_not_reduce_the_root(self):
        got = metrics.self_times([span(1, 0, 0, 100), span(2, 1, 0, 50),
                                  span(3, 2, 0, 50)])
        self.assertEqual(got[1], 50)
        self.assertEqual(got[2], 0)


class CounterTest(unittest.TestCase):
    def test_deltas_sum_over_windows_of_one_kind(self):
        windows = [{"kind": "window", "before": {"a": 10, "b": 1},
                    "after": {"a": 15, "b": 1}},
                   {"kind": "probe", "before": {"a": 0}, "after": {"a": 100}},
                   {"kind": "window", "before": {"a": 20},
                    "after": {"a": 22, "c": 4}}]
        self.assertEqual(metrics.counter_deltas(windows, "window"),
                         {"a": 7, "b": 0, "c": 4})
        self.assertEqual(metrics.counter_deltas(windows, "probe"), {"a": 100})

    def test_ratio_keeps_its_base(self):
        self.assertEqual(metrics.ratio(3, 4), {"value": 0.75, "num": 3, "den": 4})

    def test_ratio_of_empty_base_is_zero(self):
        self.assertEqual(metrics.ratio(5, 0)["value"], 0.0)


class StatementClassTest(unittest.TestCase):
    def test_each_class_reports_its_own_median(self):
        samples = {"class_ms.count": [1.0, 3.0, 2.0], "class_ms.insert": [0.5],
                   "class_ms.rows": [], "stmt_ms": [9.0]}
        self.assertEqual(metrics.class_p50s(samples), {"count": 2.0, "insert": 0.5})


if __name__ == "__main__":
    unittest.main()
