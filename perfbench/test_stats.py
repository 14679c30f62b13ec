#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic (stdlib unittest, no build).

    python3 perfbench/test_stats.py
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile([7, 1, 3], 50), 3)

    def test_refused_requests_sort_last(self):
        values = [1.0] * 98 + [math.inf, math.inf]
        self.assertEqual(stats.percentile(values, 98), 1.0)
        self.assertTrue(math.isinf(stats.percentile(values, 99)))

    def test_samples_beyond(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(999, 99), 9)
        self.assertEqual(stats.beyond(990, 99), 9)
        self.assertEqual(stats.beyond(100, 90), 10)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class Quartiles(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.5, 8.8, 10.1]
        q1, _, q3 = statistics.quantiles(values, n=4)
        expected = (q3 - q1) / statistics.median(values)
        self.assertAlmostEqual(stats.quartile_spread(values), expected)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([3.0] * 10), 0.0)


class Ladder(unittest.TestCase):
    def test_backlog_rule(self):
        # 2000 rps x 25 ms = 50 requests the server may still hold.
        self.assertFalse(stats.backlog_grows(50, 2000))
        self.assertTrue(stats.backlog_grows(51, 2000))

    def test_rung_verdicts(self):
        ok = [1.0] * 1000
        lateness = [0.0] * 1000
        self.assertTrue(stats.judge_rung(1000, ok, 3, lateness)["passes"])
        slow = [1.0] * 980 + [30.0] * 20
        self.assertFalse(stats.judge_rung(1000, slow, 3, lateness)["passes"])
        refused = [1.0] * 985 + [math.inf] * 15
        verdict = stats.judge_rung(1000, refused, 3, lateness)
        self.assertAlmostEqual(verdict["failed_share"], 0.015)
        self.assertFalse(verdict["passes"])
        growing = stats.judge_rung(1000, ok, 26, lateness)
        self.assertTrue(growing["backlog_grows"])
        self.assertFalse(growing["passes"])
        late = stats.judge_rung(1000, ok, 3, [0.0] * 980 + [6.0] * 20)
        self.assertFalse(late["valid"])
        self.assertFalse(late["passes"])

    def test_rate_at_slo_is_highest_passing_rung(self):
        verdicts = [{"rate": 500, "passes": True},
                    {"rate": 1000, "passes": True},
                    {"rate": 1500, "passes": False},
                    {"rate": 2000, "passes": True},
                    {"rate": 2500, "passes": False}]
        self.assertEqual(stats.rate_at_slo(verdicts), 2000)
        self.assertEqual(stats.rate_at_slo([{"rate": 500, "passes": False}]), 0)

    def test_mean_climb(self):
        nominal = {"rate": 500, "passes": True}
        climbs = [[{"rate": 1000, "passes": True}, {"rate": 2000, "passes": False}],
                  [{"rate": 1000, "passes": True}, {"rate": 2000, "passes": True}],
                  [{"rate": 1000, "passes": False}, {"rate": 2000, "passes": False}]]
        self.assertAlmostEqual(stats.mean_climb_rate(nominal, climbs),
                               (1000 + 2000 + 500) / 3)
        self.assertEqual(stats.mean_climb_rate(nominal, climbs[1:2]), 2000)

    def test_own_lateness_excludes_blocking_submits(self):
        # Request 0 is due at 0 ms and starts 0.1 ms late; its submit blocks
        # 3 ms, so request 1 (due at 1 ms) starting at 3.1 ms is the server's
        # doing, not the generator's. Request 2 is 2 ms late on its own.
        offsets_us = [0.0, 1000.0, 10000.0]
        lag_ms = [0.1, 2.1, 2.0]
        submit_us = [3000.0, 10.0, 10.0]
        own = stats.own_lateness_ms(offsets_us, lag_ms, submit_us)
        self.assertAlmostEqual(own[0], 0.1)
        self.assertAlmostEqual(own[1], 0.0)
        self.assertAlmostEqual(own[2], 2.0)


class SelfTimes(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [(1, 0, "request", 0.0, 100.0),
                 (2, 1, "step:a", 10.0, 40.0),
                 (3, 2, "stage:a_u", 12.0, 30.0),
                 (4, 1, "step:b", 50.0, 90.0)]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(selfs[1], 100.0 - 30.0 - 40.0)
        self.assertAlmostEqual(selfs[2], 30.0 - 18.0)
        self.assertAlmostEqual(selfs[3], 18.0)
        self.assertAlmostEqual(selfs[4], 40.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [(1, 0, "p", 0.0, 10.0),
                 (2, 1, "c", 2.0, 6.0),
                 (3, 1, "c", 4.0, 8.0),    # overlaps the first child
                 (4, 1, "c", 9.0, 12.0)]   # runs past the parent's end
        self.assertAlmostEqual(stats.self_times(spans)[1], 10.0 - 6.0 - 1.0)


class Schedule(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = stats.serve_schedule(7, 30, False)
        self.assertEqual(a, stats.serve_schedule(7, 30, False))
        self.assertEqual(stats.schedule_text(a),
                         stats.schedule_text(stats.serve_schedule(7, 30, False)))
        self.assertNotEqual(a, stats.serve_schedule(8, 30, False))

    def test_shape_of_the_ladder(self):
        steps = stats.serve_schedule(3, 30, False)
        labels = [s[0] for s in steps]
        self.assertEqual(labels[:2], ["warm", "nominal"])
        self.assertEqual(labels.count("nominal"), stats.SEGMENTS)
        for climb in range(stats.CLIMBS):
            rates = [s[1] for s in steps if s[0] == f"climb{climb}"]
            self.assertEqual(rates, list(stats.LADDER_RPS))
        for label, rate, server, requests in steps:
            self.assertEqual(server, 0)
            if label != "warm":
                self.assertGreaterEqual(len(requests), 1000)
            offsets = [off for off, _ in requests]
            self.assertEqual(offsets, sorted(offsets))
            self.assertTrue(all(0 <= i < stats.POOL_SIZE for _, i in requests))
            # Poisson arrivals: the mean gap is 1/rate within a few percent.
            mean_gap_s = offsets[-1] / 1e6 / len(offsets)
            self.assertAlmostEqual(mean_gap_s * rate, 1.0, delta=0.1)

    def test_trace_run_pairs_the_nominal_segments(self):
        steps = stats.serve_schedule(3, 30, True)
        nominal = [(s[2], len(s[3])) for s in steps if s[0] == "nominal"]
        self.assertEqual([server for server, _ in nominal],
                         [0, 1] * (stats.SEGMENTS // 2))
        self.assertEqual(len({count for _, count in nominal}), 1)
        self.assertEqual({s[2] for s in steps if s[0] == "warm"}, {0, 1})
        self.assertEqual({s[2] for s in steps if s[0].startswith("climb")}, {0})

    def test_schedule_text_format(self):
        steps = [("warm", 500, 0, [(10.5, 3), (20.0, 4)])]
        self.assertEqual(stats.schedule_text(steps),
                         "1\nwarm 500 0 2\n10.5 3\n20.0 4\n")


if __name__ == "__main__":
    unittest.main()
