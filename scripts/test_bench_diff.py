#!/usr/bin/env python3
"""Tests of scripts/bench_diff.py (stdlib unittest, no build).

    python3 scripts/test_bench_diff.py
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


def record(name, **metrics):
    return {"name": name, "kind": "gemm", **metrics}


class Compare(unittest.TestCase):
    def test_median_outside_both_half_iqrs_moved(self):
        old = record("a", kernel_seconds=1.0, kernel_iqr_seconds=0.2)
        new = record("a", kernel_seconds=1.25, kernel_iqr_seconds=0.2)
        self.assertEqual(bench_diff.compare(old, new)[0], "moved")

    def test_median_inside_the_spread_is_within(self):
        old = record("a", kernel_seconds=1.0, kernel_iqr_seconds=0.2)
        new = record("a", kernel_seconds=1.15, kernel_iqr_seconds=0.2)
        self.assertEqual(bench_diff.compare(old, new)[0], "within spread")

    def test_any_moved_metric_moves_the_record(self):
        old = record("a", seed_seconds=1.0, seed_iqr_seconds=0.1,
                     kernel_seconds=1.0, kernel_iqr_seconds=0.1)
        new = record("a", seed_seconds=1.0, seed_iqr_seconds=0.1,
                     kernel_seconds=0.5, kernel_iqr_seconds=0.1)
        verdict, rows = bench_diff.compare(old, new)
        self.assertEqual(verdict, "moved")
        self.assertEqual([r[3] for r in rows], ["within spread", "moved"])

    def test_no_spread_is_never_a_pass(self):
        old = record("a", kernel_seconds=1.0)
        new = record("a", kernel_seconds=1.0)
        self.assertEqual(bench_diff.compare(old, new)[0], "no spread recorded")

    def test_spread_on_one_side_only_is_no_spread(self):
        old = record("a", kernel_seconds=1.0)
        new = record("a", kernel_seconds=3.0, kernel_iqr_seconds=0.1)
        self.assertEqual(bench_diff.compare(old, new)[0], "no spread recorded")


class Report(unittest.TestCase):
    def write(self, directory, name, records, env=None):
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            json.dump({"bench": "gemm", "env": env or {}, "records": records},
                      f)
        return path

    def test_report_lists_every_record_and_exits_zero(self):
        with tempfile.TemporaryDirectory() as d:
            old = self.write(d, "old.json", [
                record("same", kernel_seconds=1.0, kernel_iqr_seconds=0.1),
                record("bare", speedup=2.0),
                record("gone", kernel_seconds=1.0, kernel_iqr_seconds=0.1),
            ], env={"gs_num_threads": 1})
            new = self.write(d, "new.json", [
                record("same", kernel_seconds=0.5, kernel_iqr_seconds=0.1),
                record("bare", speedup=3.0),
                record("new", kernel_seconds=1.0, kernel_iqr_seconds=0.1),
            ], env={"gs_num_threads": 4})
            out = io.StringIO()
            counts = bench_diff.diff(old, new, out)
            self.assertEqual(counts, {"moved": 1, "no spread recorded": 1,
                                      "removed": 1, "added": 1})
            text = out.getvalue()
            self.assertIn("same: moved", text)
            self.assertIn("bare: no spread recorded", text)
            self.assertIn("env:", text)
            self.assertEqual(bench_diff.main(["bench_diff.py", old, new]), 0)

    def test_unreadable_input_exits_two(self):
        with tempfile.TemporaryDirectory() as d:
            bad = os.path.join(d, "bad.json")
            with open(bad, "w") as f:
                f.write("{}")
            self.assertEqual(bench_diff.main(["bench_diff.py", bad, bad]), 2)
            self.assertEqual(bench_diff.main(["bench_diff.py"]), 2)


if __name__ == "__main__":
    unittest.main()
