#!/usr/bin/env python3
"""Tests of steadiness.py's statistics: quartiles, spread, seed ranges.

    python3 perfbench/test_steadiness.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import steadiness  # noqa: E402


class SummaryTest(unittest.TestCase):
    def test_quartiles_and_spread_of_one_to_ten(self):
        q1, q2, q3, spread = steadiness.summary([float(i) for i in range(10, 0, -1)])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(spread, (8.25 - 2.75) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(steadiness.summary([3.0] * 10)[3], 0.0)

    def test_zero_median_reports_zero_spread(self):
        self.assertEqual(steadiness.summary([0.0, 0.0, 0.0])[3], 0.0)

    def test_seed_ranges(self):
        self.assertEqual(steadiness.parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
