#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a source tree:

    python3 perfbench/test_perfbench.py

The tail-refusal rule is checked here; the generator and digest checks
run inside the harness (`perfbench_harness selftest`), built first if
needed.
"""

import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class TailTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(run.TailRefused):
            run.tail([float(i) for i in range(90)], 0.90)  # 9 beyond p90
        with self.assertRaises(run.TailRefused):
            run.tail([float(i) for i in range(500)], 0.99)  # 5 beyond p99

    def test_reports_when_ten_samples_lie_beyond(self):
        self.assertAlmostEqual(
            run.tail([float(i) for i in range(100)], 0.90), 89.1)
        self.assertAlmostEqual(
            run.tail([float(i) for i in range(1000)], 0.99), 989.01)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertEqual(run.percentile([1.0, 2.0], 0.5), 1.5)


class TracingCostTest(unittest.TestCase):
    def test_positive_means_the_traced_pass_is_worse(self):
        cost = run.tracing_cost(
            {"req_per_s": 100.0, "p50_ms": 2.0, "setup_s": 1.0},
            {"req_per_s": 80.0, "p50_ms": 2.5, "setup_s": 9.0})
        self.assertAlmostEqual(cost["req_per_s"], 0.25)
        self.assertAlmostEqual(cost["p50_ms"], 0.25)
        self.assertNotIn("setup_s", cost)


class HarnessSelfTest(unittest.TestCase):
    """Cold keys never repeat, the Zipf stream repeats for a seed, and a
    one-byte payload change fails the digest check."""

    def test_harness_selftest(self):
        run.build()
        proc = subprocess.run([run.HARNESS, "selftest"],
                              stdout=subprocess.PIPE, text=True, timeout=120)
        sys.stdout.write(proc.stdout)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
