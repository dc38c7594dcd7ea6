#!/usr/bin/env python3
"""Tests of the benchmark's statistics, metric names and result oracle.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

The oracle tests build the driver first (as run.py does) and run the
shared-l2 workload on documented seed 1, clean and with the planted
one-cycle change.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402
import run  # noqa: E402


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


class StatisticsTest(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, med, q3 = benchstats.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_value_has_no_spread(self):
        self.assertEqual(benchstats.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(benchstats.spread([2.5]), 0.0)

    def test_spread_is_quartile_distance_over_median(self):
        values = [8.0, 9.0, 10.0, 11.0, 12.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchstats.spread(values), (q3 - q1) / med)

    def test_win_fraction_ties_count_for_neither(self):
        base = [10, 10, 10, 10]
        change = [9, 10, 11, 8]
        self.assertEqual(benchstats.win_fraction(base, change, "lower"), 0.5)
        self.assertEqual(benchstats.win_fraction(base, change, "higher"), 0.25)
        self.assertEqual(benchstats.win_fraction([], [], "lower"), 0.0)
        with self.assertRaises(ValueError):
            benchstats.win_fraction([1], [1, 2], "lower")

    def test_worse_by_follows_direction(self):
        self.assertAlmostEqual(benchstats.worse_by(10, 11, "lower"), 0.1)
        self.assertAlmostEqual(benchstats.worse_by(10, 11, "higher"), -0.1)
        self.assertAlmostEqual(benchstats.worse_by(10, 9, "higher"), 0.1)


class NamesTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("wall_s", "simarch.l2_ns_per_access", "exp.store.put_ms",
                     "sched.cfb.reset_s", "paper-sweep", "9lives"):
            self.assertTrue(benchstats.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "a b", ".hidden", "-x", "a/b", "x" * 65, "ns/ref",
                     None):
            self.assertFalse(benchstats.valid_name(name), name)

    def test_units(self):
        for unit in ("s", "ms", "ns/ref", "Mref/s", "count", "%", "ratio"):
            self.assertTrue(benchstats.valid_unit(unit), unit)
        for unit in ("", "per second!", "x" * 17):
            self.assertFalse(benchstats.valid_unit(unit), unit)

    def test_benchmark_json_meets_the_contract(self):
        spec = load_benchmark()
        self.assertEqual(benchstats.check_benchmark(spec), [])
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertTrue(benchstats.valid_name(name), name)

    def test_contract_violations_are_reported(self):
        spec = load_benchmark()
        broken = json.loads(json.dumps(spec))
        broken["end_to_end"][0]["bound"] = 0.5
        self.assertTrue(benchstats.check_benchmark(broken))
        broken = json.loads(json.dumps(spec))
        broken["per_layer"].append(dict(broken["per_layer"][0]))
        self.assertTrue(benchstats.check_benchmark(broken))
        broken = json.loads(json.dumps(spec))
        broken["end_to_end"] = [m for m in broken["end_to_end"]
                                if m["name"] != "setup_s"]
        self.assertTrue(benchstats.check_benchmark(broken))
        broken = json.loads(json.dumps(spec))
        del broken["paths"]
        self.assertTrue(benchstats.check_benchmark(broken))


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build_driver()
        cls.base = ["--workload=shared-l2", "--seed=1",
                    "--scratch=" + os.path.join(run.build_root(), "scratch"),
                    "--expect=" + os.path.join(run.BENCH_DIR,
                                               "expected_digests.tsv")]

    def drive(self, extra, env=None):
        return subprocess.run([self.driver] + self.base + extra,
                              capture_output=True, text=True, env=env,
                              timeout=170)

    def test_clean_run_has_no_failures(self):
        r = self.drive([])
        self.assertEqual(r.returncode, 0, r.stderr)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertTrue(result["digest_checked"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], 4)

    def test_planted_cycle_is_a_failure(self):
        r = self.drive(["--plant"])
        self.assertEqual(r.returncode, 0, r.stderr)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(result["failed"], 1)
        self.assertIn("FAILED sim:mergesort/pdf: digest", r.stdout)

    def test_unknown_flag_exits_2_before_work(self):
        r = self.drive(["--sim-threads=4"])
        self.assertEqual(r.returncode, 2)
        self.assertEqual(r.stdout, "")

    def test_engine_switching_environment_is_refused(self):
        for var in run.REFUSED_ENV:
            env = dict(os.environ, **{var: "1"})
            r = self.drive([], env=env)
            self.assertEqual(r.returncode, 2, var)
            self.assertEqual(r.stdout, "", var)


if __name__ == "__main__":
    unittest.main()
