#!/usr/bin/env python3
"""Tests of the benchmark's output checks: each passes on a sound
result and fails on a corrupted one.

    python3 perfbench/test_checks.py
"""

import importlib.util
import json
import os
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

META = {"queues": {"batch": 1000, "short": 501}}

TABLE = """
qdel-predict: bmbp on trace.qtc (streamed)
-----------------------------------------------------------------------
| queue | jobs | evaluated | correct | median actual/pred | trims |
-----------------------------------------------------------------------
| batch | 1000 | 900       | 0.961   | 6.14e-02           | 7     |
| short | 501  | 451       | 0.949*  | 7.24e-02           | 3     |
-----------------------------------------------------------------------
"""

DISTINCT = "0\tbatch\t1-4\t0.95\t1\n1\tbatch\t1-4\t0.50\t0\n"
DUMP = """perfbench|batch|1-4 obs=100 hist=59 version=3
  q=0.5000 upper=163175 lower=128663
  q=0.9500 upper=363121 lower=266899
"""
ANSWERS = "0\t1\t363121\t266899\t0.9500\n1\t1\t163175\t128663\t0.5000\n"


class ReplayChecks(unittest.TestCase):
    def test_table_parses_flagged_cells(self):
        rows = run.parse_table(TABLE)
        self.assertEqual(rows["short"]["correct"], 0.949)
        self.assertEqual(rows["batch"]["evaluated"], 900)

    def test_sound_rows_pass(self):
        self.assertEqual(run.check_replay_rows(run.parse_table(TABLE), META), [])

    def test_evaluated_count_off_by_one_fails(self):
        rows = run.parse_table(TABLE)
        rows["batch"]["evaluated"] = 901
        self.assertTrue(run.check_replay_rows(rows, META))

    def test_low_coverage_fails(self):
        rows = run.parse_table(TABLE)
        rows["short"]["correct"] = run.CONFIDENCE - run.COVERAGE_TOLERANCE - 0.001
        self.assertTrue(run.check_replay_rows(rows, META))
        self.assertEqual(run.check_replay_rows(rows, META, coverage=False), [])

    def test_missing_queue_fails(self):
        rows = run.parse_table(TABLE)
        del rows["short"]
        self.assertTrue(run.check_replay_rows(rows, META))

    def test_engines_disagreeing_fails(self):
        stream = run.parse_table(TABLE)
        memory = run.parse_table(TABLE)
        self.assertEqual(run.check_engines_agree(stream, memory), [])
        memory["batch"]["trims"] = 8
        self.assertTrue(run.check_engines_agree(stream, memory))


class ServeChecks(unittest.TestCase):
    def test_sound_answers_pass(self):
        self.assertEqual(run.check_answers(ANSWERS, DISTINCT, DUMP), [])

    def test_wrong_bound_fails(self):
        bad = ANSWERS.replace("363121", "363122", 1)
        self.assertTrue(run.check_answers(bad, DISTINCT, DUMP))

    def test_wrong_side_fails(self):
        # Query 1 asks for the lower bound; the upper one is wrong.
        bad = ANSWERS.replace("1\t1\t163175\t128663", "1\t1\t128663\t163175")
        self.assertTrue(run.check_answers(bad, DISTINCT, DUMP))

    def test_wrong_quantile_fails(self):
        bad = ANSWERS.replace("0.5000", "0.9500")
        self.assertTrue(run.check_answers(bad, DISTINCT, DUMP))

    def test_unknown_key_fails(self):
        bad = ANSWERS.replace("0\t1\t", "0\t0\t", 1)
        self.assertTrue(run.check_answers(bad, DISTINCT, DUMP))

    def test_no_answers_fails(self):
        self.assertTrue(run.check_answers("", DISTINCT, DUMP))

    def test_counts_and_digests(self):
        self.assertEqual(run.check_equal("queries", 10, 10), [])
        self.assertTrue(run.check_equal("queries", 9, 10))
        self.assertTrue(run.check_equal("digest", "fca46f63", "fca46f64"))
        self.assertEqual(run.digest_of("x\ndigest: fca46f63\n"), "fca46f63")

    def test_online_coverage(self):
        floor = run.CONFIDENCE - run.COVERAGE_TOLERANCE
        self.assertEqual(run.check_at_least("coverage", 0.94, floor), [])
        self.assertTrue(run.check_at_least("coverage", 0.5, floor))

    def test_slice_medians(self):
        slices = [[10 * (i + 1), 0.5, 0.001 * (i + 1)] for i in range(9)]
        rate, cpu = run.slice_medians(slices)
        self.assertEqual(rate, 100.0)
        self.assertAlmostEqual(cpu, 100.0)
        # A slice without work counts in the rate, not in CPU per op.
        rate, cpu = run.slice_medians(slices + [[0, 0.5, 0.0]])
        self.assertEqual(rate, 90.0)
        self.assertAlmostEqual(cpu, 100.0)

    def test_too_few_slices_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.slice_medians([[10, 0.5, 0.1]] * (run.MIN_SLICES - 1))
        with self.assertRaises(run.BenchError):
            run.slice_medians([[10, 0.5, 0.1]] * (run.MIN_SLICES - 1) +
                              [[0, 0.5, 0.0]] * 4)

    def test_prefix_trace(self):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "ingest.swf"), "w") as f:
                f.write("; Queue: 1 q\n1 0 5 -1\n2 1 5 -1\n3 2 5 -1\n")
            out = os.path.join(tmp, "prefix.swf")
            run.write_prefix_trace(tmp, 2, out)
            with open(out) as f:
                self.assertEqual(f.read(), "; Queue: 1 q\n1 0 5 -1\n2 1 5 -1\n")


class ProbeChecks(unittest.TestCase):
    def test_layer_sum_agreement(self):
        self.assertEqual(run.check_agreement("stream", 1.1, 1.0), [])
        self.assertTrue(run.check_agreement("stream", 2.0, 1.0))
        self.assertTrue(run.check_agreement("stream", 0.5, 1.0))


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)


if __name__ == "__main__":
    unittest.main()
