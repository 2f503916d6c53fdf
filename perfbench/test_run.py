#!/usr/bin/env python3
"""Tests of the benchmark's seeded inputs.

    python3 perfbench/test_run.py
"""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

AT = [f"0>1:0/token {i}" for i in range(run.CHECK_AT)]


def stream_bytes(seed):
    return json.dumps(run.serve_stream(seed, list(AT))).encode()


class SeededInputs(unittest.TestCase):
    def test_serve_stream_is_a_function_of_the_seed(self):
        self.assertEqual(stream_bytes(7), stream_bytes(7))
        self.assertNotEqual(stream_bytes(7), stream_bytes(8))

    def test_serve_stream_has_the_fixed_mix(self):
        for seed in (1, 2, 3):
            stream = run.serve_stream(seed, list(AT))
            kinds = [k for k, _ in stream]
            self.assertEqual(kinds.count("fresh"), 60)
            self.assertEqual(kinds.count("repeat"), 20)
            self.assertEqual(kinds.count("shared"), 12)
            self.assertEqual(kinds.count("batch"), 8)
            self.assertEqual(kinds.count("at"), run.CHECK_AT)
            checks = [r for _, r in stream if r["op"] == "check"]
            self.assertGreaterEqual(len(checks), 100)
            fresh = [r["formula"] for k, r in stream if k == "fresh"]
            self.assertEqual(len(set(fresh)), len(fresh))
            self.assertEqual([r["id"] for _, r in stream],
                             list(range(len(stream))))

    def test_serve_stream_seeds_only_the_check_ats(self):
        def checks(seed):
            return [r for k, r in run.serve_stream(seed, list(AT)) if k != "at"]

        self.assertEqual(checks(1), checks(2))
        for seed in (1, 2):
            asked = set()
            for kind, r in run.serve_stream(seed, list(AT)):
                if kind in ("repeat", "at"):
                    self.assertIn(r["formula"], asked)
                if kind in ("fresh", "shared"):
                    asked.add(r["formula"])

    def test_grow_round_is_a_function_of_the_seed(self):
        self.assertEqual(run.grow_round(5), run.grow_round(5))
        self.assertNotEqual(run.grow_round(5), run.grow_round(6))
        self.assertEqual(sorted(run.grow_round(5)), sorted(run.GROW_ROUND))


if __name__ == "__main__":
    unittest.main()
