"""Self-test of the benchmark's span arithmetic and metric names.

    python3 perfbench/selftest.py
"""

import json
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """Returns the scripted times in order."""

    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def record(script, times):
    """Replay ("open", name) / ("close",) steps against a scripted clock."""
    rec = spans.SpanRecorder(clock=FakeClock(times))
    stack = []
    for step in script:
        if step[0] == "open":
            stack.append(rec.open(step[1]))
        else:
            rec.close(stack.pop())
    return rec


class SpanArithmetic(unittest.TestCase):
    def setUp(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; b holds a nested a [2, 3];
        # then a second top-level d [11, 12]
        self.rec = record(
            [("open", "a"), ("open", "b"), ("open", "a"), ("close",),
             ("close",), ("open", "c"), ("close",), ("close",),
             ("open", "d"), ("close",)],
            [0, 1, 2, 3, 4, 5, 9, 10, 11, 12])
        self.stats = spans.SpanStats(self.rec)

    def test_parents(self):
        self.assertEqual(list(self.rec.parent), [-1, 0, 1, 0, -1])

    def test_self_times(self):
        np.testing.assert_allclose(self.stats.self_dur, [3, 2, 1, 4, 1])

    def test_nested_layer_counted_once(self):
        self.assertEqual(self.stats.total(["a"]), 10)
        self.assertEqual(self.stats.total(["a", "b"]), 10)
        self.assertEqual(self.stats.total(["b", "c"]), 7)
        self.assertEqual(self.stats.calls(["a"]), 2)

    def test_self_total_sums_every_call(self):
        self.assertEqual(self.stats.self_total(["a"]), 4)

    def test_coverage_counts_top_level_spans_in_window(self):
        self.assertEqual(self.stats.covered(0, 12), 11)
        self.assertEqual(self.stats.covered(10.5, 12), 1)

    def test_unknown_layer_is_zero(self):
        self.assertEqual(self.stats.total(["missing"]), 0)
        self.assertEqual(spans.missing_layers(self.rec, ["a", "zz"]), ["zz"])


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            self.bench = json.load(fh)

    def test_end_to_end_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)

    def test_per_layer_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(declared, spans.UNITS)

    def test_workload_names(self):
        run._import_program()
        from workloads import WORKLOADS
        declared = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(declared, list(WORKLOADS))
        self.assertEqual(declared + ["all"], run.WORKLOAD_CHOICES)


if __name__ == "__main__":
    unittest.main()
