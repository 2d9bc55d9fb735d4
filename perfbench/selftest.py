"""Self-tests of the benchmark harness at toy sizes (about a minute on two cores).

    python3 perfbench/selftest.py

They check that every metric named in BENCHMARK.json is emitted with its
unit, that a planted wrong answer is counted as a failed op, and that the
op list is a pure function of the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from bigjumps import rare_event, torus  # noqa: E402
from tracing import Span, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def toy_run(workload: str, trace: int, seed: int = 3) -> dict:
    """One benchmark run on the toy op lists; returns the printed result object."""
    out = io.StringIO()
    with mock.patch.object(W, "op_list", functools.partial(W.op_list, toy=True)), \
            mock.patch.object(run, "SETUP_PROBES", 1), contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            for workload in W.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    res = toy_run(workload, trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], res)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], run.MIN_OPS)
                    got = {name: m["unit"] for name, m in res["metrics"].items()}
                    self.assertEqual(got, expected)


class PlantedWrongAnswers(unittest.TestCase):
    def test_grid_estimate_shifted_by_10_se(self):
        real = rare_event.estimate_naive

        def shifted(spec, *args, **kwargs):
            est = real(spec, *args, **kwargs)
            if isinstance(spec, W.DiscreteGrid):
                est = dataclasses.replace(est, prob=est.prob + 10 * est.std_error)
            return est

        with mock.patch.object(rare_event, "estimate_naive", shifted):
            res = toy_run("mc_window", 0)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_degree_summary_missing_one_in_degree(self):
        real = torus.generate_graph

        def dropped(config, *args, **kwargs):
            g = real(config, *args, **kwargs)
            in_deg = g.in_degrees.copy()
            in_deg[int(np.argmax(in_deg))] -= 1
            return dataclasses.replace(g, in_degrees=in_deg)

        with mock.patch.object(torus, "generate_graph", dropped):
            res = toy_run("graph", 0)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)


class OpListIsSeeded(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in W.WORKLOADS:
            for toy in (False, True):
                with self.subTest(workload=workload, toy=toy):
                    self.assertEqual(W.op_list(workload, 11, 2, toy), W.op_list(workload, 11, 2, toy))
                    self.assertNotEqual(W.op_list(workload, 11, 2, toy), W.op_list(workload, 12, 2, toy))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [Span(0, "condensation.krho.grid_k2", None, 1, 0.0, 10.0),
                 Span(1, "schemes.h", 0, 1, 1.0, 3.0),
                 Span(2, "schemes.h", 0, 1, 4.0, 5.0)]
        self.assertEqual(self_times(spans), [7.0, 2.0, 1.0])


if __name__ == "__main__":
    unittest.main()
