"""Self-tests of the benchmark's own arithmetic and metadata.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from common import CALIBRATION_NOMINAL_MS, END_TO_END, Outcome  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from spans import (  # noqa: E402
    Span,
    Tracer,
    percentile,
    self_ns,
    tail_percentile,
    union_ns,
    valid_metric_name,
    valid_unit,
)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _span(start, end, parent=None):
    span = Span("s", start, parent, 1)
    span.end = end
    return span


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    parent = _span(0, 100)
    children = [_span(10, 30, parent), _span(20, 50, parent), _span(90, 120, parent)]
    # [10, 50) and the clipped [90, 100) are covered
    assert union_ns([(c.start, c.end) for c in children], 0, 100) == 50
    assert self_ns(parent, children) == 50


def test_self_time_subtracts_leaf_time_and_never_goes_negative():
    parent = _span(0, 100)
    parent.leaf_ns = 20
    assert self_ns(parent, [_span(0, 50, parent)]) == 30
    parent.leaf_ns = 80
    assert self_ns(parent, [_span(0, 50, parent)]) == 0


class _Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


class _Target:
    def outer(self):
        return self.inner() + self.leaf()

    def inner(self):
        return self.leaf()

    def leaf(self):
        return 1


def test_tracer_nests_spans_and_leaves(monkeypatch):
    monkeypatch.setattr(spans, "_now", _Clock())
    tracer = Tracer()
    tracer.wrap_span(_Target, "outer", "outer")
    tracer.wrap_span(_Target, "inner", "inner")
    tracer.wrap_leaf(_Target, "leaf", "leaf", units=lambda args, result: 3)
    assert _Target().outer() == 2
    tracer.uninstall()
    assert "outer" not in vars(_Target) or not hasattr(_Target.outer, "__wrapped__")
    summary = tracer.summary()
    # clock ticks: outer 10, inner 20, leaf 30/40, inner end 50,
    # leaf 60/70, outer end 80
    assert summary["outer"]["total_ms"] == 70 / 1e6
    assert summary["inner"]["total_ms"] == 30 / 1e6
    assert summary["leaf:leaf"]["calls"] == 2
    assert summary["leaf:leaf"]["units"] == 6
    assert summary["inner"]["self_ms"] == 20 / 1e6
    # outer: 70 minus inner's 30 minus its own leaf's 10
    assert summary["outer"]["self_ms"] == 30 / 1e6
    outer_span = next(s for s in tracer.spans if s.name == "outer")
    inner_span = next(s for s in tracer.spans if s.name == "inner")
    assert inner_span.parent is outer_span
    assert inner_span.request == outer_span.request


def test_uninstall_restores_inherited_methods():
    class Child(_Target):
        pass

    tracer = Tracer()
    tracer.wrap_span(Child, "leaf", "leaf")
    assert "leaf" in vars(Child)
    tracer.uninstall()
    assert "leaf" not in vars(Child)


def test_exact_sums_do_not_depend_on_order():
    values = [0.1] * 10 + [1e16, -1e16]
    first, second = Tracer(), Tracer()
    for value in values:
        first.record("x", value)
    for value in reversed(values):
        second.record("x", value)
    assert first.summary()["sum:x"] == second.summary()["sum:x"]


# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50.0) == 2.5
    assert percentile([5.0], 90.0) == 5.0
    assert percentile(list(range(11)), 90.0) == 9.0


def test_end_to_end_metrics_from_an_outcome():
    outcome = Outcome(classes=["a", "b"])
    outcome.latencies["a"] = [1.0, 1.0, 1.0]
    outcome.latencies["b"] = [4.0, 4.0, 4.0]
    outcome.setup_s = [0.3, 0.1, 0.2]
    values = outcome.end_to_end()
    assert values["setup_s"] == 0.2
    assert values["ops_per_s"] == 6 / 0.015
    assert values["mix_ms_geomean"] == pytest.approx(2.0)
    assert set(values) == {name for name, _ in END_TO_END}
    # on a host twice as slow as nominal, times halve and rates double
    outcome.calibration_ms = [2 * CALIBRATION_NOMINAL_MS] * 3
    scaled = outcome.end_to_end(scale=outcome.host_factor())
    assert scaled["setup_s"] == pytest.approx(0.1)
    assert scaled["ops_per_s"] == pytest.approx(2 * values["ops_per_s"])
    assert scaled["op_ms_p90"] == pytest.approx(values["op_ms_p90"] / 2)


# -- metric names --------------------------------------------------------------


@pytest.mark.parametrize(
    "name, ok",
    [("setup_s", True), ("ref.numpy_ms.gram_vector", True), ("9lives", True),
     ("_x", False), ("a b", False), ("a" * 64, True), ("a" * 65, False), ("", False)],
)
def test_metric_name_rule(name, ok):
    assert valid_metric_name(name) is ok


def test_benchmark_file_matches_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    e2e = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert e2e == list(END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == [entry[:3] for entry in PER_LAYER]


def test_benchmark_names_units_and_bounds_are_valid():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[group]:
            names.append(metric["name"])
            assert valid_unit(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    assert all(valid_metric_name(name) for name in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_every_per_layer_metric_is_computed():
    metrics = layer_metrics({}, {"ops": 1})
    assert set(metrics) == {entry[0] for entry in PER_LAYER}
    assert all(value == 0 for value in metrics.values())
