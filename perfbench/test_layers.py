"""Tests of the trace folding, on hand-built traces.

Run with ``python3 -m pytest perfbench/test_layers.py``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import default_layer, fold, self_times  # noqa: E402


def span(name, ts, dur, tid=1):
    return {"ph": "X", "name": name, "pid": 1, "tid": tid,
            "ts": float(ts), "dur": float(dur)}


def pipeline_trace():
    return [
        span("bench.join", 0, 100),
        span("sort", 10, 20),
        span("merge_pass", 15, 5),
        span("schedule", 30, 60),
        span("load", 31, 3),
        span("unit_pair", 35, 45),
        span("sequence_join", 40, 35),
        span("leaf", 50, 10),
        span("leaf_batch", 62, 8),
        {"ph": "i", "name": "marker", "pid": 1, "tid": 1, "ts": 55.0},
    ]


def test_self_time_subtracts_direct_children_only():
    got = {ev["name"]: s for ev, s, _ in self_times(pipeline_trace())}
    assert got == pytest.approx({
        "bench.join": 20e-6, "sort": 15e-6, "merge_pass": 5e-6,
        "schedule": 12e-6, "load": 3e-6, "unit_pair": 10e-6,
        "sequence_join": 17e-6, "leaf": 10e-6, "leaf_batch": 8e-6})


def test_fold_groups_by_layer_and_sums_to_root():
    layers, root_s = fold(pipeline_trace())
    assert root_s == pytest.approx(100e-6)
    assert layers == pytest.approx({
        "bench": 20e-6, "sorting": 20e-6, "core.scheduler": 22e-6,
        "storage": 3e-6, "core.sequence_join": 17e-6,
        "core.kernels": 18e-6})
    assert sum(layers.values()) == pytest.approx(root_s)


def test_threads_nest_independently():
    events = [span("bench.a", 0, 50, tid=1), span("leaf", 10, 20, tid=2)]
    layers, root_s = fold(events)
    assert layers == pytest.approx({"bench": 50e-6, "core.kernels": 20e-6})
    assert root_s == pytest.approx(70e-6)


def test_rounding_overhang_still_nests():
    # The child ends 0.001 us after its parent: a rounding artefact.
    events = [span("sequence_join", 0, 10), span("leaf", 4, 6.001)]
    got = {ev["name"]: s for ev, s, _ in self_times(events)}
    assert got["sequence_join"] == pytest.approx(4e-6)
    assert [r for _, _, r in self_times(events)].count(True) == 1


def test_custom_layer_map_and_unknown_names():
    events = [span("unit_pair", 0, 10), span("mystery", 2, 3)]

    def parallel_layer(name):
        return "core.supervisor" if name == "unit_pair" \
            else default_layer(name)

    layers, _ = fold(events, parallel_layer)
    assert layers == pytest.approx({"core.supervisor": 7e-6, "other": 3e-6})
