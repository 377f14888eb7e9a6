"""Fold a Chrome trace into per-layer self time.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Nesting is recovered from timestamps, per
thread: a span is the child of the innermost earlier span whose interval
contains it, which is how :class:`repro.obs.Tracer` nests spans.

Each span name maps to the module that owns the work (``LAYER_OF``).
Spans the benchmark records around its own calls are named ``bench.*``;
their self time is the traced wall time no program layer accounts for.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

#: Span name -> layer (module) that owns the span's self time.
LAYER_OF = {
    "external_self_join": "core.ego_join",
    "sort": "sorting",
    "run_generation": "sorting",
    "merge_pass": "sorting",
    "store_compaction": "sorting.compaction",
    "load": "storage",
    "journal_flush": "storage.journal",
    "schedule": "core.scheduler",
    "unit_pair": "core.scheduler",
    "sequence_join": "core.sequence_join",
    "leaf": "core.kernels",
    "leaf_batch": "core.kernels",
    "store_join": "service.store",
    "store_range": "service.store",
    "store_knn": "service.store",
}

#: Layer name of the benchmark's own spans.
BENCH_LAYER = "bench"

#: Timestamp slack (microseconds) when testing containment: start and
#: end are rounded separately in the trace, so a child may overhang its
#: parent by a rounding error.
_SLACK_US = 0.01


def default_layer(name: str) -> str:
    """The layer a span name belongs to (``other`` when unknown)."""
    if name.startswith("bench."):
        return BENCH_LAYER
    return LAYER_OF.get(name, "other")


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(events: Iterable[dict]) -> List[Tuple[dict, float, bool]]:
    """``(span, self_seconds, is_root)`` for every complete (``"X"``) span."""
    by_tid: Dict[object, List[dict]] = defaultdict(list)
    for ev in events:
        if ev.get("ph") == "X":
            by_tid[(ev.get("pid"), ev.get("tid"))].append(ev)
    out = []
    for spans in by_tid.values():
        # Parents sort before the children they contain: earlier start
        # first, longer span first on equal starts.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        roots = set()
        stack: List[dict] = []
        for ev in spans:
            lo, hi = ev["ts"], ev["ts"] + ev["dur"]
            while stack and stack[-1]["ts"] + stack[-1]["dur"] \
                    < hi - _SLACK_US:
                stack.pop()
            if stack:
                parent = stack[-1]
                p_lo, p_hi = parent["ts"], parent["ts"] + parent["dur"]
                children[id(parent)].append((max(lo, p_lo), min(hi, p_hi)))
            else:
                roots.add(id(ev))
            stack.append(ev)
        for ev in spans:
            covered = _union_length(children.get(id(ev), []))
            out.append((ev, max(0.0, ev["dur"] - covered) / 1e6,
                        id(ev) in roots))
    return out


def fold(events: Iterable[dict],
         layer_of: Callable[[str], str] = default_layer
         ) -> Tuple[Dict[str, float], float]:
    """Per-layer self seconds of a trace, and its total root-span seconds.

    Every span's self time goes to ``layer_of(name)``; the layer totals
    therefore add up to the root total.
    """
    layers: Dict[str, float] = defaultdict(float)
    root_s = 0.0
    for ev, self_s, is_root in self_times(events):
        layers[layer_of(ev["name"])] += self_s
        if is_root:
            root_s += ev["dur"] / 1e6
    return dict(layers), root_s
