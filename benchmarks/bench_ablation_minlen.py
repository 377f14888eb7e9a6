"""Experiment A-minlen — ablation of the §4.1 CPU/I-O decoupling knobs.

Section 4.1: EGO can optimise the I/O unit size and the CPU sequence
size (``minlen``) independently, with no directory overhead.  Two
sweeps:

* ``minlen`` — smaller leaves prune harder (fewer distance
  calculations) at the cost of more recursion (sequence pairs); the
  product shapes CPU time.  The paper reports CPU-optimal sizes below
  10 points for its C implementation.  The sweep runs twice: under the
  early-abort ``vector`` engine, and under the dense ``matmul`` (GEMM)
  engine, whose wall time falls as leaves grow towards one 256-row
  tile even while the scalar-priced model CPU seconds rise — the
  evidence for resolving the default threshold with the engine.
* I/O unit size under a fixed buffer budget — fewer, larger units cost
  less positioning per byte but blunt the schedule; many small units
  schedule precisely but pay per-access positioning.
"""

import time

import numpy as np
import pytest

from repro.analysis.costmodel import DEFAULT_CPU_MODEL
from repro.core.ego_join import ego_self_join, ego_self_join_file
from repro.data.loader import make_point_file
from repro.data.synthetic import uniform
from repro.storage.stats import CPUCounters

from _harness import emit

N = 6000
DIMENSIONS = 8
EPSILON = 0.25
MINLENS = [2, 8, 32, 128, 512]
MATMUL_MINLENS = [32, 64, 128, 256, 512]
UNIT_SIZES = [2048, 8192, 32768]


def minlen_rows(points):
    rows = []
    for minlen in MINLENS:
        cpu = CPUCounters()
        ego_self_join(points, EPSILON, minlen=minlen, cpu=cpu)
        rows.append({
            "minlen": minlen,
            "distance_calcs": cpu.distance_calculations,
            "sequence_pairs": cpu.sequence_pairs,
            "model_cpu_s": DEFAULT_CPU_MODEL.cpu_time(cpu, DIMENSIONS),
        })
    return rows


def matmul_rows(points, repeats=2):
    """The ``matmul`` sweep: best-of-``repeats`` wall seconds per value."""
    rows = []
    for minlen in MATMUL_MINLENS:
        best = float("inf")
        for _ in range(repeats):
            cpu = CPUCounters()
            start = time.perf_counter()
            result = ego_self_join(points, EPSILON, minlen=minlen,
                                   engine="matmul", cpu=cpu)
            best = min(best, time.perf_counter() - start)
        rows.append({
            "minlen": minlen,
            "pairs": result.count,
            "distance_calcs": cpu.distance_calculations,
            "sequence_pairs": cpu.sequence_pairs,
            "wall_s": round(best, 4),
            "model_cpu_s": DEFAULT_CPU_MODEL.cpu_time(cpu, DIMENSIONS),
        })
    return rows


def unit_rows(points):
    budget_bytes = int(len(points) * 72 * 0.10)
    rows = []
    for unit_bytes in UNIT_SIZES:
        buffer_units = max(2, budget_bytes // unit_bytes)
        disk, pf = make_point_file(points)
        try:
            report = ego_self_join_file(pf, EPSILON,
                                        unit_bytes=unit_bytes,
                                        buffer_units=buffer_units,
                                        materialize=False)
        finally:
            disk.close()
        rows.append({
            "unit_bytes": unit_bytes,
            "buffer_units": buffer_units,
            "unit_loads": report.schedule_stats.total_unit_loads,
            "join_io_s": report.join_io_time_s,
        })
    return rows


def test_ablation_minlen(benchmark):
    pts = uniform(N, DIMENSIONS, seed=800)
    rows = minlen_rows(pts)
    emit("ablation_minlen",
         f"§4.1 ablation: CPU sequence size sweep "
         f"(8-d uniform, n={N}, eps={EPSILON})", rows)
    # Smaller leaves prune more distance calculations...
    calcs = [r["distance_calcs"] for r in rows]
    assert calcs == sorted(calcs)
    # ...but cost more recursion.
    pairs = [r["sequence_pairs"] for r in rows]
    assert pairs == sorted(pairs, reverse=True)
    # All minlen values produce identical results (correctness is
    # covered by the test suite; here we sanity-check the counter sums).
    assert all(r["model_cpu_s"] > 0 for r in rows)

    mrows = matmul_rows(pts)
    emit("ablation_minlen_matmul",
         f"§4.1 ablation: CPU sequence size sweep under the GEMM engine "
         f"(8-d uniform, n={N}, eps={EPSILON})", mrows)
    # Every threshold finds the same pairs; larger GEMM leaves trade
    # more candidate tests for far less recursion.
    assert len({r["pairs"] for r in mrows}) == 1
    pairs = [r["sequence_pairs"] for r in mrows]
    assert pairs == sorted(pairs, reverse=True)

    urows = unit_rows(pts)
    emit("ablation_unitsize",
         f"§4.1 ablation: I/O unit size sweep under one 10% budget",
         urows)
    # The sweep spans a real trade-off: load counts drop as units grow.
    loads = [r["unit_loads"] for r in urows]
    assert loads == sorted(loads, reverse=True)

    benchmark(lambda: minlen_rows(uniform(1500, DIMENSIONS, seed=801)))


if __name__ == "__main__":
    pts = uniform(N, DIMENSIONS, seed=800)
    emit("ablation_minlen", "minlen sweep", minlen_rows(pts))
    emit("ablation_minlen_matmul", "minlen sweep (matmul)",
         matmul_rows(pts))
    emit("ablation_unitsize", "unit size sweep", unit_rows(pts))
