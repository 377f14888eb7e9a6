"""Seeded adversarial workloads for differential verification.

The fuzz driver and the metamorphic tests both draw from these
generators.  Each workload targets a failure mode the interval
reasoning of the EGO join (Lemmata 2 and 3) is most fragile against:

* ``boundary`` — pairs planted at distance ε·(1 ± 2⁻⁴⁰), straddling the
  predicate boundary within one or two ulps, where an off-by-one in a
  cell bound or a sloppy ``<`` vs ``≤`` flips membership;
* ``duplicates`` — exact duplicates and dense micro-clusters, stressing
  diagonal exclusion and tie-handling of the sort;
* ``degenerate`` — constant dimensions and collinear points, the case
  in which inactive-dimension pruning does the most work (and a broken
  cell-distance test over-prunes most easily);
* ``clusters`` — correlated Gaussian clusters: skewed ε-cell occupancy
  and interval lengths far from the uniform case;
* ``skewed`` — one heavy cluster holding most of the points over a
  sparse uniform background: the worst case for uniform work
  partitioning (a few unit pairs carry nearly all candidate pairs), so
  the parallel join's submission-order merge sees its most uneven task
  costs;
* ``store_ops`` — boundary mates planted *across* the insertion order
  (tail points against head anchors), so under the incremental store's
  churned insert sequence the delta×main candidate windows carry pairs
  straddling the ε predicate within a few ulps;
* ``near_threshold`` — *every* pair distance concentrated at
  ε·(1 ± 2⁻⁴⁰): anchors spaced far apart, each with a ring of mates
  straddling the predicate by ulps.  Built for the approximate (LSH)
  engine, whose collision probabilities are hardest exactly at
  distance ε — the recall model's worst case is the only case here —
  while the exact re-verification still has to decide membership at
  ulp distance;
* ``uniform`` — the baseline of the paper's experiments.

All generators are pure functions of their seed; the same
``(kind, n, dimensions, epsilon, seed)`` tuple always produces the same
array, which is what makes fuzz artifacts replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..data.synthetic import gaussian_clusters, uniform

#: Relative offset for boundary pairs: ε·(1 ± 2⁻⁴⁰) places the planted
#: mate a few double-precision ulps on either side of the predicate.
BOUNDARY_DELTA = 2.0 ** -40

WORKLOAD_KINDS: Tuple[str, ...] = (
    "uniform", "boundary", "duplicates", "degenerate", "clusters",
    "skewed", "store_ops", "near_threshold")


@dataclass
class Workload:
    """One generated verification workload."""

    kind: str
    seed: int
    epsilon: float
    points: np.ndarray

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dimensions(self) -> int:
        return self.points.shape[1]


def _boundary(n: int, dimensions: int, epsilon: float,
              rng: np.random.Generator) -> np.ndarray:
    """Base points plus mates planted right at the ε boundary."""
    n_base = max(1, n // 3)
    base = rng.random((n_base, dimensions))
    rows = [base]
    produced = n_base
    side = 1.0
    while produced < n:
        anchor = base[rng.integers(0, n_base)]
        direction = rng.normal(size=dimensions)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        direction /= norm
        # Alternate just-inside and just-outside mates.
        radius = epsilon * (1.0 + side * BOUNDARY_DELTA)
        side = -side
        rows.append((anchor + radius * direction)[None, :])
        produced += 1
    return np.concatenate(rows)[:n]


def _duplicates(n: int, dimensions: int, epsilon: float,
                rng: np.random.Generator) -> np.ndarray:
    """Exact duplicates and micro-clusters much tighter than ε."""
    n_unique = max(1, n // 4)
    base = rng.random((n_unique, dimensions))
    assignment = rng.integers(0, n_unique, size=n)
    jitter = rng.normal(0.0, epsilon * 1e-3, size=(n, dimensions))
    # Half the copies are bit-exact duplicates, half are jittered.
    exact = rng.random(n) < 0.5
    jitter[exact] = 0.0
    return base[assignment] + jitter


def _degenerate(n: int, dimensions: int, epsilon: float,
                rng: np.random.Generator) -> np.ndarray:
    """Constant dimensions and a collinear subset."""
    pts = rng.random((n, dimensions))
    # Freeze a prefix of dimensions to constants: every sequence shares
    # those cells, so inactive-dimension pruning decides everything.
    frozen = max(1, dimensions // 2)
    pts[:, :frozen] = rng.random(frozen)
    # Lay a third of the points on one line through the cube.
    n_line = n // 3
    if n_line:
        start = rng.random(dimensions)
        direction = rng.normal(size=dimensions)
        direction /= max(np.linalg.norm(direction), 1e-12)
        t = np.sort(rng.random(n_line))
        pts[:n_line] = start + t[:, None] * direction * 0.5
    return pts


def _skewed(n: int, dimensions: int, epsilon: float,
            rng: np.random.Generator) -> np.ndarray:
    """One dominating tight cluster over a sparse uniform background.

    ~70% of the points fall inside a single cluster a few ε wide, so
    nearly all candidate pairs live in a handful of adjacent ε-cells at
    one spot of the grid order; the rest is uniform background that
    contributes volume but almost no pairs.
    """
    n_heavy = max(1, (7 * n) // 10)
    center = rng.random(dimensions) * 0.6 + 0.2
    heavy = center + rng.normal(0.0, epsilon, size=(n_heavy, dimensions))
    background = rng.random((n - n_heavy, dimensions))
    pts = np.concatenate([heavy, background])[:n]
    return np.clip(pts, 0.0, 1.0)


def _store_ops(n: int, dimensions: int, epsilon: float,
               rng: np.random.Generator) -> np.ndarray:
    """Boundary mates planted across the insertion order.

    The head of the array is a uniform base; every tail point is a
    mate at distance ε·(1 ± 2⁻⁴⁰) of a random head anchor.  A store
    that inserts this array in order holds exactly the tail in its
    delta buffer at query time (below the compaction threshold), so
    the delta×main cross-join — the path batch joins never take — has
    to decide predicate membership at ulp distance.
    """
    n_tail = max(1, n // 4)
    n_head = max(1, n - n_tail)
    head = rng.random((n_head, dimensions))
    tail = []
    side = 1.0
    while len(tail) < n_tail:
        anchor = head[rng.integers(0, n_head)]
        direction = rng.normal(size=dimensions)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        direction /= norm
        radius = epsilon * (1.0 + side * BOUNDARY_DELTA)
        side = -side
        tail.append(anchor + radius * direction)
    return np.concatenate([head, np.asarray(tail)])[:n]


def _near_threshold(n: int, dimensions: int, epsilon: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Anchors far apart, every mate at distance ε·(1 ± 2⁻⁴⁰).

    Unlike ``boundary`` (uniform base + some planted mates), here the
    planted pairs are essentially the *only* pairs: anchors sit on a
    coarse jittered lattice ≫ 2ε apart, so the expected pair set is
    exactly the just-inside mates.  Recall estimation for the LSH
    engine is then measured purely at its worst-case distance.
    """
    n_anchor = max(1, n // 4)
    # Seeded thinning: accept uniform draws at least 3ε from every
    # accepted anchor, so anchor-anchor (and mate-mate across anchors)
    # distances stay far outside ε.  When the cube is too crowded for
    # the separation (large ε), later draws are accepted as-is — the
    # extra pairs are merely ordinary in-ε pairs, still exact.
    accepted = [rng.random(dimensions)]
    attempts = 0
    while len(accepted) < n_anchor:
        candidate = rng.random(dimensions)
        attempts += 1
        gap_sq = min(float(np.sum((candidate - a) ** 2))
                     for a in accepted)
        if gap_sq >= (3.0 * epsilon) ** 2 or attempts > 20 * n_anchor:
            accepted.append(candidate)
    anchors = np.asarray(accepted)
    rows = [anchors]
    produced = n_anchor
    side = 1.0
    while produced < n:
        anchor = anchors[rng.integers(0, n_anchor)]
        direction = rng.normal(size=dimensions)
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        direction /= norm
        radius = epsilon * (1.0 + side * BOUNDARY_DELTA)
        side = -side
        rows.append((anchor + radius * direction)[None, :])
        produced += 1
    return np.concatenate(rows)[:n]


def generate_workload(kind: str, n: int, dimensions: int, epsilon: float,
                      seed: int) -> Workload:
    """Generate one seeded workload of the named ``kind``."""
    if kind not in WORKLOAD_KINDS:
        raise ValueError(
            f"unknown workload kind {kind!r}; known: {WORKLOAD_KINDS}")
    if n < 1 or dimensions < 1:
        raise ValueError("n and dimensions must be positive")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        pts = uniform(n, dimensions, seed=rng)
    elif kind == "boundary":
        pts = _boundary(n, dimensions, epsilon, rng)
    elif kind == "duplicates":
        pts = _duplicates(n, dimensions, epsilon, rng)
    elif kind == "degenerate":
        pts = _degenerate(n, dimensions, epsilon, rng)
    elif kind == "skewed":
        pts = _skewed(n, dimensions, epsilon, rng)
    elif kind == "store_ops":
        pts = _store_ops(n, dimensions, epsilon, rng)
    elif kind == "near_threshold":
        pts = _near_threshold(n, dimensions, epsilon, rng)
    else:
        pts = gaussian_clusters(n, dimensions, clusters=max(2, n // 40),
                                std=epsilon / 2, seed=rng)
    return Workload(kind=kind, seed=seed, epsilon=float(epsilon),
                    points=np.asarray(pts, dtype=np.float64))


#: Named worker-fault regimes for the supervised parallel join.  Each
#: maps to :class:`~repro.storage.faults.WorkerFaultPlan` kwargs; the
#: seed is supplied by the caller so nightly fuzz varies the fault
#: placement while every individual run stays replayable.
WORKER_FAULT_KINDS: Tuple[str, ...] = ("crashy", "stally", "corrupting",
                                       "flaky", "mixed")

_WORKER_FAULT_PRESETS = {
    # One fault kind at a time isolates each rung of the recovery
    # ladder; "mixed" exercises their interleavings.
    "crashy": {"crash_rate": 0.06},
    "stally": {"stall_rate": 0.04, "stall_seconds": 30.0},
    "corrupting": {"corrupt_rate": 0.15},
    "flaky": {"error_rate": 0.25},
    "mixed": {"crash_rate": 0.03, "corrupt_rate": 0.08,
              "error_rate": 0.12},
}


def worker_fault_plan(kind: str, seed: int):
    """A seeded :class:`~repro.storage.faults.WorkerFaultPlan` preset.

    Every preset keeps ``max_attempt=0`` (faults fire on first attempts
    only), so a correct supervisor always recovers and the joined pair
    set must equal the fault-free run's — which is exactly the
    differential check the fuzz driver applies.
    """
    from ..storage.faults import WorkerFaultPlan

    if kind not in WORKER_FAULT_KINDS:
        raise ValueError(f"unknown worker fault kind {kind!r}; "
                         f"known: {WORKER_FAULT_KINDS}")
    return WorkerFaultPlan(seed=seed, **_WORKER_FAULT_PRESETS[kind])
