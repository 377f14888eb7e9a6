"""Tests for the high-throughput leaf kernels (GEMM engine, windowing,
scratch buffers, engine selection) and the precision fixes they rely on.

* ``floor_cells`` — the rounding-safe grid cell mapping.  The hardcoded
  instances below were found by random search and verified with exact
  rational arithmetic; on each of them a raw ``np.floor(x / w)`` places
  the coordinate one cell too high.
* the centered Gram expansion — on translated data a slack computed
  from raw norms exceeds ε² and forces every windowed candidate through
  exact re-verification; the centered kernel keeps the re-verified
  count proportional to the accepts.
"""

import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance import natural_ordering, pairs_within_scalar
from repro.core.ego_join import ego_join, ego_self_join, ego_self_join_file
from repro.core.ego_order import ego_sorted, floor_cells, grid_cells
from repro.core.kernels import (DEFAULT_BLOCK, DEFAULT_MINLEN, ENGINES,
                                ScratchBuffers, candidate_windows,
                                pairs_within_matmul, resolve_minlen,
                                select_engine)
from repro.core.metrics import get_metric
from repro.core.sequence import Sequence
from repro.core.sequence_join import JoinContext, join_sequences
from repro.core.result import JoinResult
from repro.obs.metrics import MetricsRegistry
from repro.service.store import EGOStore
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.journal import Journal
from repro.storage.pairfile import PairFile
from repro.storage.stats import CPUCounters
from repro.verify.canonical import canonical_pairs, pair_digest

from conftest import brute_truth, make_file

METRICS = [None, "manhattan", "chebyshev", 3.0]

#: ``(coordinate, cell width, real-arithmetic floor(coordinate / width))``
#: triples on which ``floor(fl(x / w))`` lands one cell high because the
#: correctly rounded quotient crosses the integer.  Verified with
#: ``Fraction`` arithmetic (re-checked in the test itself).
RAW_FLOOR_REGRESSIONS = [
    (36421541.01575448, 0.12019024292655811, 303032426),
    (1417445.7668127185, 0.001433268844161744, 988960146),
    (308232.84540794283, 0.0012453101530902563, 247514921),
    (-14787.982199769922, 9.8455451938731e-05, -150199730),
    (770162.9426907644, 0.001407584380744777, 547152236),
    (-116361.55700563421, 0.00019174222567174692, -606864538),
]

#: The extended-precision correction is exact only where ``longdouble``
#: is wider than ``float64`` (x86 Linux: 63-bit mantissa).
LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).nmant > 52


def pair_set(ia, ib):
    return set(zip(ia.tolist(), ib.tolist()))


def exact_floor(x: float, w: float) -> int:
    """Real-arithmetic ``floor(x / w)`` via rational arithmetic."""
    return int((Fraction(x) / Fraction(w)).__floor__())


def stream_pairs(result: JoinResult):
    """The raw (uncanonicalised) pair stream as a list of tuples."""
    ia, ib = result.pairs()
    return list(zip(ia.tolist(), ib.tolist()))


def dist_map(result: JoinResult):
    """Canonical pair -> reported distance."""
    ia, ib = result.pairs()
    keys = [(min(i, j), max(i, j)) for i, j in zip(ia.tolist(), ib.tolist())]
    return dict(zip(keys, result.distances().tolist()))


class TestMatmulKernel:
    @given(st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=20),
           st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.05, max_value=2.0),
           st.sampled_from(METRICS),
           st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_reference(self, na, nb, d, eps, metric, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((na, d))
        b = rng.random((nb, d))
        order = natural_ordering(d)
        m = get_metric(metric)
        threshold = m.threshold(eps)
        em = None if m.name == "euclidean" else m
        sa, sb = pairs_within_scalar(a, b, threshold, order, metric=em)
        ma, mb = pairs_within_matmul(a, b, threshold, order, metric=em)
        assert pair_set(sa, sb) == pair_set(ma, mb)

    @given(st.integers(min_value=2, max_value=24),
           st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_upper_triangle_matches_scalar(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((n, 4))
        order = natural_ordering(4)
        sa, sb = pairs_within_scalar(a, a, 0.25, order,
                                     upper_triangle=True)
        ma, mb = pairs_within_matmul(a, a, 0.25, order,
                                     upper_triangle=True)
        assert pair_set(sa, sb) == pair_set(ma, mb)
        if len(ma):
            assert (ma < mb).all()

    def test_duplicate_points(self):
        """Exact duplicates (distance 0) survive the Gram identity."""
        a = np.tile([[0.5, 0.5, 0.5]], (6, 1))
        order = natural_ordering(3)
        ia, ib = pairs_within_matmul(a, a, 1e-12, order,
                                     upper_triangle=True)
        assert len(ia) == 6 * 5 // 2

    def test_empty_and_single_point(self):
        order = natural_ordering(2)
        ia, ib = pairs_within_matmul(np.empty((0, 2)), np.empty((3, 2)),
                                     1.0, order)
        assert len(ia) == 0 == len(ib)
        one = np.array([[0.1, 0.2]])
        ia, ib = pairs_within_matmul(one, one, 1.0, order,
                                     upper_triangle=True)
        assert len(ia) == 0

    def test_distances_match_scalar(self, rng):
        a = rng.random((40, 6))
        b = rng.random((35, 6))
        order = natural_ordering(6)
        sa, sb, sd = pairs_within_scalar(a, b, 0.5, order,
                                         return_sq_distances=True)
        ma, mb, md = pairs_within_matmul(a, b, 0.5, order,
                                         return_sq_distances=True)
        assert pair_set(sa, sb) == pair_set(ma, mb)
        smap = dict(zip(zip(sa.tolist(), sb.tolist()), sd.tolist()))
        # Accepts are re-verified from exact differences, so the
        # distances match the reference to the last ulp or so.
        for i, j, d2 in zip(ma.tolist(), mb.tolist(), md.tolist()):
            assert d2 == pytest.approx(smap[(i, j)], rel=1e-12, abs=1e-15)

    def test_boundary_pair_is_inclusive(self):
        """A pair at exactly distance ε is reported (≤, not <)."""
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.6, 0.8]])
        order = natural_ordering(2)
        ia, ib = pairs_within_matmul(a, b, 1.0, order)
        assert len(ia) == 1

    def test_blocking_invariance(self, rng):
        """Any tile size returns the same pair set."""
        a = rng.random((70, 5))
        b = rng.random((90, 5))
        order = natural_ordering(5)
        ref = pair_set(*pairs_within_matmul(a, b, 0.3, order))
        for block in (1, 3, 16, 64, 1024):
            got = pairs_within_matmul(a, b, 0.3, order,
                                      scratch=ScratchBuffers(block))
            assert pair_set(*got) == ref

    def test_counters_charge_dense_work(self, rng):
        a = rng.random((10, 4))
        b = rng.random((12, 4))
        c = CPUCounters()
        pairs_within_matmul(a, b, 0.2, natural_ordering(4), counters=c)
        assert c.distance_calculations == 10 * 12
        assert c.dimension_evaluations == 10 * 12 * 4
        c2 = CPUCounters()
        pairs_within_matmul(a, a, 0.2, natural_ordering(4), counters=c2,
                            upper_triangle=True)
        assert c2.distance_calculations == 10 * 9 // 2


class TestFloorCellsRegression:
    @pytest.mark.parametrize("x,w,truth", RAW_FLOOR_REGRESSIONS)
    def test_known_instances(self, x, w, truth):
        assert exact_floor(x, w) == truth  # the instance is as documented
        raw = int(np.floor(np.float64(x) / np.float64(w)))
        assert raw == truth + 1, "instance no longer exercises the bug"
        if LONGDOUBLE_IS_WIDER:
            assert int(floor_cells(np.array([x]), w)[0]) == truth

    @pytest.mark.skipif(not LONGDOUBLE_IS_WIDER,
                        reason="longdouble no wider than float64")
    def test_matches_rational_floor_near_boundaries(self):
        """On boundary-adjacent data the fixed mapping is the real floor."""
        rng = np.random.default_rng(7)
        for _ in range(40):
            w = float(rng.uniform(1e-4, 0.5))
            k = rng.integers(-10**6, 10**6, size=64)
            # Exact cell-boundary multiples, then the float64 neighbours
            # of each — the region where raw floor mis-rounds.
            bounds = np.array([float(Fraction(int(ki)) * Fraction(w))
                               for ki in k])
            xs = np.concatenate([bounds,
                                 np.nextafter(bounds, np.inf),
                                 np.nextafter(bounds, -np.inf)])
            got = floor_cells(xs, w)
            for x, c in zip(xs.tolist(), got.tolist()):
                assert c == exact_floor(x, w)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = float(rng.uniform(1e-4, 1.0))
            xs = np.sort(rng.normal(scale=1e6, size=200))
            cells = floor_cells(xs, w)
            assert (np.diff(cells) >= 0).all()

    def test_cell_brackets_coordinate(self):
        """``c·w ≤ x < (c+1)·w`` in extended precision, any platform."""
        rng = np.random.default_rng(3)
        w = 0.001433268844161744
        xs = rng.uniform(-1e6, 1e6, size=500)
        c = floor_cells(xs, w).astype(np.longdouble)
        wide = np.longdouble(w)
        assert (c * wide <= xs.astype(np.longdouble)).all()
        assert ((c + 1.0) * wide > xs.astype(np.longdouble)).all()

    def test_shape_and_negative_handling(self):
        pts = np.array([[-0.3, 0.0], [0.3, 1.0]])
        cells = floor_cells(pts, 0.25)
        assert cells.shape == pts.shape
        assert cells.tolist() == [[-2, 0], [1, 4]]
        assert grid_cells(pts, 0.25).tolist() == cells.tolist()

    def test_windows_sound_on_translated_boundary_data(self):
        """Candidate windows drop no true mate on cell-boundary data far
        from the origin (the pre-fix failure mode)."""
        rng = np.random.default_rng(23)
        eps = 0.001433268844161744
        offsets = (-5e6, 0.0, 1e8)
        for off in offsets:
            # Coordinates hugging cell boundaries around the offset.
            k = np.rint(off / eps) + rng.integers(0, 40, size=120)
            base = k * eps
            jitter = rng.uniform(-0.6 * eps, 0.6 * eps, size=(120, 2))
            pts = np.stack([base, base], axis=1) + jitter
            ids = np.argsort(floor_cells(pts[:, 0], eps), kind="stable")
            pts = pts[ids]
            lo, hi = candidate_windows(pts, pts, 0, eps)
            truth = brute_truth(pts, eps)
            for i, j in truth:
                assert lo[i] <= j < hi[i], (off, i, j)
                assert lo[j] <= i < hi[j], (off, i, j)


class TestCenteredSlackRegression:
    def _cluster(self, offset, n=150, d=4, eps=0.05, seed=5):
        rng = np.random.default_rng(seed)
        return rng.uniform(0, 1, size=(n, d)) + offset, eps

    @pytest.mark.parametrize("offset", [0.0, 1e6, -5e6, 1e8])
    def test_matches_scalar_on_translated_clusters(self, offset):
        pts, eps = self._cluster(offset)
        order = natural_ordering(pts.shape[1])
        sa, sb = pairs_within_scalar(pts, pts, eps * eps, order,
                                     upper_triangle=True)
        ma, mb = pairs_within_matmul(pts, pts, eps * eps, order,
                                     upper_triangle=True)
        assert set(zip(sa.tolist(), sb.tolist())) \
            == set(zip(ma.tolist(), mb.tolist()))

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_reverification_stays_bounded_far_from_origin(self, offset):
        """Pre-fix, the raw-norm slack at these offsets exceeds ε², so
        *every* candidate is re-verified (n·(n−1)/2 here); centered, the
        re-verified count tracks the accepts."""
        pts, eps = self._cluster(offset)
        order = natural_ordering(pts.shape[1])
        reg = MetricsRegistry()
        ia, _ib = pairs_within_matmul(pts, pts, eps * eps, order,
                                      upper_triangle=True, metrics=reg)
        reverified = reg.get("ego_gemm_reverified_total").value
        n = len(pts)
        all_candidates = n * (n - 1) // 2
        assert reverified <= 4 * max(len(ia), 1) + 64
        assert reverified < all_candidates // 4


class TestScratchBuffers:
    def test_invalid_slot_rejected(self):
        scratch = ScratchBuffers(8)
        with pytest.raises(ValueError):
            scratch.norms(np.ones((2, 2)), "c")

    def test_slots_never_alias_under_interleaved_growth(self, rng):
        scratch = ScratchBuffers(4)
        a_small = rng.random((4, 3))
        b_small = rng.random((4, 3))
        na = scratch.norms(a_small, "a")
        nb = scratch.norms(b_small, "b")
        assert na.base is not nb.base
        # Growing "a" must not move or clobber the live "b" view.
        b_expect = np.einsum("ij,ij->i", b_small, b_small)
        a_big = rng.random((64, 3))
        na2 = scratch.norms(a_big, "a")
        np.testing.assert_array_equal(nb, b_expect)
        assert na2.base is not nb.base
        # ...and vice versa, after "b" grows past "a".
        b_big = rng.random((128, 3))
        nb2 = scratch.norms(b_big, "b")
        np.testing.assert_allclose(
            na2, np.einsum("ij,ij->i", a_big, a_big))
        assert nb2.base is not na2.base

    def test_stale_view_keeps_old_values(self, rng):
        scratch = ScratchBuffers(4)
        first = rng.random((4, 2))
        view = scratch.norms(first, "a")
        kept = view.copy()
        scratch.norms(rng.random((64, 2)), "a")  # grows, reallocates
        np.testing.assert_array_equal(view, kept)


class TestCandidateWindows:
    def test_windows_are_sound_and_contiguous(self, rng):
        eps = 0.15
        ids, pts = ego_sorted(rng.random((200, 3)), eps)
        seq = Sequence(ids, pts, eps)
        wdim = seq.active_dimension()
        assert wdim is not None
        lo, hi = candidate_windows(pts, pts, wdim, eps)
        truth = brute_truth(pts, eps)
        for i, j in truth:
            assert lo[i] <= j < hi[i], "window dropped a true mate"
            assert lo[j] <= i < hi[j]

    def test_windowed_kernel_matches_unwindowed(self, rng):
        eps = 0.2
        _ids, pts = ego_sorted(rng.random((150, 3)), eps)
        order = natural_ordering(3)
        lo, hi = candidate_windows(pts, pts, 0, eps)
        ref = pairs_within_matmul(pts, pts, eps * eps, order,
                                  upper_triangle=True)
        win = pairs_within_matmul(pts, pts, eps * eps, order,
                                  upper_triangle=True, windows=(lo, hi))
        assert pair_set(*ref) == pair_set(*win)

    def test_window_reduces_counter_charges(self, rng):
        eps = 0.05
        _ids, pts = ego_sorted(rng.random((300, 2)), eps)
        order = natural_ordering(2)
        dense, windowed = CPUCounters(), CPUCounters()
        pairs_within_matmul(pts, pts, eps * eps, order, counters=dense,
                            upper_triangle=True)
        lo, hi = candidate_windows(pts, pts, 0, eps)
        pairs_within_matmul(pts, pts, eps * eps, order, counters=windowed,
                            upper_triangle=True, windows=(lo, hi))
        assert windowed.distance_calculations \
            < dense.distance_calculations


class TestEngineSelection:
    def test_explicit_engines_pass_through(self):
        for eng in ("scalar", "vector", "matmul"):
            assert select_engine(eng) == eng

    def test_auto_euclidean_uses_matmul(self):
        assert select_engine("auto") == "matmul"
        assert select_engine("auto", get_metric("euclidean")) == "matmul"

    def test_auto_large_leaf_uses_matmul(self, rng):
        """A join whose leaves fill a whole GEMM tile runs matmul."""
        pts = rng.random((600, 16))
        ctx = JoinContext(epsilon=0.5, result=JoinResult(), engine="auto",
                          minlen=256, metrics=MetricsRegistry())
        ids, spts = ego_sorted(pts, 0.5)
        seq = Sequence(ids, spts, 0.5)
        join_sequences(seq, seq, ctx)
        leaf_joins = ctx.metrics.get("ego_leaf_joins_total")
        assert leaf_joins.value_of("matmul") > 0
        assert leaf_joins.value_of("vector") == 0

    def test_auto_non_euclidean_uses_vector(self):
        m = get_metric("manhattan")
        assert select_engine("auto", m) == "vector"

    def test_matmul_non_euclidean_resolves_to_vector(self):
        """The Gram identity is L2-only: matmul runs the vector kernel."""
        for name in ("manhattan", "chebyshev"):
            assert select_engine("matmul", get_metric(name)) == "vector"
        ctx = JoinContext(epsilon=0.1, result=JoinResult(),
                          engine="matmul", metric="manhattan")
        assert ctx.leaf_engine == "vector"

    def test_leaf_counter_names_the_kernel_that_runs(self, rng):
        pts = rng.random((400, 3))
        ctx = JoinContext(epsilon=0.1, result=JoinResult(),
                          engine="matmul", metric="manhattan",
                          metrics=MetricsRegistry())
        ids, spts = ego_sorted(pts, 0.1)
        seq = Sequence(ids, spts, 0.1)
        join_sequences(seq, seq, ctx)
        leaf_joins = ctx.metrics.get("ego_leaf_joins_total")
        assert leaf_joins.value_of("vector") > 0
        assert leaf_joins.value_of("matmul") == 0

    def test_context_accepts_new_engines(self):
        for eng in ("matmul", "auto"):
            ctx = JoinContext(epsilon=0.1, result=JoinResult(), engine=eng)
            assert ctx.engine == eng

    def test_context_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            JoinContext(epsilon=0.1, result=JoinResult(), engine="gpu")


class TestLeafThreshold:
    """The default leaf threshold is resolved with the leaf engine."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("metric", METRICS)
    def test_default_follows_leaf_engine(self, engine, metric):
        ctx = JoinContext(epsilon=0.1, result=JoinResult(), engine=engine,
                          metric=metric)
        gemm = engine in ("matmul", "auto") and metric is None
        assert ctx.leaf_engine == ("matmul" if gemm else
                                   "vector" if engine != "scalar"
                                   else "scalar")
        assert ctx.minlen == (DEFAULT_BLOCK if gemm else DEFAULT_MINLEN)
        assert resolve_minlen(None, ctx.leaf_engine) == ctx.minlen

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("metric", METRICS)
    def test_explicit_value_wins(self, engine, metric):
        for minlen in (1, 7, DEFAULT_MINLEN, 1000):
            ctx = JoinContext(epsilon=0.1, result=JoinResult(),
                              engine=engine, metric=metric, minlen=minlen)
            assert ctx.minlen == minlen
        assert resolve_minlen(5, "matmul") == 5

    def test_gemm_default_is_one_tile(self):
        assert resolve_minlen(None, "matmul") == DEFAULT_BLOCK == 256
        assert resolve_minlen(None, "vector") == DEFAULT_MINLEN == 32
        assert resolve_minlen(None, "scalar") == DEFAULT_MINLEN

    @pytest.mark.parametrize("minlen", [0, -3])
    def test_resolved_value_is_validated(self, minlen):
        with pytest.raises(ValueError, match="minlen"):
            JoinContext(epsilon=0.1, result=JoinResult(), engine="auto",
                        minlen=minlen)


class TestEnginesEndToEnd:
    @given(st.integers(min_value=0, max_value=120),
           st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.05, max_value=0.6),
           st.sampled_from(["matmul", "auto"]),
           st.sampled_from(METRICS),
           st.integers(min_value=1, max_value=64),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_self_join_matches_vector(self, n, d, eps, engine, metric,
                                      minlen, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, d))
        ref = ego_self_join(pts, eps, engine="vector",
                            metric=metric).canonical_pair_set()
        got = ego_self_join(pts, eps, engine=engine, minlen=minlen,
                            metric=metric).canonical_pair_set()
        assert got == ref

    def test_self_join_with_duplicates(self, rng):
        base = rng.random((40, 3))
        pts = np.vstack([base, base[:10]])  # exact duplicates
        eps = 0.2
        ref = brute_truth(pts, eps)
        for eng in ("matmul", "auto"):
            got = ego_self_join(pts, eps, engine=eng,
                                minlen=16).canonical_pair_set()
            assert got == ref

    def test_scratch_buffers_are_reused(self, rng):
        ctx = JoinContext(epsilon=0.1, result=JoinResult(),
                          engine="matmul")
        first = ctx.scratch
        assert ctx.scratch is first
        tile = first.gram_tile(16, 16)
        assert tile.shape == (16, 16)
        again = first.gram_tile(16, 16)
        assert again.base is tile.base

    def test_collect_distances_end_to_end(self, rng):
        pts = rng.random((200, 4))
        eps = 0.25
        res_v = JoinResult(collect_distances=True)
        res_m = JoinResult(collect_distances=True)
        ego_self_join(pts, eps, engine="vector", result=res_v)
        ego_self_join(pts, eps, engine="matmul", minlen=64, result=res_m)
        dv, dm = dist_map(res_v), dist_map(res_m)
        assert set(dv) == set(dm)
        for k in dv:
            assert dm[k] == pytest.approx(dv[k], rel=1e-9)

    def test_collect_distances_auto_matches_matmul(self, rng):
        pts = rng.random((200, 4))
        res_a = JoinResult(collect_distances=True)
        res_m = JoinResult(collect_distances=True)
        ego_self_join(pts, 0.25, engine="auto", result=res_a)
        ego_self_join(pts, 0.25, engine="matmul", result=res_m)
        assert dist_map(res_a) == dist_map(res_m)

    @pytest.mark.parametrize("engine", ["matmul", "auto"])
    @pytest.mark.parametrize("offset", [0.0, -5e6, 1e8])
    def test_stream_identical_to_vector(self, rng, engine, offset):
        """With leaves of at most one GEMM tile, the GEMM kernel emits
        pairs in the vector engine's order, translated data included.
        The leaf threshold is pinned on both sides: at the defaults the
        GEMM leaves are larger and the raw order differs (see
        ``TestDefaultThresholdEquivalence``)."""
        pts = rng.random((300, 4)) + offset
        ref = ego_self_join(pts, 0.15, engine="vector",
                            minlen=DEFAULT_MINLEN)
        got = ego_self_join(pts, 0.15, engine=engine, minlen=DEFAULT_MINLEN)
        assert stream_pairs(got) == stream_pairs(ref)

    @pytest.mark.parametrize("engine", ["matmul", "auto"])
    def test_rs_join_stream_identical_to_vector(self, rng, engine):
        r = rng.random((180, 3))
        s = rng.random((150, 3))
        ref = ego_join(r, s, 0.2, engine="vector", minlen=DEFAULT_MINLEN)
        got = ego_join(r, s, 0.2, engine=engine, minlen=DEFAULT_MINLEN)
        assert stream_pairs(got) == stream_pairs(ref)


class TestDefaultThresholdEquivalence:
    """At the defaults ``auto`` resolves 256-row GEMM leaves and
    ``vector`` 32-row ones.  The leaf boundaries differ, so only the raw
    emission order may change: canonical pairs and their digests must
    match everywhere the threshold is resolved."""

    EPS = 0.3

    @pytest.fixture(scope="class")
    def points(self):
        return np.random.default_rng(16).random((900, 4))

    @staticmethod
    def assert_same(got, ref, ordered=False):
        a = canonical_pairs(got, ordered=ordered)
        b = canonical_pairs(ref, ordered=ordered)
        assert len(a) > 0
        np.testing.assert_array_equal(a, b)
        assert pair_digest(a) == pair_digest(b)

    def test_self_join(self, points):
        reg_a, reg_v = MetricsRegistry(), MetricsRegistry()
        got = JoinResult()
        ref = JoinResult()
        ids, spts = ego_sorted(points, self.EPS)
        for engine, reg, res in (("auto", reg_a, got),
                                 ("vector", reg_v, ref)):
            ctx = JoinContext(epsilon=self.EPS, result=res, engine=engine,
                              metrics=reg)
            seq = Sequence(ids, spts, self.EPS)
            join_sequences(seq, seq, ctx)
        self.assert_same(got, ref)
        self.assert_same(ego_self_join(points, self.EPS, engine="auto"),
                         ego_self_join(points, self.EPS, engine="vector"))
        # The larger GEMM leaves take far fewer kernel calls.
        calls_a = reg_a.get("ego_leaf_joins_total").value_of("matmul")
        calls_v = reg_v.get("ego_leaf_joins_total").value_of("vector")
        assert 0 < calls_a < calls_v

    def test_rs_join(self, points):
        r, s = points[:500], points[500:] + 0.01
        self.assert_same(ego_join(r, s, self.EPS, engine="auto"),
                         ego_join(r, s, self.EPS, engine="vector"),
                         ordered=True)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_external_join(self, points, workers):
        reports = {}
        for engine in ("auto", "vector"):
            with SimulatedDisk() as disk:
                pf = make_file(disk, points)
                reports[engine] = ego_self_join_file(
                    pf, self.EPS, unit_bytes=4096, buffer_units=4,
                    engine=engine, workers=workers)
        self.assert_same(reports["auto"].result, reports["vector"].result)

    def test_external_crash_resume(self, points, tmp_path):
        def read_result(ck):
            with SimulatedDisk(path=os.path.join(ck, "result.prs")) as rd:
                a, b, _ = PairFile.open(rd).read_all()
            return a, b

        kw = dict(unit_bytes=4096, buffer_units=4)
        ck_a, ck_v = str(tmp_path / "auto"), str(tmp_path / "vector")
        with SimulatedDisk() as disk:
            pf = make_file(disk, points)
            with pytest.raises(SimulatedCrash):
                ego_self_join_file(pf, self.EPS, engine="auto",
                                   checkpoint_dir=ck_a,
                                   fault_plan=FaultPlan(crash_ops=[30]),
                                   **kw)
            # The crash lands mid-join: some unit pairs are durable.
            assert Journal(os.path.join(ck_a, "journal.json")).pair_watermark
            resumed = ego_self_join_file(pf, self.EPS, engine="auto",
                                         checkpoint_dir=ck_a, resume=True,
                                         **kw)
            assert resumed.resumed
            ego_self_join_file(pf, self.EPS, engine="vector",
                               checkpoint_dir=ck_v, **kw)
        self.assert_same(read_result(ck_a), read_result(ck_v))

    def test_store_join(self, points):
        stores = {engine: EGOStore.from_points(points, self.EPS,
                                               engine=engine)
                  for engine in ("auto", "vector")}
        assert stores["auto"]._minlen == DEFAULT_BLOCK
        assert stores["vector"]._minlen == DEFAULT_MINLEN
        self.assert_same(stores["auto"].join(), stores["vector"].join())
