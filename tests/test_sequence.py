"""Tests for Sequence and active/inactive dimensions (Definition 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ego_order import ego_sorted, grid_cells
from repro.core.kernels import candidate_windows
from repro.core.sequence import Sequence
from repro.verify.workloads import generate_workload


def seq_of(points, epsilon):
    """EGO-sort points and wrap them in a Sequence."""
    ids, pts = ego_sorted(np.asarray(points, dtype=float), epsilon)
    return Sequence(ids, pts, epsilon)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sequence(np.empty(0, dtype=np.int64), np.empty((0, 2)), 1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Sequence(np.arange(2), np.zeros((3, 2)), 1.0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            Sequence(np.arange(1), np.zeros((1, 2)), -1.0)

    def test_basic_properties(self):
        s = seq_of([[0.1, 0.2], [0.9, 0.8]], 1.0)
        assert len(s) == 2
        assert s.dimensions == 2
        np.testing.assert_allclose(s.first_point, [0.1, 0.2])
        np.testing.assert_allclose(s.last_point, [0.9, 0.8])


class TestActiveDimension:
    def test_all_in_one_cell_no_active(self):
        s = seq_of([[0.1, 0.1], [0.5, 0.9], [0.9, 0.3]], 1.0)
        assert s.active_dimension() is None
        assert s.inactive_count() == 2

    def test_first_dimension_active(self):
        s = seq_of([[0.5, 0.5], [1.5, 0.5]], 1.0)
        assert s.active_dimension() == 0
        assert s.inactive_count() == 0

    def test_second_dimension_active(self):
        """First dim same cell, second differs: Figure 5's situation."""
        s = seq_of([[0.5, 0.2, 0.9], [0.6, 1.7, 0.1]], 1.0)
        assert s.active_dimension() == 1
        assert s.inactive_count() == 1

    def test_single_point_all_inactive(self):
        s = seq_of([[3.3, 4.4]], 1.0)
        assert s.active_dimension() is None

    def test_active_dim_from_first_and_last_only(self):
        """Definition 2 looks only at p_1 and p_k."""
        pts = [[0.1, 0.1], [0.2, 5.0], [0.3, 9.9]]
        s = seq_of(pts, 10.0)  # all in cell (0, 0) at eps=10
        assert s.active_dimension() is None

    def test_cells_cached(self):
        s = seq_of([[0.5, 1.5], [2.5, 0.5]], 1.0)
        assert s.first_cells.tolist() == [0, 1]
        assert s.last_cells.tolist() == [2, 0]


class TestHalving:
    def test_halves_partition_the_sequence(self, rng):
        s = seq_of(rng.random((11, 2)), 0.3)
        f, g = s.first_half(), s.second_half()
        assert len(f) == 6 and len(g) == 5
        np.testing.assert_allclose(np.vstack([f.points, g.points]),
                                   s.points)

    def test_halves_are_views(self, rng):
        s = seq_of(rng.random((8, 2)), 0.3)
        f = s.first_half()
        assert f.points.base is not None

    def test_two_point_split(self):
        s = seq_of([[0.1, 0.1], [0.9, 0.9]], 1.0)
        f, g = s.first_half(), s.second_half()
        assert len(f) == 1 and len(g) == 1

    def test_slice_bounds(self, rng):
        s = seq_of(rng.random((10, 3)), 0.5)
        sub = s.slice(2, 7)
        assert len(sub) == 5
        np.testing.assert_allclose(sub.points, s.points[2:7])


class TestSameStorage:
    def test_identical_sequence_objects(self, rng):
        ids, pts = ego_sorted(rng.random((6, 2)), 0.5)
        a = Sequence(ids, pts, 0.5)
        b = Sequence(ids, pts, 0.5)
        assert a.same_storage(b)

    def test_same_slice_of_same_array(self, rng):
        s = seq_of(rng.random((10, 2)), 0.5)
        assert s.slice(2, 6).same_storage(s.slice(2, 6))

    def test_different_slices_differ(self, rng):
        s = seq_of(rng.random((10, 2)), 0.5)
        assert not s.slice(0, 5).same_storage(s.slice(5, 10))
        assert not s.slice(0, 5).same_storage(s.slice(0, 6))

    def test_copies_differ(self, rng):
        ids, pts = ego_sorted(rng.random((4, 2)), 0.5)
        a = Sequence(ids, pts, 0.5)
        b = Sequence(ids.copy(), pts.copy(), 0.5)
        assert not a.same_storage(b)


# -- carried cells -----------------------------------------------------------


#: Data shapes for the carried-cell property: the translated, negative
#: and large-magnitude kinds put cell boundaries where ``k·ε`` is not
#: representable, which is where a re-derived floor could disagree.
CELL_KINDS = ("uniform", "translated", "negative", "large", "boundary")


def _cell_points(kind, n, d, eps, seed):
    rng = np.random.default_rng(seed)
    if kind == "boundary":
        return generate_workload("boundary", n, d, eps, seed).points
    pts = rng.random((n, d))
    if kind == "translated":
        return pts + 1234.5678
    if kind == "negative":
        return -3.0 * pts - 0.7
    if kind == "large":
        return pts * 1e3 + 1e9
    return pts


def _sub_sequences(seq, rng, depth=0):
    """A random descent through the three split rules.

    Yields every child that halving, a random ``split_at`` and
    ``boundary_split_point`` make at each level, recursing into one.
    """
    yield seq
    if len(seq) < 2 or depth > 12:
        return
    children = [seq.first_half(), seq.second_half()]
    children.extend(seq.split_at(int(rng.integers(1, len(seq)))))
    point = seq.boundary_split_point()
    if 0 < point < len(seq):
        children.extend(seq.split_at(point))
    pick = children[int(rng.integers(0, len(children)))]
    yield from _sub_sequences(pick, rng, depth + 1)
    for child in children:
        yield child


class TestCarriedCells:
    def test_cells_computed_when_missing(self, rng):
        s = seq_of(rng.random((9, 3)), 0.3)
        np.testing.assert_array_equal(s.cells, grid_cells(s.points, 0.3))

    def test_supplied_cells_are_used(self, rng):
        ids, pts = ego_sorted(rng.random((6, 2)), 0.5)
        cells = grid_cells(pts, 0.5)
        s = Sequence(ids, pts, 0.5, cells=cells)
        assert s.cells is cells
        assert np.shares_memory(s.first_half().cells, cells)

    def test_rejects_mis_shaped_cells(self, rng):
        ids, pts = ego_sorted(rng.random((6, 2)), 0.5)
        with pytest.raises(ValueError, match="shape"):
            Sequence(ids, pts, 0.5, cells=grid_cells(pts[:5], 0.5))

    def test_empty_slice_rejected(self, rng):
        s = seq_of(rng.random((4, 2)), 0.5)
        with pytest.raises(ValueError):
            s.slice(2, 2)

    @given(st.sampled_from(CELL_KINDS), st.integers(2, 120),
           st.integers(1, 4), st.sampled_from((0.05, 0.1, 0.3, 1.0 / 3)),
           st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_sub_sequence_cells_match_points(self, kind, n, d, eps, seed):
        pts = _cell_points(kind, n, d, eps, seed)
        ids, pts = ego_sorted(pts, eps)
        rng = np.random.default_rng(seed)
        root = Sequence(ids, pts, eps)
        subs = list(_sub_sequences(root, rng))
        for sub in subs:
            np.testing.assert_array_equal(sub.cells,
                                          grid_cells(sub.points, eps))
            np.testing.assert_array_equal(sub.first_cells,
                                          grid_cells(sub.points[0], eps))
            np.testing.assert_array_equal(sub.last_cells,
                                          grid_cells(sub.points[-1], eps))
        for s, t in zip(subs, subs[1:] + subs[:1]):
            wdim = t.active_dimension()
            if wdim is None:
                continue
            plain = candidate_windows(s.points, t.points, wdim, eps)
            carried = candidate_windows(s.points, t.points, wdim, eps,
                                        cells_a=s.cells[:, wdim],
                                        cells_b=t.cells[:, wdim])
            np.testing.assert_array_equal(plain[0], carried[0])
            np.testing.assert_array_equal(plain[1], carried[1])
