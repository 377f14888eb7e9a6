"""Brute-force reference answers the benchmark checks the program against.

Written with numpy alone, sharing no code with the EGO pipeline: a
Gram-matrix pass finds candidates with a generous rounding slack, and
each candidate is then decided on its exact coordinate differences.
"""

from __future__ import annotations

import numpy as np

#: Rows per Gram block (a block is BLOCK x n float64 values).
BLOCK = 512


def self_join_pairs(points: np.ndarray, epsilon: float) -> np.ndarray:
    """Canonical ``(i, j)`` row pairs with ``i < j`` within ``epsilon``.

    Rows are the point ids, as in a point file written without ids.
    """
    pts = np.asarray(points, dtype=np.float64)
    eps2 = epsilon * epsilon
    sq = np.einsum("ij,ij->i", pts, pts)
    found_a, found_b = [], []
    for lo in range(0, len(pts), BLOCK):
        blk = pts[lo:lo + BLOCK]
        rest = pts[lo:]
        gram = sq[lo:lo + BLOCK, None] + sq[None, lo:] - 2.0 * blk @ rest.T
        slack = 1e-9 * (sq[lo:lo + BLOCK, None] + sq[None, lo:] + eps2)
        ia, ib = np.nonzero(gram <= eps2 + slack)
        keep = ib > ia
        ia, ib = ia[keep] + lo, ib[keep] + lo
        diff = pts[ia] - pts[ib]
        exact = np.einsum("ij,ij->i", diff, diff) <= eps2
        found_a.append(ia[exact])
        found_b.append(ib[exact])
    a = np.concatenate(found_a) if found_a else np.empty(0, np.int64)
    b = np.concatenate(found_b) if found_b else np.empty(0, np.int64)
    order = np.lexsort((b, a))
    return np.stack([a[order], b[order]], axis=1).astype(np.int64)


def range_ids(points: np.ndarray, ids: np.ndarray, queries: np.ndarray,
              epsilon: float) -> list:
    """Per query, the sorted ids of the points within ``epsilon``."""
    eps2 = epsilon * epsilon
    out = []
    for q in np.asarray(queries, dtype=np.float64):
        diff = points - q
        hit = np.einsum("ij,ij->i", diff, diff) <= eps2
        out.append(np.sort(ids[hit]))
    return out
