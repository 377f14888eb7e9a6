"""Minimum bounding rectangles and distance geometry.

The index-based competitor joins (RSJ, Z-Order-RSJ, MuX) rely on the
*lower bounding property*: the distance between two points is never
smaller than the minimum distance between the MBRs of the pages that
store them [BKS 93].  This module provides the MBR algebra those joins
need, in both scalar and vectorised form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class MBR:
    """An axis-parallel minimum bounding rectangle."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self) -> None:
        low = np.asarray(self.low, dtype=np.float64)
        high = np.asarray(self.high, dtype=np.float64)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        if low.shape != high.shape:
            raise ValueError("low/high shape mismatch")
        if (low > high).any():
            raise ValueError("MBR low bound exceeds high bound")

    @classmethod
    def of_points(cls, points: np.ndarray) -> "MBR":
        """Tightest MBR enclosing a non-empty point set."""
        pts = np.asarray(points, dtype=np.float64)
        if len(pts) == 0:
            raise ValueError("cannot bound an empty point set")
        return cls(pts.min(axis=0), pts.max(axis=0))

    @property
    def dimensions(self) -> int:
        """Dimensionality of the rectangle."""
        return len(self.low)

    @property
    def center(self) -> np.ndarray:
        """Geometric centre of the rectangle."""
        return (self.low + self.high) / 2.0

    def volume(self) -> float:
        """Product of the side lengths."""
        return float(np.prod(self.high - self.low))

    def margin(self) -> float:
        """Sum of the side lengths (the R*-tree margin measure)."""
        return float(np.sum(self.high - self.low))

    def union(self, other: "MBR") -> "MBR":
        """Smallest MBR enclosing both rectangles."""
        return MBR(np.minimum(self.low, other.low),
                   np.maximum(self.high, other.high))

    def contains_point(self, point: np.ndarray) -> bool:
        """True when the point lies inside (boundary included)."""
        p = np.asarray(point, dtype=np.float64)
        return bool((p >= self.low).all() and (p <= self.high).all())

    def intersects(self, other: "MBR") -> bool:
        """True when the rectangles share at least a boundary point."""
        return bool((self.low <= other.high).all()
                    and (other.low <= self.high).all())

    def mindist_sq(self, other: "MBR") -> float:
        """Squared minimum distance between the two rectangles (0 if overlapping)."""
        gap = np.maximum(0.0, np.maximum(self.low - other.high,
                                         other.low - self.high))
        return float(np.dot(gap, gap))

    def mindist_sq_point(self, point: np.ndarray) -> float:
        """Squared minimum distance from the rectangle to a point."""
        p = np.asarray(point, dtype=np.float64)
        gap = np.maximum(0.0, np.maximum(self.low - p, p - self.high))
        return float(np.dot(gap, gap))

    def maxdist_sq_point(self, point: np.ndarray) -> float:
        """Squared maximum distance from the rectangle to a point."""
        p = np.asarray(point, dtype=np.float64)
        far = np.maximum(np.abs(p - self.low), np.abs(p - self.high))
        return float(np.dot(far, far))

    def enlarged(self, radius: float) -> "MBR":
        """The rectangle extended by ``radius`` on every side (Minkowski sum)."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return MBR(self.low - radius, self.high + radius)


def union_all(mbrs: Iterable[MBR]) -> MBR:
    """Smallest MBR enclosing every rectangle of a non-empty iterable."""
    it = iter(mbrs)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("cannot union an empty iterable of MBRs") from None
    for m in it:
        acc = acc.union(m)
    return acc


def mindist_sq_batch(lows_a: np.ndarray, highs_a: np.ndarray,
                     lows_b: np.ndarray, highs_b: np.ndarray) -> np.ndarray:
    """Pairwise squared mindist matrix between two batches of MBRs.

    ``lows_a``/``highs_a`` have shape ``(na, d)``; the result has shape
    ``(na, nb)``.
    """
    gap = np.maximum(
        0.0,
        np.maximum(lows_a[:, None, :] - highs_b[None, :, :],
                   lows_b[None, :, :] - highs_a[:, None, :]))
    return np.einsum("ijk,ijk->ij", gap, gap)


def mindist_sq_point_batch(low: np.ndarray, high: np.ndarray,
                           points: np.ndarray) -> np.ndarray:
    """Squared mindist from one MBR to each point of a batch."""
    gap = np.maximum(0.0, np.maximum(low[None, :] - points,
                                     points - high[None, :]))
    return np.einsum("ij,ij->i", gap, gap)
