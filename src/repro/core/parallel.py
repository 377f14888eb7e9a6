"""Parallel EGO similarity self-join.

The paper's conclusion names "a parallel version of the EGO join
algorithm" as future work.  The epsilon grid order makes the
parallelisation natural: after sorting, the data is split into
contiguous chunks, and the work decomposes into independent tasks —
one self-join per chunk plus one cross-join per chunk pair whose
ε-intervals overlap (the same Lemma-2/3 test the I/O scheduler uses, so
distant chunk pairs are never scheduled at all).

Tasks run on a process pool: the sorted arrays are shipped to each
worker once (at pool initialisation), tasks are only index ranges, and
workers return id-pair arrays.  With ``workers=1`` everything runs
inline, which the tests use to check the decomposition independently of
the pool.

The external pipeline parallelises at the granularity of the I/O
scheduler's loaded unit pairs instead: :class:`SerialUnitJoiner` here is
its inline reference, and
:class:`~repro.core.supervisor.SupervisedUnitJoiner` joins the same unit
pairs on a fault-tolerant process pool, merging results in submission
order so the pair stream is byte-identical to the serial schedule.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Tuple

import numpy as np

from .ego_order import (ego_sorted, ensure_finite, grid_cells,
                        lex_less, validate_epsilon)
from .result import JoinResult
from .sequence import Sequence
from .sequence_join import JoinContext, join_point_blocks, join_sequences

#: Per-process state installed by the pool initializer.
_WORKER_STATE: dict = {}

Task = Tuple[int, int, int, int, bool]


def _init_worker(ids: np.ndarray, points: np.ndarray, epsilon: float,
                 minlen: Optional[int], engine: str, order_dimensions: bool,
                 metric=None) -> None:
    _WORKER_STATE["ids"] = ids
    _WORKER_STATE["points"] = points
    _WORKER_STATE["epsilon"] = epsilon
    _WORKER_STATE["minlen"] = minlen
    _WORKER_STATE["engine"] = engine
    _WORKER_STATE["order_dimensions"] = order_dimensions
    _WORKER_STATE["metric"] = metric


def _run_task(task: Task) -> Tuple[np.ndarray, np.ndarray]:
    lo_a, hi_a, lo_b, hi_b, same = task
    ids = _WORKER_STATE["ids"]
    pts = _WORKER_STATE["points"]
    eps = _WORKER_STATE["epsilon"]
    result = JoinResult()
    ctx = JoinContext(epsilon=eps, result=result,
                      minlen=_WORKER_STATE["minlen"],
                      engine=_WORKER_STATE["engine"],
                      order_dimensions=_WORKER_STATE["order_dimensions"],
                      metric=_WORKER_STATE.get("metric"))
    seq_a = Sequence(ids[lo_a:hi_a], pts[lo_a:hi_a], eps)
    if same:
        join_sequences(seq_a, seq_a, ctx)
    else:
        seq_b = Sequence(ids[lo_b:hi_b], pts[lo_b:hi_b], eps)
        join_sequences(seq_a, seq_b, ctx)
    return result.pairs()


def chunk_boundaries(n: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``n`` records into up to ``chunks`` contiguous ranges."""
    if chunks < 1:
        raise ValueError("chunks must be at least 1")
    chunks = min(chunks, n) if n else 0
    bounds = np.linspace(0, n, chunks + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1]))
            for i in range(chunks) if bounds[i] < bounds[i + 1]]


def build_tasks(points: np.ndarray, epsilon: float,
                ranges: List[Tuple[int, int]]) -> List[Task]:
    """Self tasks plus the cross tasks with overlapping ε-intervals.

    For EGO-sorted chunks, chunk ``j > i`` is reachable from chunk ``i``
    only while ``last(i) + [ε,…,ε]`` is not below ``first(j)``; the
    chunks are ordered, so the scan per ``i`` stops at the first
    non-overlapping ``j``.
    """
    firsts = [grid_cells(points[lo], epsilon) for lo, _hi in ranges]
    lasts = [grid_cells(points[hi - 1], epsilon) + 1
             for _lo, hi in ranges]
    tasks: List[Task] = []
    for i, (lo_a, hi_a) in enumerate(ranges):
        tasks.append((lo_a, hi_a, lo_a, hi_a, True))
        for j in range(i + 1, len(ranges)):
            if lex_less(lasts[i], firsts[j]):
                break
            lo_b, hi_b = ranges[j]
            tasks.append((lo_a, hi_a, lo_b, hi_b, False))
    return tasks


def ego_self_join_parallel(points: np.ndarray, epsilon: float,
                           ids: Optional[np.ndarray] = None,
                           workers: int = 2,
                           chunks: Optional[int] = None,
                           minlen: Optional[int] = None,
                           engine: str = "vector",
                           order_dimensions: bool = True,
                           result: Optional[JoinResult] = None,
                           metric=None) -> JoinResult:
    """EGO similarity self-join parallelised over a process pool.

    Produces exactly the pairs of :func:`~repro.core.ego_join.ego_self_join`
    (each unordered pair once; order within the result may differ).

    Parameters
    ----------
    workers:
        Pool size; ``1`` executes the same task decomposition inline.
    chunks:
        Number of contiguous chunks of the sorted data (default
        ``4 × workers`` for load balancing).
    """
    validate_epsilon(epsilon)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    pts = ensure_finite(points)
    if result is None:
        result = JoinResult()
    if len(pts) == 0:
        return result
    sorted_ids, sorted_pts = ego_sorted(pts, epsilon, ids)
    if chunks is None:
        chunks = max(1, workers * 4)
    ranges = chunk_boundaries(len(pts), chunks)
    tasks = build_tasks(sorted_pts, epsilon, ranges)

    if workers == 1:
        _init_worker(sorted_ids, sorted_pts, epsilon, minlen, engine,
                     order_dimensions, metric)
        try:
            for task in tasks:
                result.add_batch(*_run_task(task))
        finally:
            _WORKER_STATE.clear()
        return result

    with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(sorted_ids, sorted_pts, epsilon, minlen, engine,
                      order_dimensions, metric)) as pool:
        for ids_a, ids_b in pool.map(_run_task, tasks, chunksize=1):
            result.add_batch(ids_a, ids_b)
    return result


# -- serial unit-pair joiner for the external pipeline ---------------------


class SerialUnitJoiner:
    """Inline unit-pair execution (the reference the pool must match)."""

    def __init__(self, ctx: JoinContext) -> None:
        self.ctx = ctx

    def __enter__(self) -> "SerialUnitJoiner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, ids_a: np.ndarray, pts_a: np.ndarray,
               ids_b: Optional[np.ndarray], pts_b: Optional[np.ndarray],
               on_complete: Optional[Callable[[], None]] = None,
               key: Optional[Tuple[int, int]] = None,
               cells_a: Optional[np.ndarray] = None,
               cells_b: Optional[np.ndarray] = None) -> None:
        """Join one unit pair immediately (``ids_b is None`` = self-pair).

        ``cells_a`` / ``cells_b`` are the units' resident grid cells,
        reused by the join instead of recomputed.
        """
        if ids_b is None:
            join_point_blocks(ids_a, pts_a, ids_a, pts_a, self.ctx,
                              same_block=True, cells_a=cells_a)
        else:
            join_point_blocks(ids_a, pts_a, ids_b, pts_b, self.ctx,
                              cells_a=cells_a, cells_b=cells_b)
        if on_complete is not None:
            on_complete()

    def drain(self) -> None:
        """No queued work in the serial joiner."""

    def close(self) -> None:
        """Nothing to release."""
