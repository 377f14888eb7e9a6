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

The same decomposition carries into the external pipeline:
:class:`ParallelUnitJoiner` joins the I/O scheduler's loaded unit pairs
on a process pool while the scheduler keeps streaming loads, merging
worker results in task-submission order so the emitted pair stream — and
therefore the durable pair file and the checkpoint journal of a
checkpointed run — is byte-identical to the serial schedule.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import fields as dataclass_fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..storage.stats import CPUCounters
from .ego_order import (ego_sorted, ensure_finite, grid_cells,
                        lex_less, validate_epsilon)
from .result import JoinResult
from .sequence import Sequence
from .sequence_join import (DEFAULT_MINLEN, JoinContext, join_point_blocks,
                            join_sequences)

#: Per-process state installed by the pool initializer.
_WORKER_STATE: dict = {}

Task = Tuple[int, int, int, int, bool]


def _init_worker(ids: np.ndarray, points: np.ndarray, epsilon: float,
                 minlen: int, engine: str, order_dimensions: bool,
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
                           minlen: int = DEFAULT_MINLEN,
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


# -- parallel unit-pair join for the external pipeline ----------------------
#
# ``_init_unit_worker`` / ``_run_unit_pair`` are the per-process seam of
# the external join: the supervised pool (:mod:`repro.core.supervisor`)
# and the shard workers (:mod:`repro.core.shard`) both initialise and
# call them, so every execution mode joins a loaded unit pair with the
# exact same kernel and returns batches in the same deterministic order.

#: Per-process join parameters for unit-pair workers.
_UNIT_STATE: dict = {}


def _init_unit_worker(epsilon: float, minlen: int, engine: str,
                      order_dimensions: bool, metric,
                      grid_epsilon: float, collect_distances: bool,
                      split_strategy: str,
                      collect_metrics: bool = False,
                      batch_points=None, batch_leaves=None) -> None:
    _UNIT_STATE.update(epsilon=epsilon, minlen=minlen, engine=engine,
                       order_dimensions=order_dimensions, metric=metric,
                       grid_epsilon=grid_epsilon,
                       collect_distances=collect_distances,
                       split_strategy=split_strategy,
                       collect_metrics=collect_metrics,
                       batch_points=batch_points,
                       batch_leaves=batch_leaves)


def _run_unit_pair(ids_a: np.ndarray, pts_a: np.ndarray,
                   ids_b: Optional[np.ndarray],
                   pts_b: Optional[np.ndarray]):
    """Join one loaded unit pair in a worker process.

    ``ids_b is None`` marks the self-join of one unit with itself.
    Returns the pair batch (in the deterministic recursion order of the
    serial join), optional distances, this task's CPU-counter deltas,
    and — when the parent collects metrics — a metrics snapshot, all
    for the parent to merge in submission order.
    """
    cpu = CPUCounters()
    metrics = None
    if _UNIT_STATE.get("collect_metrics"):
        from ..obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()
    result = JoinResult(materialize=True,
                        collect_distances=_UNIT_STATE["collect_distances"])
    ctx = JoinContext(epsilon=_UNIT_STATE["epsilon"], result=result,
                      minlen=_UNIT_STATE["minlen"],
                      engine=_UNIT_STATE["engine"],
                      order_dimensions=_UNIT_STATE["order_dimensions"],
                      cpu=cpu, metric=_UNIT_STATE["metric"],
                      grid_epsilon=_UNIT_STATE["grid_epsilon"],
                      split_strategy=_UNIT_STATE["split_strategy"],
                      batch_points=_UNIT_STATE.get("batch_points"),
                      batch_leaves=_UNIT_STATE.get("batch_leaves"),
                      metrics=metrics)
    if ids_b is None:
        join_point_blocks(ids_a, pts_a, ids_a, pts_a, ctx,
                          same_block=True)
    else:
        join_point_blocks(ids_a, pts_a, ids_b, pts_b, ctx)
    out_a, out_b = result.pairs()
    dists = result.distances() if result.collect_distances else None
    metrics_data = metrics.collect() if metrics is not None else None
    return out_a, out_b, dists, cpu, metrics_data


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


class ParallelUnitJoiner:
    """Joins scheduled unit pairs on a process pool, merging in order.

    The I/O scheduler submits each unit pair as its data becomes
    resident and keeps streaming loads; workers compute the pair batches
    and the parent merges them back **in submission order**, so the
    result stream (pair file bytes, journal watermarks, completion
    callbacks) is byte-identical to the serial run.  ``max_pending``
    bounds the number of in-flight tasks — each holds a copy of its unit
    arrays — by blocking submission on the oldest outstanding result,
    which keeps memory proportional to the pool size, not the schedule
    length.
    """

    def __init__(self, ctx: JoinContext, workers: int,
                 max_pending: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.ctx = ctx
        self.workers = workers
        self.max_pending = max_pending if max_pending else workers * 4
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        metric = ctx.metric if ctx.metric.name != "euclidean" else None
        self._pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_unit_worker,
            initargs=(ctx.epsilon, ctx.minlen, ctx.engine,
                      ctx.order_dimensions, metric, ctx.grid_epsilon,
                      ctx.result.collect_distances, ctx.split_strategy,
                      bool(ctx.metrics.enabled),
                      ctx.batch_points, ctx.batch_leaves))
        self._next_submit = 0
        self._next_emit = 0
        self._pending: Dict[int, Tuple[Future,
                                       Optional[Callable[[], None]]]] = {}

    def __enter__(self) -> "ParallelUnitJoiner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, ids_a: np.ndarray, pts_a: np.ndarray,
               ids_b: Optional[np.ndarray], pts_b: Optional[np.ndarray],
               on_complete: Optional[Callable[[], None]] = None,
               key: Optional[Tuple[int, int]] = None,
               cells_a: Optional[np.ndarray] = None,
               cells_b: Optional[np.ndarray] = None) -> None:
        """Queue one unit pair; emits any results that are ready in order.

        Cells are not shipped: pickling them would double each task's
        payload, and the worker computes them once per block anyway.
        """
        fut = self._pool.submit(_run_unit_pair, ids_a, pts_a, ids_b, pts_b)
        self._pending[self._next_submit] = (fut, on_complete)
        self._next_submit += 1
        self._emit_ready(block=len(self._pending) >= self.max_pending)

    def _emit_ready(self, block: bool = False) -> None:
        """Fold completed results into the context, oldest first.

        Results are only ever consumed at the head of the submission
        order; a completed task behind a still-running one waits, which
        is what makes the merged stream deterministic.
        """
        while self._next_emit in self._pending:
            fut, on_complete = self._pending[self._next_emit]
            if not (block or fut.done()):
                break
            ids_a, ids_b, dists, cpu, metrics_data = fut.result()
            del self._pending[self._next_emit]
            self._next_emit += 1
            if self.ctx.cpu is not None:
                for f in dataclass_fields(cpu):
                    setattr(self.ctx.cpu, f.name,
                            getattr(self.ctx.cpu, f.name)
                            + getattr(cpu, f.name))
            # Worker metric deltas fold in submission order, the same
            # order the serial joiner records them inline — counters and
            # histograms are additive, so the merged registry is
            # identical whichever workers computed the deltas.
            if metrics_data:
                self.ctx.metrics.merge(metrics_data)
            self.ctx.result.add_batch(ids_a, ids_b, distances=dists)
            if on_complete is not None:
                on_complete()
            block = len(self._pending) >= self.max_pending

    def drain(self) -> None:
        """Block until every queued unit pair has been merged."""
        while self._pending:
            self._emit_ready(block=True)

    def close(self) -> None:
        """Shut the pool down, abandoning any not-yet-started tasks."""
        self._pool.shutdown(wait=True, cancel_futures=True)
