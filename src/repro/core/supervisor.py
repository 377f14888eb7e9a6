"""Resilient supervisor for the parallel unit-pair join.

This is the external pipeline's only parallel executor
(``ego_self_join_file(..., workers=k)``).  A bare process pool assumes
every worker succeeds: one crashed process breaks the whole pool, one
hung worker deadlocks the merge loop, and a corrupted result would be
folded into the output silently.  For a join that is supposed to run
for hours over massive data, per-task fault tolerance is the missing
substrate.  This module provides it, as the codebase's one retry
ladder:

* **bounded retries with deterministic backoff** — a failed task is
  resubmitted up to ``max_task_retries`` times; the backoff before each
  retry is a pure function of ``(seed, task key, attempt)``, so the
  recorded backoff totals (and every other supervisor metric) are
  byte-identical across runs and contain no wall-clock;
* **per-task deadlines with hung-worker detection** — the merge loop
  waits on the head-of-line result with a deadline; on expiry the pool
  (which still holds the hung worker) is killed and recycled, pending
  tasks are resubmitted, and the stalled task is retried;
* **result digests** — every worker returns a CRC digest of its pair
  batch, recomputed by the parent; a mismatch (bit-flip in transit, a
  mis-merged buffer) is treated as a task fault and retried, never
  merged;
* **poisoned-task quarantine** — a task that keeps failing is retried
  once *inline* in the parent under the runtime invariant monitor
  (:mod:`repro.verify.invariants`).  Success means the failures were
  environment faults and the join continues; failure means the task
  itself is bad (a data bug) and :class:`TaskPoisonedError` aborts the
  run — retrying a data bug forever would only hide it;
* **graceful degradation** — when pool recycles exceed
  ``max_pool_recycles`` the supervisor stops trusting process pools
  altogether and drains every remaining task inline, serially.  The
  join *completes*, exactly, with ``stats.degraded`` set — the caller
  (and the CLI via exit code 3) reports the degradation instead of the
  user losing hours of work to an executor bug.

Results are merged strictly in submission order, so the emitted
pair stream — durable pair file bytes, journal watermarks, metrics merge
order — remains byte-identical to the serial join no matter which
faults fired.

Every supervisor decision is deterministic given a
:class:`~repro.storage.faults.WorkerFaultPlan` (wall-clock is used only
to *detect* hangs, never recorded), and each decision is reported
through a ``decision_hook`` so the crash/resume journal can replay the
decisions of completed unit pairs: a resumed run seeds its counters
from the journal, re-executes only unfinished pairs (whose faults
re-fire identically), and ends with the same totals as an uninterrupted
run.
"""

from __future__ import annotations

import os
import time
import zlib
from concurrent.futures import (BrokenExecutor, CancelledError,
                                ProcessPoolExecutor)
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry, ensure_metrics
from ..storage.faults import (InjectedTaskError, WorkerFaultPlan,
                              stable_fraction)
from ..storage.stats import CPUCounters
from .result import JoinResult
from .sequence_join import JoinContext, join_point_blocks


class SupervisorError(RuntimeError):
    """Base class of unrecoverable supervisor failures."""


class TaskPoisonedError(SupervisorError):
    """A task failed its quarantine retry: the task itself is bad.

    The inline retry runs in the parent process under the invariant
    monitor, so an environment fault (dead worker, bad pool) cannot
    cause it — a failure here reproduces with no pool involved at all,
    which is the signature of a data/algorithm bug.  Retrying further
    would loop forever on the same bug, so the join aborts.
    """

    def __init__(self, key: Tuple[int, int], cause: BaseException) -> None:
        super().__init__(
            f"unit pair {key} failed its inline quarantine retry "
            f"({type(cause).__name__}: {cause}); this reproduces without "
            f"a worker pool, so it is a task bug, not an environment "
            f"fault")
        self.key = key
        self.cause = cause


class PoolFailureError(SupervisorError):
    """The worker pool kept failing and degradation was disabled."""


@dataclass
class SupervisorPolicy:
    """Tunable fault-tolerance policy of a :class:`SupervisedUnitJoiner`.

    ``task_timeout`` is the merge-wait deadline in *real* seconds: how
    long the parent will wait on the oldest outstanding task before
    declaring its worker hung.  It is the only wall-clock quantity in
    the supervisor, used for detection only — nothing derived from it is
    recorded.  ``None`` disables hang detection (a genuinely hung worker
    then blocks the merge forever).

    ``backoff`` before retry ``k`` of a task is
    ``backoff_base_s · backoff_factor^(k-1) · (0.5 + u)`` with ``u``
    a stable hash of ``(backoff_seed, key, k)`` — deterministic jitter,
    no RNG state.  The *simulated* total is always recorded;
    ``real_sleep`` controls whether the parent also sleeps it (capped at
    ``max_sleep_s``), which production wants and tests turn off.
    """

    task_timeout: Optional[float] = None
    max_task_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_seed: int = 0
    max_pool_recycles: int = 3
    degrade: bool = True
    real_sleep: bool = True
    max_sleep_s: float = 1.0

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0.0:
            raise ValueError(
                f"task_timeout must be positive or None, "
                f"got {self.task_timeout}")
        if self.max_task_retries < 0:
            raise ValueError(
                f"max_task_retries must be >= 0, "
                f"got {self.max_task_retries}")
        if self.max_pool_recycles < 0:
            raise ValueError(
                f"max_pool_recycles must be >= 0, "
                f"got {self.max_pool_recycles}")
        if self.backoff_base_s < 0.0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base_s must be >= 0 and "
                             "backoff_factor >= 1")
        if self.max_sleep_s < 0.0:
            raise ValueError(
                f"max_sleep_s must be >= 0, got {self.max_sleep_s}")


def backoff_for(policy: SupervisorPolicy, key: Tuple[int, int],
                attempt: int) -> float:
    """Deterministic backoff (simulated seconds) before retry ``attempt``."""
    attempt = max(1, int(attempt))
    base = policy.backoff_base_s * policy.backoff_factor ** (attempt - 1)
    jitter = stable_fraction(policy.backoff_seed, "backoff",
                             key[0], key[1], attempt)
    return base * (0.5 + jitter)


#: Decision kinds journaled per event.  ``error``/``corrupt``/
#: ``timeout``/``crash`` are blamed-task retries (each adds one retry
#: plus its cause counter plus backoff); the rest are one-shot markers.
RETRY_KINDS: Tuple[str, ...] = ("error", "corrupt", "timeout", "crash")
EVENT_KINDS: Tuple[str, ...] = RETRY_KINDS + (
    "pool_recycle", "quarantine", "degrade", "inline")

_RETRY_STAT = {"error": "task_errors", "corrupt": "corrupt_results",
               "timeout": "timeouts", "crash": "crashes_detected"}


@dataclass
class SupervisorStats:
    """Deterministic accounting of one supervised join run.

    Every field is a pure function of the workload and the fault plan —
    wall-clock never enters (``backoff_simulated_s`` is the *scheduled*
    backoff, not time slept) — so two runs of the same seeded plan, or
    a crashed run plus its resume, report identical stats.
    """

    retries: int = 0
    task_errors: int = 0
    corrupt_results: int = 0
    timeouts: int = 0
    crashes_detected: int = 0
    pool_recycles: int = 0
    quarantined: int = 0
    inline_tasks: int = 0
    degraded: bool = False
    backoff_simulated_s: float = 0.0

    @property
    def faults_survived(self) -> int:
        """Total blamed-task failures the run recovered from."""
        return self.retries

    def apply_event(self, kind: str, key: Tuple[int, int], attempt: int,
                    policy: SupervisorPolicy) -> None:
        """Fold one journaled decision event into the counters."""
        if kind in RETRY_KINDS:
            self.retries += 1
            setattr(self, _RETRY_STAT[kind],
                    getattr(self, _RETRY_STAT[kind]) + 1)
            self.backoff_simulated_s += backoff_for(policy, key, attempt)
        elif kind == "pool_recycle":
            self.pool_recycles += 1
        elif kind == "quarantine":
            self.quarantined += 1
        elif kind == "degrade":
            self.degraded = True
        elif kind == "inline":
            self.inline_tasks += 1
        else:
            raise ValueError(f"unknown supervisor event kind {kind!r}")


def replay_stats(events: Iterable[Tuple[str, int, int, int]],
                 policy: SupervisorPolicy) -> SupervisorStats:
    """Reconstruct :class:`SupervisorStats` from journaled events."""
    stats = SupervisorStats()
    for kind, a, b, attempt in events:
        stats.apply_event(kind, (a, b), attempt, policy)
    return stats


# -- worker side ------------------------------------------------------------


#: Per-process state installed by :func:`_init_unit_worker`: the
#: :class:`JoinContext` keyword arguments, result/metrics collection
#: flags and the run's worker fault plan.
_UNIT_STATE: dict = {}


def _init_unit_worker(ctx_kwargs: dict, collect_distances: bool,
                      collect_metrics: bool,
                      worker_plan: Optional[WorkerFaultPlan]) -> None:
    _UNIT_STATE.update(ctx_kwargs=ctx_kwargs,
                       collect_distances=collect_distances,
                       collect_metrics=collect_metrics,
                       worker_plan=worker_plan)


def _run_unit_pair(payload: tuple, collect_distances: bool, **ctx_kwargs):
    """Join one loaded unit pair into a fresh result.

    ``payload`` is ``(ids_a, pts_a, ids_b, pts_b)``; ``ids_b is None``
    marks the self-join of one unit with itself.  Returns the pair batch
    (in the deterministic recursion order of the serial join), optional
    distances and this task's CPU-counter deltas, for the parent to
    merge in submission order.  Workers and the parent's inline retries
    both join through here, so every rung of the ladder runs the same
    kernel.
    """
    ids_a, pts_a, ids_b, pts_b = payload
    cpu = CPUCounters()
    result = JoinResult(materialize=True,
                        collect_distances=collect_distances)
    ctx = JoinContext(result=result, cpu=cpu, **ctx_kwargs)
    if ids_b is None:
        join_point_blocks(ids_a, pts_a, ids_a, pts_a, ctx, same_block=True)
    else:
        join_point_blocks(ids_a, pts_a, ids_b, pts_b, ctx)
    out_a, out_b = result.pairs()
    dists = result.distances() if collect_distances else None
    return out_a, out_b, dists, cpu


def _result_digest(out_a: np.ndarray, out_b: np.ndarray,
                   dists: Optional[np.ndarray]) -> int:
    """CRC32 digest of one task's result batch (order-sensitive)."""
    h = zlib.crc32(np.ascontiguousarray(out_a).tobytes())
    h = zlib.crc32(np.ascontiguousarray(out_b).tobytes(), h)
    if dists is not None:
        h = zlib.crc32(np.ascontiguousarray(dists).tobytes(), h)
    return h


def _run_supervised_task(key: Tuple[int, int], attempt: int,
                         payload: tuple):
    """Worker entry point: fault adjudication, the join, and a digest.

    Returns ``(out_a, out_b, dists, cpu, metrics_data, digest)``.  The
    digest is computed *before* any injected corruption, so a corrupted
    batch always mismatches in the parent.
    """
    plan: Optional[WorkerFaultPlan] = _UNIT_STATE["worker_plan"]
    fault = plan.decide(key, attempt) if plan is not None else None
    if fault == "crash":
        # A hard exit, not an exception: the parent must see a broken
        # pool, exactly as a real segfault/OOM kill would present.
        os._exit(17)
    if fault == "stall":
        time.sleep(plan.stall_seconds)
    elif fault == "error":
        raise InjectedTaskError(
            f"injected task error for unit pair {key} attempt {attempt}")
    metrics = MetricsRegistry() if _UNIT_STATE["collect_metrics"] else None
    out_a, out_b, dists, cpu = _run_unit_pair(
        payload, _UNIT_STATE["collect_distances"], metrics=metrics,
        **_UNIT_STATE["ctx_kwargs"])
    metrics_data = metrics.collect() if metrics is not None else None
    digest = _result_digest(out_a, out_b, dists)
    if fault == "corrupt":
        if out_a.size:
            out_a = out_a.copy()
            view = out_a.view(np.uint8)
            pos = int(stable_fraction(plan.seed, "pos", *key)
                      * len(view)) % len(view)
            view[pos] ^= 1 << int(
                stable_fraction(plan.seed, "bit", *key) * 8) % 8
        else:
            digest ^= 1  # empty batch: corrupt the digest itself
    return out_a, out_b, dists, cpu, metrics_data, digest


# -- parent side ------------------------------------------------------------


class _Task:
    """One submitted unit pair, retained until merged (for resubmission)."""

    __slots__ = ("index", "key", "payload", "on_complete", "future",
                 "attempt", "quarantined")

    def __init__(self, index: int, key: Tuple[int, int], payload: tuple,
                 on_complete: Optional[Callable[[], None]]) -> None:
        self.index = index
        self.key = key
        self.payload = payload
        self.on_complete = on_complete
        self.future = None
        self.attempt = 0
        self.quarantined = False


class SupervisedUnitJoiner:
    """Joins scheduled unit pairs on a process pool that survives faults.

    Drop-in execution backend for
    :class:`~repro.core.scheduler.EGOScheduler`, with the same
    ``submit`` / ``drain`` / ``close`` protocol as
    :class:`~repro.core.parallel.SerialUnitJoiner`.  The scheduler
    submits each unit pair as its data becomes resident and keeps
    streaming loads; workers compute the pair batches and the parent
    merges them back **in submission order**, so the result stream
    (pair file bytes, journal watermarks, completion callbacks) is
    byte-identical to the serial run.  At most ``4 × workers`` tasks are
    in flight — each holds a copy of its unit arrays — so memory stays
    proportional to the pool size, not the schedule length.  Failures
    walk the retry/deadline/degradation ladder described in the module
    docstring.

    Parameters
    ----------
    ctx:
        The parent join context results are merged into.
    workers:
        Pool size.
    policy:
        :class:`SupervisorPolicy` (defaults are production-safe).
    worker_plan:
        Optional :class:`~repro.storage.faults.WorkerFaultPlan` shipped
        to every worker; also consulted in the parent to attribute pool
        breakage to the task that crashed it.
    decision_hook:
        ``hook(kind, key, attempt)`` called on every live supervisor
        decision — the journal wiring that makes resume replay exact.
    replay_events:
        Journaled ``(kind, a, b, attempt)`` events of *completed* unit
        pairs from a previous incarnation; folded into the stats (and
        metrics) before any new work, so a resumed run's totals match
        the uninterrupted run.  A replayed ``degrade`` event starts the
        joiner in degraded (serial) mode.
    """

    def __init__(self, ctx: JoinContext, workers: int,
                 policy: Optional[SupervisorPolicy] = None,
                 worker_plan: Optional[WorkerFaultPlan] = None,
                 decision_hook: Optional[
                     Callable[[str, Tuple[int, int], int], None]] = None,
                 replay_events: Iterable[
                     Tuple[str, int, int, int]] = ()) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.ctx = ctx
        self.workers = workers
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.worker_plan = worker_plan
        self.max_pending = workers * 4
        self.stats = SupervisorStats()
        self._decision_hook = decision_hook
        self._metrics = ensure_metrics(getattr(ctx, "metrics", None))
        self._m_events = None  # registered lazily: a fault-free run's
        self._m_degraded = None  # metrics dump must match the serial one
        metric = ctx.metric if ctx.metric.name != "euclidean" else None
        self._ctx_kwargs = dict(
            epsilon=ctx.epsilon, minlen=ctx.minlen, engine=ctx.engine,
            order_dimensions=ctx.order_dimensions, metric=metric,
            grid_epsilon=ctx.grid_epsilon, split_strategy=ctx.split_strategy)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._degraded = False
        self._next_submit = 0
        self._next_emit = 0
        self._pending: Dict[int, _Task] = {}
        for kind, a, b, attempt in replay_events:
            self._record(kind, (a, b), attempt, replay=True)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "SupervisedUnitJoiner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_unit_worker,
            initargs=(self._ctx_kwargs, self.ctx.result.collect_distances,
                      bool(self._metrics.enabled), self.worker_plan))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting on (possibly hung) workers."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # Terminate worker processes first: shutdown() never kills, and
        # the interpreter's atexit hook would otherwise join a stalled
        # worker for the full length of its hang.
        for proc in list((getattr(pool, "_processes", None) or {})
                         .values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Release the pool; never blocks on hung or abandoned workers."""
        if self._m_events is not None:
            # Events fired: publish the run's backoff total.  Registered
            # lazily like the event counter, so a fault-free run's
            # metrics dump stays byte-identical to the serial one.
            self._metrics.gauge(
                "ego_supervisor_backoff_simulated_seconds",
                "Deterministic (scheduled) retry backoff total",
                unit="s").set(round(self.stats.backoff_simulated_s, 9))
        if self._pool is None:
            return
        if not self._pending:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True, cancel_futures=True)
        else:
            # Exception path: tasks still in flight.  Kill, don't wait —
            # a hung worker must not turn an error into a deadlock.
            self._kill_pool()

    # -- bookkeeping --------------------------------------------------------

    def _metric_events(self):
        if self._m_events is None:
            self._m_events = self._metrics.counter(
                "ego_supervisor_events_total",
                "Supervisor fault-handling decisions, by kind",
                labelnames=("event",))
        return self._m_events

    def _record(self, kind: str, key: Tuple[int, int], attempt: int,
                replay: bool = False) -> None:
        """One supervisor decision: stats, metrics, journal, mode flips."""
        self.stats.apply_event(kind, key, attempt, self.policy)
        self._metric_events().labels(kind).inc()
        if kind == "degrade":
            self._degraded = True
            if self._m_degraded is None:
                self._m_degraded = self._metrics.gauge(
                    "ego_supervisor_degraded",
                    "1 when the run finished in degraded (serial) mode")
            self._m_degraded.set(1)
        if not replay and self._decision_hook is not None:
            self._decision_hook(kind, key, attempt)

    def _bump(self, task: _Task, kind: str) -> None:
        """Blame ``task`` for one failure of ``kind`` and plan its retry."""
        task.attempt += 1
        if self.worker_plan is not None:
            self.worker_plan.record(
                {"error": "error", "corrupt": "corrupt",
                 "timeout": "stall", "crash": "crash"}[kind])
        self._record(kind, task.key, task.attempt)
        if task.attempt > self.policy.max_task_retries:
            task.quarantined = True
            self._record("quarantine", task.key, task.attempt)
            return
        if self.policy.real_sleep and self.policy.backoff_base_s > 0.0:
            time.sleep(min(backoff_for(self.policy, task.key, task.attempt),
                           self.policy.max_sleep_s))

    # -- submission and merging ---------------------------------------------

    def submit(self, ids_a: np.ndarray, pts_a: np.ndarray,
               ids_b: Optional[np.ndarray], pts_b: Optional[np.ndarray],
               on_complete: Optional[Callable[[], None]] = None,
               key: Optional[Tuple[int, int]] = None,
               cells_a: Optional[np.ndarray] = None,
               cells_b: Optional[np.ndarray] = None) -> None:
        """Queue one unit pair; merges any in-order results that are ready.

        ``key`` identifies the unit pair across runs (the scheduler
        passes its unit ordinals); it keys fault decisions, backoff
        jitter, and the journal's decision log.  The units' cells are
        not shipped to workers, which compute them once per block.
        """
        if key is None:
            key = (-1 - self._next_submit, -1 - self._next_submit)
        task = _Task(self._next_submit, (int(key[0]), int(key[1])),
                     (ids_a, pts_a, ids_b, pts_b), on_complete)
        self._pending[task.index] = task
        self._next_submit += 1
        if self._degraded:
            self._advance(block=True)
            return
        self._submit_task(task)
        self._advance(block=len(self._pending) >= self.max_pending)

    def _submit_task(self, task: _Task) -> bool:
        """Ship ``task`` to the pool; ``False`` leaves it unsubmitted.

        The pool can be broken *at submission time* — a previously
        submitted task's injected (or real) crash lands asynchronously.
        The task is then left with no future and the breakage is handled
        when it reaches the head of the merge order, where the blame /
        recycle ladder runs.
        """
        task.future = None
        try:
            task.future = self._ensure_pool().submit(
                _run_supervised_task, task.key, task.attempt, task.payload)
            return True
        except BrokenExecutor:
            return False

    def _resubmit_pending(self) -> None:
        """Re-queue every pending task on a fresh pool, oldest first."""
        for index in sorted(self._pending):
            task = self._pending[index]
            if not task.quarantined and not self._submit_task(task):
                # Broken again already; later tasks stay unsubmitted and
                # the head-of-line handler recycles once more.
                break

    def _advance(self, block: bool) -> None:
        """Fold completed results into the context, oldest first.

        Results are only consumed at the head of the submission order; a
        completed task behind a still-running one waits, which is what
        keeps the merged stream deterministic.  All failure handling
        therefore happens at the head too, which serialises supervisor
        decisions into one deterministic order.
        """
        while self._next_emit in self._pending:
            task = self._pending[self._next_emit]
            out = self._obtain(task, block)
            if out is None:
                break
            del self._pending[self._next_emit]
            self._next_emit += 1
            self._merge(task, out)
            block = len(self._pending) >= self.max_pending

    def _obtain(self, task: _Task, block: bool):
        """One merged-result attempt for the head task; None = not ready.

        Loops over the failure ladder: a handled fault leaves ``task``
        resubmitted (or quarantined / the joiner degraded) and the loop
        tries again.  Raises :class:`TaskPoisonedError` or
        :class:`PoolFailureError` when the ladder is exhausted.
        """
        while True:
            if self._degraded or task.quarantined:
                return self._finish_inline(task)
            if task.future is None and not self._submit_task(task):
                self._on_broken_pool(task)
                continue
            fut = task.future
            if not block and not fut.done():
                return None
            try:
                out = fut.result(timeout=self.policy.task_timeout)
            except FuturesTimeout:
                self._on_timeout(task)
                continue
            except (BrokenExecutor, CancelledError):
                self._on_broken_pool(task)
                continue
            except Exception:  # task-level failure in the worker
                self._bump(task, "error")
                task.future = None
                continue
            out, digest = out[:-1], out[-1]
            if _result_digest(out[0], out[1], out[2]) != digest:
                self._bump(task, "corrupt")
                task.future = None
                continue
            return out

    def _on_timeout(self, task: _Task) -> None:
        """Head task missed its merge deadline: the worker is hung."""
        self._bump(task, "timeout")
        self._recycle(task)

    def _on_broken_pool(self, task: _Task) -> None:
        """The pool died under us; blame the crashing task(s) and recycle.

        With a fault plan the blame is exact (the plan is a pure
        function both sides agree on); without one the head task is
        blamed — it is the one whose retry budget should pay.
        """
        blamed: List[_Task] = []
        if self.worker_plan is not None:
            blamed = [t for t in self._pending.values()
                      if not t.quarantined
                      and self.worker_plan.decide(t.key, t.attempt)
                      == "crash"]
        if not blamed:
            blamed = [task]
        for t in sorted(blamed, key=lambda t: t.index):
            self._bump(t, "crash")
        self._recycle(blamed[0])

    def _recycle(self, blamed: _Task) -> None:
        """Replace the pool, or give up on pools entirely (degrade)."""
        self._kill_pool()
        self._record("pool_recycle", blamed.key, blamed.attempt)
        if self.stats.pool_recycles > self.policy.max_pool_recycles:
            if self.policy.degrade:
                self._record("degrade", blamed.key, blamed.attempt)
                return
            raise PoolFailureError(
                f"worker pool failed {self.stats.pool_recycles} times "
                f"(limit {self.policy.max_pool_recycles}) and degradation "
                f"is disabled")
        self._resubmit_pending()

    # -- inline execution (quarantine and degraded mode) --------------------

    def _run_task_inline(self, task: _Task, invariants: bool):
        """Execute one task in the parent, shaped like a worker result."""
        if self.worker_plan is not None \
                and self.worker_plan.decide(task.key, task.attempt) \
                == "error":
            # Only the "error" kind models a fault in the task itself;
            # crash/stall/corrupt are environment faults a pool-free
            # retry deliberately escapes.
            raise InjectedTaskError(
                f"injected task error for unit pair {task.key} "
                f"attempt {task.attempt} (inline)")
        # Metrics are recorded straight into the parent registry (we are
        # at the head of the merge order, so the ordering matches the
        # serial joiner); no snapshot to merge.
        out = _run_unit_pair(task.payload, self.ctx.result.collect_distances,
                             invariants=invariants, metrics=self.ctx.metrics,
                             **self._ctx_kwargs)
        return out + (None,)

    def _finish_inline(self, task: _Task):
        """Drain one task in the parent: the bottom of the ladder.

        Quarantined tasks run under the invariant monitor and are the
        last word: success clears them (environment fault), any failure
        is a :class:`TaskPoisonedError`.  Degraded-mode tasks retry
        through the same blame ladder until they succeed or quarantine.
        """
        while True:
            if task.quarantined:
                try:
                    return self._run_task_inline(task, invariants=True)
                except Exception as exc:
                    raise TaskPoisonedError(task.key, exc) from exc
            try:
                out = self._run_task_inline(task, invariants=False)
            except Exception:
                self._bump(task, "error")
                continue
            self._record("inline", task.key, task.attempt)
            return out

    def _merge(self, task: _Task, out) -> None:
        out_a, out_b, dists, cpu, metrics_data = out
        if self.ctx.cpu is not None:
            for f in dataclass_fields(cpu):
                setattr(self.ctx.cpu, f.name,
                        getattr(self.ctx.cpu, f.name) + getattr(cpu, f.name))
        if metrics_data:
            self.ctx.metrics.merge(metrics_data)
        self.ctx.result.add_batch(out_a, out_b, distances=dists)
        if task.on_complete is not None:
            task.on_complete()

    def drain(self) -> None:
        """Block until every queued unit pair has been merged."""
        while self._pending:
            self._advance(block=True)
