"""Sharded, skew-adaptive execution of the external EGO join.

The external pipeline of :func:`~repro.core.ego_join.ego_self_join_file`
runs one scheduler against one simulated disk; every unit-pair join is
serialised behind that single process.  This module splits the join into
**shards**: contiguous ranges of I/O units, each joined in its own
worker process against a private disk (any
:mod:`~repro.storage.backend` backend) and buffer pool, with the parent
merging the per-shard pair streams back into one output that is
**byte-identical** to the serial run.

How the decomposition stays exact
---------------------------------

1. **The planning pass is the real schedule.**  The parent runs the
   ordinary :class:`~repro.core.scheduler.EGOScheduler` over the sorted
   file with a :class:`PlanningJoiner` that records each submitted unit
   pair as an ordered *event* ``(seq, a, b)`` instead of joining it.
   Every load, skip, eviction and pressure reaction happens exactly as
   in the serial run — so the parent's I/O counters, simulated clock
   and :class:`~repro.core.scheduler.ScheduleStats` are the serial
   run's, and resumed pairs (``pair_done``) are excluded from the event
   list just as the serial scheduler skips them.
2. **Unidirectional ownership.**  Every event ``(a, b)`` with
   ``a ≤ b`` is owned by the shard containing unit ``b`` (the
   higher ordinal).  Lemma 2/3 bound ``a`` to ``b``'s ε-interval, so a
   shard needs only its own units plus a contiguous *fringe* of earlier
   units — and because ownership is a function of ``b`` alone, no pair
   is ever computed by two shards.
3. **Deterministic merge.**  Workers return each event's pair batch
   (computed by the same :func:`~repro.core.parallel._run_unit_pair`
   the parallel joiner uses) tagged with its global sequence id.  The
   parent merges strictly in sequence order — crabstep windows that
   straddle a shard boundary interleave events of adjacent shards, so
   concatenating shards would reorder pairs — folding CPU counters,
   worker metrics, the pair batch and the ``pair_complete`` checkpoint
   hook in exactly the order the serial joiner fires them.

Skew-adaptive planning
----------------------

Candidate volume per event is estimated as ``n_a · n_b`` from the
per-unit record counts the planning pass collects; the per-unit cost is
the sum over owned events.  The ``uniform`` policy cuts the ordinal
range into equal-count shards; the ``adaptive`` policy balances shards
by prefix-sum cost and recursively re-splits any shard whose cost
exceeds ~1.5× the target, preferring cut points that fall on ε-cell
boundaries (where the grid cell changes between consecutive units), up
to twice the requested shard count.  On skewed data this moves the
heavy ε-cells into their own shards; on uniform data it degenerates to
the uniform plan.

Fault tolerance
---------------

Workers consult the run's
:class:`~repro.storage.faults.WorkerFaultPlan` per event with the same
crash/stall/corrupt/error semantics as the supervised pool
(:mod:`repro.core.supervisor`), and every result batch carries a CRC
digest recomputed by the parent.  A failed or corrupted shard is
retried whole (its attempt number advances, so seeded faults stop
firing), hung pools are killed and recycled, and when the retry budget
of :class:`~repro.core.supervisor.SupervisorPolicy` is exhausted the
shard is executed inline in the parent (``degrade=True``) or the run
aborts with :class:`~repro.core.supervisor.PoolFailureError`.  Because
merging happens only after a shard's digests verify, no fault can leak
a wrong or duplicated pair into the output.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (BrokenExecutor, CancelledError,
                                ProcessPoolExecutor)
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.metrics import ensure_metrics
from ..obs.trace import ensure_tracer
from ..storage.backend import get_backend
from ..storage.buffer import BufferPool, BufferStats
from ..storage.faults import InjectedTaskError, WorkerFaultPlan, stable_fraction
from ..storage.pagefile import PointFile
from ..storage.records import RecordCodec
from ..storage.stats import IOCounters
from .parallel import _UNIT_STATE, _init_unit_worker, _run_unit_pair
from .scheduler import EGOScheduler, ScheduleStats
from .sequence_join import JoinContext
from .supervisor import (PoolFailureError, SupervisorPolicy,
                         _init_supervised_worker, backoff_for, result_digest)

#: Valid ``--shard-policy`` values.
SHARD_POLICIES: Tuple[str, ...] = ("uniform", "adaptive")

#: A shard whose predicted cost exceeds this multiple of the balanced
#: target is recursively re-split (adaptive policy).
OVERSIZE_FACTOR = 1.5


@dataclass(frozen=True)
class UnitPairEvent:
    """One unit-pair join the schedule would perform, in schedule order.

    ``seq`` is the global submission index (the merge key); ``a ≤ b``
    are unit ordinals (``a == b`` marks a unit's self-join).  The owner
    of the event is the shard containing ``b``.
    """

    seq: int
    a: int
    b: int

    @property
    def self_pair(self) -> bool:
        return self.a == self.b


class PlanningJoiner:
    """A unit joiner that records the schedule instead of executing it.

    Implements the ``submit`` / ``drain`` / ``close`` protocol of
    :class:`~repro.core.parallel.SerialUnitJoiner`, so the real
    scheduler runs unmodified — every I/O decision, counter and stat is
    the serial run's — while the unit pairs it would join are captured
    as ordered :class:`UnitPairEvent`\\ s for the shard planner.
    """

    def __init__(self) -> None:
        self.events: List[UnitPairEvent] = []

    def __enter__(self) -> "PlanningJoiner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(self, ids_a, pts_a, ids_b, pts_b, on_complete=None,
               key=None, cells_a=None, cells_b=None) -> None:
        # The scheduler always passes the lower ordinal's arrays first
        # and key=(min, max), so the key alone reconstructs the call.
        a, b = int(key[0]), int(key[1])
        self.events.append(UnitPairEvent(len(self.events), a, b))

    def drain(self) -> None:
        """Nothing in flight: events are recorded synchronously."""

    def close(self) -> None:
        """Nothing to release."""


@dataclass
class ShardSpec:
    """One planned shard: an owned ordinal range plus its fringe.

    The shard owns units ``[own_lo, own_hi)`` and every event whose
    higher ordinal falls in that range; ``fringe_lo`` extends the
    range downward to the earliest partner unit those events reference
    (``fringe_lo == own_lo`` when no event crosses the lower boundary).
    """

    index: int
    own_lo: int
    own_hi: int
    fringe_lo: int
    events: List[UnitPairEvent] = field(default_factory=list)
    cost: int = 0

    @property
    def units(self) -> int:
        return self.own_hi - self.own_lo

    @property
    def fringe_units(self) -> int:
        return self.own_lo - self.fringe_lo


@dataclass
class ShardStats:
    """Execution accounting of one shard (surfaced on the report)."""

    shard: int
    units: int
    fringe_units: int
    fringe_pages: int = 0
    events: int = 0
    pairs: int = 0
    cost: int = 0
    retries: int = 0
    degraded: bool = False
    backend: str = "simulated"
    io: IOCounters = field(default_factory=IOCounters)
    buffer: BufferStats = field(default_factory=BufferStats)
    simulated_io_time_s: float = 0.0


def event_cost(event: UnitPairEvent, unit_records: Dict[int, int]) -> int:
    """Predicted candidate volume of one unit-pair join.

    The ε-interval metadata admitted the pair, so the candidate set is
    modelled as the full cross product ``n_a · n_b`` (half for a
    self-join: unordered pairs) — cheap, monotone in the true work, and
    exactly the quantity that diverges on skewed data.
    """
    n_a = unit_records.get(event.a, 0)
    if event.self_pair:
        return (n_a * max(0, n_a - 1)) // 2
    return n_a * unit_records.get(event.b, 0)


def _unit_costs(num_units: int, events: List[UnitPairEvent],
                unit_records: Dict[int, int]) -> np.ndarray:
    costs = np.zeros(num_units, dtype=np.int64)
    for ev in events:
        costs[ev.b] += event_cost(ev, unit_records)
    return costs


def _greedy_cuts(costs: np.ndarray, shards: int) -> List[int]:
    """Contiguous cost-balanced boundaries by prefix-sum walk."""
    n = len(costs)
    total = int(costs.sum())
    target = total / shards if shards else total
    bounds = [0]
    acc = 0
    for u in range(n):
        acc += int(costs[u])
        cuts_left = shards - len(bounds)
        units_left = n - (u + 1)
        if cuts_left > 0 and units_left >= cuts_left and acc >= target:
            bounds.append(u + 1)
            acc = 0
    bounds.append(n)
    return sorted(set(bounds))


def _is_cell_boundary(meta, u: int) -> bool:
    """True when the ε-grid cell changes between units ``u-1`` and ``u``."""
    a = meta.get(u - 1) if meta else None
    b = meta.get(u) if meta else None
    if a is None or b is None:
        return True
    return not np.array_equal(a.last_cells, b.first_cells)


def _split_oversized(bounds: List[int], costs: np.ndarray, target: float,
                     max_shards: int, meta) -> List[int]:
    """Recursively cut shards costing more than ``OVERSIZE_FACTOR×target``.

    Cut points are chosen to halve the shard's cost, preferring
    positions on ε-cell boundaries (splitting inside a cell would put
    the two halves of one heavy cell in different shards and every
    cross pair on the fringe); when the whole shard sits inside one
    cell, the best interior position is used instead.
    """
    prefix = np.concatenate([[0], np.cumsum(costs)])
    changed = True
    while changed and len(bounds) - 1 < max_shards:
        changed = False
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            cost = int(prefix[hi] - prefix[lo])
            if hi - lo < 2 or cost <= OVERSIZE_FACTOR * target:
                continue
            half = prefix[lo] + cost / 2
            interior = range(lo + 1, hi)
            candidates = [c for c in interior if _is_cell_boundary(meta, c)]
            if not candidates:
                candidates = list(interior)
            cut = min(candidates, key=lambda c: abs(prefix[c] - half))
            bounds.insert(i + 1, cut)
            changed = True
            break
    return bounds


def plan_shards(num_units: int, events: List[UnitPairEvent],
                unit_records: Dict[int, int], shards: int,
                policy: str = "adaptive", meta=None) -> List[ShardSpec]:
    """Partition the unit ordinals into shards and assign their events.

    ``uniform`` cuts the ordinal range into equal-unit-count shards;
    ``adaptive`` balances by predicted candidate volume and re-splits
    oversized shards at ε-cell boundaries (up to ``2×shards``).  Every
    event lands in exactly one shard — the one owning its higher
    ordinal — so the union of the shards' pair streams is exactly the
    serial schedule's.
    """
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    if policy not in SHARD_POLICIES:
        raise ValueError(f"unknown shard policy {policy!r}; "
                         f"choose from {SHARD_POLICIES}")
    if num_units == 0:
        return []
    shards = min(shards, num_units)
    if policy == "uniform" or shards == 1:
        bounds = sorted(set(
            int(b) for b in np.linspace(0, num_units, shards + 1)))
    else:
        costs = _unit_costs(num_units, events, unit_records)
        bounds = _greedy_cuts(costs, shards)
        target = int(costs.sum()) / shards
        bounds = _split_oversized(bounds, costs, target,
                                  min(num_units, 2 * shards), meta)
    specs = [ShardSpec(index=i, own_lo=bounds[i], own_hi=bounds[i + 1],
                       fringe_lo=bounds[i])
             for i in range(len(bounds) - 1)]
    starts = [s.own_lo for s in specs]
    for ev in events:
        idx = int(np.searchsorted(starts, ev.b, side="right")) - 1
        spec = specs[idx]
        spec.events.append(ev)
        spec.cost += event_cost(ev, unit_records)
        if ev.a < spec.fringe_lo:
            spec.fringe_lo = ev.a
    return specs


# -- worker side ------------------------------------------------------------


def _run_shard(task: dict):
    """Join one shard's events in a worker process.

    The worker copies its record region from the sorted file's backing
    path onto a private backend disk, then replays its owned events
    through a local buffer pool — the same
    :func:`~repro.core.parallel._run_unit_pair` kernel the parallel
    joiner uses, so each event's batch is byte-identical to the serial
    join of that unit pair.  Faults are adjudicated per event from the
    worker plan installed by the pool initializer, with the same
    semantics as the supervised pool.
    """
    plan: Optional[WorkerFaultPlan] = _UNIT_STATE.get("worker_plan")
    attempt = task["attempt"]
    codec = RecordCodec(task["dimensions"])
    rec = codec.record_bytes
    backend = get_backend(task["backend"])
    disk = backend.create_disk()
    try:
        with open(task["path"], "rb") as fh:
            fh.seek(task["data_start"] + task["base_first"] * rec)
            raw = fh.read(task["base_count"] * rec)
        disk.write(0, raw)
        local = PointFile(disk, codec, count=task["base_count"],
                          data_start=0)
        ranges = {ordinal: (first, count)
                  for ordinal, first, count in task["units"]}
        own_lo = task["own_lo"]
        fringe_loads = [0]

        def loader(ordinal: int):
            if ordinal < own_lo:
                fringe_loads[0] += 1
            first, count = ranges[ordinal]
            return local.read_range(first, count)

        pool: BufferPool[int, tuple] = BufferPool(task["buffer_units"],
                                                  loader)
        out_events = []
        pairs = 0
        for seq, a, b in task["events"]:
            key = (a, b)
            fault = plan.decide(key, attempt) if plan is not None else None
            if fault == "crash":
                # Hard exit: the parent must see a broken pool, exactly
                # as a real worker death would present.
                os._exit(17)
            if fault == "stall":
                time.sleep(plan.stall_seconds)
            elif fault == "error":
                raise InjectedTaskError(
                    f"injected task error for unit pair {key} "
                    f"attempt {attempt} (shard {task['index']})")
            ids_a, pts_a = pool.get(a)
            if a == b:
                out = _run_unit_pair(ids_a, pts_a, None, None)
            else:
                ids_b, pts_b = pool.get(b)
                out = _run_unit_pair(ids_a, pts_a, ids_b, pts_b)
            out_a, out_b, dists, cpu, metrics_data = out
            digest = result_digest(out_a, out_b, dists)
            if fault == "corrupt":
                if out_a.size:
                    out_a = out_a.copy()
                    view = out_a.view(np.uint8)
                    pos = int(stable_fraction(plan.seed, "pos", *key)
                              * len(view)) % len(view)
                    view[pos] ^= 1 << int(
                        stable_fraction(plan.seed, "bit", *key) * 8) % 8
                else:
                    digest ^= 1
            pairs += len(out_a)
            out_events.append((seq, a, b, out_a, out_b, dists, cpu,
                               metrics_data, digest))
        return {
            "index": task["index"],
            "events": out_events,
            "pairs": pairs,
            "fringe_loads": fringe_loads[0],
            "io": disk.counters.snapshot(),
            "sim_time": disk.simulated_time_s,
            "buffer": pool.stats,
        }
    finally:
        disk.close()


# -- parent side ------------------------------------------------------------


def _kill_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Tear a pool down without waiting on possibly-hung workers."""
    if pool is None:
        return
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.terminate()
        except (OSError, AttributeError):
            pass
    pool.shutdown(wait=False, cancel_futures=True)


class ShardRunner:
    """Plans, executes and merges one sharded join (see module docs)."""

    def __init__(self, sorted_file: PointFile, ctx: JoinContext,
                 unit_bytes: int, buffer_units: int, *,
                 shards: int, shard_policy: str = "adaptive",
                 backend: str = "simulated",
                 allow_crabstep: bool = True,
                 pair_done=None, pair_complete=None,
                 supervisor_policy: Optional[SupervisorPolicy] = None,
                 worker_fault_plan: Optional[WorkerFaultPlan] = None) -> None:
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        get_backend(backend)  # validate the name before any work
        if shard_policy not in SHARD_POLICIES:
            raise ValueError(f"unknown shard policy {shard_policy!r}; "
                             f"choose from {SHARD_POLICIES}")
        self.sorted_file = sorted_file
        self.ctx = ctx
        self.unit_bytes = unit_bytes
        self.buffer_units = buffer_units
        self.shards = shards
        self.shard_policy = shard_policy
        self.backend = backend
        self.allow_crabstep = allow_crabstep
        self.pair_done = pair_done
        self.pair_complete = pair_complete
        self.policy = (supervisor_policy if supervisor_policy is not None
                       else SupervisorPolicy())
        self.worker_plan = worker_fault_plan
        self._tracer = ensure_tracer(getattr(ctx, "trace", None))
        self._metrics = ensure_metrics(getattr(ctx, "metrics", None))
        metric = ctx.metric if ctx.metric.name != "euclidean" else None
        self._init_args = (ctx.epsilon, ctx.minlen, ctx.engine,
                           ctx.order_dimensions, metric, ctx.grid_epsilon,
                           ctx.result.collect_distances, ctx.split_strategy,
                           bool(self._metrics.enabled),
                           ctx.batch_points, ctx.batch_leaves)
        self.stats: List[ShardStats] = []

    # -- phases -------------------------------------------------------------

    def run(self) -> ScheduleStats:
        """Plan, execute and merge; returns the (serial) schedule stats."""
        with self._tracer.span("shard_plan", cat="shard"):
            planner = PlanningJoiner()
            scheduler = EGOScheduler(
                self.sorted_file, self.ctx, self.unit_bytes,
                self.buffer_units, allow_crabstep=self.allow_crabstep,
                pair_done=self.pair_done, pair_complete=None,
                unit_joiner=planner)
            schedule_stats = scheduler.run()
            specs = plan_shards(scheduler.num_units, planner.events,
                                scheduler.unit_records, self.shards,
                                self.shard_policy, scheduler.meta)
        self.stats = [ShardStats(shard=s.index, units=s.units,
                                 fringe_units=s.fringe_units,
                                 events=len(s.events), cost=s.cost,
                                 backend=self.backend)
                      for s in specs]
        active = [s for s in specs if s.events]
        if active:
            results = self._execute(scheduler, specs, active)
            with self._tracer.span("shard_merge", cat="shard"):
                self._merge(results)
        self._publish_metrics()
        return schedule_stats

    def _make_task(self, scheduler: EGOScheduler, spec: ShardSpec,
                   attempt: int) -> dict:
        """Serializable work order for one shard attempt."""
        pf = self.sorted_file
        units = []
        for ordinal in range(spec.fringe_lo, spec.own_hi):
            first, last = pf.unit_record_range(
                int(scheduler.unit_ids[ordinal]), self.unit_bytes)
            units.append((ordinal, first, last - first))
        base_first = units[0][1]
        base_last = units[-1][1] + units[-1][2]
        return {
            "index": spec.index,
            "attempt": attempt,
            "path": pf.disk.path,
            "data_start": pf.data_start,
            "dimensions": pf.dimensions,
            "base_first": base_first,
            "base_count": base_last - base_first,
            "units": [(o, f - base_first, n) for o, f, n in units],
            "events": [(ev.seq, ev.a, ev.b) for ev in spec.events],
            "buffer_units": self.buffer_units,
            "backend": self.backend,
            "own_lo": spec.own_lo,
        }

    def _execute(self, scheduler: EGOScheduler, specs: List[ShardSpec],
                 active: List[ShardSpec]) -> List[dict]:
        """Run the active shards on a pool with the retry ladder."""
        policy = self.policy
        attempts: Dict[int, int] = {s.index: 0 for s in active}
        futures: Dict[int, object] = {}
        results: Dict[int, dict] = {}
        recycles = 0
        pool: Optional[ProcessPoolExecutor] = None

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=min(len(active), os.cpu_count() or 1),
                initializer=_init_supervised_worker,
                initargs=(self._init_args, self.worker_plan))

        def submit(spec: ShardSpec) -> bool:
            try:
                futures[spec.index] = pool.submit(
                    _run_shard,
                    self._make_task(scheduler, spec, attempts[spec.index]))
                return True
            except BrokenExecutor:
                futures.pop(spec.index, None)
                return False

        def shard_key(spec: ShardSpec) -> Tuple[int, int]:
            return (spec.own_lo, spec.own_hi)

        def bump(spec: ShardSpec, kind: str) -> None:
            attempts[spec.index] += 1
            self.stats[spec.index].retries += 1
            if self.worker_plan is not None:
                self.worker_plan.record(
                    {"error": "error", "corrupt": "corrupt",
                     "timeout": "stall", "crash": "crash"}[kind])
            if policy.real_sleep and policy.backoff_base_s > 0.0:
                time.sleep(min(
                    backoff_for(policy, shard_key(spec),
                                attempts[spec.index]),
                    policy.max_sleep_s))

        def exhausted(spec: ShardSpec) -> bool:
            return attempts[spec.index] > policy.max_task_retries

        def run_inline(spec: ShardSpec) -> None:
            """Bottom of the ladder: execute the shard in the parent.

            Inline execution escapes environment faults (no pool, no
            worker plan), mirroring the supervised joiner's degraded
            mode; the digests are still produced and verified.
            """
            if not policy.degrade:
                raise PoolFailureError(
                    f"shard {spec.index} failed "
                    f"{attempts[spec.index]} times "
                    f"(limit {policy.max_task_retries}) and degradation "
                    f"is disabled")
            self.stats[spec.index].degraded = True
            saved = dict(_UNIT_STATE)
            try:
                _init_unit_worker(*self._init_args)
                _UNIT_STATE["worker_plan"] = None
                out = _run_shard(
                    self._make_task(scheduler, spec,
                                    attempts[spec.index]))
            finally:
                _UNIT_STATE.clear()
                _UNIT_STATE.update(saved)
            results[spec.index] = out

        def recycle(blamed: ShardSpec) -> None:
            nonlocal pool, recycles
            _kill_pool(pool)
            pool = None
            recycles += 1
            if recycles > policy.max_pool_recycles:
                if not policy.degrade:
                    raise PoolFailureError(
                        f"shard pool failed {recycles} times "
                        f"(limit {policy.max_pool_recycles}) and "
                        f"degradation is disabled")
                for spec in active:
                    if spec.index not in results:
                        run_inline(spec)
                return
            pool = make_pool()
            for spec in active:
                if spec.index not in results and not exhausted(spec):
                    if not submit(spec):
                        break

        def on_broken(head: ShardSpec) -> None:
            """Blame the crash-decided shard(s), or the head, and recycle."""
            blamed: List[ShardSpec] = []
            if self.worker_plan is not None:
                for spec in active:
                    if spec.index in results:
                        continue
                    if any(self.worker_plan.decide((ev.a, ev.b),
                                                   attempts[spec.index])
                           == "crash" for ev in spec.events):
                        blamed.append(spec)
            if not blamed:
                blamed = [head]
            for spec in blamed:
                bump(spec, "crash")
                if exhausted(spec):
                    run_inline(spec)
            recycle(blamed[0])

        pool = make_pool()
        try:
            for spec in active:
                submit(spec)
            for spec in active:
                span_args = ({"shard": spec.index,
                              "events": len(spec.events)}
                             if self._tracer.enabled else None)
                with self._tracer.span("shard_exec", cat="shard",
                                       args=span_args):
                    while spec.index not in results:
                        if exhausted(spec):
                            run_inline(spec)
                            break
                        fut = futures.get(spec.index)
                        if fut is None:
                            if pool is None or not submit(spec):
                                on_broken(spec)
                            continue
                        try:
                            out = fut.result(timeout=policy.task_timeout)
                        except FuturesTimeout:
                            bump(spec, "timeout")
                            futures.pop(spec.index, None)
                            recycle(spec)
                            continue
                        except (BrokenExecutor, CancelledError):
                            futures.pop(spec.index, None)
                            on_broken(spec)
                            continue
                        except Exception:
                            bump(spec, "error")
                            futures.pop(spec.index, None)
                            if not exhausted(spec):
                                submit(spec)
                            continue
                        if any(result_digest(oa, ob, d) != dig
                               for _s, _a, _b, oa, ob, d, _c, _m, dig
                               in out["events"]):
                            bump(spec, "corrupt")
                            futures.pop(spec.index, None)
                            if not exhausted(spec):
                                submit(spec)
                            continue
                        results[spec.index] = out
        finally:
            if pool is not None:
                if all(s.index in results for s in active):
                    pool.shutdown(wait=True, cancel_futures=True)
                else:
                    _kill_pool(pool)
        for spec in active:
            out = results[spec.index]
            st = self.stats[spec.index]
            st.pairs = out["pairs"]
            st.fringe_pages = out["fringe_loads"]
            st.io = out["io"]
            st.buffer = out["buffer"]
            st.simulated_io_time_s = out["sim_time"]
        return [results[s.index] for s in active]

    def _merge(self, results: List[dict]) -> None:
        """Fold every event into the context in global sequence order.

        Mirrors the supervised joiner's merge exactly — CPU counters,
        then worker metrics, then the pair batch, then the
        ``pair_complete`` checkpoint hook — so the pair file bytes and
        journal records of a checkpointed run are the serial run's.
        """
        merged = []
        for out in results:
            merged.extend(out["events"])
        merged.sort(key=lambda ev: ev[0])
        ctx = self.ctx
        for _seq, a, b, out_a, out_b, dists, cpu, metrics_data, _d in merged:
            if ctx.cpu is not None:
                for f in dataclass_fields(cpu):
                    setattr(ctx.cpu, f.name,
                            getattr(ctx.cpu, f.name) + getattr(cpu, f.name))
            if metrics_data:
                ctx.metrics.merge(metrics_data)
            ctx.result.add_batch(out_a, out_b, distances=dists)
            if self.pair_complete is not None:
                self.pair_complete(a, b)

    def _publish_metrics(self) -> None:
        """Per-shard gauges, registered lazily (serial dumps unchanged)."""
        if not self._metrics.enabled or not self.stats:
            return
        g = self._metrics.gauge(
            "ego_shard_units", "Owned I/O units per shard",
            labelnames=("shard",))
        fr = self._metrics.gauge(
            "ego_shard_fringe_units", "Fringe units read per shard",
            labelnames=("shard",))
        pairs = self._metrics.gauge(
            "ego_shard_pairs", "Result pairs produced per shard",
            labelnames=("shard",))
        cost = self._metrics.gauge(
            "ego_shard_cost", "Predicted candidate volume per shard",
            labelnames=("shard",))
        retries = self._metrics.counter(
            "ego_shard_retries_total", "Shard attempts beyond the first",
            labelnames=("shard",))
        for st in self.stats:
            label = str(st.shard)
            g.labels(label).set(st.units)
            fr.labels(label).set(st.fringe_units)
            pairs.labels(label).set(st.pairs)
            cost.labels(label).set(st.cost)
            if st.retries:
                retries.labels(label).inc(st.retries)


def run_sharded_join(sorted_file: PointFile, ctx: JoinContext,
                     unit_bytes: int, buffer_units: int, *,
                     shards: int, shard_policy: str = "adaptive",
                     backend: str = "simulated",
                     allow_crabstep: bool = True,
                     pair_done=None, pair_complete=None,
                     supervisor_policy: Optional[SupervisorPolicy] = None,
                     worker_fault_plan: Optional[WorkerFaultPlan] = None,
                     ) -> Tuple[ScheduleStats, List[ShardStats]]:
    """Run the external join sharded; returns schedule and shard stats.

    Drop-in for the ``unit_joiner`` execution block of
    :func:`~repro.core.ego_join.ego_self_join_file`: the parent-side
    I/O, the result stream, the journal and the counters are
    byte-identical to the serial join for every shard count, policy and
    backend.
    """
    runner = ShardRunner(sorted_file, ctx, unit_bytes, buffer_units,
                         shards=shards, shard_policy=shard_policy,
                         backend=backend, allow_crabstep=allow_crabstep,
                         pair_done=pair_done, pair_complete=pair_complete,
                         supervisor_policy=supervisor_policy,
                         worker_fault_plan=worker_fault_plan)
    schedule_stats = runner.run()
    return schedule_stats, runner.stats
