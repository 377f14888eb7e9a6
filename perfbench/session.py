"""Workloads and the measured session each of them runs.

Every workload is one user session against the similarity-join system,
driven only through its public entry points:

* **set-up** -- generate the seeded points, write them to a point file
  (``make_point_file``) and build a journaled ``EGOStore.from_points``
  over a prefix of them;
* **batch** -- the external EGO self-join of the point file
  (``ego_self_join_file``, engine ``auto``, the paper's 10% buffer
  budget), serial or with workers and a checkpoint directory;
* **service** -- a closed loop with one client against the store:
  ``range_batch`` reads, ``insert``/``delete`` write batches and
  ``join`` requests in a fixed cycle;
* **recovery** -- ``EGOStore.recover`` from the store's journal.

Workloads differ in data, epsilon, pipeline settings and the share of
the run that goes to batch joins rather than to the service.

Every output is checked: each batch join's pair count (and, once a run,
its canonical pair digest) against a brute-force reference, each read
against brute force on a mirror of the live points, each cached join
against the miss that filled it, the store's final join against
``ego_self_join`` on ``live_points()``, and each recovered store's
``state_digest()``.  A failed check counts as a failed operation.
"""

from __future__ import annotations

import os
import resource
import shutil
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.costmodel import ego_total_time
from repro.core.ego_join import ego_self_join, ego_self_join_file
from repro.data.loader import make_point_file
from repro.data.synthetic import cad_like, uniform
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service import EGOStore
from repro.storage.journal import Journal
from repro.storage.records import record_size
from repro.verify.canonical import canonical_pairs, pair_digest

import layers
import reference

DIMENSIONS = 16
#: Share of the data set size every join may buffer (the paper's §5 rule).
BUFFER_FRACTION = 0.10
MIN_JOINS = 5
MIN_CYCLES = 3
READ_QUERIES = 32
WRITE_BATCH = 8
CATALOGUE_SEED = 0
CATALOGUE_FACTOR = 4
#: One service cycle: R = range_batch read, I = insert batch, D = delete
#: batch, J = join.  A join after a write misses the result cache and a
#: join right after a join hits it: two misses and one hit per cycle.
CYCLE = "RIRRJJRRDRRRIRRRDRRJRRIRRRDRRR"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int
    epsilon: float
    store_n: int
    batch_share: float
    workers: int = 1
    checkpoint: bool = False


WORKLOADS = {w.name: w for w in (
    # Result-heavy: recursion, emission and high-hit leaf filtering.
    Workload("cad_join", "cad", 4000, 0.1, 2000, 0.6),
    # About no result pairs: pruning and failing candidate filters.
    Workload("uniform_sparse", "uniform", 4000, 0.3, 2000, 0.6),
    # The service under churn: journal writes, compaction, delta joins.
    Workload("store_churn", "cad", 4000, 0.1, 4000, 0.3),
    # The supervised process pool with the pair file and unit journal.
    Workload("cad_durable_parallel", "cad", 4000, 0.1, 2000, 0.75,
             workers=2, checkpoint=True),
)}


class CountingJournal(Journal):
    """A store journal that counts its own flushes and bytes written."""

    def __init__(self, path: str, tracer=NULL_TRACER) -> None:
        self.tracer = tracer
        self.flushes = 0
        self.bytes_written = 0
        super().__init__(path)

    def flush(self) -> None:
        with self.tracer.span("journal_flush", cat="bench"):
            super().flush()
        self.flushes += 1
        self.bytes_written += os.path.getsize(self.path)


@dataclass
class Outcome:
    """What one run measured and how many operations failed."""

    metrics: Dict[str, tuple] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed check marks it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def generate(wl: Workload, seed: int) -> np.ndarray:
    """The seeded points of one run.

    CAD-like points come from one fixed catalogue: its 40 base parts set
    how many pairs fall within epsilon, so the seed draws which objects
    a run sees, not the part geometry.  Otherwise the result size, and
    every time with it, would vary more between seeds than a change to
    the program would move it.
    """
    rng = np.random.default_rng([seed, 0])
    if wl.kind == "cad":
        catalogue = cad_like(CATALOGUE_FACTOR * wl.n, DIMENSIONS,
                             seed=CATALOGUE_SEED)
        pick = rng.choice(len(catalogue), wl.n, replace=False)
        return catalogue[np.sort(pick)]
    return uniform(wl.n, DIMENSIONS, seed=rng)


def budget(n: int) -> dict:
    """Unit size and unit count of the 10% buffer budget."""
    rec = record_size(DIMENSIONS)
    budget_bytes = max(4 * rec, int(n * rec * BUFFER_FRACTION))
    unit_bytes = max(16 * rec, budget_bytes // 8)
    return {"budget_bytes": budget_bytes, "unit_bytes": unit_bytes,
            "buffer_units": max(2, budget_bytes // unit_bytes)}


class Session:
    """One workload's data, store, journal and checks for one run."""

    def __init__(self, wl: Workload, seed: int, work_dir: str,
                 traced: bool = False) -> None:
        self.wl = wl
        self.seed = seed
        self.work_dir = work_dir
        self.traced = traced
        self.tracer = Tracer() if traced else NULL_TRACER
        self.registry = MetricsRegistry() if traced else None
        self.out = Outcome()
        self.geometry = budget(wl.n)
        self.disk = None
        self._ckpt = 0
        self.cycles: List[Dict[str, List[float]]] = []
        self.delta_rows: List[int] = []
        self.user_bytes = 0
        self._last_join = None

    # -- set-up ----------------------------------------------------------

    def _build(self, name: str, tracer=NULL_TRACER, registry=None):
        path = os.path.join(self.work_dir, name)
        if os.path.exists(path):
            os.remove(path)
        points = generate(self.wl, self.seed)
        disk, pf = make_point_file(points)
        journal = CountingJournal(path, tracer)
        store = EGOStore.from_points(
            points[:self.wl.store_n], self.wl.epsilon, journal=journal,
            trace=tracer if tracer.enabled else None, metrics=registry)
        return points, disk, pf, journal, store

    def setup(self) -> float:
        """Build the session's data, point file and store; seconds."""
        t0 = time.perf_counter()
        (self.points, self.disk, self.pf, self.journal,
         self.store) = self._build("store.journal", self.tracer,
                                   self.registry)
        elapsed = time.perf_counter() - t0
        self.rng = np.random.default_rng([self.seed, 1])
        self.live_ids, self.live_pts = self.store.live_points()
        self.flushes0 = self.journal.flushes
        self.bytes0 = self.journal.bytes_written
        return elapsed

    def setup_probe(self) -> float:
        """Time one more identical set-up, then discard it."""
        t0 = time.perf_counter()
        _, disk, _, _, _ = self._build("probe.journal")
        elapsed = time.perf_counter() - t0
        disk.close()
        return elapsed

    def close(self) -> None:
        if self.disk is not None:
            self.disk.close()
            self.disk = None

    # -- batch -----------------------------------------------------------

    def batch_join(self, trace=None, metrics=None):
        """One external self-join; returns ``(report, seconds, ckpt)``."""
        kwargs = {}
        ckpt = None
        if self.wl.checkpoint:
            self._ckpt += 1
            ckpt = os.path.join(self.work_dir, f"checkpoint-{self._ckpt}")
            kwargs["checkpoint_dir"] = ckpt
        t0 = time.perf_counter()
        report = ego_self_join_file(
            self.pf, self.wl.epsilon,
            unit_bytes=self.geometry["unit_bytes"],
            buffer_units=self.geometry["buffer_units"],
            engine="auto", workers=self.wl.workers,
            trace=trace, metrics=metrics, **kwargs)
        return report, time.perf_counter() - t0, ckpt

    def check_join(self, report, expected: np.ndarray, digest: bool) -> None:
        count = report.result.count
        ok = self.out.check(count == len(expected),
                            f"batch join: {count} pairs, "
                            f"reference {len(expected)}")
        if ok and digest:
            got = pair_digest(canonical_pairs(report.result))
            if got != pair_digest(expected):
                self.out.failed += 1
                self.out.problems.append("batch join: pair digest differs")

    # -- service ---------------------------------------------------------

    def cycle(self) -> None:
        """One service cycle; its latencies go to ``self.cycles``."""
        store, eps, rng = self.store, self.wl.epsilon, self.rng
        lat = {"read": [], "write": [], "miss": [], "hit": []}
        self.cycles.append(lat)
        for op in CYCLE:
            span = self.tracer.span(f"bench.{op}")
            if op == "R":
                pick = rng.integers(0, len(self.live_pts), READ_QUERIES)
                qs = self.live_pts[pick] + rng.normal(
                    0.0, eps / 10, (READ_QUERIES, DIMENSIONS))
                self.delta_rows.append(store.stats().delta_rows)
                t0 = time.perf_counter()
                with span:
                    got = store.range_batch(qs)
                lat["read"].append(time.perf_counter() - t0)
                want = reference.range_ids(self.live_pts, self.live_ids,
                                           qs, eps)
                self.out.check(
                    all(np.array_equal(np.sort(g[0]), w)
                        for g, w in zip(got, want)),
                    "range_batch result differs from brute force")
            elif op == "I":
                pick = rng.integers(0, len(self.live_pts), WRITE_BATCH)
                new = self.live_pts[pick] + rng.normal(
                    0.0, eps / 2, (WRITE_BATCH, DIMENSIONS))
                t0 = time.perf_counter()
                with span:
                    ids = store.insert(new)
                lat["write"].append(time.perf_counter() - t0)
                self.user_bytes += new.nbytes + ids.nbytes
                self.live_ids = np.concatenate([self.live_ids, ids])
                self.live_pts = np.concatenate([self.live_pts, new])
                self.out.check(len(ids) == WRITE_BATCH,
                               "insert returned the wrong id count")
            elif op == "D":
                pick = rng.choice(len(self.live_ids), WRITE_BATCH,
                                  replace=False)
                victims = self.live_ids[pick]
                t0 = time.perf_counter()
                with span:
                    removed = store.delete(victims)
                lat["write"].append(time.perf_counter() - t0)
                self.user_bytes += victims.nbytes
                keep = np.ones(len(self.live_ids), dtype=bool)
                keep[pick] = False
                self.live_ids = self.live_ids[keep]
                self.live_pts = self.live_pts[keep]
                self.out.check(removed == WRITE_BATCH,
                               "delete removed the wrong count")
            else:
                version = store.data_version
                t0 = time.perf_counter()
                with span:
                    pairs = store.join()
                elapsed = time.perf_counter() - t0
                if self._last_join is not None \
                        and self._last_join[0] == version:
                    lat["hit"].append(elapsed)
                    self.out.check(np.array_equal(pairs, self._last_join[1]),
                                   "cached join differs from its miss")
                else:
                    lat["miss"].append(elapsed)
                    self.out.attempted += 1
                self._last_join = (version, pairs)

    def check_store(self) -> None:
        """The store's join against ``ego_self_join`` of its live points."""
        ids, pts = self.store.live_points()
        want = canonical_pairs(ego_self_join(pts, self.wl.epsilon, ids=ids))
        got = canonical_pairs(self.store.join())
        self.out.check(pair_digest(got) == pair_digest(want),
                       "store join differs from ego_self_join(live_points)")

    def recover(self) -> float:
        """Rebuild the store from its journal; seconds."""
        t0 = time.perf_counter()
        with self.tracer.span("bench.recover"):
            rebuilt = EGOStore.recover(
                Journal(self.journal.path),
                trace=self.tracer if self.traced else None)
        elapsed = time.perf_counter() - t0
        self.out.check(rebuilt.state_digest() == self.store.state_digest(),
                       "recovered store state digest differs")
        return elapsed


def _peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _remove(path: Optional[str]) -> None:
    if path:
        shutil.rmtree(path, ignore_errors=True)


def run_untraced(wl: Workload, seed: int, seconds: float,
                 work_dir: str) -> Outcome:
    """The end-to-end metrics of one run, tracing off.

    Batch joins and service cycles are interleaved, each step going to
    the phase furthest below its share of the time, and a set-up and a
    recovery are timed after every step, so every metric samples the
    whole run rather than one stretch of it.

    The host's other tenants slow the benchmark down by up to 1.7x for
    stretches of seconds to minutes, and how much of a run they cover
    varies from run to run, so a median lands wherever that share puts
    it.  Upper percentiles stay in the slow regime whenever a run meets
    it at all: each timing is the 75th percentile of the run's set-ups,
    batch joins or recoveries (a dozen or so each), or the 90th of its
    reads, writes and store joins (dozens to hundreds), and
    ``ops_per_s`` is the 10th percentile of per-cycle throughput.
    """
    s = Session(wl, seed, work_dir)
    out = s.out
    try:
        times = {"setup": [s.setup()], "join": [], "recover": []}
        expected = reference.self_join_pairs(s.points, wl.epsilon)
        shares = {"batch": wl.batch_share, "service": 1.0 - wl.batch_share}
        spent = {"batch": 0.0, "service": 0.0}
        t_start = time.perf_counter()
        while (time.perf_counter() - t_start < seconds
               or len(times["join"]) < MIN_JOINS
               or len(s.cycles) < MIN_CYCLES):
            if spent["batch"] / shares["batch"] \
                    <= spent["service"] / shares["service"]:
                report, dt, ckpt = s.batch_join()
                times["join"].append(dt)
                spent["batch"] += dt
                s.check_join(report, expected,
                             digest=len(times["join"]) == 1)
                _remove(ckpt)
            else:
                t0 = time.perf_counter()
                s.cycle()
                spent["service"] += time.perf_counter() - t0
            times["setup"].append(s.setup_probe())
            times["recover"].append(s.recover())
        s.check_store()
    finally:
        s.close()

    def ms(kinds) -> float:
        return 1000.0 * float(np.percentile(
            [x for c in s.cycles for k in kinds for x in c[k]], 90))

    out.put("setup_s", np.percentile(times["setup"], 75), "s")
    out.put("join_s", np.percentile(times["join"], 75), "s")
    out.put("model_s", ego_total_time(report, DIMENSIONS), "s")
    out.put("read_p90_ms", ms(["read"]), "ms")
    out.put("write_p90_ms", ms(["write"]), "ms")
    out.put("store_join_p90_ms", ms(["miss", "hit"]), "ms")
    out.put("ops_per_s", float(np.percentile(
        [len(CYCLE) / sum(map(sum, c.values())) for c in s.cycles], 10)),
        "1/s")
    out.put("recover_s", np.percentile(times["recover"], 75), "s")
    out.put("peak_rss_mib", _peak_rss_mib(), "MiB")
    return out


def run_traced(wl: Workload, seed: int, seconds: float,
               work_dir: str) -> Outcome:
    """The per-layer metrics: one traced pass over the same session."""
    s = Session(wl, seed, work_dir, traced=True)
    tracer, registry, out = s.tracer, s.registry, s.out
    try:
        s.setup()
        expected = reference.self_join_pairs(s.points, wl.epsilon)

        # Untraced, traced, untraced again and memory-traced copies of
        # the same join; the untraced pair brackets the traced one.
        report, first_s, ckpt = s.batch_join()
        s.check_join(report, expected, digest=False)
        _remove(ckpt)
        children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        with tracer.span("bench.batch_join"):
            report, traced_s, ckpt = s.batch_join(trace=tracer,
                                                  metrics=registry)
        children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        s.check_join(report, expected, digest=True)
        pairfile_bytes, ckpt_journal_bytes = _checkpoint_sizes(ckpt)
        _remove(ckpt)
        again, second_s, ckpt = s.batch_join()
        s.check_join(again, expected, digest=False)
        _remove(ckpt)
        plain_s = min(first_s, second_s)
        tracemalloc.start()
        again, _, ckpt = s.batch_join()
        _, traced_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        s.check_join(again, expected, digest=False)
        _remove(ckpt)

        t_start = time.perf_counter()
        while (time.perf_counter() - t_start
               < seconds * (1.0 - wl.batch_share)):
            s.cycle()
        s.check_store()
        s.recover()
        stats = s.store.stats()
    finally:
        s.close()
    journal_bytes = s.journal.bytes_written - s.bytes0

    join_span = tracer.spans("bench.batch_join")[0]
    parallel = wl.workers > 1

    def layer_of(name: str) -> str:
        if parallel and name == "unit_pair":
            return "core.supervisor"
        return layers.default_layer(name)

    self_s, root_s = layers.fold(tracer.events, layer_of)
    lo, hi = join_span["ts"], join_span["ts"] + join_span["dur"]
    in_join = [e for e in tracer.events
               if e.get("ph") == "X" and lo <= e["ts"] <= hi]
    join_self, _ = layers.fold(in_join, layer_of)

    def put(name, value, unit="count"):
        out.put(name, value, unit)

    def total(metric_name):
        m = registry.get(metric_name)
        return 0 if m is None else m.total()

    cpu, sched, sort = report.cpu, report.schedule_stats, report.sort_stats
    model_s = ego_total_time(report, DIMENSIONS)

    put("sort.self_s", self_s.get("sorting", 0.0), "s")
    put("sort.runs", sort.runs_generated)
    put("sort.merge_passes", sort.merge_passes)
    put("store.compactions", stats.compactions)
    put("store.compaction_s", self_s.get("sorting.compaction", 0.0), "s")

    put("io.load_s", self_s.get("storage", 0.0), "s")
    put("io.unit_loads", sched.total_unit_loads)
    put("io.bytes_read", report.io.bytes_read, "bytes")
    put("io.model_io_s", report.simulated_io_time_s, "s")

    put("journal.self_s", self_s.get("storage.journal", 0.0), "s")
    put("journal.flushes", s.journal.flushes - s.flushes0)
    put("journal.bytes_written", journal_bytes, "bytes")
    put("journal.write_amp", journal_bytes / max(1, s.user_bytes), "ratio")
    put("pairfile.bytes_written", pairfile_bytes, "bytes")
    put("checkpoint.journal_bytes", ckpt_journal_bytes, "bytes")

    put("pipeline.self_s", self_s.get("core.ego_join", 0.0), "s")
    put("sched.self_s", self_s.get("core.scheduler", 0.0), "s")
    put("sched.gallop_loads", sched.gallop_loads)
    put("sched.crabstep_reloads", sched.crabstep_reloads)
    put("sched.unit_pairs_joined", sched.unit_pairs_joined)
    put("sched.unit_pairs_skipped", sched.unit_pairs_skipped)

    seq_pairs = total("ego_seq_pairs_total")
    put("recursion.self_s", self_s.get("core.sequence_join", 0.0), "s")
    put("recursion.seq_pairs", seq_pairs)
    put("recursion.exclusions", total("ego_seq_prunes_total"))
    put("recursion.prune_ratio",
        total("ego_seq_prunes_total") / max(1, seq_pairs), "ratio")

    leaf_joins = registry.get("ego_leaf_joins_total")
    volume = registry.get("ego_leaf_volume")
    put("leaf.self_s", self_s.get("core.kernels", 0.0), "s")
    for engine in ("scalar", "vector", "matmul", "batched"):
        put(f"leaf.calls.{engine}",
            0 if leaf_joins is None else leaf_joins.value_of(engine))
    put("leaf.distance_calcs", cpu.distance_calculations)
    put("leaf.hit_ratio", total("ego_leaf_pairs_total")
        / max(1, 0 if volume is None else volume.sum), "ratio")
    put("leaf.reverify", total("ego_gemm_reverified_total"))

    wall = max(traced_s, 1e-9)
    child_cpu = ((children1.ru_utime - children0.ru_utime)
                 + (children1.ru_stime - children0.ru_stime))
    put("parallel.parent_wait_s", self_s.get("core.supervisor", 0.0), "s")
    put("parallel.retries",
        report.supervisor.retries if report.supervisor else 0)
    put("parallel.cpu_util",
        child_cpu / (wall * wl.workers) if parallel else 0.0, "ratio")
    put("parallel.worker_peak_rss_mib",
        _peak_rss_mib(resource.RUSAGE_CHILDREN) if parallel else 0.0,
        "MiB")

    put("store.self_s", self_s.get("service.store", 0.0), "s")
    put("store.cache_hit_ratio", stats.cache_hit_ratio, "ratio")
    put("store.delta_rows", float(np.mean(s.delta_rows)), "rows")

    put("model.cpu_s", model_s - report.simulated_io_time_s, "s")
    put("model.io_s", report.simulated_io_time_s, "s")
    put("model.ratio", plain_s / model_s, "ratio")

    put("mem.tracemalloc_peak_mib", traced_peak / 2**20, "MiB")
    put("mem.peak_over_budget",
        traced_peak / s.geometry["budget_bytes"], "ratio")

    put("trace.join_s", traced_s, "s")
    put("trace.overhead_s", traced_s - plain_s, "s")
    put("trace.unaccounted_share",
        self_s.get(layers.BENCH_LAYER, 0.0) / max(root_s, 1e-9), "ratio")
    put("join.recursion_leaf_share",
        (join_self.get("core.sequence_join", 0.0)
         + join_self.get("core.kernels", 0.0)) / wall, "ratio")
    return out


def _checkpoint_sizes(ckpt: Optional[str]):
    """Bytes of the pair file and the unit journal a checkpoint left."""
    if not ckpt:
        return 0, 0
    pairs = journal = 0
    for name in os.listdir(ckpt):
        size = os.path.getsize(os.path.join(ckpt, name))
        if name.endswith(".prs"):
            pairs += size
        elif "journal" in name:
            journal += size
    return pairs, journal
