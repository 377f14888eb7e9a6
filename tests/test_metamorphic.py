"""Metamorphic-relation tests for the similarity join.

Each relation predicts how the exact pair set responds to an input
transformation — no reference implementation involved, so these can
catch a bug every implementation shares.  The tests check that the
relations (a) hold for the shipped implementations on adversarial
seeded workloads and (b) actually flag planted violations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypothesis import stateful

from repro.core.ego_join import ego_self_join
from repro.core.kernels import DEFAULT_MINLEN
from repro.storage.stats import CPUCounters
from repro.verify import (
    RELATION_NAMES,
    REGISTRY,
    STORE_RELATION_NAMES,
    check_epsilon_nesting,
    check_permutation,
    check_rs_symmetry,
    check_self_vs_rr,
    check_store_epsilon_nesting,
    check_store_insert_delete,
    check_store_insert_union,
    check_translation,
    diff_pairs,
    generate_workload,
    register,
    run_impl,
    run_relations,
    run_store_relations,
)

from conftest import brute_truth

EPS = 0.25

#: Implementations fast enough to sweep through every relation.
RELATION_IMPLS = ("ego", "grid_hash", "spatial_hash", "epskdb", "msj")


@pytest.fixture
def temp_impl():
    """Register a throwaway oracle implementation, always cleaned up."""
    added = []

    def add(name, fn, **kwargs):
        register(name, **kwargs)(fn)
        added.append(name)
        return name

    yield add
    for name in added:
        REGISTRY.pop(name, None)


# -- relations hold on the shipped implementations ---------------------------


class TestRelationsHold:
    @pytest.mark.parametrize("impl", RELATION_IMPLS)
    @pytest.mark.parametrize("kind", ["boundary", "duplicates",
                                      "degenerate"])
    def test_all_relations(self, impl, kind):
        wl = generate_workload(kind, 60, 3, EPS, seed=9)
        for report in run_relations(impl, wl.points, EPS, seed=9):
            assert report.ok, report.describe()

    @pytest.mark.parametrize("engine", ["matmul", "auto"])
    def test_gemm_engines_hold_relations(self, engine):
        # The GEMM default leaf (one 256-row tile) would make all 80
        # points one leaf; pin the threshold so the relations also
        # cover the pruning recursion.
        wl = generate_workload("uniform", 80, 3, EPS, seed=4)
        for report in run_relations("ego", wl.points, EPS, seed=4,
                                    engine=engine, minlen=DEFAULT_MINLEN):
            assert report.ok, report.describe()
        cpu = CPUCounters()
        ego_self_join(wl.points, EPS, engine=engine, minlen=DEFAULT_MINLEN,
                      cpu=cpu)
        assert cpu.sequence_exclusions > 0

    def test_relation_names_all_run(self):
        wl = generate_workload("uniform", 30, 2, EPS, seed=0)
        reports = run_relations("ego", wl.points, EPS)
        assert tuple(r.relation for r in reports) == RELATION_NAMES

    def test_unknown_relation_rejected(self):
        wl = generate_workload("uniform", 10, 2, EPS, seed=0)
        with pytest.raises(ValueError, match="unknown relation"):
            run_relations("ego", wl.points, EPS, relations=("nope",))

    def test_translation_skipped_for_unit_cube_impl(self):
        wl = generate_workload("uniform", 30, 2, EPS, seed=0)
        report = check_translation("msj", wl.points, EPS)
        assert report.ok
        assert "skipped" in report.detail

    def test_nesting_strict_on_boundary_workload(self):
        """The planted ε·(1+2⁻⁴⁰) mates make the ε-nesting strict."""
        wl = generate_workload("boundary", 60, 3, EPS, seed=3)
        at_eps = {tuple(r) for r in run_impl("ego", wl.points, EPS)}
        wide = {tuple(r) for r in
                run_impl("ego", wl.points, EPS * (1 + 1e-6))}
        assert at_eps < wide  # strict: just-outside mates join only above ε

    def test_rs_symmetry_direct(self):
        wl = generate_workload("clusters", 50, 3, EPS, seed=6)
        report = check_rs_symmetry(wl.points[:25], wl.points[25:], EPS)
        assert report.ok, report.describe()

    def test_self_vs_rr_direct(self):
        wl = generate_workload("duplicates", 50, 3, EPS, seed=6)
        report = check_self_vs_rr("ego", wl.points, EPS)
        assert report.ok, report.describe()


# -- relations catch planted violations --------------------------------------


class TestRelationsCatchViolations:
    def test_translation_catches_grid_quantisation(self, temp_impl):
        def quantised(points, epsilon, ids=None):
            # Joins cell representatives instead of points: distances
            # change whenever the grid shifts relative to the data.
            q = np.floor(points / epsilon) * epsilon
            return run_impl("brute", q, epsilon, ids=ids)

        temp_impl("_test_quantised", quantised)
        wl = generate_workload("uniform", 50, 3, EPS, seed=1)
        report = check_translation("_test_quantised", wl.points, EPS)
        assert not report.ok

    def test_nesting_catches_epsilon_cap(self, temp_impl):
        def capped(points, epsilon, ids=None):
            # Shrinks large epsilons: pairs vanish as ε grows.
            eff = epsilon if epsilon < 1.2 * EPS else 0.5 * epsilon
            return run_impl("brute", points, eff, ids=ids)

        temp_impl("_test_capped", capped)
        wl = generate_workload("clusters", 50, 3, EPS, seed=2)
        report = check_epsilon_nesting(
            "_test_capped", wl.points, (0.5 * EPS, EPS, 1.5 * EPS))
        assert not report.ok
        assert "missing at" in report.detail

    def test_permutation_catches_position_dependence(self, temp_impl):
        def drops_first_row(points, epsilon, ids=None):
            # Ignores the first *row* — which row that is depends on
            # the input order, so shuffling changes the result.
            if ids is None:
                ids = np.arange(len(points), dtype=np.int64)
            return run_impl("brute", points[1:], epsilon,
                            ids=np.asarray(ids)[1:])

        temp_impl("_test_posdep", drops_first_row)
        wl = generate_workload("duplicates", 40, 3, EPS, seed=3)
        report = check_permutation("_test_posdep", wl.points, EPS, seed=3)
        assert not report.ok


# -- update-sequence relations on the incremental store ----------------------


class TestStoreRelations:
    @pytest.mark.parametrize("kind", ["uniform", "boundary", "duplicates",
                                      "clusters"])
    def test_store_relations_hold(self, kind):
        wl = generate_workload(kind, 50, 3, EPS, seed=11)
        for report in run_store_relations(wl.points, EPS, seed=11):
            assert report.ok, report.describe()

    def test_store_relation_names_all_run(self):
        wl = generate_workload("uniform", 24, 2, EPS, seed=0)
        reports = run_store_relations(wl.points, EPS)
        assert tuple(r.relation for r in reports) == STORE_RELATION_NAMES

    def test_unknown_store_relation_rejected(self):
        wl = generate_workload("uniform", 8, 2, EPS, seed=0)
        with pytest.raises(ValueError, match="unknown store relation"):
            run_store_relations(wl.points, EPS, relations=("nope",))

    def test_insert_union_direct(self):
        wl = generate_workload("clusters", 40, 2, EPS, seed=2)
        report = check_store_insert_union(wl.points, EPS, seed=2)
        assert report.ok, report.describe()

    def test_insert_delete_direct(self):
        wl = generate_workload("boundary", 40, 2, EPS, seed=2)
        report = check_store_insert_delete(wl.points, EPS, seed=2)
        assert report.ok, report.describe()

    def test_store_nesting_strict_on_boundary_workload(self):
        """Planted just-outside mates appear only above ε — strictly."""
        from repro.service import EGOStore

        wl = generate_workload("boundary", 60, 3, EPS, seed=3)
        store = EGOStore.from_points(wl.points, EPS)
        at_eps = {tuple(r) for r in store.join()}
        wide = {tuple(r) for r in store.join(EPS * (1 + 1e-6))}
        assert at_eps < wide
        report = check_store_epsilon_nesting(
            wl.points, (0.5 * EPS, EPS, 1.5 * EPS), seed=3)
        assert report.ok, report.describe()


class StoreMachine(stateful.RuleBasedStateMachine):
    """Random interleavings of store ops, brute-checked after each.

    The model is a plain dict ``uid -> point``; after every rule the
    store's join at the current ε must equal the brute-force join of
    the model — the strongest form of the update-sequence relations.
    """

    EPS = 0.25
    DIMS = 2

    def __init__(self):
        super().__init__()
        from repro.service import EGOStore

        self.store = EGOStore(self.EPS, compact_threshold=8, cache_size=4)
        self.model = {}

    @stateful.rule(seed=st.integers(0, 2**16), n=st.integers(1, 6))
    def insert(self, seed, n):
        pts = np.random.default_rng(seed).random((n, self.DIMS))
        ids = self.store.insert(pts)
        for uid, p in zip(ids.tolist(), pts):
            self.model[uid] = p

    @stateful.precondition(lambda self: self.model)
    @stateful.rule(seed=st.integers(0, 2**16), k=st.integers(1, 3))
    def delete(self, seed, k):
        rng = np.random.default_rng(seed)
        uids = rng.choice(sorted(self.model),
                         size=min(k, len(self.model)), replace=False)
        self.store.delete(uids)
        for uid in uids.tolist():
            del self.model[uid]

    @stateful.rule(eps=st.floats(min_value=0.05, max_value=0.5))
    def set_epsilon(self, eps):
        self.store.set_epsilon(eps)

    @stateful.rule()
    def compact(self):
        self.store.compact()

    @stateful.invariant()
    def join_matches_brute(self):
        uids = sorted(self.model)
        pts = np.array([self.model[u] for u in uids]) if uids \
            else np.empty((0, self.DIMS))
        positional = brute_truth(pts, self.store.epsilon)
        want = {(min(uids[a], uids[b]), max(uids[a], uids[b]))
                for a, b in positional}
        got = {tuple(r) for r in self.store.join().tolist()}
        assert got == want

    @stateful.invariant()
    def counts_agree(self):
        assert len(self.store) == len(self.model)


TestStoreMachine = StoreMachine.TestCase


# -- property-based sweeps (seed-driven, deterministic under the profile) ----


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_ego_matches_brute(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 36))
    d = int(rng.integers(1, 5))
    eps = float(rng.uniform(0.05, 0.5))
    pts = rng.random((n, d))
    diff = diff_pairs(run_impl("brute", pts, eps),
                      run_impl("ego", pts, eps))
    assert diff.ok, f"seed={seed} n={n} d={d} ε={eps}: {diff.summary()}"


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       kind=st.sampled_from(["uniform", "boundary", "duplicates"]))
def test_property_permutation_and_translation(seed, kind):
    wl = generate_workload(kind, 24, 3, EPS, seed=seed)
    perm = check_permutation("ego", wl.points, EPS, seed=seed)
    assert perm.ok, f"seed={seed} {kind}: {perm.describe()}"
    move = check_translation("ego", wl.points, EPS)
    assert move.ok, f"seed={seed} {kind}: {move.describe()}"
