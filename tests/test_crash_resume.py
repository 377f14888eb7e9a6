"""Crash/resume tests: kill the external join at scheduled crash points
and assert the resumed run reproduces the uninterrupted result exactly.
"""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.core.ego_join import ego_self_join_file
from repro.data.loader import save_points
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, SimulatedCrash
from repro.storage.integrity import RetryPolicy
from repro.storage.pairfile import PairFile

from conftest import make_file

pytestmark = pytest.mark.faults

EPSILON = 0.25
UNIT_BYTES = 512
BUFFER_UNITS = 4


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(42).random((400, 4))


def run_join(pts, **kwargs):
    with SimulatedDisk() as disk:
        pf = make_file(disk, pts)
        return ego_self_join_file(pf, EPSILON, unit_bytes=UNIT_BYTES,
                                  buffer_units=BUFFER_UNITS, **kwargs)


@pytest.fixture(scope="module")
def baseline(dataset, tmp_path_factory):
    """Uninterrupted checkpointed run: pair set + durable result bytes."""
    ck = tmp_path_factory.mktemp("baseline-ck")
    report = run_join(dataset, checkpoint_dir=str(ck))
    with open(os.path.join(str(ck), "result.prs"), "rb") as fh:
        result_bytes = fh.read()
    return {"pairs": report.result.canonical_pair_set(),
            "count": report.total_pairs,
            "bytes": result_bytes}


# Crash points spread over the pipeline phases: run generation, merge,
# early join, mid join, late join.  Points beyond the run's operation
# count are skipped (xfail-free) via the did-it-crash check below.
CRASH_OPS = [1, 5, 15, 40, 80, 150, 250, 400]


class TestCrashResume:
    @pytest.mark.parametrize("crash_op", CRASH_OPS)
    def test_resume_reproduces_baseline_exactly(self, dataset, baseline,
                                                tmp_path, crash_op):
        ck = str(tmp_path / "ck")
        plan = FaultPlan(seed=1, crash_ops=[crash_op])
        try:
            run_join(dataset, checkpoint_dir=ck, fault_plan=plan)
            pytest.skip(f"pipeline finished before operation {crash_op}")
        except SimulatedCrash:
            pass

        report = run_join(dataset, checkpoint_dir=ck, resume=True,
                          fault_plan=plan.without_crashes())
        assert report.resumed
        assert report.total_pairs == baseline["count"]
        with open(os.path.join(ck, "result.prs"), "rb") as fh:
            assert fh.read() == baseline["bytes"]

    def test_resumed_pair_set_matches_uninterrupted(self, dataset,
                                                    baseline, tmp_path):
        ck = str(tmp_path / "ck")
        plan = FaultPlan(seed=1, crash_ops=[150])
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck, fault_plan=plan)
        run_join(dataset, checkpoint_dir=ck, resume=True)
        with SimulatedDisk(path=os.path.join(ck, "result.prs")) as disk:
            a, b, _ = PairFile.open(disk).read_all()
        got = {(min(x, y), max(x, y))
               for x, y in zip(a.tolist(), b.tolist())}
        assert got == baseline["pairs"]

    def test_double_crash_then_resume(self, dataset, baseline, tmp_path):
        # Crash the fresh run, crash the first resume, then finish.
        ck = str(tmp_path / "ck")
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck,
                     fault_plan=FaultPlan(crash_ops=[30]))
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck, resume=True,
                     fault_plan=FaultPlan(crash_ops=[40]))
        report = run_join(dataset, checkpoint_dir=ck, resume=True)
        assert report.total_pairs == baseline["count"]
        with open(os.path.join(ck, "result.prs"), "rb") as fh:
            assert fh.read() == baseline["bytes"]

    def test_crash_with_background_faults_and_retries(self, dataset,
                                                      baseline, tmp_path):
        # Crash amid transient errors; the resumed run keeps the same
        # error rates (minus the crash) and still reproduces the result.
        ck = str(tmp_path / "ck")
        plan = FaultPlan(seed=6, read_error_rate=0.02, crash_ops=[120])
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck, fault_plan=plan,
                     retry=RetryPolicy())
        report = run_join(dataset, checkpoint_dir=ck, resume=True,
                          fault_plan=plan.without_crashes(),
                          retry=RetryPolicy())
        assert report.total_pairs == baseline["count"]
        with open(os.path.join(ck, "result.prs"), "rb") as fh:
            assert fh.read() == baseline["bytes"]

    def test_resume_of_completed_run_is_a_noop(self, dataset, baseline,
                                               tmp_path):
        ck = str(tmp_path / "ck")
        run_join(dataset, checkpoint_dir=ck)
        report = run_join(dataset, checkpoint_dir=ck, resume=True)
        assert report.resumed
        assert report.total_pairs == baseline["count"]
        assert report.io.total_accesses == 0  # nothing was re-done
        with open(os.path.join(ck, "result.prs"), "rb") as fh:
            assert fh.read() == baseline["bytes"]

    def test_resume_requires_checkpoint_dir(self, dataset):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_join(dataset, resume=True)

    def test_fresh_run_resets_stale_journal(self, dataset, baseline,
                                            tmp_path):
        ck = str(tmp_path / "ck")
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck,
                     fault_plan=FaultPlan(crash_ops=[60]))
        # resume=False starts over, ignoring the journal.
        report = run_join(dataset, checkpoint_dir=ck)
        assert not report.resumed
        assert report.total_pairs == baseline["count"]


class TestResumeParameters:
    """A checkpoint resumes only under the parameters it was written
    with; anything else used to splice two joins into one answer."""

    @pytest.fixture(scope="class")
    def uniform8(self):
        return np.random.default_rng(0).random((2000, 8))

    @staticmethod
    def run8(pts, epsilon, **kwargs):
        with SimulatedDisk() as disk:
            pf = make_file(disk, pts)
            return ego_self_join_file(pf, epsilon, unit_bytes=8192,
                                      buffer_units=8, **kwargs)

    def test_resume_with_other_epsilon_is_refused(self, uniform8, tmp_path):
        ck = str(tmp_path / "ck")
        first = self.run8(uniform8, 0.25, checkpoint_dir=ck)
        assert first.total_pairs == 69
        with pytest.raises(ValueError) as err:
            self.run8(uniform8, 0.15, checkpoint_dir=ck, resume=True)
        assert "epsilon 0.25 -> 0.15" in str(err.value)
        assert "grid_epsilon 0.25 -> 0.15" in str(err.value)
        # A fresh run at the new epsilon is fine, and differs.
        fresh = self.run8(uniform8, 0.15, checkpoint_dir=ck)
        assert fresh.total_pairs < first.total_pairs

    @pytest.mark.parametrize("change,key", [
        ({"unit_bytes": UNIT_BYTES * 2}, "unit_bytes"),
        ({"metric": "manhattan"}, "metric"),
        ({"minlen": 8}, "minlen"),
        ({"sort_memory_records": 50}, "sort_memory_records"),
    ])
    def test_each_recorded_key_is_checked(self, dataset, tmp_path, change,
                                          key):
        ck = str(tmp_path / "ck")
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck,
                     fault_plan=FaultPlan(crash_ops=[150]))
        kwargs = dict(checkpoint_dir=ck, resume=True)
        if key == "unit_bytes":
            with SimulatedDisk() as disk:
                pf = make_file(disk, dataset)
                with pytest.raises(ValueError, match=key):
                    ego_self_join_file(pf, EPSILON,
                                       buffer_units=BUFFER_UNITS,
                                       **change, **kwargs)
            return
        with pytest.raises(ValueError, match=key):
            run_join(dataset, **change, **kwargs)

    def test_resolved_threshold_is_recorded(self, dataset, tmp_path):
        """An ``auto`` checkpoint (GEMM leaves, threshold 256) refuses a
        ``vector`` resume (threshold 32) but accepts any engine at the
        recorded threshold: the streams are identical there."""
        ck, ck_ref = str(tmp_path / "ck"), str(tmp_path / "ref")
        run_join(dataset, checkpoint_dir=ck_ref, engine="auto")
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck, engine="auto",
                     fault_plan=FaultPlan(crash_ops=[150]))
        with pytest.raises(ValueError, match="minlen 256 -> 32"):
            run_join(dataset, checkpoint_dir=ck, resume=True,
                     engine="vector")
        report = run_join(dataset, checkpoint_dir=ck, resume=True,
                          engine="vector", minlen=256)
        assert report.resumed
        with open(os.path.join(ck, "result.prs"), "rb") as got, \
                open(os.path.join(ck_ref, "result.prs"), "rb") as ref:
            assert got.read() == ref.read()

    def test_journal_without_parameters_is_refused(self, dataset, tmp_path):
        ck = str(tmp_path / "ck")
        with pytest.raises(SimulatedCrash):
            run_join(dataset, checkpoint_dir=ck,
                     fault_plan=FaultPlan(crash_ops=[150]))
        path = os.path.join(ck, "journal.json")
        with open(path) as fh:
            state = json.load(fh)
        del state["run_params"]  # as written before parameters were kept
        with open(path, "w") as fh:
            json.dump(state, fh)
        with pytest.raises(ValueError, match="records no run parameters"):
            run_join(dataset, checkpoint_dir=ck, resume=True)

    def test_cli_resume_mismatch_exits_2(self, tmp_path, capsys):
        data = str(tmp_path / "pts.pts")
        ck = str(tmp_path / "ck")
        save_points(data, np.random.default_rng(3).random((300, 4)))
        assert main(["join", data, "--epsilon", "0.2", "--count-only",
                     "--checkpoint", ck]) == 0
        capsys.readouterr()
        assert main(["join", data, "--epsilon", "0.1", "--count-only",
                     "--checkpoint", ck, "--resume"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "epsilon 0.2 -> 0.1" in err
        assert "Traceback" not in err
