"""Tests for fault injection and the detection/recovery layers."""

import os

import numpy as np
import pytest

from repro.core.ego_join import ego_self_join_file
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (FaultPlan, FaultyDisk, SimulatedCrash,
                                  TransientReadError)
from repro.storage.integrity import (ChecksummedDisk, CorruptPageError,
                                     RetryingDisk, RetryPolicy,
                                     make_robust_disk)

from conftest import make_file


def faulty(disk, **plan_kwargs):
    return FaultyDisk(disk, FaultPlan(**plan_kwargs))


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(read_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_rate=-0.1)

    def test_same_seed_same_faults(self, temp_disk):
        temp_disk.write(0, b"payload" * 100)

        def run(seed):
            plan = FaultPlan(seed=seed, read_error_rate=0.3)
            fd = FaultyDisk(temp_disk, plan)
            outcomes = []
            for _ in range(50):
                try:
                    fd.read(0, 64)
                    outcomes.append("ok")
                except TransientReadError:
                    outcomes.append("err")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_crash_fires_once_at_scheduled_op(self, temp_disk):
        fd = faulty(temp_disk, crash_ops=[2])
        fd.write(0, b"a" * 10)          # op 0
        fd.read(0, 10)                  # op 1
        with pytest.raises(SimulatedCrash) as exc:
            fd.read(0, 10)              # op 2: crash
        assert exc.value.op_index == 2
        fd.read(0, 10)                  # fires at most once
        assert fd.plan.injected.crashes == 1

    def test_crash_is_not_an_ioerror(self):
        # Retry layers must never swallow a crash.
        assert not issubclass(SimulatedCrash, IOError)

    def test_without_crashes_keeps_rates(self):
        plan = FaultPlan(seed=3, read_error_rate=0.25, crash_ops=[5, 9])
        resumed = plan.without_crashes()
        assert resumed.crash_ops == set()
        assert resumed.read_error_rate == 0.25
        assert resumed.seed == 3

    def test_shared_plan_has_global_op_order(self, tmp_path):
        plan = FaultPlan(crash_ops=[3])
        d1 = SimulatedDisk(path=str(tmp_path / "a.bin"))
        d2 = SimulatedDisk(path=str(tmp_path / "b.bin"))
        try:
            f1, f2 = FaultyDisk(d1, plan), FaultyDisk(d2, plan)
            f1.write(0, b"x")            # op 0
            f2.write(0, b"y")            # op 1
            f1.read(0, 1)                # op 2
            with pytest.raises(SimulatedCrash):
                f2.read(0, 1)            # op 3 across both devices
        finally:
            d1.close()
            d2.close()

    def test_pressure_windows(self, temp_disk):
        fd = faulty(temp_disk, pressure_ranges=[(1, 3)])
        assert not fd.under_pressure
        fd.write(0, b"a")                # op 0 -> now at 1
        assert fd.under_pressure
        fd.write(1, b"b")                # op 1 -> now at 2
        assert fd.under_pressure
        fd.write(2, b"c")                # op 2 -> now at 3
        assert not fd.under_pressure


class TestFaultyDisk:
    def test_torn_write_is_silent_and_short(self, temp_disk):
        fd = faulty(temp_disk, seed=0, torn_write_rate=1.0)
        payload = b"0123456789" * 10
        assert fd.write(0, payload) == len(payload)  # reports full success
        assert temp_disk.size() < len(payload)
        assert fd.plan.injected.torn_writes == 1

    def test_corruption_flips_exactly_one_bit(self, temp_disk):
        temp_disk.write(0, bytes(256))
        fd = faulty(temp_disk, seed=1, corrupt_rate=1.0)
        data = fd.read(0, 256)
        flipped = [i for i, b in enumerate(data) if b != 0]
        assert len(flipped) == 1
        assert bin(data[flipped[0]]).count("1") == 1

    def test_crash_on_write_tears_it(self, temp_disk):
        fd = faulty(temp_disk, seed=2, crash_ops=[0], tear_on_crash=True)
        with pytest.raises(SimulatedCrash):
            fd.write(0, b"z" * 100)
        assert 0 < temp_disk.size() < 100

    def test_accounting_shared_with_base_disk(self, temp_disk):
        fd = faulty(temp_disk)
        fd.write(0, b"x" * 64)
        fd.read(0, 64)
        assert fd.counters is temp_disk.counters
        assert temp_disk.counters.total_accesses == 2


class TestChecksummedDisk:
    def test_round_trip_verified(self, temp_disk):
        cd = ChecksummedDisk(temp_disk, page_bytes=64, sidecar=False)
        cd.write(0, b"a" * 200)
        assert cd.read(0, 200) == b"a" * 200

    def test_detects_out_of_band_corruption(self, temp_disk):
        cd = ChecksummedDisk(temp_disk, page_bytes=64, sidecar=False)
        cd.write(0, b"a" * 200)
        temp_disk.write(70, b"X")  # corrupt behind the layer's back
        with pytest.raises(CorruptPageError) as exc:
            cd.read(0, 200)
        assert exc.value.page == 1
        assert temp_disk.counters.corrupt_pages == 1

    def test_detects_torn_write(self, temp_disk):
        cd = ChecksummedDisk(temp_disk, page_bytes=64, sidecar=False)
        cd.write(0, b"b" * 100)
        temp_disk.truncate(50)  # the tail of the write never made it
        with pytest.raises(CorruptPageError):
            cd.read(0, 50)

    def test_sequential_extension_streams(self, temp_disk):
        cd = ChecksummedDisk(temp_disk, page_bytes=4096, sidecar=False)
        cd.write(0, b"a" * 1000)
        cd.write(1000, b"b" * 1000)  # extends page 0's stream
        assert cd.read(500, 1000) == b"a" * 500 + b"b" * 500

    def test_rewrite_restarts_stream(self, temp_disk):
        cd = ChecksummedDisk(temp_disk, page_bytes=64, sidecar=False)
        cd.write(0, b"old " * 16)
        cd.write(0, b"new " * 16)
        assert cd.read(0, 64) == b"new " * 16

    def test_interior_overwrite_is_uncheckable_not_fatal(self, temp_disk):
        cd = ChecksummedDisk(temp_disk, page_bytes=64, sidecar=False)
        cd.write(0, b"h" * 64)
        cd.write(8, b"patch")  # e.g. a header count update
        assert cd.read(0, 64)[8:13] == b"patch"

    def test_sidecar_survives_reopen(self, tmp_path):
        path = str(tmp_path / "d.bin")
        with ChecksummedDisk(SimulatedDisk(path=path), page_bytes=64) as cd:
            cd.write(0, b"persisted" * 20)
        disk = SimulatedDisk(path=path)
        cd2 = ChecksummedDisk(disk, page_bytes=64)
        try:
            assert cd2.verify_file() > 0
            disk.write(3, b"!")  # corrupt after the checksums persisted
            with pytest.raises(CorruptPageError):
                cd2.read(0, 64)
        finally:
            disk.close()

    def test_truncate_drops_checksums_past_cut(self, temp_disk):
        cd = ChecksummedDisk(temp_disk, page_bytes=64, sidecar=False)
        cd.write(0, b"c" * 200)
        cd.truncate(64)
        cd.write(64, b"d" * 64)
        assert cd.read(0, 128) == b"c" * 64 + b"d" * 64


class TestRetryingDisk:
    def test_transient_errors_retried_to_success(self, temp_disk):
        temp_disk.write(0, b"stable content")
        plan = FaultPlan(seed=4, read_error_rate=0.5)
        rd = RetryingDisk(FaultyDisk(temp_disk, plan),
                          RetryPolicy(max_attempts=50))
        for _ in range(20):
            assert rd.read(0, 14) == b"stable content"
        assert temp_disk.counters.read_faults > 0
        assert (temp_disk.counters.read_retries
                == temp_disk.counters.read_faults)

    def test_exhausted_policy_reraises(self, temp_disk):
        temp_disk.write(0, b"x")
        plan = FaultPlan(seed=0, read_error_rate=1.0)
        rd = RetryingDisk(FaultyDisk(temp_disk, plan),
                          RetryPolicy(max_attempts=3))
        with pytest.raises(TransientReadError):
            rd.read(0, 1)
        assert temp_disk.counters.read_faults == 3
        assert temp_disk.counters.read_retries == 2

    def test_backoff_charged_to_simulated_clock(self, temp_disk):
        temp_disk.write(0, b"x")
        plan = FaultPlan(seed=0, read_error_rate=1.0)
        policy = RetryPolicy(max_attempts=3, initial_backoff_s=0.1,
                             multiplier=2.0)
        rd = RetryingDisk(FaultyDisk(temp_disk, plan), policy)
        before = temp_disk.simulated_time_s
        with pytest.raises(TransientReadError):
            rd.read(0, 1)
        waited = temp_disk.simulated_time_s - before
        assert waited >= 0.1 + 0.2  # two backoffs, plus read transfer time
        assert temp_disk.counters.retry_backoff_s == pytest.approx(0.3)

    def test_crash_never_retried(self, temp_disk):
        temp_disk.write(0, b"x")
        plan = FaultPlan(crash_ops=[0])
        rd = RetryingDisk(FaultyDisk(temp_disk, plan),
                          RetryPolicy(max_attempts=100))
        with pytest.raises(SimulatedCrash):
            rd.read(0, 1)
        assert temp_disk.counters.read_retries == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_retry_heals_corruption_through_checksums(self, temp_disk):
        # The canonical stack: corruption injected below the checksum
        # layer is detected there and healed by a re-read above it.
        plan = FaultPlan(seed=9, corrupt_rate=0.2)
        disk = make_robust_disk(temp_disk, plan=plan, checksums=True,
                                page_bytes=256, sidecar=False,
                                retry=RetryPolicy(max_attempts=20))
        disk.write(0, b"truth" * 200)
        for _ in range(30):
            assert disk.read(0, 1000) == b"truth" * 200
        assert plan.injected.corrupted_reads > 0
        assert temp_disk.counters.corrupt_pages > 0


class TestJoinUnderFaults:
    """Acceptance-level behaviour of the external join under faults."""

    @pytest.fixture()
    def dataset(self, rng):
        return rng.random((300, 4))

    def baseline(self, pts):
        with SimulatedDisk() as disk:
            pf = make_file(disk, pts)
            report = ego_self_join_file(pf, 0.25, unit_bytes=512,
                                        buffer_units=4)
            return report.result.canonical_pair_set()

    def test_corruption_without_retries_raises_not_wrong(self, dataset):
        # Acceptance criterion: a corrupted page with no retry policy
        # must surface as CorruptPageError, never as wrong pairs.
        with SimulatedDisk() as disk:
            pf = make_file(disk, dataset)
            with pytest.raises(CorruptPageError):
                ego_self_join_file(pf, 0.25, unit_bytes=512, buffer_units=4,
                                   fault_plan=FaultPlan(seed=11,
                                                        corrupt_rate=0.05),
                                   checksums=True)

    def test_transient_errors_with_retries_give_exact_result(self, dataset):
        expected = self.baseline(dataset)
        with SimulatedDisk() as disk:
            pf = make_file(disk, dataset)
            plan = FaultPlan(seed=3, read_error_rate=0.05)
            report = ego_self_join_file(pf, 0.25, unit_bytes=512,
                                        buffer_units=4, fault_plan=plan,
                                        retry=RetryPolicy())
        assert report.result.canonical_pair_set() == expected
        assert report.faults.transient_read_errors > 0
        assert report.io.read_retries > 0
        assert report.io.retry_backoff_s > 0

    def test_corruption_with_retries_gives_exact_result(self, dataset):
        expected = self.baseline(dataset)
        with SimulatedDisk() as disk:
            pf = make_file(disk, dataset)
            plan = FaultPlan(seed=11, corrupt_rate=0.02)
            report = ego_self_join_file(pf, 0.25, unit_bytes=512,
                                        buffer_units=4, fault_plan=plan,
                                        checksums=True, retry=RetryPolicy())
        assert report.result.canonical_pair_set() == expected
        assert report.faults.corrupted_reads > 0
        assert report.io.corrupt_pages > 0

    def test_crash_does_not_leak_temp_disks(self, dataset):
        # The join's anonymous sorted/scratch disks must be cleaned up
        # even when an exception escapes mid-pipeline.
        import glob
        import tempfile
        pattern = os.path.join(tempfile.gettempdir(), "repro-disk-*")
        before = set(glob.glob(pattern))
        with SimulatedDisk() as disk:
            pf = make_file(disk, dataset)
            with pytest.raises(SimulatedCrash):
                ego_self_join_file(pf, 0.25, unit_bytes=512, buffer_units=4,
                                   fault_plan=FaultPlan(crash_ops=[50]))
        assert set(glob.glob(pattern)) == before

    @pytest.mark.parametrize("ranges", [[(20, 120)], [(0, 10 ** 9)],
                                        [(50, 80), (150, 400)]])
    def test_pressure_degrades_gracefully(self, dataset, ranges):
        expected = self.baseline(dataset)
        with SimulatedDisk() as disk:
            pf = make_file(disk, dataset)
            plan = FaultPlan(seed=5, pressure_ranges=ranges)
            report = ego_self_join_file(pf, 0.25, unit_bytes=512,
                                        buffer_units=6, fault_plan=plan)
        assert report.result.canonical_pair_set() == expected
        if ranges == [(0, 10 ** 9)]:
            # Constant pressure must actually shrink the buffer; narrow
            # windows may legitimately never catch the pool with a frame
            # to spare, so only correctness is asserted for those.
            assert report.schedule_stats.pressure_shrinks > 0


class TestPressureScope:
    """Pressure windows are run-relative, not plan-lifetime positions."""

    def test_back_to_back_runs_rescope_pressure(self):
        # One fault plan reused across consecutive runs: the pressure
        # window is defined in run-relative operation indices, so the
        # second run must react exactly like the first instead of
        # sliding out of (or staying stuck inside) the window as the
        # plan's global op counter advances.
        dataset = np.random.default_rng(7).random((400, 4))
        plan = FaultPlan(seed=5, pressure_ranges=[(5, 60)])
        with SimulatedDisk() as disk:
            pf = make_file(disk, dataset)
            first, second = [
                ego_self_join_file(pf, 0.15, unit_bytes=2048,
                                   buffer_units=4, fault_plan=plan)
                for _ in range(2)]
        assert first.schedule_stats.pressure_shrinks > 0
        assert second.schedule_stats.pressure_shrinks == \
            first.schedule_stats.pressure_shrinks

    def test_pressure_scope_rebase(self):
        plan = FaultPlan(seed=0, pressure_ranges=[(0, 3)])
        assert plan.under_pressure()
        plan._op = 10
        assert not plan.under_pressure()
        plan.begin_pressure_scope()
        assert plan.under_pressure()
