"""DurablePlatform: WAL-ahead writes, snapshots, crash recovery."""

import pytest

from repro.core.gepc import GreedySolver
from repro.core.iep.operations import BudgetChange, EtaDecrease
from repro.core.plan import PlanSummary
from repro.platform import (
    CrashInjector,
    DurablePlatform,
    EBSNPlatform,
    InjectedCrash,
    OperationStream,
    RecoveryError,
    latest_snapshot,
    load_snapshot,
    recover_wal,
    save_snapshot,
)
from repro.platform.durable import (
    CRASH_APPLY,
    CRASH_POINTS,
    CRASH_SNAPSHOT,
    CRASH_WAL_APPEND,
    WAL_FILENAME,
    _tear_wal_tail,
)
from repro.platform.snapshot import SnapshotError, list_snapshots

from tests.conftest import random_instance


def make_durable(tmp_path, seed=3, snapshot_every=4, **kwargs):
    instance = random_instance(seed, n_users=12, n_events=6)
    return DurablePlatform(
        instance,
        tmp_path / "state",
        solver=GreedySolver(seed=seed),
        snapshot_every=snapshot_every,
        fsync=False,
        **kwargs,
    )


def run_workload(platform, seed=3, count=10):
    """Publish then push ``count`` stream operations; returns them."""
    platform.publish_plans()
    stream = OperationStream(seed=seed)
    operations = []
    for _ in range(count):
        operation = next(
            iter(stream.mixed(platform.instance, platform.plan, 1))
        )
        operations.append(operation)
        platform.submit(operation)
    return operations


class TestDurableWrites:
    def test_publish_writes_baseline_snapshot(self, tmp_path):
        with make_durable(tmp_path) as platform:
            utility = platform.publish_plans()
        snapshot = latest_snapshot(tmp_path / "state")
        assert snapshot is not None
        assert snapshot.seq == 0
        assert snapshot.utility == pytest.approx(utility)

    def test_wal_grows_ahead_of_applies(self, tmp_path):
        with make_durable(tmp_path) as platform:
            run_workload(platform, count=5)
            assert platform.seq == 5
            assert len(platform.log) == 5
        recovery = recover_wal(tmp_path / "state" / WAL_FILENAME)
        assert recovery.last_seq == 5
        assert recovery.truncated_records == 0

    def test_snapshot_cadence(self, tmp_path):
        with make_durable(tmp_path, snapshot_every=2) as platform:
            run_workload(platform, count=5)
        seqs = [load_snapshot(p).seq for p in list_snapshots(tmp_path / "state")]
        assert seqs == [0, 2, 4]

    def test_snapshot_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_every"):
            make_durable(tmp_path, snapshot_every=0)

    def test_delegated_reads_match_inner_platform(self, tmp_path):
        with make_durable(tmp_path) as platform:
            run_workload(platform, count=4)
            assert platform.is_planned
            for user in range(platform.instance.n_users):
                plan = platform.plan_for(user)
                for event in plan:
                    assert user in platform.attendees_of(event)
            assert platform.audit()["violations"] == 0.0


class TestRejectedOperations:
    def test_rejection_leaves_state_untouched_and_tombstones(self, tmp_path):
        with make_durable(tmp_path) as platform:
            platform.publish_plans()
            before = platform.audit()["utility"]
            summary = PlanSummary.of(platform.plan)
            with pytest.raises((ValueError, IndexError)):
                platform.submit(EtaDecrease(10**6, 1))  # no such event
            assert platform.audit()["utility"] == before
            assert PlanSummary.of(platform.plan) == summary
            assert platform.log == []
        recovery = recover_wal(tmp_path / "state" / WAL_FILENAME)
        assert recovery.rejected_seqs == frozenset({1})
        assert recovery.replayable() == []

    def test_recovery_skips_rejected_seq(self, tmp_path):
        with make_durable(tmp_path) as platform:
            platform.publish_plans()
            with pytest.raises((ValueError, IndexError)):
                platform.submit(EtaDecrease(10**6, 1))
            platform.submit(BudgetChange(0, 30.0))
            utility = platform.audit()["utility"]
        recovered, report = DurablePlatform.recover(
            tmp_path / "state", fsync=False
        )
        recovered.close()
        assert report.ok
        assert report.rejected_skipped == 1
        assert report.replayed == 1
        assert report.utility == utility


class TestRecovery:
    def test_round_trip_equals_uncrashed_state(self, tmp_path):
        with make_durable(tmp_path, snapshot_every=4) as platform:
            run_workload(platform, count=10)
            utility = platform.audit()["utility"]
            summary = PlanSummary.of(platform.plan)
        recovered, report = DurablePlatform.recover(
            tmp_path / "state", fsync=False
        )
        recovered.close()
        assert report.ok
        assert report.last_seq == 10
        # Snapshot at seq 8 (cadence 4), so only the suffix is replayed.
        assert report.snapshot_seq == 8
        assert report.replayed == 2
        assert report.utility == utility
        assert PlanSummary.of(recovered.plan) == summary

    def test_recover_without_snapshot_raises(self, tmp_path):
        (tmp_path / "state").mkdir()
        with pytest.raises(RecoveryError, match="no valid snapshot"):
            DurablePlatform.recover(tmp_path / "state")

    def test_torn_tail_truncated_not_replayed(self, tmp_path):
        with make_durable(tmp_path, snapshot_every=100) as platform:
            run_workload(platform, count=6)
        wal_path = tmp_path / "state" / WAL_FILENAME
        prefix = recover_wal(wal_path, truncate=False)
        _tear_wal_tail(wal_path)
        recovered, report = DurablePlatform.recover(
            tmp_path / "state", fsync=False
        )
        recovered.close()
        assert report.ok
        assert report.truncated_records == 1
        assert report.truncated_bytes > 0
        assert report.last_seq == 5
        assert prefix.last_seq == 6  # the torn record was real before the tear
        # The WAL file itself was repaired: a second scan is clean.
        assert recover_wal(wal_path).truncated_records == 0

    def test_recovered_platform_is_live(self, tmp_path):
        with make_durable(tmp_path) as platform:
            run_workload(platform, count=3)
        recovered, report = DurablePlatform.recover(
            tmp_path / "state", fsync=False
        )
        with recovered:
            entry = recovered.submit(BudgetChange(1, 28.0))
            assert recovered.seq == 4
            assert entry.utility_before == pytest.approx(report.utility)
        # And the continued history recovers too.
        again, second = DurablePlatform.recover(tmp_path / "state", fsync=False)
        again.close()
        assert second.ok
        assert second.last_seq == 4

    def test_report_summary_mentions_outcome(self, tmp_path):
        with make_durable(tmp_path) as platform:
            run_workload(platform, count=2)
        recovered, report = DurablePlatform.recover(
            tmp_path / "state", fsync=False
        )
        recovered.close()
        assert "ok" in report.summary()
        assert str(tmp_path / "state") in report.summary()


class TestSnapshotAheadOfWal:
    def test_snapshot_outlives_torn_wal_record(self, tmp_path):
        # Cadence 1: every accepted op snapshots, so tearing the last WAL
        # record leaves a snapshot *newer* than the surviving WAL.  The
        # durable horizon must be the snapshot's seq, and new appends must
        # resume above it (no sequence collision).
        with make_durable(tmp_path, snapshot_every=1) as platform:
            run_workload(platform, count=3)
            utility = platform.audit()["utility"]
        _tear_wal_tail(tmp_path / "state" / WAL_FILENAME)
        recovered, report = DurablePlatform.recover(
            tmp_path / "state", fsync=False
        )
        assert report.ok
        assert report.wal_last_seq == 2
        assert report.snapshot_seq == 3
        assert report.last_seq == 3
        assert report.replayed == 0
        assert report.utility == utility
        with recovered:
            recovered.submit(BudgetChange(0, 31.0))
            assert recovered.seq == 4


class TestCrashInjector:
    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="crash_after"):
            CrashInjector(0)
        with pytest.raises(ValueError, match="crash point"):
            CrashInjector(1, point="teleport")

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CRASH_AFTER", raising=False)
        assert CrashInjector.from_env() is None
        monkeypatch.setenv("REPRO_CRASH_AFTER", "7")
        monkeypatch.setenv("REPRO_CRASH_POINT", "apply")
        monkeypatch.setenv("REPRO_CRASH_TEAR", "1")
        injector = CrashInjector.from_env()
        assert injector.crash_after == 7
        assert injector.point == CRASH_APPLY
        assert injector.tear_tail is True

    def test_fires_once_at_nth_occurrence(self, tmp_path):
        injector = CrashInjector(crash_after=3, point=CRASH_WAL_APPEND)
        platform = make_durable(tmp_path, injector=injector)
        platform.publish_plans()
        platform.submit(BudgetChange(0, 30.0))
        platform.submit(BudgetChange(1, 30.0))
        with pytest.raises(InjectedCrash):
            platform.submit(BudgetChange(2, 30.0))
        assert injector.fired
        # A fired injector never fires again (the "process" is dead).
        injector.fire(CRASH_WAL_APPEND, platform._wal)

    @pytest.mark.parametrize("point", CRASH_POINTS)
    @pytest.mark.parametrize("tear_tail", [False, True])
    def test_crash_at_every_point_recovers_to_twin(
        self, tmp_path, point, tear_tail
    ):
        from repro.platform.durable import REJECTION_ERRORS

        # The uncrashed twin records its state after every sequence number
        # (rejected ops consume a seq without changing state).
        seed, count = 5, 8
        twin_states = {}
        with make_durable(
            tmp_path / "twin", seed=seed, snapshot_every=3
        ) as twin:
            twin.publish_plans()
            twin_states[0] = (
                twin.audit()["utility"], PlanSummary.of(twin.plan)
            )
            stream = OperationStream(seed=seed)
            operations = []
            for _ in range(count):
                operation = next(
                    iter(stream.mixed(twin.instance, twin.plan, 1))
                )
                operations.append(operation)
                try:
                    twin.submit(operation)
                except REJECTION_ERRORS:
                    pass
                twin_states[twin.seq] = (
                    twin.audit()["utility"], PlanSummary.of(twin.plan)
                )

        injector = CrashInjector(
            crash_after=2 if point == CRASH_SNAPSHOT else 4,
            point=point,
            tear_tail=tear_tail,
        )
        crashed = make_durable(
            tmp_path / "crash", seed=seed, snapshot_every=3,
            injector=injector,
        )
        with pytest.raises(InjectedCrash):
            crashed.publish_plans()
            for operation in operations:
                try:
                    crashed.submit(operation)
                except REJECTION_ERRORS:
                    pass
        assert injector.fired

        recovered, report = DurablePlatform.recover(
            tmp_path / "crash" / "state", fsync=False
        )
        recovered.close()
        assert report.ok
        utility, summary = twin_states[report.last_seq]
        assert report.utility == utility
        assert PlanSummary.of(recovered.plan) == summary


class TestSnapshotFiles:
    def test_latest_skips_corrupt_snapshot(self, tmp_path):
        instance = random_instance(1, n_users=6, n_events=4)
        plan = GreedySolver(seed=1).solve(instance).plan
        save_snapshot(tmp_path, instance, plan, seq=1, durable=False)
        newest = save_snapshot(tmp_path, instance, plan, seq=2, durable=False)
        newest.write_text(newest.read_text()[: newest.stat().st_size // 2])
        with pytest.raises(SnapshotError):
            load_snapshot(newest)
        snapshot = latest_snapshot(tmp_path)
        assert snapshot is not None
        assert snapshot.seq == 1

    def test_crc_tamper_detected(self, tmp_path):
        instance = random_instance(1, n_users=6, n_events=4)
        plan = GreedySolver(seed=1).solve(instance).plan
        path = save_snapshot(tmp_path, instance, plan, seq=3, durable=False)
        path.write_text(path.read_text().replace('"seq":3', '"seq":4'))
        with pytest.raises(SnapshotError, match="CRC"):
            load_snapshot(path)

    def test_round_trip_preserves_plan(self, tmp_path):
        instance = random_instance(2, n_users=8, n_events=5)
        plan = GreedySolver(seed=2).solve(instance).plan
        path = save_snapshot(tmp_path, instance, plan, seq=7, durable=False)
        snapshot = load_snapshot(path)
        assert snapshot.seq == 7
        assert PlanSummary.of(snapshot.plan) == PlanSummary.of(plan)


class TestBatchedOverDurable:
    def test_batched_traffic_is_durable(self, tmp_path):
        from repro.scale import BatchedPlatform

        durable = make_durable(tmp_path, seed=9)
        batched = BatchedPlatform(platform=durable)
        batched.publish_plans()
        stream = OperationStream(seed=9)
        for operation in stream.mixed(batched.instance, batched.plan, 8):
            batched.enqueue(operation)
        batched.flush()
        utility = batched.snapshot()["utility"]
        applied = list(batched.applied_log)
        durable.close()

        recovered, report = DurablePlatform.recover(
            tmp_path / "state", fsync=False
        )
        recovered.close()
        assert report.ok
        assert report.utility == pytest.approx(utility)
        # The durable log agrees with what the batcher believes it applied.
        serial = EBSNPlatform(
            random_instance(9, n_users=12, n_events=6),
            solver=GreedySolver(seed=9),
        )
        serial.publish_plans()
        for operation in applied:
            serial.submit(operation)
        assert PlanSummary.of(serial.plan) == PlanSummary.of(recovered.plan)
