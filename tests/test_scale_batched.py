"""BatchedPlatform: coalescing rules, backpressure, replay equivalence."""

import pytest

from repro.core.iep.operations import (
    BudgetChange,
    EtaDecrease,
    EtaIncrease,
    NewEvent,
    TimeChange,
    UtilityChange,
    XiDecrease,
    XiIncrease,
)
from repro.core.plan import PlanSummary
from repro.datasets import MeetupConfig, generate_ebsn
from repro.geo.point import Point
from repro.platform import EBSNPlatform, OperationStream
from repro.scale import BatchedPlatform, coalesce_operations
from repro.timeline.interval import Interval

pytestmark = pytest.mark.usefixtures("shadow_checks_from_env")


@pytest.fixture()
def instance():
    return generate_ebsn(MeetupConfig(n_users=40, n_events=8, seed=3))


@pytest.fixture()
def platform(instance):
    batched = BatchedPlatform(instance)
    batched.publish_plans()
    return batched


class TestCoalescing:
    def test_eta_decreases_fold_to_tightest(self):
        survivors, folded = coalesce_operations(
            [EtaDecrease(0, 5), EtaDecrease(0, 3), EtaDecrease(0, 4)]
        )
        assert survivors == [EtaDecrease(0, 3)]
        assert folded == 2

    def test_eta_increases_fold_to_loosest(self):
        survivors, _ = coalesce_operations(
            [EtaIncrease(1, 6), EtaIncrease(1, 9)]
        )
        assert survivors == [EtaIncrease(1, 9)]

    def test_xi_bounds_fold_to_extremes(self):
        survivors, _ = coalesce_operations(
            [XiIncrease(2, 3), XiIncrease(2, 5), XiDecrease(3, 2),
             XiDecrease(3, 1)]
        )
        assert XiIncrease(2, 5) in survivors
        assert XiDecrease(3, 1) in survivors

    def test_attribute_writes_are_last_wins(self):
        survivors, folded = coalesce_operations(
            [BudgetChange(4, 10.0), BudgetChange(4, 20.0),
             UtilityChange(1, 2, 0.5), UtilityChange(1, 2, 0.9)]
        )
        assert survivors == [BudgetChange(4, 20.0), UtilityChange(1, 2, 0.9)]
        assert folded == 2

    def test_different_targets_never_fold(self):
        survivors, folded = coalesce_operations(
            [EtaDecrease(0, 5), EtaDecrease(1, 5), BudgetChange(0, 9.0),
             BudgetChange(1, 9.0)]
        )
        assert len(survivors) == 4
        assert folded == 0

    def test_different_types_on_same_event_never_fold(self):
        operations = [
            EtaDecrease(0, 5),
            EtaIncrease(0, 9),
            XiDecrease(0, 0),
            TimeChange(0, Interval(0.0, 1.0)),
        ]
        survivors, folded = coalesce_operations(operations)
        assert survivors == operations
        assert folded == 0

    def test_new_events_never_fold(self):
        ops = [
            NewEvent(Point(0.0, 0.0), 0, 3, Interval(0.0, 1.0), [0.0] * 4),
            NewEvent(Point(1.0, 1.0), 0, 3, Interval(2.0, 3.0), [0.0] * 4),
        ]
        survivors, folded = coalesce_operations(list(ops))
        assert len(survivors) == 2
        assert folded == 0

    def test_first_occurrence_order_preserved(self):
        survivors, _ = coalesce_operations(
            [EtaDecrease(0, 5), BudgetChange(1, 9.0), EtaDecrease(0, 4)]
        )
        assert survivors == [EtaDecrease(0, 4), BudgetChange(1, 9.0)]


class TestFlushAndBackpressure:
    def test_empty_flush_is_a_noop(self, platform):
        result = platform.flush()
        assert result.submitted == 0
        assert result.applied == []
        assert result.ok

    def test_flush_applies_and_audits_once(self, platform):
        upper = platform.instance.events[0].upper
        platform.enqueue(EtaDecrease(0, max(1, upper - 1)))
        platform.enqueue(BudgetChange(1, 25.0))
        result = platform.flush()
        assert result.submitted == 2
        assert len(result.applied) == 2
        assert result.violations == 0
        assert platform.queue_depth() == 0

    def test_enqueue_never_flushes(self, platform):
        # However long the queue grows, everything up to flush() is one
        # batch answered by one BatchResult.
        users = platform.instance.n_users
        for position in range(70):
            if position == 35:
                platform.enqueue(EtaDecrease(10**6, 1))  # no such event
            else:
                platform.enqueue(BudgetChange(position % users, 30.0))
        assert platform.queue_depth() == 70
        assert platform.stats()["flushes"] == 0
        result = platform.flush()
        assert result.submitted == 70
        assert [op for op, _ in result.rejected] == [EtaDecrease(10**6, 1)]
        assert len(result.applied) + result.folded + 1 == 70
        assert platform.stats()["flushes"] == 1

    def test_invalid_operations_rejected_not_applied(self, platform):
        platform.enqueue(BudgetChange(0, 30.0))
        platform.enqueue(EtaDecrease(10**6, 1))  # no such event
        result = platform.flush()
        assert len(result.applied) == 1
        assert len(result.rejected) == 1
        assert result.violations == 0
        assert len(platform.applied_log) == 1

    def test_all_rejected_flush_checks_the_plan_once(
        self, platform, monkeypatch
    ):
        from repro.core.constraints import check_plan
        from repro.platform import service
        from repro.scale import batched

        calls = []

        def counting(instance, plan):
            calls.append(plan)
            return check_plan(instance, plan)

        # Every module that calls check_plan on the flush path.
        monkeypatch.setattr(batched, "check_plan", counting)
        monkeypatch.setattr(service, "check_plan", counting)
        platform.enqueue(EtaDecrease(10**6, 1))  # no such event
        result = platform.flush()
        assert len(result.rejected) == 1 and not result.applied
        assert len(calls) == 1
        assert result.utility == platform.snapshot()["utility"]

    def test_stats_track_coalescing(self, platform):
        upper = platform.instance.events[0].upper
        platform.enqueue(EtaDecrease(0, max(1, upper - 1)))
        platform.enqueue(EtaDecrease(0, max(1, upper - 2)))
        platform.flush()
        stats = platform.stats()
        assert stats["enqueued"] == 2
        assert stats["folded"] == 1
        assert stats["applied"] == 1


class TestReplayEquivalence:
    def test_serial_replay_of_applied_log_matches(self, instance):
        batched = BatchedPlatform(instance)
        batched.publish_plans()
        stream = OperationStream(seed=11)
        for _ in range(4):
            for operation in stream.mixed(batched.instance, batched.plan, 5):
                batched.enqueue(operation)
            batched.flush()

        serial = EBSNPlatform(instance)
        serial.publish_plans()
        for operation in batched.applied_log:
            serial.submit(operation)
        assert PlanSummary.of(serial.plan) == PlanSummary.of(batched.plan)
        assert serial.audit()["utility"] == pytest.approx(
            batched.snapshot()["utility"]
        )

    def test_snapshot_has_no_violations(self, instance):
        batched = BatchedPlatform(instance)
        batched.publish_plans()
        stream = OperationStream(seed=2)
        for operation in stream.mixed(batched.instance, batched.plan, 12):
            batched.enqueue(operation)
        batched.flush()
        snapshot = batched.snapshot()
        assert snapshot["violations"] == 0
        assert snapshot["queue_depth"] == 0

    def test_replay_is_seed_stable(self, instance):
        logs = []
        for _ in range(2):
            batched = BatchedPlatform(instance)
            batched.publish_plans()
            stream = OperationStream(seed=7)
            for _ in range(3):
                for operation in stream.mixed(
                    batched.instance, batched.plan, 4
                ):
                    batched.enqueue(operation)
                batched.flush()
            logs.append(batched.applied_log)
        assert logs[0] == logs[1]


class TestRejectionSurfacing:
    """flush never silently swallows failures — they land in
    ``result.rejected`` with their reasons."""

    def test_default_keeps_collecting_quietly(self, instance):
        batched = BatchedPlatform(instance)
        batched.publish_plans()
        batched.enqueue(EtaDecrease(10**6, 1))
        result = batched.flush()
        assert len(result.rejected) == 1
        operation, reason = result.rejected[0]
        assert operation == EtaDecrease(10**6, 1)
        assert reason
        assert not result.ok


class TestPlatformParameter:
    def test_exactly_one_of_instance_or_platform(self, instance):
        from repro.platform import EBSNPlatform

        with pytest.raises(ValueError, match="exactly one"):
            BatchedPlatform()
        with pytest.raises(ValueError, match="exactly one"):
            BatchedPlatform(instance, platform=EBSNPlatform(instance))

    def test_solver_requires_instance(self, instance):
        from repro.core.gepc import GreedySolver
        from repro.platform import EBSNPlatform

        with pytest.raises(ValueError, match="solver"):
            BatchedPlatform(
                platform=EBSNPlatform(instance),
                solver=GreedySolver(seed=0),
            )

    def test_wrapped_platform_receives_traffic(self, instance):
        from repro.platform import EBSNPlatform

        inner = EBSNPlatform(instance)
        batched = BatchedPlatform(platform=inner)
        batched.publish_plans()
        batched.enqueue(BudgetChange(0, 30.0))
        batched.flush()
        assert len(inner.log) == 1
        assert batched.plan is inner.plan


class TestShutdownSafety:
    """The close() contract the service layer stands on (ISSUE 9)."""

    def test_close_flushes_pending_batch_exactly_once(self, platform):
        platform.enqueue(BudgetChange(0, 30.0))
        platform.enqueue(BudgetChange(1, 31.0))
        result = platform.close()
        assert result.submitted == 2
        assert len(result.applied) == 2
        assert platform.queue_depth() == 0
        assert platform.stats()["flushes"] == 1

    def test_enqueue_after_close_raises_clearly(self, platform):
        from repro.scale import PlatformClosedError

        platform.close()
        with pytest.raises(PlatformClosedError, match="closed"):
            platform.enqueue(BudgetChange(0, 30.0))
        # The refusal left nothing queued behind the closed flag.
        assert platform.queue_depth() == 0

    def test_close_is_idempotent(self, platform):
        platform.enqueue(BudgetChange(0, 30.0))
        first = platform.close()
        second = platform.close()
        third = platform.close()
        assert len(first.applied) == 1
        assert second.submitted == 0 and not second.applied
        assert third.submitted == 0 and not third.applied
        assert platform.stats()["flushes"] == 1
        assert platform.closed

    def test_close_propagates_to_inner_platform_once(self, instance):
        class ClosableInner(EBSNPlatform):
            closes = 0

            def close(self):
                type(self).closes += 1

        inner = ClosableInner(instance)
        batched = BatchedPlatform(platform=inner)
        batched.publish_plans()
        batched.enqueue(BudgetChange(0, 30.0))
        batched.close()
        batched.close()
        assert ClosableInner.closes == 1
        assert len(inner.log) == 1  # the final flush reached the inner

    def test_flush_after_close_is_safe_and_empty(self, platform):
        platform.close()
        result = platform.flush()
        assert result.submitted == 0
        assert not result.applied

    def test_context_manager_closes(self, instance):
        with BatchedPlatform(instance) as batched:
            batched.publish_plans()
            batched.enqueue(BudgetChange(0, 30.0))
        assert batched.closed
        assert batched.queue_depth() == 0

    def test_reads_still_work_after_close(self, platform):
        platform.enqueue(BudgetChange(0, 30.0))
        platform.close()
        assert platform.plan_for(0) is not None
        assert platform.snapshot()["violations"] == 0

    def test_close_over_durable_seals_the_wal(self, instance, tmp_path):
        from repro.platform import DurablePlatform

        durable = DurablePlatform(instance, tmp_path, fsync=False)
        batched = BatchedPlatform(platform=durable)
        batched.publish_plans()
        batched.enqueue(BudgetChange(0, 30.0))
        batched.close()
        # The pending op was flushed into the WAL before the close.
        assert durable.seq == 1
        recovered, report = DurablePlatform.recover(
            tmp_path, fsync=False
        )
        assert report.ok
        assert report.last_seq == 1
        recovered.close()
