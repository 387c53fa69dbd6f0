"""Tests for the simulated EBSN platform and operation streams."""

import pytest

from repro.core.gepc import GreedySolver
from repro.core.iep.operations import EtaDecrease
from repro.platform import EBSNPlatform, OperationStream

from tests.conftest import random_instance


class TestPlatform:
    def test_requires_publish_first(self, paper_instance):
        platform = EBSNPlatform(paper_instance)
        with pytest.raises(RuntimeError, match="publish_plans"):
            platform.plan_for(0)

    def test_publish_returns_utility(self, paper_instance):
        platform = EBSNPlatform(paper_instance)
        utility = platform.publish_plans()
        assert utility > 0
        assert platform.is_planned

    def test_plan_for_user(self, paper_instance):
        platform = EBSNPlatform(paper_instance)
        platform.publish_plans()
        for user in range(paper_instance.n_users):
            plan = platform.plan_for(user)
            assert all(0 <= event < paper_instance.n_events for event in plan)

    def test_attendees_view(self, paper_instance):
        platform = EBSNPlatform(paper_instance)
        platform.publish_plans()
        for event in range(paper_instance.n_events):
            attendees = platform.attendees_of(event)
            for user in attendees:
                assert event in platform.plan_for(user)

    def test_submit_updates_state_and_log(self, paper_instance):
        platform = EBSNPlatform(paper_instance)
        platform.publish_plans()
        entry = platform.submit(EtaDecrease(3, 2))
        assert platform.instance.events[3].upper == 2
        assert platform.log == [entry]
        assert entry.utility_before >= 0

    def test_log_entries_carry_span_timings(self, paper_instance):
        # Repairs are timed even with no recorder installed (obs layer).
        platform = EBSNPlatform(paper_instance)
        platform.publish_plans()
        first = platform.submit(EtaDecrease(3, 2))
        second = platform.submit(EtaDecrease(3, 1))
        assert first.seconds > 0.0
        assert second.seconds > 0.0
        audit = platform.audit()
        assert audit["seconds_total"] == pytest.approx(
            first.seconds + second.seconds
        )

    def test_audit_zero_violations(self):
        instance = random_instance(3, n_users=12, n_events=6)
        platform = EBSNPlatform(instance, solver=GreedySolver(seed=3))
        platform.publish_plans()
        stream = OperationStream(seed=3)
        for _ in range(15):
            operation = next(
                iter(stream.mixed(platform.instance, platform.plan, 1))
            )
            platform.submit(operation)
        audit = platform.audit()
        assert audit["violations"] == 0.0
        assert audit["operations"] == 15.0

    def test_utility_before_carries_forward(self, paper_instance):
        # Regression: `submit` used to recompute the full objective just to
        # fill utility_before; it now carries the previous entry's
        # utility_after forward.  The log must be unchanged by that.
        from repro.core.metrics import total_utility

        platform = EBSNPlatform(paper_instance, solver=GreedySolver(seed=0))
        published = platform.publish_plans()
        first = platform.submit(EtaDecrease(3, 2))
        assert first.utility_before == published
        expected_before = total_utility(platform.instance, platform.plan)
        second = platform.submit(EtaDecrease(3, 1))
        assert second.utility_before == first.utility_after
        assert second.utility_before == expected_before
        assert second.utility_after == total_utility(
            platform.instance, platform.plan
        )

    def test_utility_before_falls_back_without_publish(self, paper_instance):
        # A plan installed without going through publish_plans() still gets
        # a correct utility_before via one full computation.
        from repro.core.metrics import total_utility

        platform = EBSNPlatform(paper_instance)
        solution = GreedySolver(seed=0).solve(paper_instance)
        platform._plan = solution.plan
        expected = total_utility(paper_instance, solution.plan)
        entry = platform.submit(EtaDecrease(3, 2))
        assert entry.utility_before == expected

    def test_deep_audit_reports_cache_checks(self, paper_instance):
        platform = EBSNPlatform(paper_instance, solver=GreedySolver(seed=0))
        platform.publish_plans()
        shallow = platform.audit()
        assert "cache_checks" not in shallow
        deep = platform.audit(deep=True)
        assert deep["cache_checks"] > 0
        assert deep["cache_mismatches"] == 0.0

    def test_publish_frees_the_solves_kernel_rows(self):
        # The solve caches a kernel row per user and a blocked row per
        # user it touched; the published plan keeps only the blocked rows
        # of users with plans, and the audit still finds them consistent.
        instance = random_instance(5, n_users=30, n_events=8)
        platform = EBSNPlatform(instance, solver=GreedySolver(seed=5))
        platform.publish_plans()
        plan = platform.plan
        assert plan._kernel_cache == {}
        assert plan._blocked
        assert all(plan.user_plan(user) for user in plan._blocked)
        assert platform.audit(deep=True)["cache_mismatches"] == 0.0
        stream = OperationStream(seed=5)
        for operation in stream.mixed(platform.instance, platform.plan, 1):
            platform.submit(operation)
        assert platform.audit(deep=True)["cache_mismatches"] == 0.0

    def test_custom_solver_used(self, paper_instance):
        class Probe(GreedySolver):
            called = False

            def solve(self, instance):
                Probe.called = True
                return super().solve(instance)

        platform = EBSNPlatform(paper_instance, solver=Probe())
        platform.publish_plans()
        assert Probe.called


class TestOperationStream:
    def test_eta_decrease_valid(self):
        instance = random_instance(0, n_users=10, n_events=6)
        plan = GreedySolver(seed=0).solve(instance).plan
        stream = OperationStream(seed=0)
        operation = stream.eta_decrease(instance, plan)
        assert operation is not None
        operation.validate(instance)

    def test_xi_increase_valid(self):
        instance = random_instance(0, n_users=10, n_events=6)
        stream = OperationStream(seed=0)
        operation = stream.xi_increase(instance)
        assert operation is not None
        operation.validate(instance)

    def test_time_change_keeps_duration(self):
        instance = random_instance(0, n_users=10, n_events=6)
        operation = OperationStream(seed=1).time_change(instance)
        original = instance.events[operation.event].interval.duration
        assert operation.new_interval.duration == pytest.approx(original)

    def test_new_event_utilities_cover_users(self):
        instance = random_instance(0, n_users=10, n_events=6)
        operation = OperationStream(seed=2).new_event(instance)
        assert len(operation.utilities) == 10
        operation.validate(instance)

    def test_mixed_stream_length_and_validity(self):
        instance = random_instance(1, n_users=12, n_events=6)
        plan = GreedySolver(seed=1).solve(instance).plan
        operations = list(OperationStream(seed=1).mixed(instance, plan, 10))
        assert len(operations) == 10
        for operation in operations:
            operation.validate(instance)

    def test_streams_deterministic(self):
        instance = random_instance(1, n_users=12, n_events=6)
        plan = GreedySolver(seed=1).solve(instance).plan
        a = list(OperationStream(seed=9).mixed(instance, plan, 5))
        b = list(OperationStream(seed=9).mixed(instance, plan, 5))
        assert a == b


class TestRejectionContract:
    """Satellite: a rejected submit leaves the platform provably untouched
    (durable wrappers tombstone the op in their WAL on this guarantee)."""

    def test_rejection_propagates_and_state_is_untouched(self):
        from repro.core.plan import PlanSummary

        instance = random_instance(6, n_users=10, n_events=5)
        platform = EBSNPlatform(instance, solver=GreedySolver(seed=6))
        published = platform.publish_plans()
        summary = PlanSummary.of(platform.plan)
        with pytest.raises((ValueError, IndexError)):
            platform.submit(EtaDecrease(10**6, 1))  # no such event
        assert platform.instance is instance
        assert PlanSummary.of(platform.plan) == summary
        assert platform.log == []
        assert platform.rejected_count == 1
        # _last_utility untouched: the next accepted submit still chains
        # utility_before from the published value.
        from repro.core.iep.operations import BudgetChange

        entry = platform.submit(BudgetChange(0, 30.0))
        assert entry.utility_before == published

    def test_rejected_count_accumulates(self, paper_instance):
        platform = EBSNPlatform(paper_instance)
        platform.publish_plans()
        for event in (10**6, 10**6 + 1):
            with pytest.raises((ValueError, IndexError)):
                platform.submit(EtaDecrease(event, 1))
        assert platform.rejected_count == 2
        assert platform.audit()["operations"] == 0.0

    def test_rejections_counted_in_obs(self, paper_instance):
        from repro.obs import recording

        platform = EBSNPlatform(paper_instance)
        platform.publish_plans()
        with recording() as trace:
            with pytest.raises((ValueError, IndexError)):
                platform.submit(EtaDecrease(10**6, 1))
        assert trace.counters.get("platform.rejected") == 1


class TestInstallPlan:
    def test_install_plan_adopts_state(self, paper_instance):
        from repro.core.metrics import total_utility

        platform = EBSNPlatform(paper_instance)
        solution = GreedySolver(seed=0).solve(paper_instance)
        platform.install_plan(solution.plan)
        assert platform.is_planned
        assert platform.plan is solution.plan
        expected = total_utility(paper_instance, solution.plan)
        entry = platform.submit(EtaDecrease(3, 2))
        assert entry.utility_before == expected

    def test_install_plan_trusts_supplied_utility(self, paper_instance):
        platform = EBSNPlatform(paper_instance)
        solution = GreedySolver(seed=0).solve(paper_instance)
        platform.install_plan(solution.plan, utility=123.456)
        entry = platform.submit(EtaDecrease(3, 2))
        assert entry.utility_before == 123.456

    def test_install_plan_adopts_foreign_instance(self):
        # Recovery installs a plan over an instance deserialised from a
        # snapshot — a different object than the constructor argument.
        instance = random_instance(2, n_users=8, n_events=4)
        twin = random_instance(2, n_users=8, n_events=4)
        platform = EBSNPlatform(instance)
        plan = GreedySolver(seed=2).solve(twin).plan
        platform.install_plan(plan)
        assert platform.instance is twin
        assert platform.audit()["violations"] == 0.0
