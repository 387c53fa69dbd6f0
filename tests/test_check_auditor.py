"""InvariantAuditor: clean states audit clean, corrupted caches are caught
with structured mismatch reports."""

import pytest

from repro.check import InvariantAuditor
from repro.core.gepc.greedy import GreedySolver
from repro.core.iep.engine import IEPEngine
from repro.core.iep.operations import EtaIncrease, UtilityChange
from repro.core.tolerances import (
    AUDIT_FLOAT_TOL,
    BUDGET_TOL,
    ROUTE_DRIFT_REPIN_TOL,
)
from repro.datasets.meetup import MeetupConfig, generate_ebsn
from repro.obs import recording
from repro.timeline.interval import Interval


@pytest.fixture(scope="module")
def solved():
    instance = generate_ebsn(
        MeetupConfig(n_users=24, n_events=12, n_groups=4, seed=0)
    )
    plan = GreedySolver(seed=0).solve(instance).plan
    return instance, plan


def fresh_plan(solved):
    instance, plan = solved
    return instance, plan.copy()


class TestCleanAudit:
    def test_solved_plan_audits_clean(self, solved):
        instance, plan = solved
        report = InvariantAuditor().audit(plan)
        assert report.ok
        assert report.checks > 0
        assert "ok" in report.summary()

    def test_audit_after_incremental_operations(self, solved):
        instance, plan = fresh_plan(solved)
        engine = IEPEngine()
        result = engine.apply(
            instance, plan, EtaIncrease(0, instance.events[0].upper + 5)
        )
        result = engine.apply(
            result.instance, result.plan, UtilityChange(0, 1, 0.5)
        )
        # Materialise every lazy cache so the audit covers them all.
        for user in range(result.instance.n_users):
            result.plan.feasible_mask(user)
            result.plan.blocked_counts(user)
        report = InvariantAuditor().audit(result.plan)
        assert report.ok, report.summary()

    def test_audit_emits_obs_counters(self, solved):
        instance, plan = fresh_plan(solved)
        with recording() as recorder:
            InvariantAuditor().audit(plan)
        assert recorder.counter_value("check.audit.runs") == 1.0
        assert recorder.counter_value("check.audit.checks") > 0
        assert recorder.counter_value("check.audit.mismatches") == 0.0

    def test_tolerance_ordering_invariant(self):
        # The audit tolerance must sit strictly between the re-pin
        # threshold and the budget slack (see tolerances.py).
        assert ROUTE_DRIFT_REPIN_TOL <= AUDIT_FLOAT_TOL < BUDGET_TOL


class TestCorruptionDetection:
    """The acceptance-criterion tests: a deliberately corrupted cache is
    caught with a structured report naming the kind, entity, and values."""

    def test_route_cost_corruption(self, solved):
        instance, plan = fresh_plan(solved)
        plan._route_costs[0] += 0.5
        report = InvariantAuditor().audit(plan)
        assert not report.ok
        mismatch = next(m for m in report.mismatches if m.kind == "route_cost")
        assert mismatch.user == 0
        assert mismatch.cached == pytest.approx(mismatch.expected + 0.5)
        assert "drift" in mismatch.detail
        assert "route_cost" in str(mismatch)

    def test_attendance_corruption(self, solved):
        instance, plan = fresh_plan(solved)
        plan._attendance[2] += 1
        report = InvariantAuditor().audit(plan)
        kinds = {m.kind for m in report.mismatches}
        assert "attendance" in kinds
        mismatch = next(m for m in report.mismatches if m.kind == "attendance")
        assert mismatch.event == 2
        assert mismatch.cached == mismatch.expected + 1

    def test_attendee_index_corruption(self, solved):
        instance, plan = fresh_plan(solved)
        victim = next(
            event
            for event in range(instance.n_events)
            if plan.attendance(event) > 0
        )
        plan._attendee_sets[victim].pop()
        report = InvariantAuditor().audit(plan)
        assert any(m.kind == "attendee_index" for m in report.mismatches)

    def test_blocked_counter_corruption(self, solved):
        instance, plan = fresh_plan(solved)
        row = plan.blocked_counts(1).copy()
        row[3] += 1
        plan._blocked[1] = row
        report = InvariantAuditor().audit(plan)
        mismatch = next(
            m for m in report.mismatches if m.kind == "blocked_counter"
        )
        assert mismatch.user == 1
        assert mismatch.event == 3

    def test_kernel_mask_corruption(self, solved):
        instance, plan = fresh_plan(solved)
        user = 0
        deltas = plan.insertion_deltas(user)
        mask = plan.feasible_mask(user).copy()
        mask[int(mask.argmin())] = True  # force an infeasible event on
        flipped = next(
            j for j in range(instance.n_events) if mask[j]
            and not plan.feasible_mask(user)[j]
        )
        plan._kernel_cache[user] = (deltas, mask)
        report = InvariantAuditor().audit(plan)
        mismatch = next(
            m for m in report.mismatches if m.kind == "kernel_mask"
        )
        assert mismatch.user == user
        assert mismatch.event == flipped

    def test_kernel_deltas_corruption(self, solved):
        instance, plan = fresh_plan(solved)
        user = 2
        deltas = plan.insertion_deltas(user).copy()
        mask = plan.feasible_mask(user)
        outside = next(
            j
            for j in range(instance.n_events)
            if j not in plan.user_plan(user)
        )
        deltas[outside] += 1.0
        plan._kernel_cache[user] = (deltas, mask)
        report = InvariantAuditor().audit(plan)
        assert any(
            m.kind == "kernel_deltas" and m.user == user and m.event == outside
            for m in report.mismatches
        )

    def test_plan_order_corruption(self, solved):
        instance, plan = fresh_plan(solved)
        user = next(u for u, events in plan if len(events) >= 2)
        plan._plans[user].reverse()
        report = InvariantAuditor().audit(plan)
        assert any(
            m.kind == "plan_order" and m.user == user
            for m in report.mismatches
        )

    def test_instance_distance_corruption(self, solved):
        instance, plan = fresh_plan(solved)
        d = instance.distances
        if not d.has_plane:
            # No plane exists to poke on the coordinate path: skew the
            # resident user coordinate instead so every served distance
            # drifts.
            d._user_coords[0, 0] += 1.0
            undo = lambda: d._user_coords.__setitem__(  # noqa: E731
                (0, 0), d._user_coords[0, 0] - 1.0
            )
        else:
            matrix = d.user_event_matrix
            matrix.flags.writeable = True
            matrix[0, 0] += 1.0
            undo = lambda: matrix.__setitem__((0, 0), matrix[0, 0] - 1.0)  # noqa: E731
        try:
            report = InvariantAuditor().audit(plan)
            mismatch = next(
                m
                for m in report.mismatches
                if m.kind == "instance_user_event_distances"
            )
            assert "max |diff|" in mismatch.detail
        finally:
            undo()

    def test_instance_conflict_corruption(self, solved):
        instance, plan = fresh_plan(solved)
        adjacency = instance.conflicts  # materialise
        first, second = next(
            (a, b)
            for a in range(instance.n_events)
            for b in range(a + 1, instance.n_events)
            if b not in adjacency[a]
        )
        adjacency[first].add(second)
        adjacency[second].add(first)
        try:
            report = InvariantAuditor().audit(plan)
            assert any(
                m.kind == "instance_conflict_graph"
                for m in report.mismatches
            )
        finally:
            adjacency[first].discard(second)
            adjacency[second].discard(first)


class TestInstanceUpdateAudit:
    """The with_* shared-cache identity rules, checked through the
    rebuilt-instance diff."""

    def test_clean_functional_updates_audit_clean(self, solved):
        instance, _ = solved
        auditor = InvariantAuditor()
        instance.distances  # materialise everything that can be carried
        instance.conflicts
        instance.conflict_matrix
        updated = instance.with_event(
            1, interval=Interval(40.0, 41.5)
        )
        assert auditor.audit_instance_update(instance, updated).ok
        moved = instance.with_user(3, budget=instance.users[3].budget * 2)
        assert auditor.audit_instance_update(instance, moved).ok
        rescored = instance.with_utility(0, 0, 0.25)
        assert auditor.audit_instance_update(instance, rescored).ok

    def test_identity_sharing_rules(self, solved):
        instance, _ = solved
        instance.distances
        instance.conflicts
        # Bound change: everything shared by identity.
        wider = instance.with_event(0, upper=instance.events[0].upper + 1)
        assert wider._distances is instance._distances
        assert wider._conflicts is instance._conflicts
        # Utility change: everything shared by identity.
        rescored = instance.with_utility(1, 1, 0.75)
        assert rescored._distances is instance._distances
        assert rescored._conflicts is instance._conflicts
        # Budget change: geometry shared by identity.
        richer = instance.with_user(0, budget=1.0)
        assert richer._distances is instance._distances

    def test_corrupted_patch_is_caught(self, solved):
        instance, _ = solved
        instance.distances
        updated = instance.with_event(1, interval=Interval(40.0, 41.5))
        # Sabotage the patched conflict row to emulate a broken patch.
        updated.conflicts[1].symmetric_difference_update({0})
        report = InvariantAuditor().audit_instance_update(instance, updated)
        assert any(
            m.kind == "instance_conflict_graph" for m in report.mismatches
        )
