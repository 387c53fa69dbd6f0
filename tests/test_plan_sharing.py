"""Copy-on-write rebinding: a ``rebound_to`` child shares lists, not state.

``GlobalPlan.rebound_to`` shares every per-user list it does not
recompute with its parent, and whichever side mutates a shared list
first copies it.  These tests pin the contract: parent and child behave
exactly like deep copies over many generations, untouched users stay
shared by identity, and ``dif`` and the carried utility total visit only
the users the child owns.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.auditor import InvariantAuditor
from repro.core.gepc import GreedySolver
from repro.core.iep import BatchIEPEngine, IEPEngine
from repro.core.iep.operations import BudgetChange, EtaIncrease
from repro.core.metrics import dif, total_utility
from repro.core.plan import GlobalPlan
from repro.datasets import ScaleConfig, generate_scale_instance
from repro.geo.point import Point
from repro.timeline.interval import Interval

from tests.test_plan_cache_properties import make_instance

N_USERS, N_EVENTS = 5, 6


def _fsum(plan):
    utility = plan.instance.utility
    return math.fsum(
        float(utility[user, event])
        for user, events in plan
        for event in events
    )


def _changed(instance, kind, rng):
    """One ``with_*`` update of ``instance`` (or the instance itself)."""
    user = int(rng.integers(N_USERS))
    event = int(rng.integers(instance.n_events))
    if kind == "location":
        return instance.with_event(
            event, location=Point(*rng.uniform(0, 10, 2))
        )
    if kind == "interval":
        start = float(rng.uniform(0, 30))
        return instance.with_event(
            event, interval=Interval(start, start + 1.0)
        )
    if kind == "bound":
        upper = instance.events[event].upper + 1
        return instance.with_event(event, upper=upper)
    if kind == "budget":
        return instance.with_user(
            user, budget=float(rng.uniform(50, 100))
        )
    if kind == "utility":
        return instance.with_utility(user, event, float(rng.uniform(0, 1)))
    return instance


@st.composite
def generations(draw):
    seed = draw(st.integers(0, 1000))
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("fork"),
                    st.integers(0, 20),  # which plan forks
                    st.sampled_from(
                        ["same", "location", "interval", "bound", "budget",
                         "utility"]
                    ),
                ),
                st.tuples(
                    st.sampled_from(["add", "remove", "clear"]),
                    st.integers(0, 20),  # which plan mutates
                    st.tuples(
                        st.integers(0, N_USERS - 1),
                        st.integers(0, N_EVENTS - 1),
                    ),
                ),
            ),
            max_size=50,
        )
    )
    return seed, steps


class TestIndependence:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(generations())
    def test_mutations_never_cross_a_fork(self, case):
        seed, steps = case
        rng = np.random.default_rng(seed)
        root = GlobalPlan(make_instance(seed))
        for user in range(N_USERS):
            for event in rng.choice(N_EVENTS, 2, replace=False):
                root.add(user, int(event))
            root.blocked_counts(user)  # rows a fork shares, then copies
        plans = [root]
        # Each plan's expected membership, updated only through that plan.
        expected = [[set(root.user_plan(u)) for u in range(N_USERS)]]
        auditor = InvariantAuditor()
        for action, which, arg in steps:
            index = which % len(plans)
            plan = plans[index]
            if action == "fork":
                child = plan.rebound_to(_changed(plan.instance, arg, rng))
                report = auditor.audit_dif(plan, child)
                assert report.ok, report.summary()
                assert dif(plan, child) == 0
                plans.append(child)
                expected.append([set(s) for s in expected[index]])
                continue
            user, event = arg
            plan.blocked_counts(user)
            if action == "add" and not plan.contains(user, event):
                plan.add(user, event)
                expected[index][user].add(event)
            elif action == "remove" and plan.contains(user, event):
                plan.remove(user, event)
                expected[index][user].discard(event)
            elif action == "clear":
                for attendee in plan.clear_event(event):
                    expected[index][attendee].discard(event)
        for plan, members in zip(plans, expected):
            for user in range(N_USERS):
                assert set(plan.user_plan(user)) == members[user]
            report = auditor.audit(plan, include_instance=False)
            assert report.ok, report.summary()
            assert total_utility(plan.instance, plan) == _fsum(plan)
        for parent, child in zip(plans, plans[1:]):
            report = auditor.audit_dif(parent, child)
            assert report.ok, report.summary()

    def test_parent_mutation_after_fork_stays_put(self):
        instance = make_instance(3)
        parent = GlobalPlan(instance)
        parent.add(0, 1)
        child = parent.rebound_to(instance.with_event(1, upper=9))
        assert child._plans[0] is parent._plans[0]
        parent.add(0, 2)
        assert child.user_plan(0) == [1]
        # The parent changed after the fork: dif scans every user.
        assert list(child.users_changed_since(parent)) == list(
            range(instance.n_users)
        )
        assert dif(parent, child) == 1

    def test_second_fork_keeps_the_first_child_exact(self):
        instance = make_instance(4)
        parent = GlobalPlan(instance)
        parent.add(0, 1)
        first = parent.rebound_to(instance)
        first.remove(0, 1)
        parent.rebound_to(instance)
        assert dif(parent, first) == 1


@pytest.fixture(scope="module")
def published():
    """A 10^4-user plan, greedy-published."""
    instance = generate_scale_instance(
        ScaleConfig(n_users=10_000, n_events=64, seed=0)
    )
    plan = GreedySolver(seed=0).solve(instance).plan
    return instance, plan


class TestCostFollowsTouchedUsers:
    def test_eta_increase_shares_every_untouched_list(
        self, published, monkeypatch
    ):
        instance, plan = published
        event = max(
            range(instance.n_events), key=lambda j: plan.attendance(j)
        )
        operation = EtaIncrease(
            event=event, new_upper=instance.events[event].upper + 5
        )
        result = IEPEngine().apply(instance, plan, operation)
        child = result.plan
        owned = set(child.users_changed_since(plan))
        assert len(owned) < instance.n_users // 100
        for user in range(instance.n_users):
            if user not in owned:
                assert child._plans[user] is plan._plans[user]

        visited = []
        user_units = GlobalPlan._user_units

        def counting(self, user):
            visited.append(user)
            return user_units(self, user)

        monkeypatch.setattr(GlobalPlan, "_user_units", counting)
        assert total_utility(result.instance, child) == _fsum(child)
        assert set(visited) <= owned and len(visited) == len(owned)
        assert result.dif == dif(plan, child)
        report = InvariantAuditor().audit_dif(plan, child)
        assert report.ok, report.summary()

    def test_stale_users_get_fresh_lists(self, published):
        instance, plan = published
        user = next(u for u, events in plan if events)
        budget = instance.users[user].budget * 2
        child = plan.rebound_to(instance.with_user(user, budget=budget))
        assert set(child.users_changed_since(plan)) == {user}
        assert child._plans[user] is not plan._plans[user]
        assert child._plans[user] == plan._plans[user]

    def test_batch_engine_shares_untouched_lists(self, published):
        instance, plan = published
        event = max(
            range(instance.n_events), key=lambda j: plan.attendance(j)
        )
        operations = [
            EtaIncrease(event, instance.events[event].upper + 2),
            BudgetChange(0, instance.users[0].budget * 1.5),
        ]
        result = BatchIEPEngine().apply(instance, plan, operations)
        owned = set(result.plan.users_changed_since(plan))
        assert len(owned) < instance.n_users // 100
        report = InvariantAuditor().audit_dif(plan, result.plan)
        assert report.ok, report.summary()
        assert result.dif == dif(plan, result.plan)
        assert result.utility == _fsum(result.plan)
