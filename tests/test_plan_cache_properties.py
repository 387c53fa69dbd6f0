"""Property tests for GlobalPlan's internal caches under mutation storms.

The route-cost cache and attendee index are the hottest shared state
in the repository; these hypothesis tests hammer them with random
add/remove sequences and verify they always equal a from-scratch recompute.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import InvariantAuditor
from repro.core import kernel
from repro.core.model import Event, Instance, User
from repro.core.plan import GlobalPlan
from repro.core.tolerances import BUDGET_TOL
from repro.geo.point import Point
from repro.timeline.conflicts import conflict_graph
from repro.timeline.interval import Interval
from tests.conftest import served_user_event_plane


def make_instance(seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    n, m = 5, 6
    users = [
        User(i, Point(*rng.uniform(0, 10, 2)), float(rng.uniform(50, 100)))
        for i in range(n)
    ]
    events = []
    for j in range(m):
        start = float(rng.uniform(0, 30))
        events.append(
            Event(
                j,
                Point(*rng.uniform(0, 10, 2)),
                0,
                n,
                Interval(start, start + float(rng.uniform(0.5, 3))),
            )
        )
    utility = rng.uniform(0.01, 1.0, (n, m))
    return Instance(users, events, utility)


@st.composite
def mutation_sequences(draw):
    seed = draw(st.integers(0, 1000))
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "clear"]),
                st.integers(0, 4),   # user
                st.integers(0, 5),   # event
            ),
            max_size=40,
        )
    )
    return seed, steps


class TestCacheConsistency:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutation_sequences())
    def test_route_cache_matches_recompute(self, case):
        seed, steps = case
        instance = make_instance(seed)
        plan = GlobalPlan(instance)
        for action, user, event in steps:
            if action == "add" and not plan.contains(user, event):
                plan.add(user, event)
            elif action == "remove" and plan.contains(user, event):
                plan.remove(user, event)
            elif action == "clear":
                plan.clear_event(event)
        for user in range(instance.n_users):
            assert plan.route_cost(user) == pytest.approx(
                instance.route_cost(user, plan.user_plan(user))
            )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutation_sequences())
    def test_attendance_matches_membership(self, case):
        seed, steps = case
        instance = make_instance(seed)
        plan = GlobalPlan(instance)
        for action, user, event in steps:
            if action == "add" and not plan.contains(user, event):
                plan.add(user, event)
            elif action == "remove" and plan.contains(user, event):
                plan.remove(user, event)
            elif action == "clear":
                plan.clear_event(event)
        for event in range(instance.n_events):
            expected = sum(
                event in plan.user_plan(user)
                for user in range(instance.n_users)
            )
            assert plan.attendance(event) == expected
            assert (event in plan.assigned_events()) == (expected > 0)
        assert plan.size() == sum(
            len(plan.user_plan(user)) for user in range(instance.n_users)
        )

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutation_sequences())
    def test_plans_stay_start_sorted(self, case):
        seed, steps = case
        instance = make_instance(seed)
        plan = GlobalPlan(instance)
        for action, user, event in steps:
            if action == "add" and not plan.contains(user, event):
                plan.add(user, event)
            elif action == "remove" and plan.contains(user, event):
                plan.remove(user, event)
        for user in range(instance.n_users):
            events = plan.user_plan(user)
            starts = [instance.events[j].start for j in events]
            assert starts == sorted(starts)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutation_sequences())
    def test_attendee_index_matches_membership(self, case):
        seed, steps = case
        instance = make_instance(seed)
        plan = GlobalPlan(instance)
        for action, user, event in steps:
            if action == "add" and not plan.contains(user, event):
                plan.add(user, event)
            elif action == "remove" and plan.contains(user, event):
                plan.remove(user, event)
            elif action == "clear":
                plan.clear_event(event)
        for event in range(instance.n_events):
            expected = sorted(
                user
                for user in range(instance.n_users)
                if event in plan.user_plan(user)
            )
            assert plan.attendees(event) == expected
            for user in range(instance.n_users):
                assert plan.contains(user, event) == (user in expected)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutation_sequences())
    def test_blocked_counters_match_recompute(self, case):
        seed, steps = case
        instance = make_instance(seed)
        plan = GlobalPlan(instance)
        # Materialise counter rows up front so the incremental +=/-=
        # maintenance (not the lazy rebuild) is what gets verified.
        for user in range(instance.n_users):
            plan.blocked_counts(user)
        for action, user, event in steps:
            if action == "add" and not plan.contains(user, event):
                plan.add(user, event)
            elif action == "remove" and plan.contains(user, event):
                plan.remove(user, event)
            elif action == "clear":
                plan.clear_event(event)
        adjacency = conflict_graph([e.interval for e in instance.events])
        for user in range(instance.n_users):
            assigned = plan.user_plan(user)
            for event in range(instance.n_events):
                expected = sum(
                    1 for other in assigned if other in adjacency[event]
                )
                assert plan.conflict_count(user, event) == expected

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutation_sequences())
    def test_kernel_matches_scalar_feasibility(self, case):
        """feasible_mask / insertion_deltas == the per-event definitions."""
        seed, steps = case
        instance = make_instance(seed)
        plan = GlobalPlan(instance)
        for action, user, event in steps:
            if action == "add" and not plan.contains(user, event):
                plan.add(user, event)
            elif action == "remove" and plan.contains(user, event):
                plan.remove(user, event)
            elif action == "clear":
                plan.clear_event(event)
        adjacency = conflict_graph([e.interval for e in instance.events])
        for user in range(instance.n_users):
            deltas = plan.insertion_deltas(user)
            mask = plan.feasible_mask(user)
            assigned = plan.user_plan(user)
            budget = instance.users[user].budget
            for event in range(instance.n_events):
                if event not in assigned:
                    extended = instance.route_cost_with(
                        user, assigned, event
                    )
                    assert plan.route_cost(user) + deltas[
                        event
                    ] == pytest.approx(extended)
                conflict_free = not any(
                    other in adjacency[event] for other in assigned
                )
                expected = (
                    instance.utility[user, event] > 0.0
                    and event not in assigned
                    and conflict_free
                    and plan.route_cost(user) + float(deltas[event])
                    <= budget + BUDGET_TOL
                )
                assert bool(mask[event]) == expected
                # The scalar fallback (cold cache) must agree bit-for-bit
                # with the vectorized row.
                cold = plan.copy()
                cold._kernel_cache.pop(user, None)
                assert cold.can_attend(user, event) == expected


class TestKernelRowEviction:
    @pytest.mark.parametrize("seed", range(4))
    def test_remove_evicts_the_cached_row(self, seed):
        """A warm kernel row must not outlive a removal from the plan."""
        instance = make_instance(seed)
        plan = GlobalPlan(instance)
        for user in range(instance.n_users):
            for event in range(instance.n_events):
                if plan.can_attend(user, event):
                    plan.add(user, event)
        for user in range(instance.n_users):
            events = plan.user_plan(user)
            assert events
            plan.feasible_mask(user)  # warm the row
            plan.remove(user, events[len(events) // 2])
            assert InvariantAuditor().audit(plan).ok
            deltas, mask = kernel.scalar_row(plan, user)
            assert np.array_equal(plan.feasible_mask(user), mask)
            assert np.array_equal(plan.insertion_deltas(user), deltas)


class TestCachePreservation:
    """The with_* functional updates must reuse (or patch) cached geometry
    and conflict structures instead of rebuilding them."""

    def test_time_change_preserves_distance_identity(self):
        instance = make_instance(3)
        distances = instance.distances
        instance.conflict_matrix  # materialise the cache that gets patched
        shifted = instance.with_event(2, interval=Interval(40.0, 41.0))
        assert shifted._distances is distances
        # The patched matrix equals the independent sweep's adjacency.
        adjacency = conflict_graph([e.interval for e in shifted.events])
        matrix = shifted.conflict_matrix
        for j, neighbours in enumerate(adjacency):
            assert set(np.flatnonzero(matrix[j]).tolist()) == neighbours

    def test_budget_change_preserves_distance_identity(self):
        instance = make_instance(4)
        distances = instance.distances
        instance.conflict_matrix
        richer = instance.with_user(1, budget=instance.users[1].budget + 5.0)
        assert richer._distances is distances
        assert richer._conflict_matrix is instance._conflict_matrix

    def test_bound_change_preserves_everything(self):
        instance = make_instance(5)
        distances = instance.distances
        instance.conflict_matrix
        wider = instance.with_event(0, upper=instance.events[0].upper + 1)
        assert wider._distances is distances
        assert wider._conflict_matrix is instance._conflict_matrix

    def test_location_change_patches_distances_correctly(self):
        instance = make_instance(6)
        instance.distances  # materialise the cache that must get patched
        moved = instance.with_event(3, location=Point(9.5, 0.5))
        fresh = Instance(moved.users, moved.events, moved.utility)
        np.testing.assert_allclose(
            served_user_event_plane(moved),
            served_user_event_plane(fresh),
        )
        np.testing.assert_allclose(
            moved.distances.event_event_matrix,
            fresh.distances.event_event_matrix,
        )

    def test_user_relocation_patches_distances_correctly(self):
        instance = make_instance(7)
        instance.distances
        moved = instance.with_user(2, location=Point(0.25, 8.0))
        fresh = Instance(moved.users, moved.events, moved.utility)
        np.testing.assert_allclose(
            served_user_event_plane(moved),
            served_user_event_plane(fresh),
        )
