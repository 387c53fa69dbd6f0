"""Algorithm 4: repair after an event's lower bound increases.

The deficit ``xi'_j - n_j`` is closed in two stages:

1. **Free additions** (Algorithm 5 lines 7-13 reused): users who can attend
   the event without giving anything up join it — zero negative impact.
2. **Transfers** (the paper's Delta-heap): users attending *donor* events
   with spare attendees (``n_j' > xi_j'``) are moved over, best utility
   difference ``Delta = mu(u_i, e_j) - mu(u_i, e_j')`` first.  Each transfer
   costs one unit of negative impact.

If the bound still cannot be met the event is cancelled (every remaining
attendee released and refilled) — the "event will not be held" semantics of
DESIGN.md.  Transferred/released users get a final fill pass over other
events, which never adds negative impact.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.gepc.fill import UtilityFill
from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.core.tolerances import BUDGET_TOL
from repro.obs import get_recorder


def xi_increase(
    instance: Instance, plan: GlobalPlan, event: int
) -> dict[str, float]:
    """Repair ``plan`` in place after ``event``'s lower bound rose.

    ``instance`` must already carry the new bound.
    """
    return raise_attendance(
        instance, plan, event, instance.events[event].lower
    )


def raise_attendance(
    instance: Instance,
    plan: GlobalPlan,
    event: int,
    target: int,
) -> dict[str, float]:
    """Drive ``event``'s attendance up to ``target`` (or cancel it).

    Shared by Algorithm 4, Algorithm 5's final stage, and the new-event /
    utility-drop reductions.
    """
    diagnostics = {
        "free_added": 0.0,
        "transferred": 0.0,
        "cancelled_event": 0.0,
        "released": 0.0,
        "refilled": 0.0,
    }
    if plan.attendance(event) >= target:
        return diagnostics

    diagnostics["free_added"] = float(
        _free_additions(instance, plan, event, target)
    )
    if plan.attendance(event) >= target:
        return diagnostics

    moved = _transfers(instance, plan, event, target)
    diagnostics["transferred"] = float(len(moved))

    if plan.attendance(event) < target:
        # Lower bound unreachable: the event is not held.
        released = plan.clear_event(event)
        diagnostics["cancelled_event"] = 1.0
        diagnostics["released"] = float(len(released))
        moved.extend(released)

    if moved:
        diagnostics["refilled"] = float(
            UtilityFill().fill(
                instance,
                plan,
                excluded_events={event},
                only_users=set(moved),
            )
        )
    return diagnostics


def _free_additions(
    instance: Instance, plan: GlobalPlan, event: int, target: int
) -> int:
    """Add willing users in non-increasing utility order, no displacement."""
    upper = instance.events[event].upper
    column = instance.utility[:, event]
    # Stable argsort on the negated column == sorting ascending user ids by
    # descending utility (the previous Python sort, vectorized).
    order = np.argsort(-column, kind="stable")
    willing = int(np.count_nonzero(column > 0.0))
    attending = sum(1 for u in plan.attendees(event) if column[u] > 0.0)
    obs = get_recorder()
    obs.count("iep.free_candidates", willing - attending)
    added = 0
    checks = 0
    cap = min(target, upper)
    for user in order:
        user = int(user)
        if column[user] <= 0.0:
            break  # the rest of the ordering is unwilling users
        if plan.contains(user, event):
            continue
        if plan.attendance(event) >= cap:
            break
        checks += 1
        if plan.can_attend(user, event):
            plan.add(user, event)
            added += 1
    obs.count("iep.feasibility_checks", checks)
    return added


def _transfers(
    instance: Instance, plan: GlobalPlan, event: int, target: int
) -> list[int]:
    """The paper's Delta-heap transfer loop (Algorithm 4 lines 4-16).

    Returns the users moved onto ``event``.
    """
    # Spare attendees per donor event (those above their own lower bound).
    spare = {
        donor: plan.attendance(donor) - instance.events[donor].lower
        for donor in range(instance.n_events)
        if donor != event
        and plan.attendance(donor) > instance.events[donor].lower
    }

    heap: list[tuple[float, int, int]] = []  # (-Delta, user, donor)
    for donor in spare:
        for user in plan.attendees(donor):
            if plan.contains(user, event):
                continue
            if instance.utility[user, event] <= 0.0:
                continue
            delta = (
                instance.utility[user, event]
                - instance.utility[user, donor]
            )
            heapq.heappush(heap, (-delta, user, donor))
    heapq.heapify(heap)

    obs = get_recorder()
    obs.count("iep.transfer_candidates", len(heap))
    moved: list[int] = []
    settled: set[int] = set()  # users already transferred (lazy deletion)
    considered = 0
    while heap and plan.attendance(event) < target:
        _, user, donor = heapq.heappop(heap)
        considered += 1
        if user in settled or spare.get(donor, 0) <= 0:
            continue
        if not plan.contains(user, donor) or plan.contains(user, event):
            continue
        if not _swap_feasible(instance, plan, user, donor, event):
            continue
        plan.remove(user, donor)
        plan.add(user, event)
        spare[donor] -= 1
        settled.add(user)
        moved.append(user)
    obs.count("iep.transfers_considered", considered)
    obs.count("iep.transfers_moved", len(moved))
    return moved


def _swap_feasible(
    instance: Instance,
    plan: GlobalPlan,
    user: int,
    donor: int,
    event: int,
) -> bool:
    """Whether replacing ``donor`` with ``event`` in ``user``'s plan keeps it
    conflict-free and within budget.

    Conflict-freeness is an O(1) read of the plan's blocked-event counters
    (discounting the donor's own contribution); the route cost is splice
    arithmetic on the cached base instead of a from-scratch recompute.
    """
    blocked = plan.conflict_count(user, event)
    if instance.events_conflict(donor, event):
        blocked -= 1
    if blocked > 0:
        return False
    cost = plan.swap_cost(user, donor, event)
    return cost <= instance.users[user].budget + BUDGET_TOL
