"""Objective and impact metrics: total utility and ``dif(P, P')``.

``total_utility`` is the EBSN's global score (Definition 1's objective);
``dif`` is the IEP negative-impact measure from Definition 2 — the number of
(user, event) assignments present in the old plan but missing from the new
one, summed over users.
"""

from __future__ import annotations

from repro.core.model import Instance
from repro.core.plan import UTILITY_UNIT, GlobalPlan


def user_utility(instance: Instance, plan: GlobalPlan, user: int) -> float:
    """``mu_i``: the sum of ``user``'s utility scores over their plan."""
    return float(
        sum(instance.utility[user, event] for event in plan.user_plan(user))
    )


def total_utility(instance: Instance, plan: GlobalPlan) -> float:
    """``U_P``: the global utility of ``plan`` (Definition 1 objective).

    The exactly rounded sum of the assigned utilities (``math.fsum``'s
    value), so it does not depend on summation order.  On the plan's own
    instance it reads the plan's carried exact total, which a
    ``rebound_to`` child updates over its owned users only.
    """
    if instance is plan.instance:
        units = plan.utility_units()
    else:
        units = plan.tally(instance.utility)
    return units / UTILITY_UNIT


def dif(old: GlobalPlan, new: GlobalPlan) -> int:
    """Negative impact ``dif(P, P') = sum_i |P_i \\ P'_i|`` (Definition 2).

    When ``new`` is a sharing child of ``old`` (``rebound_to``), only the
    users ``new`` owns are compared: every other list is the one both
    plans share.
    """
    if old.instance.n_users != new.instance.n_users:
        raise ValueError("plans cover different user populations")
    impact = 0
    for user in new.users_changed_since(old):
        events = old._plans[user]
        if events:
            impact += len(set(events).difference(new._plans[user]))
    return impact


def per_user_dif(old: GlobalPlan, new: GlobalPlan) -> list[int]:
    """Per-user breakdown of the negative impact (diagnostics)."""
    return [
        len(set(old.user_plan(user)) - set(new.user_plan(user)))
        for user in range(old.instance.n_users)
    ]
