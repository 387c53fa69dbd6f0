"""Feasibility checking for global plans (Definition 1's four constraints).

1. no time conflicts inside any user's plan,
2. every user's travel cost within budget,
3. every event's attendance at most its upper bound ``eta_j``,
4. every *held* event's attendance at least its lower bound ``xi_j``
   (an event with zero attendees is simply not held — the paper's
   motivating examples cancel such events rather than forbidding the plan).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.core.tolerances import BUDGET_TOL


class ViolationKind(enum.Enum):
    TIME_CONFLICT = "time_conflict"
    BUDGET_EXCEEDED = "budget_exceeded"
    UPPER_BOUND = "upper_bound"
    LOWER_BOUND = "lower_bound"
    ZERO_UTILITY = "zero_utility"


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated constraint, with enough context to debug a solver."""

    kind: ViolationKind
    user: int | None = None
    event: int | None = None
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [self.kind.value]
        if self.user is not None:
            parts.append(f"user={self.user}")
        if self.event is not None:
            parts.append(f"event={self.event}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


def check_plan(
    instance: Instance,
    plan: GlobalPlan,
    enforce_lower: bool = True,
) -> list[ConstraintViolation]:
    """All constraint violations of ``plan`` against ``instance``.

    ``enforce_lower=False`` checks only the GEP constraints (used on the
    intermediate states of the two-step framework, where lower bounds are
    satisfied by construction only after step 1 completes).
    """
    violations: list[ConstraintViolation] = []
    violations.extend(_check_users(instance, plan))
    violations.extend(_check_events(instance, plan, enforce_lower))
    return violations


def is_feasible(
    instance: Instance, plan: GlobalPlan, enforce_lower: bool = True
) -> bool:
    """Whether ``plan`` satisfies Definition 1 on ``instance``."""
    return not check_plan(instance, plan, enforce_lower)


def _check_users(
    instance: Instance, plan: GlobalPlan
) -> list[ConstraintViolation]:
    violations = []
    conflicts = instance.conflict_matrix
    for user in range(instance.n_users):
        events = plan.user_plan(user)
        for first, second in zip(events, events[1:]):
            if conflicts[first, second]:
                violations.append(
                    ConstraintViolation(
                        ViolationKind.TIME_CONFLICT,
                        user=user,
                        event=second,
                        detail=f"with event {first}",
                    )
                )
        # Defence in depth: consecutive-pair checks miss nothing for
        # intervals, but zero-utility assignments are solver bugs.
        for event in events:
            if instance.utility[user, event] <= 0.0:
                violations.append(
                    ConstraintViolation(
                        ViolationKind.ZERO_UTILITY, user=user, event=event
                    )
                )
        cost = instance.route_cost(user, events)
        budget = instance.users[user].budget
        if cost > budget + BUDGET_TOL:
            violations.append(
                ConstraintViolation(
                    ViolationKind.BUDGET_EXCEEDED,
                    user=user,
                    detail=f"cost {cost:.4f} > budget {budget:.4f}",
                )
            )
    return violations


def _check_events(
    instance: Instance, plan: GlobalPlan, enforce_lower: bool
) -> list[ConstraintViolation]:
    violations = []
    for event in range(instance.n_events):
        count = plan.attendance(event)
        spec = instance.events[event]
        if count > spec.upper:
            violations.append(
                ConstraintViolation(
                    ViolationKind.UPPER_BOUND,
                    event=event,
                    detail=f"{count} > eta={spec.upper}",
                )
            )
        if enforce_lower and 0 < count < spec.lower:
            violations.append(
                ConstraintViolation(
                    ViolationKind.LOWER_BOUND,
                    event=event,
                    detail=f"{count} < xi={spec.lower}",
                )
            )
    return violations
