"""The greedy-based GEPC algorithm (Section III-B, Algorithm 2).

Users are visited in random order; each visited user repeatedly grabs their
highest-utility event copy that (a) still has copies left, (b) is not already
in their plan, (c) does not conflict with their plan, and (d) keeps their
route within budget.  The paper proves a ``1 / (2 * Uc_max)`` approximation
ratio for this scheme on xi-GEPC.

After the copy-grabbing loop, events left short of their lower bound are
cancelled, and step 2 (:class:`UtilityFill`) tops events up toward their
upper bounds.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.gepc.base import (
    Filler,
    GEPCSolution,
    GEPCSolver,
    cancel_deficient_events,
)
from repro.core import kernel as kernel_mod
from repro.core.gepc.copies import CopyExpansion
from repro.core.gepc.fill import UtilityFill
from repro.core.model import Instance
from repro.core.tolerances import BUDGET_TOL
from repro.core.plan import GlobalPlan
from repro.obs import get_recorder


class GreedySolver(GEPCSolver):
    """Algorithm 2 wrapped in the two-step framework.

    Parameters
    ----------
    seed:
        Seed for the random user visiting order.  The paper notes the order
        influences total utility; fixing the seed makes runs reproducible.
    fill:
        Whether to run step 2 after the xi-GEPC step (ablation hook).
    filler:
        The step-2 filler (defaults to :class:`UtilityFill`; pass
        :class:`repro.core.gepc.fill_matching.MatchingFill` for the
        flow-based variant).
    """

    name = "greedy"

    def __init__(
        self,
        seed: int | None = 0,
        fill: bool = True,
        filler: Filler | None = None,
    ) -> None:
        self._seed = seed
        self._fill = fill
        self._filler = filler or UtilityFill()

    def solve(self, instance: Instance) -> GEPCSolution:
        obs = get_recorder()
        plan = GlobalPlan(instance)
        with obs.span("greedy.expand"):
            expansion = CopyExpansion.for_instance(instance)
        remaining = [len(expansion.copies_of[j]) for j in range(instance.n_events)]

        order = list(range(instance.n_users))
        random.Random(self._seed).shuffle(order)

        grabbed = 0
        with obs.span("greedy.grab"):
            # A user's kernel row only invalidates when *their own* plan
            # changes, so priming every row up front in one batched pass is
            # behaviour-identical to the lazy per-user computation — and
            # replaces n_users cold per-user row calls with one user×event pass.
            # Every user is primed: one who can reach no event within
            # budget gets an all-False mask row and grabs nothing.
            planes = None
            if not kernel_mod.scalar_kernel_active():
                plan.kernel_block(np.arange(instance.n_users))
                planes = kernel_mod.SplicePlanes(instance)
            for user in order:
                grabbed += self._grab_favourites(
                    instance, plan, remaining, user, planes
                )
                if not any(remaining):
                    break

        with obs.span("greedy.cancel"):
            cancelled = cancel_deficient_events(instance, plan)
        filled = 0
        if self._fill:
            with obs.span("greedy.fill"):
                filled = self._filler.fill(
                    instance, plan, excluded_events=cancelled
                )
        obs.count("greedy.copies_grabbed", grabbed)
        obs.count("greedy.events_cancelled", len(cancelled))
        return GEPCSolution(
            plan,
            cancelled=cancelled,
            solver=self.name,
            diagnostics={
                "copies_grabbed": float(grabbed),
                "fill_added": float(filled),
                "cancelled": float(len(cancelled)),
            },
        )

    def _grab_favourites(
        self,
        instance: Instance,
        plan: GlobalPlan,
        remaining: list[int],
        user: int,
        planes: kernel_mod.SplicePlanes | None = None,
    ) -> int:
        """One user's greedy selection loop (Algorithm 2 lines 5-13).

        Events are tried in non-increasing utility order; an event that
        fails the conflict or budget check is skipped permanently for this
        user (adding later events can only tighten both checks less — the
        paper's loop equivalently stops at budget exhaustion).

        Feasibility is read from the plan's vectorized ``feasible_mask``
        kernel — one numpy row per plan state instead of a Python splice
        per candidate; the walk down the preference order (and therefore
        the chosen events) is identical to the scalar loop's.  On the
        production path (``planes`` passed), the first mask comes from the
        primed block pass and every post-add recheck runs the same checks
        as O(1) python scalar work on :class:`SplicePlanes` — bit-identical
        decisions without per-add row rebuilds.  The ``planes is None``
        loop is the reference, run only under
        :func:`repro.core.kernel.use_scalar_kernel`.
        """
        utility_row = instance.utility[user]
        preference = np.argsort(-utility_row, kind="stable")
        taken = 0
        evaluated = 0
        checks = 0
        if planes is None:
            mask = None
            for event in preference:
                event = int(event)
                evaluated += 1
                if remaining[event] <= 0:
                    continue
                if utility_row[event] <= 0.0:
                    break  # utilities are sorted; the rest are all zero
                checks += 1
                if mask is None:
                    mask = plan.feasible_mask(user)
                if mask[event]:
                    plan.add(user, event)
                    remaining[event] -= 1
                    taken += 1
                    mask = None  # plan changed; recompute lazily
        else:
            utilities = utility_row.tolist()
            mask = plan.feasible_mask(user)
            blocked = None
            # The live list; re-read after each add(), which copies a list
            # the plan shares with a fork before mutating it.
            user_events = plan._plans[user]
            route_costs = plan._route_costs
            budget = planes.budgets[user]
            splice = kernel_mod.scalar_splice
            starts = planes.starts
            ee_rows = planes.ee_rows
            fees = planes.fees
            user_row: list[float] | None = None
            for event in preference.tolist():
                evaluated += 1
                if remaining[event] <= 0:
                    continue
                if utilities[event] <= 0.0:
                    break  # utilities are sorted; the rest are all zero
                checks += 1
                if mask is not None:
                    if not mask[event]:
                        continue
                    if user_row is None:
                        user_row = planes.user_row(user)
                    # The mask already certified feasibility; the splice
                    # here only precomputes the hint add() would otherwise
                    # derive itself (bit-identical operation order).
                    hint = splice(
                        user_events, event, starts, user_row, ee_rows, fees
                    )
                else:
                    if blocked is None:
                        blocked = plan._blocked_row(user)
                    if blocked[event] or event in user_events:
                        continue
                    if user_row is None:
                        user_row = planes.user_row(user)
                    position, delta = splice(
                        user_events, event, starts, user_row, ee_rows, fees
                    )
                    if route_costs[user] + delta > budget + BUDGET_TOL:
                        continue
                    hint = (position, delta)
                plan.add(user, event, splice_hint=hint)
                user_events = plan._plans[user]
                remaining[event] -= 1
                taken += 1
                mask = None  # plan changed; scalar rechecks from here on
        obs = get_recorder()
        obs.count("greedy.candidates_evaluated", evaluated)
        obs.count("greedy.feasibility_checks", checks)
        return taken
