"""Step 2 of the two-step framework: fill residual event capacity.

After step 1 places exactly the lower-bound number of users on each held
event, remaining capacity ``eta_j - n_j`` can still absorb interested users.
The paper delegates this to "existing methods with provable approximation
ratio (e.g., see [4])"; :class:`UtilityFill` implements the greedy member of
that family — scan all (user, event) pairs in non-increasing utility order
and insert every feasible one.  Feasible means: event held, residual
capacity left, positive utility, no time conflict with the user's plan, and
the extended route still within the user's budget.

The same routine serves the IEP algorithms' "check whether these users can
attend other events" steps (Algorithms 3-5).
"""

from __future__ import annotations

import numpy as np

from repro.core import kernel as kernel_mod
from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.core.tolerances import BUDGET_TOL
from repro.obs import get_recorder


def _prune_unreachable(instance: Instance, users: np.ndarray) -> np.ndarray:
    """Drop users the spatial index proves can reach no event.

    Sound and decision-identical: a user with no candidate event has an
    all-False feasible-mask row (every event fails the same
    ``2d + fee <= B + tol`` budget test the kernel evaluates), so they can
    never produce a candidate pair — pruning them only shrinks the kernel
    pass.  With the plane resident there is no index and this is a
    no-op.
    """
    candidates = instance.candidate_index
    if candidates is None or users.size == 0:
        return users
    return users[candidates.active_user_mask()[users]]


class UtilityFill:
    """Greedy utility-descending capacity filler."""

    name = "utility-fill"

    def fill(
        self,
        instance: Instance,
        plan: GlobalPlan,
        excluded_events: set[int] | None = None,
        only_users: set[int] | None = None,
    ) -> int:
        """Insert feasible assignments into ``plan`` in place.

        Parameters
        ----------
        instance, plan:
            The problem and the plan to extend.
        excluded_events:
            Events that must not receive new users (cancelled events, or the
            event an IEP operation just shrank).
        only_users:
            Restrict insertions to these users (the IEP algorithms only
            re-check the users whose plans were cut).

        Returns the number of assignments added.
        """
        obs = get_recorder()
        excluded = excluded_events or set()
        with obs.span("fill.utility"):
            residual = self._residual_capacity(instance, plan, excluded)

            if kernel_mod.active_kernel().vectorized_block:
                added, checks, n_candidates = self._fill_fast(
                    instance, plan, residual, only_users
                )
            else:
                candidates = self._candidate_pairs(
                    instance, plan, residual, only_users
                )
                n_candidates = len(candidates)
                added = 0
                checks = 0
                for _, user, event in candidates:
                    if residual[event] <= 0:
                        continue
                    checks += 1
                    if plan.can_attend(user, event):
                        plan.add(user, event)
                        residual[event] -= 1
                        added += 1
        obs.count("fill.candidates", n_candidates)
        obs.count("fill.feasibility_checks", checks)
        obs.count("fill.added", added)
        return added

    def _fill_fast(
        self,
        instance: Instance,
        plan: GlobalPlan,
        residual: np.ndarray,
        only_users: set[int] | None,
    ) -> tuple[int, int, int]:
        """The candidate loop engineered for the batched kernel strategy.

        Decision-for-decision identical to the ``can_attend`` loop below —
        same candidate order, same accept/reject outcomes — but the per-
        candidate work is O(1) python:

        * the initial feasibility masks come from **one** batched
          user×event kernel pass (:meth:`GlobalPlan.kernel_block`);
        * a user whose plan has not changed since that pass needs no
          recheck at all — their mask entry is still exact;
        * a changed ("touched") user is recheck-ed with the same checks
          ``can_attend`` performs, on pre-extracted python-list planes
          (:class:`repro.core.kernel.SplicePlanes`) whose floats are the
          identical IEEE doubles, so every accept/reject matches the
          numpy-scalar path bit for bit;
        * the exact splice the recheck computed is handed to
          :meth:`GlobalPlan.add` as a hint, skipping the re-splice.
        """
        users = (
            np.fromiter(
                sorted(only_users), dtype=np.intp, count=len(only_users)
            )
            if only_users is not None
            else np.arange(instance.n_users, dtype=np.intp)
        )
        users = _prune_unreachable(instance, users)
        open_mask = residual > 0
        if not open_mask.any() or users.size == 0:
            return 0, 0, 0
        open_events = np.flatnonzero(open_mask)
        _, feasible = plan.kernel_block(users)
        rows, cols = np.nonzero(feasible[:, open_events])
        if rows.size == 0:
            return 0, 0, 0
        user_ids = users[rows]
        event_ids = open_events[cols]
        utilities = instance.utility[user_ids, event_ids]
        order = np.lexsort((event_ids, user_ids, -utilities))
        user_list = user_ids[order].tolist()
        event_list = event_ids[order].tolist()

        planes = kernel_mod.SplicePlanes(instance)
        # Locals for the hot loop: every name below is a plain python
        # object (list/dict/float), so each iteration costs a handful of
        # LOAD_FASTs instead of attribute and numpy-scalar traffic.
        splice = kernel_mod.scalar_splice
        starts = planes.starts
        ee_rows = planes.ee_rows
        fees = planes.fees
        budgets = planes.budgets
        d = instance.distances
        ue_rows: dict[int, list[float]] = {}
        residual_left: list[int] = residual.tolist()
        route_costs = plan._route_costs
        plans = plan._plans
        # Users are touched only after an add(), which gives the plan its
        # own copy of a list and blocked row shared with a fork: the rows
        # cached here stay live, and lists are re-read from ``plans``.
        touched: set[int] = set()
        blocked_rows: dict[int, np.ndarray] = {}
        added = 0
        checks = 0
        for user, event in zip(user_list, event_list):
            if residual_left[event] <= 0:
                continue
            checks += 1
            if user in touched:
                blocked = blocked_rows.get(user)
                if blocked is None:
                    blocked = plan._blocked_row(user)
                    blocked_rows[user] = blocked
                if blocked[event]:
                    continue
                events = plans[user]
                if event in events:
                    continue
                row = ue_rows.get(user)
                if row is None:
                    row = d.user_event_row(user).tolist()
                    ue_rows[user] = row
                position, delta = splice(
                    events, event, starts, row, ee_rows, fees
                )
                if route_costs[user] + delta > budgets[user] + BUDGET_TOL:
                    continue
                plan.add(user, event, splice_hint=(position, delta))
            else:
                # The block pass said feasible and this user's plan has not
                # changed since — the mask entry is still exact; the splice
                # only precomputes add()'s hint (bit-identical order).
                row = ue_rows.get(user)
                if row is None:
                    row = d.user_event_row(user).tolist()
                    ue_rows[user] = row
                plan.add(
                    user,
                    event,
                    splice_hint=splice(
                        plans[user], event, starts, row, ee_rows, fees
                    ),
                )
                touched.add(user)
            residual_left[event] -= 1
            added += 1
        return added, checks, len(user_list)

    def _residual_capacity(
        self,
        instance: Instance,
        plan: GlobalPlan,
        excluded: set[int],
    ) -> np.ndarray:
        """Seats still open per event; zero for excluded or unheld events.

        Unheld events (zero attendance) stay closed: opening them here could
        create attendance between 1 and ``xi_j - 1``, breaking feasibility.
        """
        residual = np.zeros(instance.n_events, dtype=int)
        for event in range(instance.n_events):
            if event in excluded:
                continue
            count = plan.attendance(event)
            held = count >= instance.events[event].lower and count > 0
            if held or instance.events[event].lower == 0:
                residual[event] = instance.events[event].upper - count
        return residual

    def _candidate_pairs(
        self,
        instance: Instance,
        plan: GlobalPlan,
        residual: np.ndarray,
        only_users: set[int] | None,
    ) -> list[tuple[float, int, int]]:
        """(negative utility, user, event) triples, best utility first.

        Built by pre-filtering every user's vectorized
        :meth:`GlobalPlan.feasible_mask` row down to the open events,
        followed by a lexsort — same ordering as sorting
        ``(-utility, user, event)`` tuples, without the Python double loop.

        The pre-filter is sound because a fill only *adds* assignments, and
        additions only tighten the constraints (metric detours are
        non-negative, blocked-event counters only grow): a pair infeasible
        when the fill starts can never become feasible later in the same
        fill, so dropping it up front changes nothing but the number of
        re-checks the insertion loop performs.
        """
        users = (
            np.fromiter(
                sorted(only_users), dtype=np.intp, count=len(only_users)
            )
            if only_users is not None
            else np.arange(instance.n_users, dtype=np.intp)
        )
        users = _prune_unreachable(instance, users)
        open_mask = residual > 0
        if not open_mask.any() or users.size == 0:
            return []
        open_events = np.flatnonzero(open_mask)
        # One batched kernel pass for every user at once (the active
        # REPRO_KERNEL strategy decides how), then slice down to open events.
        _, feasible = plan.kernel_block(users)
        eligible = feasible[:, open_events]
        rows, cols = np.nonzero(eligible)
        if rows.size == 0:
            return []
        user_ids = users[rows]
        event_ids = open_events[cols]
        utilities = instance.utility[user_ids, event_ids]
        order = np.lexsort((event_ids, user_ids, -utilities))
        return list(
            zip(
                (-utilities[order]).tolist(),
                user_ids[order].tolist(),
                event_ids[order].tolist(),
            )
        )
