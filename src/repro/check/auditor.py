"""The invariant auditor: recompute every cached quantity from scratch.

:class:`InvariantAuditor` is the ground-truth referee for the vectorized
incremental kernel (``docs/performance.md``).  It rebuilds each cached
quantity from the raw problem data and diffs it against the live caches:

* per-user **route costs** vs. an exact ``Instance.route_cost`` recompute,
* the **attendee index** (attendance is its size) vs. plan membership,
* plan **start-order** and duplicate-freeness,
* materialised **blocked-event counter** rows vs. a conflict-matrix sum,
* cached **kernel rows** (``insertion_deltas``/``feasible_mask``) vs. the
  scalar splice and feasibility definitions,
* the instance's **patched caches** (distances, conflicts, starts, fees)
  vs. a from-scratch :meth:`Instance.rebuilt` — this is what validates the
  shared-cache identity rules of ``with_event``/``with_user``/
  ``with_utility``/``with_new_event``: an illegally shared or mis-patched
  cache diverges from the rebuild and is reported,
* the plan's **carried utility total** vs. a from-scratch ``math.fsum``,
* and (:meth:`InvariantAuditor.audit_dif`) the **owned-user dif** of a
  ``rebound_to`` child vs. a scan of every user.

Every divergence is a structured :class:`CacheMismatch`; the auditor never
raises on its own (callers — shadow mode, the fuzzer, tests — decide).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.metrics import dif
from repro.core.model import Instance
from repro.core.plan import UTILITY_UNIT, GlobalPlan
from repro.core.tolerances import AUDIT_FLOAT_TOL, BUDGET_TOL
from repro.obs import get_recorder


@dataclass(frozen=True)
class CacheMismatch:
    """One cached quantity that diverged from its from-scratch recompute."""

    kind: str
    cached: object
    expected: object
    user: int | None = None
    event: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        parts = [self.kind]
        if self.user is not None:
            parts.append(f"user={self.user}")
        if self.event is not None:
            parts.append(f"event={self.event}")
        if self.cached is not None or self.expected is not None:
            parts.append(f"cached={self.cached!r}")
            parts.append(f"expected={self.expected!r}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


@dataclass
class AuditReport:
    """Outcome of one audit pass: mismatches plus how much was compared."""

    mismatches: list[CacheMismatch] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def merge(self, other: "AuditReport") -> None:
        self.mismatches.extend(other.mismatches)
        self.checks += other.checks

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatch(es)"
        lines = [f"audit: {self.checks} checks, {status}"]
        lines.extend(f"  {mismatch}" for mismatch in self.mismatches)
        return "\n".join(lines)


class InvariantAuditor:
    """Diffs a plan's live caches against from-scratch recomputation.

    ``float_tol`` bounds the allowed numeric drift between a cached float
    and its exact recompute (splice-delta arithmetic reorders operations,
    so bit-identity cannot be demanded); it is deliberately below
    :data:`repro.core.tolerances.BUDGET_TOL` so audited drift can never
    cross a feasibility boundary the solvers respected.
    """

    def __init__(self, float_tol: float = AUDIT_FLOAT_TOL) -> None:
        self.float_tol = float_tol

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def audit(
        self,
        plan: GlobalPlan,
        users: Sequence[int] | None = None,
        events: Sequence[int] | None = None,
        include_instance: bool = True,
    ) -> AuditReport:
        """Audit ``plan``'s caches; optionally restrict to a user/event
        subset (the shadow mode's per-mutation fast path).

        ``include_instance=True`` additionally rebuilds the instance's own
        caches from scratch and uses the rebuild as the recompute reference,
        so corruption introduced by a ``with_*`` patch is caught too.
        """
        obs = get_recorder()
        report = AuditReport()
        instance = plan.instance
        reference = instance.rebuilt() if include_instance else instance
        if include_instance:
            self._audit_instance_caches(instance, reference, report)
        user_ids = range(instance.n_users) if users is None else users
        event_ids = range(instance.n_events) if events is None else events
        self._audit_users(plan, reference, user_ids, report)
        self._audit_events(plan, event_ids, report)
        if users is None:
            self._audit_utility(plan, report)
        obs.count("check.audit.runs")
        obs.count("check.audit.checks", report.checks)
        obs.count("check.audit.mismatches", len(report.mismatches))
        return report

    def audit_dif(self, old: GlobalPlan, new: GlobalPlan) -> AuditReport:
        """``dif(old, new)`` vs. a scan of every user.

        ``metrics.dif`` walks only the users a ``rebound_to`` child owns,
        so a list changed without being owned makes the two differ.
        """
        report = AuditReport(checks=1)
        scanned = sum(
            len(set(events) - set(new._plans[user]))
            for user, events in enumerate(old._plans)
        )
        measured = dif(old, new)
        if measured != scanned:
            report.mismatches.append(
                CacheMismatch(
                    kind="dif",
                    cached=measured,
                    expected=scanned,
                    detail="owned-user dif != full-scan dif",
                )
            )
        get_recorder().count("check.audit.mismatches", len(report.mismatches))
        return report

    def audit_kernel_strategies(
        self,
        plan: GlobalPlan,
        users: Sequence[int] | None = None,
    ) -> AuditReport:
        """Audit the batched kernel against the scalar oracle on ``plan``.

        The contract is *bit-identity*, not closeness: for each audited
        user, :func:`~repro.core.kernel.batched_row` and the matching row
        of :func:`~repro.core.kernel.batched_block` must reproduce
        :func:`~repro.core.kernel.scalar_row`'s insertion deltas and
        feasibility mask exactly.  This is what lets the oracle stand in
        for the production path under ``use_scalar_kernel()`` without
        changing a plan.
        """
        from repro.core import kernel as kernel_mod

        report = AuditReport()
        user_ids = (
            list(range(plan.instance.n_users)) if users is None else list(users)
        )
        expected = {
            user: kernel_mod.scalar_row(plan, user) for user in user_ids
        }
        for user in user_ids:
            deltas, mask = kernel_mod.batched_row(plan, user)
            ref_deltas, ref_mask = expected[user]
            report.checks += 2
            if not np.array_equal(deltas, ref_deltas):
                worst = int(np.abs(deltas - ref_deltas).argmax())
                report.mismatches.append(
                    CacheMismatch(
                        kind="kernel_strategy_deltas",
                        cached=float(deltas[worst]),
                        expected=float(ref_deltas[worst]),
                        user=user,
                        event=worst,
                        detail="batched row != scalar row",
                    )
                )
            if not np.array_equal(mask, ref_mask):
                bad = np.flatnonzero(mask != ref_mask).tolist()
                report.mismatches.append(
                    CacheMismatch(
                        kind="kernel_strategy_mask",
                        cached=bool(mask[bad[0]]),
                        expected=bool(ref_mask[bad[0]]),
                        user=user,
                        event=bad[0],
                        detail=f"batched mask != scalar mask at events {bad[:5]}",
                    )
                )
        block_deltas, block_mask = kernel_mod.batched_block(
            plan, np.asarray(user_ids, dtype=np.intp)
        )
        for k, user in enumerate(user_ids):
            ref_deltas, ref_mask = expected[user]
            report.checks += 1
            if not np.array_equal(
                block_deltas[k], ref_deltas
            ) or not np.array_equal(block_mask[k], ref_mask):
                report.mismatches.append(
                    CacheMismatch(
                        kind="kernel_strategy_block",
                        cached="<block row>",
                        expected="<scalar row>",
                        user=user,
                        detail="batched block row diverged",
                    )
                )
        obs = get_recorder()
        obs.count("check.audit.kernel_strategy_checks", report.checks)
        obs.count("check.audit.mismatches", len(report.mismatches))
        return report

    def audit_instance_update(
        self, old: Instance, new: Instance
    ) -> AuditReport:
        """Audit a ``with_*`` functional update's carried caches.

        Whatever ``new`` inherited from ``old`` — whether shared by
        identity or patched in place — must match a from-scratch rebuild
        of ``new``.  ``old`` is accepted so call sites read naturally and
        so materialising ``new``'s caches here never mutates ``old``.
        """
        del old  # the rebuild of ``new`` is the only reference needed
        report = AuditReport()
        self._audit_instance_caches(new, new.rebuilt(), report)
        return report

    # ------------------------------------------------------------------ #
    # Instance caches vs. a from-scratch rebuild
    # ------------------------------------------------------------------ #

    def _audit_instance_caches(
        self, instance: Instance, reference: Instance, report: AuditReport
    ) -> None:
        if instance._distances is not None:
            fresh = reference.distances
            live = instance._distances
            # Compare *served* values: with the plane resident this is
            # the plane itself; without it, every pair the solvers could
            # ever read is computed from the coordinates, so a stale
            # coordinate diverges here exactly like a mis-patched plane
            # row would.
            ids = np.arange(live.n_users, dtype=np.intp)
            self._compare_matrix(
                report, "instance_user_event_distances",
                live.user_event_rows(ids),
                fresh.user_event_rows(
                    np.arange(fresh.n_users, dtype=np.intp)
                ),
            )
            self._compare_matrix(
                report, "instance_event_event_distances",
                live.event_event_matrix, fresh.event_event_matrix,
            )
        if instance._conflict_matrix is not None:
            report.checks += 1
            if not np.array_equal(
                instance._conflict_matrix, reference.conflict_matrix
            ):
                rows = np.flatnonzero(
                    (instance._conflict_matrix != reference.conflict_matrix)
                    .any(axis=1)
                ).tolist()
                report.mismatches.append(
                    CacheMismatch(
                        kind="instance_conflict_matrix",
                        cached="<dense matrix>",
                        expected="<dense matrix>",
                        detail=f"rows differ for events {rows}",
                    )
                )
        if instance._event_starts is not None:
            self._compare_matrix(
                report, "instance_event_starts",
                instance._event_starts, reference.event_starts,
            )
        if instance._fee_vector is not None:
            self._compare_matrix(
                report, "instance_fee_vector",
                instance._fee_vector, reference.fee_vector,
            )

    def _compare_matrix(
        self,
        report: AuditReport,
        kind: str,
        cached: np.ndarray,
        expected: np.ndarray,
    ) -> None:
        report.checks += 1
        if cached.shape != expected.shape:
            report.mismatches.append(
                CacheMismatch(
                    kind=kind, cached=cached.shape, expected=expected.shape,
                    detail="shape differs",
                )
            )
            return
        if cached.size == 0:
            return
        worst = float(np.abs(cached - expected).max())
        if worst > self.float_tol:
            where = np.unravel_index(
                int(np.abs(cached - expected).argmax()), cached.shape
            )
            report.mismatches.append(
                CacheMismatch(
                    kind=kind,
                    cached=float(cached[where]),
                    expected=float(expected[where]),
                    detail=f"max |diff|={worst:.3e} at {tuple(map(int, where))}",
                )
            )

    # ------------------------------------------------------------------ #
    # Per-user plan caches
    # ------------------------------------------------------------------ #

    def _audit_users(
        self,
        plan: GlobalPlan,
        reference: Instance,
        users: Iterable[int],
        report: AuditReport,
    ) -> None:
        starts = reference.event_starts
        for user in users:
            events = plan._plans[user]
            # Start order and duplicate-freeness.
            report.checks += 1
            order = [float(starts[j]) for j in events]
            if order != sorted(order) or len(set(events)) != len(events):
                report.mismatches.append(
                    CacheMismatch(
                        kind="plan_order",
                        cached=list(events),
                        expected=sorted(set(events), key=starts.__getitem__),
                        user=user,
                        detail="plan not start-sorted and duplicate-free",
                    )
                )
            # Cached route cost vs. exact recompute.
            report.checks += 1
            exact = reference.route_cost(user, list(events))
            cached_cost = plan._route_costs[user]
            if abs(cached_cost - exact) > self.float_tol:
                report.mismatches.append(
                    CacheMismatch(
                        kind="route_cost",
                        cached=cached_cost,
                        expected=exact,
                        user=user,
                        detail=f"drift {cached_cost - exact:.3e}",
                    )
                )
            # Membership symmetry: plan -> attendee index.
            for event in events:
                report.checks += 1
                if user not in plan._attendee_sets[event]:
                    report.mismatches.append(
                        CacheMismatch(
                            kind="attendee_index",
                            cached=False,
                            expected=True,
                            user=user,
                            event=event,
                            detail="assigned event missing from attendee set",
                        )
                    )
            self._audit_blocked_counters(plan, reference, user, report)
            self._audit_kernel_row(plan, reference, user, report)

    def _audit_blocked_counters(
        self,
        plan: GlobalPlan,
        reference: Instance,
        user: int,
        report: AuditReport,
    ) -> None:
        cached = plan._blocked.get(user)
        if cached is None:
            return  # never materialised: nothing incremental to verify
        events = plan._plans[user]
        matrix = reference.conflict_matrix
        if events:
            expected = matrix[events].sum(axis=0, dtype=np.int16)
        else:
            expected = np.zeros(reference.n_events, dtype=np.int16)
        report.checks += 1
        if cached.shape != expected.shape or not np.array_equal(
            cached, expected
        ):
            bad = (
                np.flatnonzero(cached != expected).tolist()
                if cached.shape == expected.shape
                else []
            )
            first = bad[0] if bad else None
            report.mismatches.append(
                CacheMismatch(
                    kind="blocked_counter",
                    cached=int(cached[first]) if first is not None else cached.shape,
                    expected=(
                        int(expected[first]) if first is not None
                        else expected.shape
                    ),
                    user=user,
                    event=first,
                    detail=f"counter rows differ at events {bad[:5]}",
                )
            )

    def _audit_kernel_row(
        self,
        plan: GlobalPlan,
        reference: Instance,
        user: int,
        report: AuditReport,
    ) -> None:
        cached = plan._kernel_cache.get(user)
        if cached is None:
            return  # cold: nothing cached to diverge
        deltas, mask = cached
        events = plan._plans[user]
        assigned = set(events)
        exact_base = reference.route_cost(user, list(events))
        budget = reference.users[user].budget
        conflicts = reference.conflict_matrix
        for event in range(reference.n_events):
            if event not in assigned:
                report.checks += 1
                exact_delta = (
                    reference.route_cost_with(user, list(events), event)
                    - exact_base
                )
                if abs(float(deltas[event]) - exact_delta) > self.float_tol:
                    report.mismatches.append(
                        CacheMismatch(
                            kind="kernel_deltas",
                            cached=float(deltas[event]),
                            expected=exact_delta,
                            user=user,
                            event=event,
                            detail="insertion delta diverged",
                        )
                    )
                extended = exact_base + exact_delta
            else:
                extended = None
            report.checks += 1
            conflict_free = not any(
                conflicts[event, other] for other in events
            )
            expected_mask = (
                reference.utility[user, event] > 0.0
                and event not in assigned
                and conflict_free
                and extended is not None
                and extended <= budget + BUDGET_TOL
            )
            if bool(mask[event]) != expected_mask:
                # A cached-vs-exact float hair's breadth from the budget
                # boundary is drift, not corruption; report only decisive
                # disagreements.
                if (
                    extended is not None
                    and abs(extended - (budget + BUDGET_TOL)) <= self.float_tol
                ):
                    continue
                report.mismatches.append(
                    CacheMismatch(
                        kind="kernel_mask",
                        cached=bool(mask[event]),
                        expected=expected_mask,
                        user=user,
                        event=event,
                        detail="feasible_mask disagrees with the definition",
                    )
                )

    def _audit_utility(self, plan: GlobalPlan, report: AuditReport) -> None:
        """The carried exact total vs. ``math.fsum`` over every assignment
        (both exactly rounded, so equality is exact)."""
        utility = plan.instance.utility
        expected = math.fsum(
            float(utility[user, event])
            for user, events in enumerate(plan._plans)
            for event in events
        )
        carried = plan.utility_units() / UTILITY_UNIT
        report.checks += 1
        if carried != expected:
            report.mismatches.append(
                CacheMismatch(
                    kind="utility_total",
                    cached=carried,
                    expected=expected,
                    detail="carried utility total != fsum recompute",
                )
            )

    # ------------------------------------------------------------------ #
    # Per-event attendee index
    # ------------------------------------------------------------------ #

    def _audit_events(
        self,
        plan: GlobalPlan,
        events: Iterable[int],
        report: AuditReport,
    ) -> None:
        # Membership derived from the plans themselves: the one structure
        # everything else must agree with.
        derived: list[set[int]] = [
            set() for _ in range(plan.instance.n_events)
        ]
        for user, user_events in enumerate(plan._plans):
            for event in user_events:
                derived[event].add(user)
        for event in events:
            report.checks += 1
            if plan._attendee_sets[event] != derived[event]:
                report.mismatches.append(
                    CacheMismatch(
                        kind="attendee_index",
                        cached=sorted(plan._attendee_sets[event]),
                        expected=sorted(derived[event]),
                        event=event,
                        detail="attendee set diverged from membership",
                    )
                )
