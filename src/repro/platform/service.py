"""The EBSN planning service: solve once, repair incrementally.

:class:`EBSNPlatform` is the deployment-shaped wrapper around the paper's
algorithms: it owns the current instance and plan, answers user queries
("what is my plan for today?"), and applies atomic operations through the
IEP engine, keeping an audit log of utilities and negative impacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.constraints import check_plan
from repro.core.gepc.base import GEPCSolver
from repro.core.gepc.greedy import GreedySolver
from repro.core.iep.engine import IEPEngine
from repro.core.iep.operations import AtomicOperation
from repro.core.metrics import total_utility
from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.obs import Recorder, get_recorder

# Exception types the engine raises for operations it refuses to apply
# (validate() raises IndexError/ValueError for out-of-range ids and
# malformed bounds; repairs raise ValueError on infeasible targets).
REJECTION_ERRORS = (ValueError, IndexError, KeyError)


@dataclass(frozen=True)
class PlatformLogEntry:
    """One audit record: the operation applied and its measured effect.

    ``seconds`` is the wall-clock duration of the repair span (always
    measured, even when no recorder is installed, so operators can audit
    per-operation latency from the log alone).
    """

    operation: AtomicOperation
    dif: int
    utility_before: float
    utility_after: float
    seconds: float = 0.0


class EBSNPlatform:
    """A stateful event-planning service over one EBSN instance."""

    def __init__(
        self,
        instance: Instance,
        solver: GEPCSolver | None = None,
    ) -> None:
        self._instance = instance
        self._solver = solver or GreedySolver()
        self._engine = IEPEngine()
        self._plan: GlobalPlan | None = None
        self._log: list[PlatformLogEntry] = []
        self._rejected = 0
        # Running total utility of the current plan, maintained across
        # publish/submit so `submit` never recomputes the full objective
        # just to fill `utility_before`.
        self._last_utility: float | None = None

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def instance(self) -> Instance:
        return self._instance

    @property
    def plan(self) -> GlobalPlan:
        if self._plan is None:
            raise RuntimeError("no plan yet; call publish_plans() first")
        return self._plan

    @property
    def log(self) -> list[PlatformLogEntry]:
        """The audit log: the live list, which only grows at the end.

        A prefix never changes, so a reader on another thread may keep a
        length and slice later; callers must not mutate it.
        """
        return self._log

    @property
    def is_planned(self) -> bool:
        return self._plan is not None

    @property
    def rejected_count(self) -> int:
        """How many submitted operations the engine refused to apply."""
        return self._rejected

    def install_plan(
        self, plan: GlobalPlan, utility: float | None = None
    ) -> None:
        """Adopt an externally computed plan as the current state.

        Used by crash recovery (:class:`repro.platform.durable
        .DurablePlatform`) to install a snapshot + replayed plan without
        re-solving, and by tests that construct plans by hand.  The plan
        must be built over this platform's instance.
        """
        if plan.instance is not self._instance:
            self._instance = plan.instance
        self._plan = plan
        self._last_utility = (
            float(utility)
            if utility is not None
            else total_utility(self._instance, plan)
        )

    # ------------------------------------------------------------------ #
    # Service operations
    # ------------------------------------------------------------------ #

    def publish_plans(self) -> float:
        """Compute the day's global plan; returns its total utility."""
        obs = get_recorder()
        with obs.span("platform.publish"):
            solution = self._solver.solve(self._instance)
        self._plan = solution.plan
        # The solve's kernel rows would live until the first op rebinds
        # the plan away; free them before serving instead.
        self._plan.release_caches()
        utility = total_utility(self._instance, self._plan)
        self._last_utility = utility
        obs.gauge("platform.published_utility", utility)
        return utility

    def plan_for(self, user: int) -> list[int]:
        """The "Plan for Today" of one user (event ids, start-sorted)."""
        return self.plan.user_plan(user)

    def attendees_of(self, event: int) -> list[int]:
        """Organiser view: who is coming to ``event``."""
        return self.plan.attendees(event)

    def submit(self, operation: AtomicOperation) -> PlatformLogEntry:
        """Apply one atomic operation incrementally and log its impact.

        Rejection contract: when the engine refuses the operation (it
        raises ``ValueError``/``IndexError``/``KeyError`` from validation
        or an infeasible repair), the exception propagates and the
        platform state is provably untouched — ``instance``, ``plan``,
        ``_last_utility``, and the log are only assigned *after* a
        successful apply (the engine never mutates its inputs).  Rejected
        submissions are counted in :attr:`rejected_count` and the
        ``platform.rejected`` observability counter so durable wrappers
        can tombstone the operation in their WAL.
        """
        obs = get_recorder()
        # Timings must reach the log even with tracing off: fall back to a
        # detached local recorder, whose span still measures wall clock.
        timer = obs if obs.enabled else Recorder()
        # `utility_before` is by definition the previous entry's
        # `utility_after` (state only changes through publish/submit), so
        # carry it forward instead of recomputing the full objective; the
        # one full computation happens on the first submit of a plan that
        # was installed without going through publish_plans().
        if self._last_utility is None:
            self._last_utility = total_utility(self._instance, self.plan)
        before = self._last_utility
        span = timer.span("platform.submit")
        try:
            with span:
                result = self._engine.apply(
                    self._instance, self.plan, operation
                )
        except REJECTION_ERRORS:
            self._rejected += 1
            obs.count("platform.rejected")
            raise
        self._instance = result.instance
        self._plan = result.plan
        after = result.utility
        self._last_utility = after
        obs.count("platform.operations")
        entry = PlatformLogEntry(
            operation=operation,
            dif=result.dif,
            utility_before=before,
            utility_after=after,
            seconds=span.elapsed,
        )
        self._log.append(entry)
        return entry

    def audit(self, deep: bool = False) -> dict[str, float]:
        """Service health numbers: current utility, cumulative impact, and
        a feasibility self-check (0 violations expected).

        ``deep=True`` additionally runs the :class:`InvariantAuditor` —
        every incrementally maintained cache (route costs, attendee index,
        blocked counters, kernel rows, patched instance caches) is
        recomputed from scratch and diffed, reported as
        ``cache_mismatches``/``cache_checks``.  The deep audit rebuilds
        the instance's caches, so keep it off hot paths.
        """
        # Imported lazily: repro.check's package init imports the
        # fuzzer, which imports the platform package back.
        from repro.check.auditor import InvariantAuditor

        numbers = audit_numbers(self._instance, self.plan, self._log)
        if deep:
            report = InvariantAuditor().audit(self.plan)
            numbers["cache_checks"] = float(report.checks)
            numbers["cache_mismatches"] = float(len(report.mismatches))
        return numbers


def audit_numbers(
    instance: Instance,
    plan: GlobalPlan,
    log: Sequence[PlatformLogEntry],
    violations: int | None = None,
) -> dict[str, float]:
    """:meth:`EBSNPlatform.audit`'s numbers for one state and its log.

    ``violations`` is ``check_plan``'s count for this state when a
    caller already took it; otherwise it is counted here.
    """
    if violations is None:
        violations = len(check_plan(instance, plan))
    return {
        "utility": total_utility(instance, plan),
        "total_dif": float(sum(entry.dif for entry in log)),
        "operations": float(len(log)),
        "violations": float(violations),
        "seconds_total": float(sum(entry.seconds for entry in log)),
    }
