"""The IEP engine: dispatch any atomic operation to its repair algorithm.

Usage::

    engine = IEPEngine()
    result = engine.apply(instance, plan, EtaDecrease(event=4, new_upper=1))
    result.plan      # repaired plan, feasible on result.instance
    result.dif       # negative impact vs the input plan (Definition 2)

The input instance and plan are never mutated.  Repairs run on a
``GlobalPlan.rebound_to`` child, which shares every per-user list it does
not recompute with the input plan and copies a list only when it first
mutates it; ``result.dif`` and ``result.utility`` then cost O(users the
child owns), not O(|U|).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.iep import reductions
from repro.core.iep.eta_decrease import eta_decrease
from repro.core.iep.operations import (
    AtomicOperation,
    BudgetChange,
    EtaDecrease,
    EtaIncrease,
    LocationChange,
    NewEvent,
    TimeChange,
    UtilityChange,
    XiDecrease,
    XiIncrease,
)
from repro.core.iep.time_change import location_change, time_change
from repro.core.iep.xi_increase import xi_increase
from repro.core.metrics import dif as dif_metric
from repro.core.metrics import total_utility
from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.obs import get_recorder

# Post-apply observers installed by repro.check.shadow (empty in normal
# operation).  Each hook is called as ``hook(result)`` after a repair
# completes, before the result is returned to the caller.
_APPLY_HOOKS: list = []


@dataclass
class IEPResult:
    """Outcome of one incremental repair."""

    instance: Instance
    plan: GlobalPlan
    operation: AtomicOperation
    dif: int
    diagnostics: dict[str, float] = field(default_factory=dict)

    @property
    def utility(self) -> float:
        """Total utility of the repaired plan."""
        return total_utility(self.instance, self.plan)


class IEPEngine:
    """Applies atomic operations incrementally (the paper's IEP solution)."""

    def apply(
        self,
        instance: Instance,
        plan: GlobalPlan,
        operation: AtomicOperation,
    ) -> IEPResult:
        """Repair ``plan`` for ``operation`` and report the negative impact."""
        obs = get_recorder()
        kind = type(operation).__name__
        operation.validate(instance)
        with obs.span(f"iep.{kind}"):
            with obs.span("rebind"):
                new_instance = operation.apply_to_instance(instance)
                new_plan = plan.rebound_to(new_instance)
            with obs.span("repair"):
                diagnostics = self._dispatch(new_instance, new_plan, operation)
        obs.count("iep.operations")
        obs.count(f"iep.operations.{kind}")
        for key, value in diagnostics.items():
            obs.count(f"iep.repair.{key}", value)
        result = IEPResult(
            instance=new_instance,
            plan=new_plan,
            operation=operation,
            dif=dif_metric(plan, new_plan),
            diagnostics=diagnostics,
        )
        if _APPLY_HOOKS:
            for hook in _APPLY_HOOKS:
                hook(result)
        return result

    def apply_sequence(
        self,
        instance: Instance,
        plan: GlobalPlan,
        operations: list[AtomicOperation],
    ) -> list[IEPResult]:
        """Run a stream of atomic operations, one incremental repair each
        (the paper treats multi-change batches as repeated single runs)."""
        results = []
        for operation in operations:
            result = self.apply(instance, plan, operation)
            results.append(result)
            instance, plan = result.instance, result.plan
        return results

    @staticmethod
    def _dispatch(
        instance: Instance,
        plan: GlobalPlan,
        operation: AtomicOperation,
    ) -> dict[str, float]:
        # The three directly-solved operations (Algorithms 3-5)...
        if isinstance(operation, EtaDecrease):
            return eta_decrease(instance, plan, operation.event)
        if isinstance(operation, XiIncrease):
            return xi_increase(instance, plan, operation.event)
        if isinstance(operation, TimeChange):
            return time_change(instance, plan, operation.event)
        # ...and the reductions of the rest.
        if isinstance(operation, LocationChange):
            return location_change(instance, plan, operation.event)
        if isinstance(operation, EtaIncrease):
            return reductions.eta_increase(instance, plan, operation)
        if isinstance(operation, XiDecrease):
            return reductions.xi_decrease(instance, plan, operation)
        if isinstance(operation, NewEvent):
            return reductions.new_event(instance, plan, operation)
        if isinstance(operation, UtilityChange):
            return reductions.utility_change(instance, plan, operation)
        if isinstance(operation, BudgetChange):
            return reductions.budget_change(instance, plan, operation)
        raise TypeError(f"unknown atomic operation {type(operation).__name__}")
