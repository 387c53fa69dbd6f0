"""Operation batching: a coalescing front-end over the platform.

:class:`EBSNPlatform` applies atomic operations one at a time.
:class:`BatchedPlatform` queues them and applies them in batches:

* **Coalescing** — queued operations targeting the same entity fold
  before applying (two ``EtaDecrease`` on one event become the tighter
  one; ``TimeChange``/``LocationChange``/``UtilityChange``/
  ``BudgetChange`` are last-write-wins; see :func:`coalesce_operations`
  for the full rule table).  The engine then repairs once per surviving
  operation instead of once per submission.
* **One audit boundary per batch** — :meth:`flush` applies the whole
  coalesced batch and runs ``check_plan`` once at the end, not per
  operation.
* **Backpressure stats** — queue depth, coalesce/fold counts, rejected
  operations, and forced flushes are mirrored to ``repro.obs`` and
  exposed via :meth:`stats`.

It is single-threaded, like the platform it wraps: one caller at a time
(the service's tenant worker is its only writer, and service reads never
touch it; see :mod:`repro.service.tenants`).

The applied-operation log (:attr:`applied_log`) is the platform's ground
truth: serially replaying it from the published plan reproduces the
final state exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constraints import check_plan
from repro.core.gepc.base import GEPCSolver
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
from repro.core.metrics import total_utility
from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.obs import get_recorder
from repro.platform.service import (
    REJECTION_ERRORS,
    EBSNPlatform,
    PlatformLogEntry,
)


def coalesce_operations(
    operations: list[AtomicOperation],
) -> tuple[list[AtomicOperation], int]:
    """Fold same-target operations; returns ``(survivors, folded_count)``.

    Rules (keyed by operation type + target entity, first-occurrence
    order preserved):

    ========================  =======================================
    operations on one target  fold result
    ========================  =======================================
    ``EtaDecrease``           tightest (minimum) new upper bound
    ``EtaIncrease``           loosest (maximum) new upper bound
    ``XiIncrease``            tightest (maximum) new lower bound
    ``XiDecrease``            loosest (minimum) new lower bound
    ``TimeChange``            last write wins
    ``LocationChange``        last write wins
    ``UtilityChange``         last write wins (per user-event pair)
    ``BudgetChange``          last write wins (per user)
    ``NewEvent``              never folded
    ========================  =======================================

    Folding is the stream's composition: applying the folded operation
    yields the same instance as applying the sequence (bounds compose to
    their extremum, attribute writes to the last value).  Different
    operation *types* on the same entity are never folded into each
    other; they stay distinct operations in first-occurrence order.
    """
    slots: dict[tuple, int] = {}
    survivors: list[AtomicOperation | None] = []
    folded = 0
    for operation in operations:
        key = _coalesce_key(operation, position=len(survivors))
        slot = slots.get(key)
        if slot is None:
            slots[key] = len(survivors)
            survivors.append(operation)
            continue
        survivors[slot] = _fold(survivors[slot], operation)
        folded += 1
    return [op for op in survivors if op is not None], folded


def _coalesce_key(operation: AtomicOperation, position: int) -> tuple:
    if isinstance(operation, (EtaDecrease, EtaIncrease)):
        return (type(operation).__name__, operation.event)
    if isinstance(operation, (XiIncrease, XiDecrease)):
        return (type(operation).__name__, operation.event)
    if isinstance(operation, (TimeChange, LocationChange)):
        return (type(operation).__name__, operation.event)
    if isinstance(operation, UtilityChange):
        return ("UtilityChange", operation.user, operation.event)
    if isinstance(operation, BudgetChange):
        return ("BudgetChange", operation.user)
    # NewEvent (and any unknown operation): unique slot, never folded.
    return ("__unique__", position)


def _fold(
    first: AtomicOperation, second: AtomicOperation
) -> AtomicOperation:
    if isinstance(first, EtaDecrease):
        return EtaDecrease(
            first.event, min(first.new_upper, second.new_upper)
        )
    if isinstance(first, EtaIncrease):
        return EtaIncrease(
            first.event, max(first.new_upper, second.new_upper)
        )
    if isinstance(first, XiIncrease):
        return XiIncrease(
            first.event, max(first.new_lower, second.new_lower)
        )
    if isinstance(first, XiDecrease):
        return XiDecrease(
            first.event, min(first.new_lower, second.new_lower)
        )
    # Attribute writes: last wins.
    return second


@dataclass
class BatchResult:
    """Outcome of one :meth:`BatchedPlatform.flush`."""

    submitted: int = 0
    folded: int = 0
    applied: list[PlatformLogEntry] = field(default_factory=list)
    rejected: list[tuple[AtomicOperation, str]] = field(default_factory=list)
    violations: int = 0
    utility: float = 0.0

    @property
    def ok(self) -> bool:
        return self.violations == 0 and not self.rejected


class PlatformClosedError(RuntimeError):
    """An operation was submitted to a closed :class:`BatchedPlatform`.

    Raised by :meth:`BatchedPlatform.enqueue` after :meth:`close` — a
    clear, immediate refusal instead of silently queueing work that no
    flush will ever apply (the shutdown deadlock the service layer
    must never hit).
    """


class BatchRejectionError(RuntimeError):
    """One or more operations in a flushed batch were rejected.

    Raised *after* the rest of the batch has been applied (rejections
    never roll back or block their batch-mates); ``.result`` carries the
    full :class:`BatchResult` including every ``(operation, reason)``
    pair, so callers can inspect exactly which submissions failed.
    """

    def __init__(self, result: BatchResult):
        reasons = "; ".join(
            f"{type(op).__name__}: {reason}"
            for op, reason in result.rejected[:3]
        )
        more = len(result.rejected) - 3
        if more > 0:
            reasons += f"; and {more} more"
        super().__init__(
            f"{len(result.rejected)} of {result.submitted} batched "
            f"operation(s) rejected ({reasons})"
        )
        self.result = result


class BatchedPlatform:
    """A batch-coalescing front-end over :class:`EBSNPlatform`.

    Operations are queued with :meth:`enqueue`; :meth:`flush` (called
    explicitly, or by :meth:`enqueue` once the queue reaches
    ``max_pending``) coalesces and applies them with a single
    ``check_plan`` boundary.
    """

    def __init__(
        self,
        instance: Instance | None = None,
        solver: GEPCSolver | None = None,
        max_pending: int = 64,
        platform: object | None = None,
        raise_on_reject: bool = False,
    ) -> None:
        """Front a platform with a coalescing queue.

        Either pass ``instance`` (an :class:`EBSNPlatform` is built
        internally) or ``platform`` (any object with the platform
        surface — notably :class:`repro.platform.durable.DurablePlatform`
        to get WAL + snapshots under batched traffic).

        ``raise_on_reject=True`` makes :meth:`flush` raise
        :class:`BatchRejectionError` whenever a batch had rejected
        operations — for callers that treat a silent drop as a bug
        rather than expected staleness.
        """
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if (instance is None) == (platform is None):
            raise ValueError(
                "pass exactly one of `instance` or `platform`"
            )
        if platform is None:
            platform = EBSNPlatform(instance, solver=solver)
        elif solver is not None:
            raise ValueError("`solver` only applies with `instance`")
        self._platform = platform
        self._raise_on_reject = raise_on_reject
        self._max_pending = max_pending
        self._pending: list[AtomicOperation] = []
        self._closed = False
        self._applied_log: list[AtomicOperation] = []
        # (plan, check_plan's violation count) from the last flush.
        self.last_check: tuple[GlobalPlan, int] | None = None
        self._stats = {
            "enqueued": 0,
            "folded": 0,
            "applied": 0,
            "rejected": 0,
            "flushes": 0,
            "forced_flushes": 0,
            "max_queue_depth": 0,
        }
        # Captured once: counters land in the recorder of the context
        # that built the platform, whichever thread later drives it.
        self._obs = get_recorder()

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    @property
    def instance(self) -> Instance:
        return self._platform.instance

    @property
    def plan(self) -> GlobalPlan:
        return self._platform.plan

    @property
    def log(self) -> list[PlatformLogEntry]:
        return self._platform.log

    @property
    def applied_log(self) -> list[AtomicOperation]:
        """Coalesced operations actually applied, in apply order.

        Serial replay of this log from the published plan reproduces the
        current state exactly.
        """
        return list(self._applied_log)

    def plan_for(self, user: int) -> list[int]:
        return self._platform.plan_for(user)

    def attendees_of(self, event: int) -> list[int]:
        return self._platform.attendees_of(event)

    def snapshot(self) -> dict[str, float]:
        """The platform's audit numbers plus the queue depth."""
        numbers = self._platform.audit()
        numbers["queue_depth"] = float(len(self._pending))
        return numbers

    def stats(self) -> dict[str, int]:
        """Backpressure and coalescing counters (a copy)."""
        return dict(self._stats)

    def queue_depth(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def publish_plans(self) -> float:
        return self._platform.publish_plans()

    def enqueue(self, operation: AtomicOperation) -> int:
        """Queue one operation; returns the queue depth after enqueue.

        Reaching ``max_pending`` makes the enqueueing caller pay for the
        flush (backpressure: producers slow down instead of the queue
        growing without bound).
        """
        if self._closed:
            raise PlatformClosedError(
                "BatchedPlatform is closed; the final batch has "
                "already been flushed and no further operations are "
                "accepted"
            )
        self._pending.append(operation)
        depth = len(self._pending)
        self._stats["enqueued"] += 1
        self._stats["max_queue_depth"] = max(
            self._stats["max_queue_depth"], depth
        )
        self._obs.count("batched.enqueued")
        self._obs.gauge("batched.queue_depth", float(depth))
        if depth >= self._max_pending:
            self._stats["forced_flushes"] += 1
            self._obs.count("batched.forced_flushes")
            self.flush()
        return depth

    def flush(self) -> BatchResult:
        """Coalesce and apply everything queued; one audit boundary.

        Returns an empty :class:`BatchResult` when nothing was queued.
        Invalid operations (stale against the batch's evolving instance)
        are rejected and recorded, never partially applied — and never
        silently swallowed: every failure is in ``result.rejected`` with
        its reason, mirrored to the ``batched.rejected`` counter, and
        with ``raise_on_reject`` it escalates to
        :class:`BatchRejectionError` once the batch completes.
        """
        batch, self._pending = self._pending, []
        result = BatchResult(submitted=len(batch))
        if not batch:
            return result
        operations, result.folded = coalesce_operations(batch)
        for operation in operations:
            try:
                entry = self._platform.submit(operation)
            except REJECTION_ERRORS as exc:
                # Stale or malformed against the batch's evolving
                # instance (validate() raises IndexError for ids past
                # the current event/user range).
                result.rejected.append((operation, str(exc)))
                continue
            result.applied.append(entry)
            self._applied_log.append(operation)
        violations = check_plan(self._platform.instance, self._platform.plan)
        result.violations = len(violations)
        self.last_check = (self._platform.plan, result.violations)
        result.utility = (
            result.applied[-1].utility_after
            if result.applied
            else total_utility(self._platform.instance, self._platform.plan)
        )
        self._stats["folded"] += result.folded
        self._stats["applied"] += len(result.applied)
        self._stats["rejected"] += len(result.rejected)
        self._stats["flushes"] += 1
        self._obs.count("batched.flushes")
        self._obs.count("batched.folded", result.folded)
        self._obs.count("batched.applied", len(result.applied))
        self._obs.count("batched.rejected", len(result.rejected))
        self._obs.count("batched.violations", result.violations)
        if self._raise_on_reject and result.rejected:
            raise BatchRejectionError(result)
        return result

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> BatchResult:
        """Flush the pending batch once, then close the platform.

        * Operations enqueued after close raise
          :class:`PlatformClosedError` immediately (never queued on a
          queue nothing will drain).
        * An inner platform with its own ``close()`` (notably
          :class:`repro.platform.durable.DurablePlatform`, whose close
          seals the WAL) is closed after the final flush, and only once.
        * Idempotent: closing a closed platform returns an empty
          :class:`BatchResult` without re-flushing.

        Returns the final flush's :class:`BatchResult`.
        """
        if self._closed:
            return BatchResult()
        self._closed = True
        result = self.flush()
        inner_close = getattr(self._platform, "close", None)
        if inner_close is not None:
            inner_close()
        self._obs.count("batched.closes")
        return result

    def __enter__(self) -> "BatchedPlatform":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
