"""Insertion-delta / feasible-mask kernel strategies.

:class:`~repro.core.plan.GlobalPlan` caches, per user, the pair
``(insertion_deltas, feasible_mask)`` its solvers' inner loops run on.
This module owns the *math* that produces those rows, behind a strategy
interface so the same cache can be filled two interchangeable ways:

``batched`` (default)
    The production path.  :meth:`KernelStrategy.row` evaluates every
    candidate event of one user at once (``DistanceMatrix`` row slices +
    ``searchsorted`` splice positions); :meth:`KernelStrategy.block`
    computes the delta matrix and feasibility mask for a whole batch of
    users in one vectorized pass (chunked so the ``batch × plan-length ×
    events`` intermediate stays small).
``scalar``
    Pure-python per-event splice arithmetic — slow by design, the ground
    truth the batched strategy is audited and fuzzed against.

Both strategies are **bit-identical**: every elementwise float operation
is performed in the same order, so deltas compare equal with ``==`` and
the masks match exactly.  ``repro.check`` enforces this
(:meth:`InvariantAuditor.audit_kernel_strategies`, the differential
fuzzer) and CI pins each strategy via the ``REPRO_KERNEL`` env flag.

Strategies read plan internals (``_plans``, ``_blocked_row``,
``_route_costs``) by design — this module is the plan's kernel, split out
so the dispatch is swappable; it never *writes* plan or instance caches.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.tolerances import BUDGET_TOL
from repro.obs import get_recorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.plan import GlobalPlan

#: Environment flag CI pins per matrix leg: ``batched|scalar``.
ENV_VAR = "REPRO_KERNEL"

#: Strategy used when ``REPRO_KERNEL`` is unset.
DEFAULT_STRATEGY = "batched"


class KernelStrategy:
    """One way of computing a user's (deltas, mask) kernel row.

    ``row``/``block`` return *fresh, writable* arrays — the plan locks and
    caches them; strategies never touch the plan's caches themselves.
    """

    name = "base"

    #: Whether :meth:`block` is a genuinely vectorized multi-user pass
    #: (callers use this to decide if eagerly priming many rows pays off).
    vectorized_block = False

    def row(
        self, plan: "GlobalPlan", user: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(insertion_deltas, feasible_mask)`` for one user."""
        raise NotImplementedError

    def block(
        self, plan: "GlobalPlan", users: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked rows for ``users`` — default: one :meth:`row` each."""
        m = plan.instance.n_events
        deltas = np.empty((users.size, m), dtype=float)
        mask = np.empty((users.size, m), dtype=bool)
        for i, user in enumerate(users):
            row_deltas, row_mask = self.row(plan, int(user))
            deltas[i] = row_deltas
            mask[i] = row_mask
        return deltas, mask


class ScalarKernel(KernelStrategy):
    """Pure-python reference: per-event scalar splice arithmetic."""

    name = "scalar"

    def row(
        self, plan: "GlobalPlan", user: int
    ) -> tuple[np.ndarray, np.ndarray]:
        instance = plan.instance
        m = instance.n_events
        events = plan._plans[user]
        deltas = np.empty(m, dtype=float)
        for event in range(m):
            _, delta = plan._splice(user, events, event)
            deltas[event] = delta
        blocked = plan._blocked_row(user)
        base = plan._route_costs[user]
        budget = instance.users[user].budget
        utility_row = instance.utility[user]
        assigned = set(events)
        mask = np.zeros(m, dtype=bool)
        for event in range(m):
            mask[event] = (
                float(utility_row[event]) > 0.0
                and int(blocked[event]) == 0
                and base + float(deltas[event]) <= budget + BUDGET_TOL
                and event not in assigned
            )
        return deltas, mask


class BatchedKernel(KernelStrategy):
    """Vectorized rows and a fully batched user×event block pass.

    :meth:`row` evaluates every candidate event of one user at once over
    ``DistanceMatrix`` row slices.  The :meth:`block` path computes every
    busy user's splice positions in one ``plan_starts <= starts``
    comparison (inf-padded to the chunk's longest plan), then evaluates
    the first/middle/last splice branches as whole matrices.  Operation
    order matches :meth:`row` element for element, so the results are
    bit-identical.
    """

    name = "batched"

    vectorized_block = True

    #: Users per chunk — bounds the ``chunk × kmax × events`` intermediate.
    chunk_size = 256

    def row(
        self, plan: "GlobalPlan", user: int
    ) -> tuple[np.ndarray, np.ndarray]:
        instance = plan.instance
        events = plan._plans[user]
        d = instance.distances
        user_row = d.user_event_row(user)
        fees = instance.fee_vector
        if not events:
            deltas = 2.0 * user_row + fees
        else:
            starts = instance.event_starts
            hops = np.asarray(events)
            plan_starts = starts[hops]
            # Insertion goes after every plan event with start <= candidate
            # start — exactly the scalar splice's scan.
            positions = np.searchsorted(plan_starts, starts, side="right")
            ee = d.event_event_matrix
            k = len(events)
            ids = plan._event_ids
            pred = hops.take(positions - 1, mode="clip")
            succ = hops.take(positions, mode="clip")
            middle = -ee[pred, succ] + ee[pred, ids] + ee[ids, succ]
            first = -user_row[hops[0]] + user_row + ee[:, hops[0]]
            last = -user_row[hops[-1]] + ee[hops[-1]] + user_row
            deltas = np.where(
                positions == 0, first, np.where(positions == k, last, middle)
            ) + fees
        mask = instance.utility[user] > 0.0
        mask &= plan._blocked_row(user) == 0
        budget = instance.users[user].budget
        mask &= plan._route_costs[user] + deltas <= budget + BUDGET_TOL
        if events:
            mask[events] = False
        return deltas, mask

    def block(
        self, plan: "GlobalPlan", users: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        instance = plan.instance
        n = users.size
        m = instance.n_events
        deltas = np.empty((n, m), dtype=float)
        if n == 0 or m == 0:
            return deltas, np.zeros((n, m), dtype=bool)
        d = instance.distances
        fees = instance.fee_vector
        lengths = np.fromiter(
            (len(plan._plans[int(u)]) for u in users), dtype=np.intp, count=n
        )
        empty = lengths == 0
        if empty.any():
            # Chunked like the busy path: on the coordinate path a
            # single all-users gather would assemble the full n x m plane
            # in one allocation, defeating the bounded working set.
            # Chunking changes no per-row elementwise op, so the deltas
            # stay bit-identical.
            for chunk in _chunks(np.flatnonzero(empty), self.chunk_size):
                deltas[chunk] = (
                    2.0 * d.user_event_rows(users[chunk]) + fees
                )
        busy = np.flatnonzero(~empty)
        for chunk in _chunks(busy, self.chunk_size):
            self._busy_deltas(plan, users, lengths, chunk, deltas)

        mask = instance.utility[users] > 0.0
        blocked = np.empty((n, m), dtype=np.int16)
        for i in range(n):
            blocked[i] = plan._blocked_row(int(users[i]))
        mask &= blocked == 0
        budgets = np.fromiter(
            (instance.users[int(u)].budget for u in users),
            dtype=float,
            count=n,
        )
        base = np.fromiter(
            (plan._route_costs[int(u)] for u in users), dtype=float, count=n
        )
        mask &= base[:, None] + deltas <= budgets[:, None] + BUDGET_TOL
        for i, user in enumerate(users):
            events = plan._plans[int(user)]
            if events:
                mask[i, events] = False
        return deltas, mask

    def _busy_deltas(
        self,
        plan: "GlobalPlan",
        users: np.ndarray,
        lengths: np.ndarray,
        rows: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Fill ``out[rows]`` for users with non-empty plans (one chunk)."""
        instance = plan.instance
        d = instance.distances
        ee = d.event_event_matrix
        starts = instance.event_starts
        fees = instance.fee_vector
        ids = plan._event_ids
        b = rows.size
        k = lengths[rows]
        kmax = int(k.max())
        hops = np.zeros((b, kmax), dtype=np.intp)
        plan_starts = np.full((b, kmax), np.inf)
        for i, row in enumerate(rows):
            events = plan._plans[int(users[row])]
            hops[i, : len(events)] = events
            plan_starts[i, : len(events)] = starts[events]
        # positions[i, j] = searchsorted(plan_starts_i, starts_j, "right"):
        # how many of user i's plan starts are <= candidate j's start.  The
        # inf padding never counts, so padded rows agree with row()'s
        # searchsorted over the unpadded plan.
        positions = (plan_starts[:, :, None] <= starts[None, None, :]).sum(
            axis=1
        )
        rng = np.arange(b)
        # take(..., mode="clip") equivalents: positions is in [0, k_i], so
        # pred only needs the low clip and succ only the high one.
        pred = hops[rng[:, None], np.maximum(positions - 1, 0)]
        succ = hops[rng[:, None], np.minimum(positions, (k - 1)[:, None])]
        first_event = hops[:, 0]
        last_event = hops[rng, k - 1]
        ue_sel = d.user_event_rows(users[rows])
        middle = (
            -ee[pred, succ] + ee[pred, ids[None, :]] + ee[ids[None, :], succ]
        )
        first = (
            -ue_sel[rng, first_event][:, None]
            + ue_sel
            + ee[ids[None, :], first_event[:, None]]
        )
        last = -ue_sel[rng, last_event][:, None] + ee[last_event] + ue_sel
        out[rows] = np.where(
            positions == 0,
            first,
            np.where(positions == k[:, None], last, middle),
        ) + fees


def _chunks(indices: np.ndarray, size: int) -> Iterator[np.ndarray]:
    for start in range(0, indices.size, size):
        yield indices[start : start + size]


def scalar_splice(
    plan_events: list[int],
    event: int,
    starts: list[float],
    user_row: list[float],
    ee_rows: list[list[float]],
    fees: list[float],
) -> tuple[int, float]:
    """(insertion position, route-cost delta) on pre-extracted python lists.

    A pure-python mirror of ``GlobalPlan._splice`` for the batched fast
    path's per-candidate rechecks: ``tolist()`` hands back the exact same
    IEEE doubles the numpy arrays hold and python float arithmetic is the
    same IEEE-754 operation sequence, so the result is bit-identical to
    the numpy-scalar splice — without any per-call numpy indexing
    overhead.  The operation order below must stay in lockstep with
    ``GlobalPlan._splice``.
    """
    start = starts[event]
    position = 0
    k = len(plan_events)
    while position < k and starts[plan_events[position]] <= start:
        position += 1
    fee = fees[event]
    if not plan_events:
        return 0, 2.0 * user_row[event] + fee
    if position == 0:
        successor = plan_events[0]
        delta = (
            -user_row[successor]
            + user_row[event]
            + ee_rows[event][successor]
        )
    elif position == k:
        predecessor = plan_events[-1]
        delta = (
            -user_row[predecessor]
            + ee_rows[predecessor][event]
            + user_row[event]
        )
    else:
        predecessor = plan_events[position - 1]
        successor = plan_events[position]
        delta = (
            -ee_rows[predecessor][successor]
            + ee_rows[predecessor][event]
            + ee_rows[event][successor]
        )
    return position, delta + fee


class SplicePlanes:
    """The instance planes :func:`scalar_splice` runs on, as python lists.

    Built once per solver phase and shared across users; user rows are
    extracted lazily (most users are never recheck-ed).
    """

    def __init__(self, instance) -> None:
        d = instance.distances
        self.starts: list[float] = instance.event_starts.tolist()
        self.fees: list[float] = instance.fee_vector.tolist()
        self.ee_rows: list[list[float]] = [
            row.tolist() for row in d.event_event_matrix
        ]
        self.budgets: list[float] = [u.budget for u in instance.users]
        self._d = d
        self._ue_rows: dict[int, list[float]] = {}

    def user_row(self, user: int) -> list[float]:
        row = self._ue_rows.get(user)
        if row is None:
            row = self._d.user_event_row(user).tolist()
            self._ue_rows[user] = row
        return row

    def splice(
        self, plan_events: list[int], user: int, event: int
    ) -> tuple[int, float]:
        return scalar_splice(
            plan_events,
            event,
            self.starts,
            self.user_row(user),
            self.ee_rows,
            self.fees,
        )


# --------------------------------------------------------------------- #
# Registry and selection
# --------------------------------------------------------------------- #

_STRATEGIES: dict[str, KernelStrategy] = {}
# Resolved lazily from the env flag.  Two threads racing the first
# resolve both store the same registry object, so no lock is needed.
_ACTIVE: KernelStrategy | None = None


def register_strategy(strategy: KernelStrategy) -> KernelStrategy:
    _STRATEGIES[strategy.name] = strategy
    return strategy


register_strategy(ScalarKernel())
register_strategy(BatchedKernel())


def available_strategies() -> tuple[str, ...]:
    """Registered strategy names."""
    return tuple(sorted(_STRATEGIES))


def resolve_strategy(name: str) -> KernelStrategy:
    """Look up a strategy by name; unknown names fail loudly."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel strategy {name!r}; available: "
            + ", ".join(available_strategies())
        ) from None


def active_kernel() -> KernelStrategy:
    """The strategy in effect: explicit override, else ``REPRO_KERNEL``."""
    global _ACTIVE
    active = _ACTIVE
    if active is None:
        active = _ACTIVE = resolve_strategy(
            os.environ.get(ENV_VAR, DEFAULT_STRATEGY)
        )
    return active


def set_kernel(name: str | None) -> KernelStrategy:
    """Pin the active strategy (``None`` re-resolves from the env flag)."""
    global _ACTIVE
    _ACTIVE = resolve_strategy(
        os.environ.get(ENV_VAR, DEFAULT_STRATEGY) if name is None else name
    )
    return _ACTIVE


class use_kernel:
    """Context manager pinning a strategy for a ``with`` block.

    Restores the previously active strategy (including "unset, resolve
    from env") on exit — the auditor and tests use this to compare
    strategies without leaking global state.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._previous: KernelStrategy | None = None

    def __enter__(self) -> KernelStrategy:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = resolve_strategy(self._name)
        return _ACTIVE

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = self._previous


# --------------------------------------------------------------------- #
# Dispatch helpers (what GlobalPlan calls)
# --------------------------------------------------------------------- #


def kernel_row(plan: "GlobalPlan", user: int) -> tuple[np.ndarray, np.ndarray]:
    """One user's (deltas, mask) via the active strategy (plus counters)."""
    strategy = active_kernel()
    obs = get_recorder()
    obs.count("kernel.rows")
    obs.count(f"kernel.rows.{strategy.name}")
    return strategy.row(plan, user)


def kernel_block(
    plan: "GlobalPlan", users: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A batch of users' rows via the active strategy (plus counters)."""
    strategy = active_kernel()
    obs = get_recorder()
    obs.count("kernel.block_calls")
    obs.count("kernel.block_rows", int(users.size))
    obs.count(f"kernel.block_rows.{strategy.name}", int(users.size))
    return strategy.block(plan, users)
