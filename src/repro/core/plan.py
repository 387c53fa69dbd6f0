"""Global plans: the object the GEPC/IEP solvers produce and repair.

A :class:`GlobalPlan` holds one individual plan per user — a list of event
ids kept sorted by event start time (the visiting order that defines the
paper's travel cost ``D_i``) — plus the per-event attendee sets the bound
constraints are checked against.

The plan is also the home of the **vectorized incremental kernel** the
solvers' inner loops run on (see ``docs/performance.md``):

* ``add``/``remove`` maintain the cached route costs by splice delta
  (predecessor/successor distance arithmetic) instead of recomputing the
  whole route, and keep a per-event attendee index so ``attendees`` and
  ``clear_event`` are O(degree) instead of O(n * k);
* per-user **blocked-event counters** (``blocked[f]`` = how many of the
  user's assigned events conflict with event ``f``) make every conflict
  check an O(1) lookup and whole-row masking trivial;
* ``insertion_deltas``/``feasible_mask`` evaluate *all* candidate events of
  one user at once through ``DistanceMatrix`` row slices, cached until that
  user's plan next changes — ``can_attend`` is an O(1) lookup into the same
  cache;
* ``rebound_to`` is a **sharing clone** (path copying, as in persistent
  data structures): parent and child share every per-user list the rebind
  does not recompute, and whichever side mutates a shared list first
  copies it.  The child therefore knows which users it *owns* — the only
  ones whose plan or utility can differ from its parent's — and ``dif``
  and the exact utility total touch only those.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core import kernel as kernel_mod
from repro.core.model import Instance
from repro.core.tolerances import BUDGET_TOL, ROUTE_DRIFT_REPIN_TOL

# Mutation observers installed by repro.check.shadow (empty in normal
# operation: the guard is one truthiness test per add/remove).  Each hook
# is called as ``hook(plan, action, user, event)`` after the mutation.
_MUTATION_HOOKS: list[Callable[["GlobalPlan", str, int, int], None]] = []

# Utility totals are carried exactly.  Every float64 is an integer multiple
# of 2**-1074, so a total kept as that integer never drifts, and one
# correctly rounded division reads it out — the value ``math.fsum`` gives.
UTILITY_UNIT = 1 << 1074

# Users compared per slice when a rebind looks for changed users.
_USER_SLICE = 1024


def exact_units(values: Iterable[float]) -> int:
    """The exact sum of ``values`` as an integer count of 2**-1074."""
    total = 0
    for value in values:
        numerator, denominator = value.as_integer_ratio()
        total += numerator << (1075 - denominator.bit_length())
    return total


class GlobalPlan:
    """Mutable assignment of users to events.

    The plan does not validate constraints on mutation (solvers need partial
    states); use :func:`repro.core.constraints.check_plan` for validation.
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._plans: list[list[int]] = [[] for _ in range(instance.n_users)]
        # A flat float64 array, so a clone copies and frees it as one
        # block (a list would hold a float object per user).
        self._route_costs = array("d", bytes(8 * instance.n_users))
        # Per-event attendee index: attendance is its size, and
        # attendees()/clear_event() run in O(degree).
        self._attendee_sets: list[set[int]] = [
            set() for _ in range(instance.n_events)
        ]
        # Per-user blocked-event counters, created lazily per user (int16
        # rows; a user's plan never exceeds a few dozen events) and then
        # maintained incrementally on add/remove.
        self._blocked: dict[int, np.ndarray] = {}
        # Per-user (insertion deltas, feasibility mask), invalidated when
        # that user's plan changes.
        self._kernel_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._event_ids = np.arange(instance.n_events)
        # The instance's conflict-matrix view, fetched once on first use —
        # _touch runs on every mutation and the property re-wraps a view
        # per call.
        self._conflict_rows: np.ndarray | None = None
        # Copy-on-write state (see ``rebound_to``).  ``None`` until the
        # first fork: the plan owns every list.  Then one tuple, replaced
        # whole so a concurrent reader never sees half of it:
        # ``(units, owned)``, the exact utility total at the last fork and,
        # for each user whose list this plan copied since, the user's
        # exact utility at that fork.  Owned lists are this plan's alone;
        # every other list may be shared and is copied before a mutation.
        self._carried: tuple[int, dict[int, int]] | None = None
        # The parent's ``owned`` dict at the fork this plan came from
        # (``None`` once this plan forks in turn): ``dif`` reads it.
        self._origin: dict[int, int] | None = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def user_plan(self, user: int) -> list[int]:
        """Event ids in ``user``'s plan, sorted by start time (a copy)."""
        return list(self._plans[user])

    def attendance(self, event: int) -> int:
        """Number of users currently assigned to ``event`` (``n_j``)."""
        return len(self._attendee_sets[event])

    def attendees(self, event: int) -> list[int]:
        """Users currently assigned to ``event`` (ascending user id)."""
        return sorted(self._attendee_sets[event])

    def contains(self, user: int, event: int) -> bool:
        return user in self._attendee_sets[event]

    def route_cost(self, user: int) -> float:
        """Cached travel cost ``D_i`` of ``user``'s current plan."""
        return self._route_costs[user]

    def size(self) -> int:
        """Total number of (user, event) assignments."""
        return sum(len(plan) for plan in self._plans)

    def assigned_events(self) -> set[int]:
        """Events with at least one attendee."""
        return {j for j, users in enumerate(self._attendee_sets) if users}

    def __iter__(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Iterate ``(user, (event ids...))`` pairs.

        Plans are exposed as tuples built straight off the internal lists —
        no per-user copied list objects to mutate (or allocate) — so
        iterating a large plan is one cheap pass.
        """
        for user, plan in enumerate(self._plans):
            yield user, tuple(plan)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GlobalPlan):
            return NotImplemented
        return self._plans == other._plans

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(
        self,
        user: int,
        event: int,
        splice_hint: tuple[int, float] | None = None,
    ) -> None:
        """Assign ``user`` to ``event`` (keeps the plan start-sorted).

        The cached route cost is updated by splice delta — O(k) position
        search plus O(1) distance arithmetic — never a full route recompute.
        ``splice_hint`` lets a caller that already computed the exact
        ``(position, delta)`` splice (e.g. the batched fill fast path via
        :func:`repro.core.kernel.scalar_splice`, which is bit-identical to
        :meth:`_splice`) skip the recompute; the shadow checker and the
        differential fuzzer verify the resulting route costs either way.
        """
        if user in self._attendee_sets[event]:
            raise ValueError(f"user {user} already attends event {event}")
        plan = self._owned_list(user)
        if splice_hint is None:
            position, delta = self._splice(user, plan, event)
        else:
            position, delta = splice_hint
        plan.insert(position, event)
        self._attendee_sets[event].add(user)
        self._route_costs[user] += delta
        self._touch(user, event, +1)
        if _MUTATION_HOOKS:
            for hook in _MUTATION_HOOKS:
                hook(self, "add", user, event)

    def remove(self, user: int, event: int) -> None:
        """Drop ``event`` from ``user``'s plan (splice-delta route update)."""
        if user not in self._attendee_sets[event]:
            raise ValueError(
                f"user {user} does not attend event {event}"
            )
        plan = self._owned_list(user)
        position = plan.index(event)
        delta = self._unsplice_delta(user, plan, position)
        del plan[position]
        self._attendee_sets[event].discard(user)
        if plan:
            self._route_costs[user] += delta
        else:
            self._route_costs[user] = 0.0  # pin to exact zero (no drift)
        self._touch(user, event, -1)
        if _MUTATION_HOOKS:
            for hook in _MUTATION_HOOKS:
                hook(self, "remove", user, event)

    def clear_event(self, event: int) -> list[int]:
        """Remove ``event`` from every plan (event cancelled).

        Returns the users whose plans were touched.  O(degree) via the
        attendee index.
        """
        touched = self.attendees(event)
        for user in touched:
            self.remove(user, event)
        return touched

    def _owned_list(self, user: int) -> list[int]:
        """``user``'s list, copied first if another plan may share it."""
        carried = self._carried
        if carried is None or user in carried[1]:
            return self._plans[user]
        plan = list(self._plans[user])
        self._own(user, self._user_units(user), plan)
        return plan

    def _own(self, user: int, units: int, plan: list[int]) -> None:
        """Install ``plan`` as ``user``'s own list; ``units`` is the user's
        exact utility at the last fork.  A shared blocked row is copied
        with it, since ``_touch`` updates rows in place."""
        assert self._carried is not None
        self._carried[1][user] = units
        self._plans[user] = plan
        row = self._blocked.get(user)
        if row is not None:
            self._blocked[user] = row.copy()

    def _conflict_matrix(self) -> np.ndarray:
        rows = self._conflict_rows
        if rows is None:
            rows = self.instance.conflict_matrix
            self._conflict_rows = rows
        return rows

    def _touch(self, user: int, event: int, sign: int) -> None:
        """Post-mutation bookkeeping: blocked counters and kernel cache."""
        blocked = self._blocked.get(user)
        if blocked is not None:
            row = self._conflict_matrix()[event]
            if sign > 0:
                blocked += row
            else:
                blocked -= row
        self._kernel_cache.pop(user, None)

    # ------------------------------------------------------------------ #
    # The vectorized incremental kernel
    # ------------------------------------------------------------------ #

    def _splice(
        self, user: int, plan: list[int], event: int
    ) -> tuple[int, float]:
        """(insertion position, route-cost delta) for adding ``event``."""
        starts = self.instance.event_starts
        start = starts[event]
        position = 0
        while position < len(plan) and starts[plan[position]] <= start:
            position += 1
        d = self.instance.distances
        fee = float(self.instance.fee_vector[event])
        if not plan:
            return 0, 2.0 * d.user_event(user, event) + fee
        if position == 0:
            successor = plan[0]
            delta = (
                -d.user_event(user, successor)
                + d.user_event(user, event)
                + d.event_event(event, successor)
            )
        elif position == len(plan):
            predecessor = plan[-1]
            delta = (
                -d.user_event(user, predecessor)
                + d.event_event(predecessor, event)
                + d.user_event(user, event)
            )
        else:
            predecessor, successor = plan[position - 1], plan[position]
            delta = (
                -d.event_event(predecessor, successor)
                + d.event_event(predecessor, event)
                + d.event_event(event, successor)
            )
        return position, delta + fee

    def _unsplice_delta(
        self, user: int, plan: list[int], position: int
    ) -> float:
        """Route-cost delta of removing ``plan[position]`` (negative)."""
        event = plan[position]
        d = self.instance.distances
        fee = float(self.instance.fee_vector[event])
        if len(plan) == 1:
            return -(2.0 * d.user_event(user, event) + fee)
        if position == 0:
            successor = plan[1]
            delta = (
                d.user_event(user, successor)
                - d.user_event(user, event)
                - d.event_event(event, successor)
            )
        elif position == len(plan) - 1:
            predecessor = plan[-2]
            delta = (
                d.user_event(user, predecessor)
                - d.event_event(predecessor, event)
                - d.user_event(user, event)
            )
        else:
            predecessor, successor = plan[position - 1], plan[position + 1]
            delta = (
                d.event_event(predecessor, successor)
                - d.event_event(predecessor, event)
                - d.event_event(event, successor)
            )
        return delta - fee

    def _blocked_row(self, user: int) -> np.ndarray:
        """``user``'s *writable* blocked-counter row (internal only).

        ``_touch`` maintains the row in place (``blocked += row``), so the
        cached array itself must stay writable; only the public accessor
        hands out a locked view.
        """
        blocked = self._blocked.get(user)
        if blocked is None:
            matrix = self._conflict_matrix()
            plan = self._plans[user]
            if plan:
                blocked = matrix[plan].sum(axis=0, dtype=np.int16)
            else:
                blocked = np.zeros(self.instance.n_events, dtype=np.int16)
            self._blocked[user] = blocked
        return blocked

    def blocked_counts(self, user: int) -> np.ndarray:
        """``user``'s blocked-event counter row (read-only view).

        ``blocked_counts(u)[f]`` is the number of events in ``u``'s plan
        that conflict with event ``f`` — zero means conflict-free.  Built
        lazily from the dense conflict matrix, then maintained on every
        add/remove.
        """
        view = self._blocked_row(user).view()
        view.flags.writeable = False
        return view

    def conflict_count(self, user: int, event: int) -> int:
        """How many of ``user``'s assigned events conflict with ``event``."""
        return int(self._blocked_row(user)[event])

    def insertion_deltas(self, user: int) -> np.ndarray:
        """Splice route-cost deltas for adding *each* event to ``user``'s
        plan (read-only; cached until the plan changes).

        One vectorized pass over ``DistanceMatrix`` row slices replaces the
        per-event Python splice of ``Instance.route_cost_with``.
        """
        return self._kernel(user)[0]

    def feasible_mask(self, user: int) -> np.ndarray:
        """Boolean mask over events: ``mask[j]`` iff ``can_attend(user, j)``.

        Combines positive utility, not-already-attending, zero blocked-event
        counters, and the budget check on the vectorized insertion deltas —
        the whole candidate row in a handful of numpy ops (read-only;
        cached until the plan changes).
        """
        return self._kernel(user)[1]

    def _kernel(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._kernel_cache.get(user)
        if cached is not None:
            return cached
        deltas, mask = kernel_mod.kernel_row(self, user)
        deltas.flags.writeable = False
        mask.flags.writeable = False
        self._kernel_cache[user] = (deltas, mask)
        return deltas, mask

    def kernel_block(
        self, users: np.ndarray | list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked ``(insertion_deltas, feasible_mask)`` rows for ``users``.

        Rows missing from the per-user cache are computed by
        :func:`repro.core.kernel.kernel_block` — one vectorized user×event
        pass outside ``use_scalar_kernel()`` — and cached per user exactly
        as if :meth:`feasible_mask` had been called row by row
        (bit-identical values; the cached rows are read-only views into
        the block matrices).  Returns read-only arrays of shape
        ``(len(users), n_events)``.
        """
        users = np.asarray(users, dtype=np.intp)
        cache = self._kernel_cache
        if users.size == 0:
            m = self.instance.n_events
            return (
                np.empty((0, m), dtype=float),
                np.empty((0, m), dtype=bool),
            )
        missing = users[[int(u) not in cache for u in users]]
        if missing.size:
            deltas, mask = kernel_mod.kernel_block(self, missing)
            deltas.flags.writeable = False
            mask.flags.writeable = False
            for i, user in enumerate(missing):
                cache[int(user)] = (deltas[i], mask[i])
            if missing.size == users.size:
                return deltas, mask
        stacked_deltas = np.stack([cache[int(u)][0] for u in users])
        stacked_mask = np.stack([cache[int(u)][1] for u in users])
        stacked_deltas.flags.writeable = False
        stacked_mask.flags.writeable = False
        return stacked_deltas, stacked_mask

    # ------------------------------------------------------------------ #
    # Feasibility helpers used by the solvers' inner loops
    # ------------------------------------------------------------------ #

    def can_attend(self, user: int, event: int) -> bool:
        """Whether ``event`` can join ``user``'s plan: positive utility, no
        time conflict, and the new route stays within budget.

        Event capacity is *not* checked here — callers track residual
        capacity themselves (the two solver steps use different capacities).
        An O(1) lookup into the cached :meth:`feasible_mask` row when one
        exists; otherwise a scalar O(k) splice check — building the full
        vector kernel for a single lookup would waste the whole row.
        """
        cached = self._kernel_cache.get(user)
        if cached is not None:
            return bool(cached[1][event])
        instance = self.instance
        if instance.utility[user, event] <= 0.0:
            return False
        if user in self._attendee_sets[event]:
            return False
        blocked = self._blocked.get(user)
        if blocked is not None:
            if blocked[event]:
                return False
        else:
            row = self._conflict_matrix()[event]
            for other in self._plans[user]:
                if row[other]:
                    return False
        _, delta = self._splice(user, self._plans[user], event)
        budget = instance.users[user].budget
        return self._route_costs[user] + delta <= budget + BUDGET_TOL

    def cost_with(self, user: int, event: int) -> float:
        """Route cost of ``user``'s plan if ``event`` were added."""
        cached = self._kernel_cache.get(user)
        if cached is not None:
            return self._route_costs[user] + float(cached[0][event])
        _, delta = self._splice(user, self._plans[user], event)
        return self._route_costs[user] + delta

    def swap_cost(self, user: int, out_event: int, in_event: int) -> float:
        """Route cost of ``user``'s plan with ``out_event`` replaced by
        ``in_event`` — O(k) splice arithmetic on the cached base cost, used
        by the IEP transfer loop."""
        plan = self._plans[user]
        position = plan.index(out_event)
        removal = self._unsplice_delta(user, plan, position)
        rest = plan[:position] + plan[position + 1 :]
        _, insertion = self._splice(user, rest, in_event)
        return self._route_costs[user] + removal + insertion

    def repin_route_cost(
        self, user: int, tolerance: float = ROUTE_DRIFT_REPIN_TOL
    ) -> float:
        """Re-pin ``user``'s cached route cost to an exact recompute.

        The splice-delta maintenance accumulates float error over long
        mutation streams; this measures the drift (cached minus exact) and,
        when it exceeds ``tolerance``, replaces the cached value with the
        exact recompute and drops the user's kernel row (its deltas were
        built against the drifted base).  Returns the measured drift so
        callers (the fuzzer, the auditor) can track the worst case.
        """
        exact = self.instance.route_cost(user, self._plans[user])
        drift = self._route_costs[user] - exact
        if abs(drift) > tolerance:
            self._route_costs[user] = exact
            self._kernel_cache.pop(user, None)
        return drift

    # ------------------------------------------------------------------ #
    # Copies and rebinding
    # ------------------------------------------------------------------ #

    def copy(self) -> "GlobalPlan":
        """A deep copy sharing the (immutable-by-convention) instance."""
        clone = GlobalPlan.__new__(GlobalPlan)
        clone.instance = self.instance
        clone._plans = [list(plan) for plan in self._plans]
        clone._route_costs = self._route_costs[:]
        clone._attendee_sets = [set(s) for s in self._attendee_sets]
        # Blocked rows are lazily rebuilt from the plan + conflict matrix;
        # an empty plan's row is all zeros, so only rows backing a live
        # plan are worth carrying (at soak scale most users hold none).
        clone._blocked = {
            user: row.copy()
            for user, row in self._blocked.items()
            if self._plans[user]
        }
        # Cached kernel rows are immutable (write-locked) once built, so
        # the clone can share them until either plan diverges.
        clone._kernel_cache = dict(self._kernel_cache)
        clone._event_ids = self._event_ids
        clone._conflict_rows = self._conflict_rows
        clone._carried = None
        clone._origin = None
        return clone

    def rebound_to(self, instance: Instance) -> "GlobalPlan":
        """The same assignments re-bound to a modified instance.

        Used by the IEP engine after an atomic operation changes event or
        user attributes; a new-event column extends the attendee index.
        The result may be infeasible — that is exactly what the repair
        algorithms fix.

        The child is a sharing clone.  Only *stale* users get a fresh
        start-sorted list and a recomputed route cost: the attendees of
        events whose venue or interval changed, users whose attributes
        changed (the ``with_*`` updates reuse untouched ``User``/``Event``
        objects, so both are found by identity first), or everyone with a
        plan when the cost model changed.  Every other list is shared with
        this plan, and whichever side mutates it first copies it
        (``_owned_list``), so parent and child behave exactly like deep
        copies.  The child also owns the users whose assigned utilities
        changed, which keeps its carried utility total exact.  A rebind
        therefore costs O(n) pointer copies plus work on the stale users,
        not a per-user rebuild.
        """
        old = self.instance
        if instance.n_users != old.n_users:
            raise ValueError("rebinding cannot change the user population")
        if instance.n_events < old.n_events:
            raise ValueError("rebinding cannot drop events")
        plans = self._plans
        if instance.cost_model is not old.cost_model:
            stale = {user for user, plan in enumerate(plans) if plan}
        else:
            stale = {
                user
                for user in self._changed_users(old, instance)
                if plans[user]
            }
        changed_events, time_changed = self._changed_events(old, instance)
        for event in changed_events:
            stale.update(self._attendee_sets[event])
        retallied = self._changed_utilities(old, instance) - stale

        units, origin = self._fork()
        added = instance.n_events - old.n_events
        clone = GlobalPlan.__new__(GlobalPlan)
        clone.instance = instance
        clone._plans = list(plans)
        clone._route_costs = self._route_costs[:]
        clone._attendee_sets = [set(s) for s in self._attendee_sets]
        clone._attendee_sets.extend(set() for _ in range(added))
        # Blocked counters depend on the conflict relation only; rows of
        # empty plans are all zeros and rebuilt lazily, not carried.
        clone._blocked = (
            {user: row for user, row in self._blocked.items() if plans[user]}
            if not time_changed and not added
            else {}
        )
        clone._kernel_cache = {}
        clone._event_ids = (
            self._event_ids if not added else np.arange(instance.n_events)
        )
        clone._conflict_rows = None
        clone._carried = (units, {})
        clone._origin = origin
        utility = old.utility
        starts = instance.event_starts
        for user in sorted(stale):
            plan = plans[user]
            ordered = sorted(plan, key=starts.__getitem__)
            clone._own(user, _units_of(utility, user, plan), ordered)
            clone._route_costs[user] = instance.route_cost(user, ordered)
        for user in sorted(retallied):
            plan = plans[user]
            clone._own(user, _units_of(utility, user, plan), list(plan))
        return clone

    def release_caches(self) -> None:
        """Drop every cached kernel row and the blocked rows of users
        with empty plans, as :meth:`rebound_to` does for its child.

        A solve leaves a row per user behind, views into block matrices
        of hundreds of MiB at 10^5 users; the rows are rebuilt lazily on
        the next read.
        """
        plans = self._plans
        self._blocked = {
            user: row for user, row in self._blocked.items() if plans[user]
        }
        self._kernel_cache = {}

    def _fork(self) -> tuple[int, dict[int, int]]:
        """Fold the owned users into the exact total and give up ownership
        of every list (a child is about to share them).  Returns the new
        ``(units, owned)`` state."""
        carried: tuple[int, dict[int, int]] = (self.utility_units(), {})
        self._carried = carried
        self._origin = None
        return carried

    def _user_units(self, user: int) -> int:
        return _units_of(self.instance.utility, user, self._plans[user])

    def utility_units(self) -> int:
        """The exact total utility, in units of 2**-1074.

        After a fork this costs O(owned users); a plan that never forked
        sums every assignment once per call.
        """
        carried = self._carried
        if carried is None:
            return self.tally(self.instance.utility)
        units, owned = carried
        for user, before in owned.items():
            units += self._user_units(user) - before
        return units

    def tally(self, utility: np.ndarray) -> int:
        """Exact total of ``utility`` over every assignment, from scratch."""
        units = 0
        for event, users in enumerate(self._attendee_sets):
            if users:
                rows = np.fromiter(users, dtype=np.intp, count=len(users))
                units += exact_units(utility[rows, event].tolist())
        return units

    def users_changed_since(self, parent: "GlobalPlan") -> Iterable[int]:
        """Users whose list may differ from ``parent``'s.

        When this plan is a ``rebound_to`` child of ``parent`` and
        ``parent`` has neither mutated nor forked again since, that is the
        users this plan owns: every other list is still the one object
        both share.  Otherwise it is every user.
        """
        owned = parent._carried[1] if parent._carried else None
        if self._origin is not None and self._origin is owned and not owned:
            assert self._carried is not None
            return self._carried[1].keys()
        return range(len(self._plans))

    @staticmethod
    def _changed_users(old: Instance, new: Instance) -> list[int]:
        """Ids of users whose attributes differ.

        Compared in slices: list equality skips identical objects in C, so
        an update that replaced one ``User`` costs one pass of pointer
        comparisons, not one Python iteration per user.
        """
        if new.users is old.users:
            return []
        changed: list[int] = []
        for lo in range(0, len(old.users), _USER_SLICE):
            before = old.users[lo : lo + _USER_SLICE]
            after = new.users[lo : lo + _USER_SLICE]
            if before != after:
                changed.extend(
                    lo + i
                    for i, (a, b) in enumerate(zip(before, after))
                    if a != b
                )
        return changed

    @staticmethod
    def _changed_events(old: Instance, new: Instance) -> tuple[set[int], bool]:
        """(ids of events whose venue or interval changed, any interval
        change).

        Appended events (``NewEvent``) are not "changed": they appear in no
        existing plan, so they cannot affect carried-over route costs.
        """
        changed: set[int] = set()
        time = False
        if new.events is not old.events:
            for j, (a, b) in enumerate(zip(old.events, new.events)):
                if a is b:
                    continue
                if a.location != b.location:
                    changed.add(j)
                if a.interval != b.interval:
                    changed.add(j)
                    time = True
        return changed, time

    def _changed_utilities(self, old: Instance, new: Instance) -> set[int]:
        """Users with an assigned (user, event) utility that differs."""
        if new.utility is old.utility:
            return set()
        changed: set[int] = set()
        for event, users in enumerate(self._attendee_sets):
            if users:
                rows = np.fromiter(users, dtype=np.intp, count=len(users))
                differs = old.utility[rows, event] != new.utility[rows, event]
                changed.update(rows[differs].tolist())
        return changed


def _units_of(utility: np.ndarray, user: int, plan: list[int]) -> int:
    """``user``'s exact utility over ``plan``, in units of 2**-1074."""
    return exact_units(utility[user, plan].tolist()) if plan else 0


@dataclass(frozen=True)
class PlanSummary:
    """A compact, hashable snapshot of a plan (used in tests and examples)."""

    assignments: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(plan: GlobalPlan) -> "PlanSummary":
        return PlanSummary(
            tuple(
                tuple(sorted(plan.user_plan(u)))
                for u in range(plan.instance.n_users)
            )
        )
