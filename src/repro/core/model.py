"""The paper's data model: users, events, and EBSN problem instances.

Section II: each user ``u_i`` is a pair ``(l_{u_i}, B_i)`` (location, travel
budget); each event ``e_j`` is a 5-tuple ``(l_{e_j}, xi_j, eta_j, t_j^s,
t_j^t)`` (location, participation lower bound, upper bound, start, end); and
``mu(u_i, e_j) in [0, 1]`` is the utility matrix, with 0 meaning the user
cannot or will not attend.

:class:`Instance` bundles these together with cached distance and conflict
structures so the solvers never recompute geometry or interval overlaps in
their inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.geo.distance import DistanceMatrix
from repro.geo.grid import SpatialCandidateIndex
from repro.geo.point import Point
from repro.timeline.conflicts import (
    conflict_graph,
    conflict_matrix,
    conflict_ratio,
    conflict_row,
    patched_conflict_graph,
    patched_conflict_matrix,
)
from repro.timeline.interval import Interval

if TYPE_CHECKING:
    from repro.core.costs import CostModel

def _read_only(array: np.ndarray) -> np.ndarray:
    """A write-locked view; the internal cache array stays writable.

    Freezing a *view* (rather than the array itself) matters for
    ``fee_vector``: ``np.asarray`` may alias the caller's
    ``cost_model.fees``, which must not be locked behind their back.
    """
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, slots=True)
class User:
    """An EBSN participant: home location and travel budget ``B_i``."""

    id: int
    location: Point
    budget: float

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"user {self.id}: budget must be >= 0")


@dataclass(frozen=True, slots=True)
class Event:
    """An EBSN event: venue, participation bounds ``(xi, eta)``, and times."""

    id: int
    location: Point
    lower: int
    upper: int
    interval: Interval

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError(f"event {self.id}: lower bound must be >= 0")
        if self.upper < self.lower:
            raise ValueError(
                f"event {self.id}: upper bound {self.upper} below lower "
                f"bound {self.lower}"
            )

    @property
    def start(self) -> float:
        return self.interval.start

    @property
    def end(self) -> float:
        return self.interval.end


class Instance:
    """An immutable-by-convention GEPC problem instance.

    Parameters
    ----------
    users:
        Users with ids ``0 .. n-1`` in order.
    events:
        Events with ids ``0 .. m-1`` in order.
    utility:
        ``n x m`` matrix of utility scores in ``[0, 1]``.

    The IEP atomic operations produce *new* instances via :meth:`with_event`
    / :meth:`with_user` / :meth:`with_utility` rather than mutating, so an
    original plan can always be re-validated against the instance it was
    computed for.
    """

    def __init__(
        self,
        users: list[User],
        events: list[Event],
        utility: np.ndarray,
        cost_model: CostModel | None = None,
    ) -> None:
        from repro.core.costs import DEFAULT_COST_MODEL

        utility = np.asarray(utility, dtype=float)
        if utility.shape != (len(users), len(events)):
            raise ValueError(
                f"utility shape {utility.shape} does not match "
                f"{len(users)} users x {len(events)} events"
            )
        if utility.size and (utility.min() < 0 or utility.max() > 1):
            raise ValueError("utility scores must lie in [0, 1]")
        for i, user in enumerate(users):
            if user.id != i:
                raise ValueError(f"user ids must be 0..n-1 in order, got {user.id} at {i}")
        for j, event in enumerate(events):
            if event.id != j:
                raise ValueError(f"event ids must be 0..m-1 in order, got {event.id} at {j}")
        self.users = list(users)
        self.events = list(events)
        self.utility = utility
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        if (
            self.cost_model.fees is not None
            and self.cost_model.fees.shape != (len(events),)
        ):
            raise ValueError("one admission fee per event required")
        self._distances: DistanceMatrix | None = None
        self._candidates: SpatialCandidateIndex | None = None
        self._conflicts: list[set[int]] | None = None
        self._conflict_matrix: np.ndarray | None = None
        self._event_starts: np.ndarray | None = None
        self._fee_vector: np.ndarray | None = None

    @classmethod
    def _from_validated(
        cls,
        users: list[User],
        events: list[Event],
        utility: np.ndarray,
        cost_model: CostModel,
    ) -> "Instance":
        """Trusted construction path for the ``with_*`` functional updates.

        Skips the O(n + m) id-ordering scan and the full utility-matrix
        range validation of ``__init__`` — the inputs are derived from an
        already-validated instance, so only the *changed* parts need checks
        (done by the callers).  The lists are stored as given, so callers
        that did not touch them pass the previous instance's lists through
        unchanged, which lets ``GlobalPlan.rebound_to`` detect unchanged
        populations by identity.
        """
        instance = cls.__new__(cls)
        instance.users = users
        instance.events = events
        instance.utility = utility
        instance.cost_model = cost_model
        instance._distances = None
        instance._candidates = None
        instance._conflicts = None
        instance._conflict_matrix = None
        instance._event_starts = None
        instance._fee_vector = None
        return instance

    # ------------------------------------------------------------------ #
    # Sizes and cached structures
    # ------------------------------------------------------------------ #

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def distances(self) -> DistanceMatrix:
        """Lazily built distances (user-event and event-event).

        The user-event plane is kept resident only when the instance is
        small enough (``repro.geo.distance.PLANE_CELL_LIMIT``); larger
        instances compute each user-event distance from the resident
        coordinates.  Both paths serve bit-identical values.
        """
        if self._distances is None:
            self._distances = DistanceMatrix.from_points(
                [u.location for u in self.users],
                [e.location for e in self.events],
                metric=self.cost_model.metric,
            )
        return self._distances

    @property
    def candidate_index(self) -> SpatialCandidateIndex | None:
        """Spatial pruning index; ``None`` exactly when the distances
        hold the user-event plane.

        Built lazily: per-event candidate user sets containing exactly
        the users whose singleton round trip passes the kernel's own
        budget test — iterating candidates instead of everyone is
        bit-identical (see :mod:`repro.geo.grid`).  With the plane
        resident the solvers scan every user unpruned.
        """
        if self._candidates is None:
            d = self.distances
            if d.has_plane:
                return None
            self._candidates = SpatialCandidateIndex(
                d.user_coords,
                np.array([u.budget for u in self.users], dtype=float),
                d.event_coords,
                self.fee_vector,
                self.cost_model.metric,
            )
        return self._candidates

    @property
    def conflicts(self) -> list[set[int]]:
        """Lazily built conflict adjacency: ``conflicts[j]`` = events
        conflicting with event ``j``."""
        if self._conflicts is None:
            self._conflicts = conflict_graph([e.interval for e in self.events])
        return self._conflicts

    @property
    def conflict_matrix(self) -> np.ndarray:
        """Dense boolean conflict matrix (the vectorized kernel's view).

        ``conflict_matrix[j, k]`` mirrors ``k in conflicts[j]``; rows are
        used to mask whole candidate arrays and to maintain the per-user
        blocked-event counters in :class:`repro.core.plan.GlobalPlan`.
        Treat as read-only.
        """
        if self._conflict_matrix is None:
            if self._conflicts is not None:
                # Derive from the adjacency already paid for.
                m = self.n_events
                matrix = np.zeros((m, m), dtype=bool)
                for j, neighbours in enumerate(self._conflicts):
                    if neighbours:
                        matrix[j, list(neighbours)] = True
                self._conflict_matrix = matrix
            else:
                self._conflict_matrix = conflict_matrix(
                    [e.interval for e in self.events]
                )
        return _read_only(self._conflict_matrix)

    @property
    def event_starts(self) -> np.ndarray:
        """Event start times as a dense vector (read-only; splice kernel)."""
        if self._event_starts is None:
            self._event_starts = np.array(
                [e.start for e in self.events], dtype=float
            )
        return _read_only(self._event_starts)

    @property
    def fee_vector(self) -> np.ndarray:
        """Per-event admission fees as a dense vector (zeros when free)."""
        if self._fee_vector is None:
            if self.cost_model.fees is None:
                self._fee_vector = np.zeros(self.n_events)
            else:
                self._fee_vector = np.asarray(self.cost_model.fees, dtype=float)
        return _read_only(self._fee_vector)

    # ------------------------------------------------------------------ #
    # Plane warming and pickling
    # ------------------------------------------------------------------ #

    def warm_planes(self) -> None:
        """Force-build every immutable dense plane a solve reads.

        Warming before partitioning guarantees that shard subinstances
        *slice* these planes (bit-exact) instead of each rebuilding
        geometry.
        """
        self.distances
        self.conflict_matrix
        self.event_starts
        self.fee_vector

    def __getstate__(self) -> dict:
        """Pickle only the raw problem data, never the lazy caches.

        The dense distance and conflict caches are pure functions of the
        pickled data; shipping them would multiply the payload for
        structures the unpickled copy rebuilds lazily.
        """
        return {
            "users": self.users,
            "events": self.events,
            "utility": self.utility,
            "cost_model": self.cost_model,
        }

    def __setstate__(self, state: dict) -> None:
        self.users = state["users"]
        self.events = state["events"]
        self.utility = state["utility"]
        self.cost_model = state["cost_model"]
        self._distances = None
        self._candidates = None
        self._conflicts = None
        self._conflict_matrix = None
        self._event_starts = None
        self._fee_vector = None

    def subinstance(
        self,
        user_ids: "np.ndarray | list[int]",
        event_ids: "np.ndarray | list[int]",
    ) -> "Instance":
        """A re-indexed sub-instance over the given users and events.

        The geographic partitioner cuts an instance into spatial shards
        with this; unlike :func:`repro.datasets.cutout.cutout` it keeps
        event bounds untouched (global ``xi`` semantics are the sharded
        solver's responsibility) and *slices* any already-built distance,
        conflict, start, and fee caches instead of rebuilding them —
        subsetting preserves every cached value bit-exactly, so a shard of
        a warmed instance pays no geometry recompute.

        ``user_ids``/``event_ids`` must be strictly increasing global ids;
        members keep their relative order and are re-indexed to ``0..``.
        """
        user_ids = np.asarray(user_ids, dtype=np.intp)
        event_ids = np.asarray(event_ids, dtype=np.intp)
        users = [
            replace(self.users[int(old)], id=new)
            for new, old in enumerate(user_ids)
        ]
        events = [
            replace(self.events[int(old)], id=new)
            for new, old in enumerate(event_ids)
        ]
        utility = self.utility[np.ix_(user_ids, event_ids)]
        cost_model = self.cost_model
        if cost_model.fees is not None:
            cost_model = replace(cost_model, fees=cost_model.fees[event_ids])
        instance = Instance._from_validated(users, events, utility, cost_model)
        if self._distances is not None:
            instance._distances = self._distances.submatrix(
                user_ids, event_ids
            )
        if self._conflict_matrix is not None:
            instance._conflict_matrix = self._conflict_matrix[
                np.ix_(event_ids, event_ids)
            ].copy()
        if self._event_starts is not None:
            instance._event_starts = self._event_starts[event_ids].copy()
        if self._fee_vector is not None:
            instance._fee_vector = self._fee_vector[event_ids].copy()
        return instance

    def rebuilt(self) -> "Instance":
        """A fresh instance over the same data with *no* carried caches.

        The ``with_*`` functional updates patch or identity-share cached
        distances and conflict structures; ``rebuilt()`` is the ground-truth
        reference against which those patched caches are audited (see
        :mod:`repro.check`).  Every lazy structure of the result is built
        from the raw users/events/utility on first access.
        """
        return Instance(
            list(self.users), list(self.events), self.utility, self.cost_model
        )

    def conflict_ratio(self) -> float:
        """Fraction of events with at least one conflict (Table IV stat)."""
        return conflict_ratio([e.interval for e in self.events])

    def events_conflict(self, first: int, second: int) -> bool:
        """Whether two distinct events conflict in time."""
        return second in self.conflicts[first]

    # ------------------------------------------------------------------ #
    # Route costs (the paper's travel cost D_i)
    # ------------------------------------------------------------------ #

    def route_cost(self, user: int, event_ids: list[int]) -> float:
        """Cost of attending ``event_ids``: travel home -> events in start
        order -> home (paper Section II; Euclidean by default), plus any
        admission fees of the cost model.

        ``event_ids`` may be in any order; they are visited by start time.
        """
        if not event_ids:
            return 0.0
        starts = self.event_starts
        ordered = sorted(event_ids, key=starts.__getitem__)
        d = self.distances
        # Only the first/last legs touch the user row — scalar serves
        # keep the coordinate path from computing a row per call.
        cost = d.user_event(user, ordered[0]) + d.user_event(
            user, ordered[-1]
        )
        if len(ordered) > 1:
            hops = np.asarray(ordered)
            cost += float(
                d.event_event_matrix[hops[:-1], hops[1:]].sum()
            )
        return cost + self.cost_model.total_fees(ordered)

    def route_cost_with(
        self, user: int, sorted_events: list[int], new_event: int
    ) -> float:
        """Route cost if ``new_event`` is added to a start-sorted plan.

        ``sorted_events`` must already be sorted by event start time; the
        new event is spliced into its slot.  Used by the hot loops of the
        greedy solver and the IEP repair routines.
        """
        starts = self.event_starts
        start = starts[new_event]
        position = 0
        while (
            position < len(sorted_events)
            and starts[sorted_events[position]] <= start
        ):
            position += 1
        d = self.distances
        fee = self.cost_model.fee(new_event)

        if not sorted_events:
            return 2.0 * d.user_event(user, new_event) + fee

        base = self.route_cost(user, sorted_events)
        if position == 0:
            successor = sorted_events[0]
            return (
                base
                - d.user_event(user, successor)
                + d.user_event(user, new_event)
                + d.event_event(new_event, successor)
                + fee
            )
        if position == len(sorted_events):
            predecessor = sorted_events[-1]
            return (
                base
                - d.user_event(user, predecessor)
                + d.event_event(predecessor, new_event)
                + d.user_event(user, new_event)
                + fee
            )
        predecessor = sorted_events[position - 1]
        successor = sorted_events[position]
        return (
            base
            - d.event_event(predecessor, successor)
            + d.event_event(predecessor, new_event)
            + d.event_event(new_event, successor)
            + fee
        )

    # ------------------------------------------------------------------ #
    # Functional updates (used by the IEP atomic operations)
    # ------------------------------------------------------------------ #

    def with_event(self, event_id: int, **changes: object) -> "Instance":
        """A new instance with one event's attributes replaced.

        Cached geometry and conflict structures are carried forward whenever
        the change cannot invalidate them: a bound change preserves both by
        identity, a location change patches only the moved event's distance
        row/column, and a time change recomputes only its conflict row.
        This is what keeps the IEP operation stream free of O(n * m) cache
        rebuilds.
        """
        old = self.events[event_id]
        updated = replace(old, **changes)
        events = list(self.events)
        events[event_id] = updated
        instance = Instance._from_validated(
            self.users, events, self.utility, self.cost_model
        )
        location_changed = updated.location != old.location
        interval_changed = updated.interval != old.interval

        if self._distances is not None:
            if not location_changed:
                instance._distances = self._distances
            else:
                instance._distances = self._distances.with_event_location(
                    event_id, updated.location
                )
        if self._candidates is not None:
            # Candidate sets are purely geometric (budget vs round trip),
            # so bound/time changes carry them by identity; a move patches
            # only the moved event's set.
            if not location_changed:
                instance._candidates = self._candidates
            else:
                instance._candidates = self._candidates.with_event_location(
                    event_id,
                    np.array(
                        (updated.location.x, updated.location.y),
                        dtype=float,
                    ),
                )
        if not interval_changed:
            instance._conflicts = self._conflicts
            instance._conflict_matrix = self._conflict_matrix
            instance._event_starts = self._event_starts
        else:
            intervals = [e.interval for e in events]
            if self._conflicts is not None:
                instance._conflicts = patched_conflict_graph(
                    self._conflicts, intervals, event_id
                )
            if self._conflict_matrix is not None:
                instance._conflict_matrix = patched_conflict_matrix(
                    self._conflict_matrix, intervals, event_id
                )
            if self._event_starts is not None:
                starts = self._event_starts.copy()
                starts[event_id] = updated.start
                instance._event_starts = starts
        instance._fee_vector = self._fee_vector
        return instance

    def with_user(self, user_id: int, **changes: object) -> "Instance":
        """A new instance with one user's attributes replaced.

        A budget change preserves the distance cache by identity; a home
        relocation patches only that user's distance row.  Conflicts never
        depend on users, so they always carry forward.
        """
        old = self.users[user_id]
        updated = replace(old, **changes)
        users = list(self.users)
        users[user_id] = updated
        instance = Instance._from_validated(
            users, self.events, self.utility, self.cost_model
        )
        if self._distances is not None:
            if updated.location == old.location:
                instance._distances = self._distances
            else:
                patched = self._distances.copy()
                patched.replace_user_location(user_id, updated.location)
                instance._distances = patched
        if updated.location == old.location:
            if updated.budget == old.budget:
                # Neither geometry nor budget moved: the candidate sets
                # are unchanged.
                instance._candidates = self._candidates
            elif self._candidates is not None:
                # Budget-only change: patch the one user's membership
                # exactly instead of rebuilding the whole index.
                instance._candidates = self._candidates.with_user_budget(
                    user_id, updated.budget
                )
        # A relocation leaves the index to rebuild lazily — one user's
        # move can change their grid cell and every event's set.
        instance._conflicts = self._conflicts
        instance._conflict_matrix = self._conflict_matrix
        instance._event_starts = self._event_starts
        instance._fee_vector = self._fee_vector
        return instance

    def with_utility(self, user_id: int, event_id: int, value: float) -> "Instance":
        """A new instance with one utility score replaced.

        Only the new score is validated (the rest of the matrix was checked
        when this instance was built); every cached structure is carried
        forward untouched since utilities affect neither geometry nor time.
        """
        if not 0.0 <= value <= 1.0:
            raise ValueError("utility scores must lie in [0, 1]")
        utility = self.utility.copy()
        utility[user_id, event_id] = value
        instance = Instance._from_validated(
            self.users, self.events, utility, self.cost_model
        )
        instance._distances = self._distances
        instance._candidates = self._candidates
        instance._conflicts = self._conflicts
        instance._conflict_matrix = self._conflict_matrix
        instance._event_starts = self._event_starts
        instance._fee_vector = self._fee_vector
        return instance

    def with_new_event(
        self, event: Event, utilities: np.ndarray, fee: float = 0.0
    ) -> "Instance":
        """A new instance with an additional event appended.

        ``event.id`` must equal the current event count; ``utilities`` is one
        utility score per user; ``fee`` is the new event's admission fee
        (only meaningful under a fee-charging cost model).  Cached distances
        gain one appended column/row; cached conflicts gain one appended
        adjacency row — nothing already cached is recomputed.
        """
        if event.id != self.n_events:
            raise ValueError(
                f"new event id must be {self.n_events}, got {event.id}"
            )
        utilities = np.asarray(utilities, dtype=float).reshape(self.n_users, 1)
        if utilities.size and (utilities.min() < 0 or utilities.max() > 1):
            raise ValueError("utility scores must lie in [0, 1]")
        utility = np.hstack([self.utility, utilities])
        cost_model = self.cost_model
        if cost_model.fees is not None or fee:
            if cost_model.fees is None:
                cost_model = replace(
                    cost_model, fees=np.zeros(self.n_events)
                )
            cost_model = cost_model.with_event_appended(fee)
        events = list(self.events) + [event]
        instance = Instance._from_validated(
            self.users, events, utility, cost_model
        )
        if self._distances is not None:
            instance._distances = self._distances.with_appended_event(
                event.location
            )
        if self._candidates is not None:
            instance._candidates = self._candidates.with_appended_event(
                np.array(
                    (event.location.x, event.location.y), dtype=float
                ),
                float(fee),
            )
        intervals = [e.interval for e in events]
        if self._conflicts is not None:
            row = conflict_row(intervals, event.id)
            neighbours = set(np.flatnonzero(row).tolist())
            adjacency = list(self._conflicts)
            for k in neighbours:
                adjacency[k] = adjacency[k] | {event.id}
            adjacency.append(neighbours)
            instance._conflicts = adjacency
        if self._conflict_matrix is not None:
            row = conflict_row(intervals, event.id)
            m = self.n_events
            matrix = np.zeros((m + 1, m + 1), dtype=bool)
            matrix[:m, :m] = self._conflict_matrix
            matrix[event.id, :] = row
            matrix[:, event.id] = row
            instance._conflict_matrix = matrix
        if self._event_starts is not None:
            instance._event_starts = np.append(
                self._event_starts, event.start
            )
        return instance


@dataclass(frozen=True)
class InstanceStats:
    """Summary statistics mirroring the paper's Table IV."""

    n_users: int
    n_events: int
    mean_lower: float
    mean_upper: float
    conflict_ratio: float

    @staticmethod
    def of(instance: Instance) -> "InstanceStats":
        lowers = [e.lower for e in instance.events] or [0]
        uppers = [e.upper for e in instance.events] or [0]
        return InstanceStats(
            n_users=instance.n_users,
            n_events=instance.n_events,
            mean_lower=float(np.mean(lowers)),
            mean_upper=float(np.mean(uppers)),
            conflict_ratio=instance.conflict_ratio(),
        )
