"""Distance computations over collections of points.

The planning algorithms repeatedly ask for user-to-event and event-to-event
distances.  ``DistanceMatrix`` precomputes both blocks with numpy so that the
hot loops in the solvers are O(1) lookups instead of repeated ``math.hypot``
calls.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.geo.point import Point


class Located(Protocol):
    """Anything with a location (``User``, ``Event``)."""

    @property
    def location(self) -> Point: ...


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two points (the paper's travel metric)."""
    return a.distance_to(b)


def pairwise_distances(points: Sequence[Point]) -> np.ndarray:
    """Dense symmetric matrix of Euclidean distances between ``points``."""
    coords = np.array([(p.x, p.y) for p in points], dtype=float)
    if coords.size == 0:
        return np.zeros((0, 0))
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def cross_distances(
    left: Sequence[Point], right: Sequence[Point]
) -> np.ndarray:
    """Dense ``len(left) x len(right)`` matrix of Euclidean distances."""
    if not left or not right:
        return np.zeros((len(left), len(right)))
    a = np.array([(p.x, p.y) for p in left], dtype=float)
    b = np.array([(p.x, p.y) for p in right], dtype=float)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


class DistanceMatrix:
    """Cached user-to-event and event-to-event distances.

    Parameters
    ----------
    user_locations:
        One location per user, indexed by user id.
    event_locations:
        One location per event, indexed by event id.
    metric:
        The travel metric (defaults to Euclidean, the paper's choice).
    """

    def __init__(
        self,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
        metric=None,
    ) -> None:
        from repro.geo.metrics import EUCLIDEAN

        self._metric = metric or EUCLIDEAN
        self._user_event = self._metric.cross(user_locations, event_locations)
        self._event_event = self._metric.pairwise(event_locations)

    @property
    def n_users(self) -> int:
        return self._user_event.shape[0]

    @property
    def n_events(self) -> int:
        return self._user_event.shape[1]

    @property
    def user_event_matrix(self) -> np.ndarray:
        """The raw ``n x m`` user-to-event block (treat as read-only)."""
        return self._user_event

    @property
    def event_event_matrix(self) -> np.ndarray:
        """The raw ``m x m`` event-to-event block (treat as read-only)."""
        return self._event_event

    def user_event(self, user: int, event: int) -> float:
        """Distance from ``user``'s home to ``event``'s venue."""
        return float(self._user_event[user, event])

    def event_event(self, first: int, second: int) -> float:
        """Distance between two event venues."""
        return float(self._event_event[first, second])

    def user_event_row(self, user: int) -> np.ndarray:
        """All event distances for one user (read-only).

        A fresh non-writeable view is created per call, so freezing it can
        never leave the shared backing matrix (or a view another caller
        holds) read-only.
        """
        row = self._user_event[user].view()
        row.flags.writeable = False
        return row

    def user_event_rows(
        self, users: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Distance rows for a batch of users (fresh float64 block).

        The backend-portable bulk accessor: dense gathers with one fancy
        index; the tiled backend computes the same block from resident
        coordinates.  Callers iterating very large user sets should chunk
        so the output block stays bounded.
        """
        ids = np.asarray(users, dtype=np.intp).reshape(-1)
        return self._user_event[ids]

    def copy(self) -> "DistanceMatrix":
        """An independent deep copy (used before in-place patching)."""
        clone = object.__new__(DistanceMatrix)
        clone._metric = self._metric
        clone._user_event = self._user_event.copy()
        clone._event_event = self._event_event.copy()
        return clone

    def submatrix(
        self,
        user_ids: Sequence[int] | np.ndarray,
        event_ids: Sequence[int] | np.ndarray,
    ) -> "DistanceMatrix":
        """The cached distances restricted to a subset of users and events.

        Used by ``Instance.subinstance`` when a shard is cut out of a
        warmed instance: subsetting copies the already-computed values
        (bit-exact with a from-scratch rebuild over the same locations)
        instead of re-running the metric.
        """
        # np.intp, not the builtin int: the ids index numpy planes, and
        # the builtin maps to a platform-dependent width (C long — 32-bit
        # on LLP64 platforms) while intp is always the pointer-sized
        # indexing type.
        user_ids = np.asarray(user_ids, dtype=np.intp)
        event_ids = np.asarray(event_ids, dtype=np.intp)
        clone = object.__new__(DistanceMatrix)
        clone._metric = self._metric
        clone._user_event = self._user_event[np.ix_(user_ids, event_ids)].copy()
        clone._event_event = self._event_event[
            np.ix_(event_ids, event_ids)
        ].copy()
        return clone

    def replace_event_location(
        self,
        event: int,
        location: Point,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
    ) -> None:
        """Update cached rows after an event moves (IEP location change).

        ``user_locations``/``event_locations`` must reflect the *new* state;
        only the rows touching ``event`` are recomputed — as one vectorized
        column assignment per block, matching how the full matrices are
        built (``metric.cross``), not per-pair scalar calls.
        """
        if user_locations:
            self._user_event[:, event] = self._metric.cross(
                user_locations, [location]
            )[:, 0]
        if event_locations:
            column = self._metric.cross(event_locations, [location])[:, 0]
            column[event] = 0.0
            self._event_event[:, event] = column
            self._event_event[event, :] = column

    def replace_user_location(
        self,
        user: int,
        location: Point,
        event_locations: Sequence[Point],
    ) -> None:
        """Update the cached row after a user moves home (IEP update).

        The row is recomputed as one vectorized ``metric.cross`` call,
        matching how the full plane is built.  This keeps the plane write
        inside the geo layer — call sites never touch the raw matrix
        (lint rule RL008).
        """
        if event_locations:
            self._user_event[user, :] = self._metric.cross(
                [location], event_locations
            )[0]

    def with_event_location(
        self,
        event: int,
        location: Point,
        users: Sequence[Located],
        events: Sequence[Located],
    ) -> "DistanceMatrix":
        """A patched copy for one moved event (the original is untouched).

        This is the cache-preserving path of ``Instance.with_event``: the
        unchanged ``(n - 1) x (m - 1)`` bulk is a memcpy instead of an
        O(n * m) metric recompute.  ``users``/``events`` are the *new*
        state's; their locations are read here, since only a cached
        plane needs them.
        """
        clone = self.copy()
        clone.replace_event_location(
            event,
            location,
            [user.location for user in users],
            [other.location for other in events],
        )
        return clone

    def with_appended_event(
        self,
        location: Point,
        users: Sequence[Located],
        events: Sequence[Located],
    ) -> "DistanceMatrix":
        """An extended copy with one more event column (IEP ``NewEvent``).

        ``events`` are the *existing* events (the new venue is only
        ``location``); all previously cached distances are carried over.
        """
        user_locations = [user.location for user in users]
        event_locations = [other.location for other in events]
        clone = object.__new__(DistanceMatrix)
        clone._metric = self._metric
        if user_locations:
            new_user = self._metric.cross(user_locations, [location])
        else:
            new_user = np.zeros((0, 1))
        clone._user_event = np.hstack([self._user_event, new_user])
        if event_locations:
            column = self._metric.cross(event_locations, [location])
        else:
            column = np.zeros((0, 1))
        m = self._event_event.shape[0]
        event_event = np.zeros((m + 1, m + 1))
        event_event[:m, :m] = self._event_event
        event_event[:m, m] = column[:, 0]
        event_event[m, :m] = column[:, 0]
        clone._event_event = event_event
        return clone
