"""Distance computations over collections of points.

The planning algorithms repeatedly ask for user-to-event and event-to-event
distances.  :class:`DistanceMatrix` serves both from resident coordinates
and keeps the full user-event plane as well when it is small enough, so
that the hot loops in the solvers are O(1) lookups instead of repeated
``math.hypot`` calls.

Which path serves user-event distances is chosen from the instance size
(:data:`PLANE_CELL_LIMIT`).  Every served value is bit-identical on both
paths: the plane is the metric's ``cross_coords`` over the same coordinate
arrays the coordinate path computes rows from, and the metric's
``scalar_coords`` equals the corresponding ``cross_coords`` cell.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager

import numpy as np

from repro.geo.metrics import EUCLIDEAN, TravelMetric
from repro.geo.point import Point

#: The largest user-event plane, in ``n_users x n_events`` cells, a
#: :class:`DistanceMatrix` keeps resident (2^22 float64 cells, 32 MiB).
#: Every paper-sized instance and service tenant fits; at 10^5 users x
#: 256 events the plane would take 195 MiB and the coordinates serve
#: instead.
PLANE_CELL_LIMIT = 1 << 22

_PATHS = ("dense", "tiled")

#: Set only inside :func:`use_distance_backend`; ``None`` applies the
#: size rule.
_FORCED_PATH: str | None = None


@contextmanager
def use_distance_backend(name: str) -> Iterator[None]:
    """Force one serving path for distances built inside the block.

    ``"dense"`` keeps the user-event plane at any size; ``"tiled"`` never
    builds it.  Outside any block the size rule chooses.
    """
    global _FORCED_PATH
    if name not in _PATHS:
        raise ValueError(
            f"{name!r} is not a distance path; choose from {list(_PATHS)}"
        )
    previous = _FORCED_PATH
    _FORCED_PATH = name
    try:
        yield
    finally:
        _FORCED_PATH = previous


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two points (the paper's travel metric)."""
    return a.distance_to(b)


def _coords_of(points: Sequence[Point]) -> np.ndarray:
    """``(k, 2)`` float64 coordinates of ``points``."""
    if not points:
        return np.zeros((0, 2), dtype=np.float64)
    return np.array([(p.x, p.y) for p in points], dtype=np.float64)


class DistanceMatrix:
    """User-to-event and event-to-event distances.

    Parameters
    ----------
    user_coords / event_coords:
        ``(n, 2)`` / ``(m, 2)`` float64 coordinate arrays; copied, so the
        in-place patch methods never alias a caller's array.
    metric:
        The travel metric (defaults to Euclidean, the paper's choice).

    The coordinates are always resident and the ``m x m`` event-event
    block is built on first touch.  The ``n x m`` user-event plane is
    built up front only when ``n * m <= PLANE_CELL_LIMIT`` (or inside
    ``use_distance_backend("dense")``); without it every user-event
    distance is computed from the coordinates when asked for.  Copies,
    slices and patches keep the path of the object they derive from.
    """

    def __init__(
        self,
        user_coords: np.ndarray,
        event_coords: np.ndarray,
        metric: TravelMetric | None = None,
    ) -> None:
        self._metric: TravelMetric = metric or EUCLIDEAN
        # Owned writable copies: the source may be a caller's array or a
        # read-only view, and the in-place patch methods write these.
        self._user_coords = np.array(
            user_coords, dtype=np.float64, copy=True
        ).reshape(-1, 2)
        self._event_coords = np.array(
            event_coords, dtype=np.float64, copy=True
        ).reshape(-1, 2)
        self._event_event: np.ndarray | None = None
        if _FORCED_PATH is None:
            keep_plane = self.n_users * self.n_events <= PLANE_CELL_LIMIT
        else:
            keep_plane = _FORCED_PATH == "dense"
        self._plane: np.ndarray | None = (
            self._metric.cross_coords(self._user_coords, self._event_coords)
            if keep_plane
            else None
        )

    @classmethod
    def from_points(
        cls,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
        metric: TravelMetric | None = None,
    ) -> "DistanceMatrix":
        """Construct from ``Point`` sequences (the ``Instance`` path)."""
        return cls(
            _coords_of(user_locations), _coords_of(event_locations), metric
        )

    def _derived(
        self,
        user_coords: np.ndarray,
        event_coords: np.ndarray,
        plane: np.ndarray | None,
    ) -> "DistanceMatrix":
        """A new object over owned arrays, on this object's path."""
        clone = object.__new__(DistanceMatrix)
        clone._metric = self._metric
        clone._user_coords = user_coords
        clone._event_coords = event_coords
        clone._event_event = None
        clone._plane = plane
        return clone

    # ------------------------------------------------------------------ #
    # Shape, coordinates and blocks
    # ------------------------------------------------------------------ #

    @property
    def n_users(self) -> int:
        return int(self._user_coords.shape[0])

    @property
    def n_events(self) -> int:
        return int(self._event_coords.shape[0])

    @property
    def has_plane(self) -> bool:
        """Whether the ``n x m`` user-event plane is resident."""
        return self._plane is not None

    @property
    def user_coords(self) -> np.ndarray:
        """``(n, 2)`` user coordinates (read-only view)."""
        view = self._user_coords.view()
        view.flags.writeable = False
        return view

    @property
    def event_coords(self) -> np.ndarray:
        """``(m, 2)`` event coordinates (read-only view)."""
        view = self._event_coords.view()
        view.flags.writeable = False
        return view

    @property
    def user_event_matrix(self) -> np.ndarray:
        """The raw ``n x m`` user-to-event plane (treat as read-only).

        Raises when the plane is not resident: a call site that needs it
        on a large instance is a scaling bug, and lint rule RL008 flags
        such sites statically.
        """
        if self._plane is None:
            raise RuntimeError(
                "this instance is served from coordinates and holds no "
                "user-event plane; serve through user_event / "
                "user_event_row / user_event_rows instead (see "
                "docs/memory.md and lint rule RL008)"
            )
        return self._plane

    @property
    def event_event_matrix(self) -> np.ndarray:
        """The ``m x m`` event-event block (lazy, read-only).

        Events number hundreds where users number hundreds of thousands,
        so this block is built on either path, once, on first touch.
        """
        if self._event_event is None:
            block = self._metric.cross_coords(
                self._event_coords, self._event_coords
            )
            block.flags.writeable = False
            self._event_event = block
        return self._event_event

    def tile_stats(self) -> dict[str, float]:
        """Resident-footprint accounting for the benchmark (counts, MiB).

        ``peak_backend_mib`` is everything this object holds: the
        coordinates, the plane when resident, and the event-event block
        once built.  ``hits`` and ``misses`` are always 0, since nothing
        is cached; they are kept because the benchmark derives a hit
        ratio from them and fails on a missing key.
        """
        resident = self._user_coords.nbytes + self._event_coords.nbytes
        for block in (self._plane, self._event_event):
            if block is not None:
                resident += block.nbytes
        return {
            "hits": 0.0,
            "misses": 0.0,
            "peak_backend_mib": resident / (1 << 20),
        }

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    def user_event(self, user: int, event: int) -> float:
        """Distance from ``user``'s home to ``event``'s venue.

        Without the plane, one ``scalar_coords`` call: a 1x1 numpy block
        would cost ~100x the arithmetic in array overhead, and the metric
        guarantees the scalar equals the ``cross_coords`` cell.
        """
        if self._plane is not None:
            return float(self._plane[user, event])
        uc = self._user_coords
        ec = self._event_coords
        return self._metric.scalar_coords(
            float(uc[user, 0]),
            float(uc[user, 1]),
            float(ec[event, 0]),
            float(ec[event, 1]),
        )

    def event_event(self, first: int, second: int) -> float:
        """Distance between two event venues."""
        block = self._event_event
        if block is None:  # the scalar repair loops skip the property
            block = self.event_event_matrix
        return float(block[first, second])

    def user_event_row(self, user: int) -> np.ndarray:
        """All event distances for one user (read-only).

        A fresh non-writeable view or array is made per call, so freezing
        it can never leave the plane (or a view another caller holds)
        read-only.
        """
        if self._plane is not None:
            row = self._plane[user].view()
        else:
            row = self._metric.cross_coords(
                self._user_coords[user : user + 1], self._event_coords
            )[0]
        row.flags.writeable = False
        return row

    def user_event_rows(
        self, users: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Distance rows for a batch of users (fresh float64 block).

        Callers iterating very large user sets should chunk (the batched
        kernel does): the block and the metric's temporaries each take
        ``len(users) x m`` cells or more.
        """
        ids = np.asarray(users, dtype=np.intp).reshape(-1)
        if self._plane is not None:
            return self._plane[ids]
        return self._metric.cross_coords(
            self._user_coords[ids], self._event_coords
        )

    # ------------------------------------------------------------------ #
    # Copies, slices and location patches
    # ------------------------------------------------------------------ #

    def copy(self) -> "DistanceMatrix":
        """An independent copy (used before in-place patching); the
        event-event block, which is never written, is shared."""
        clone = self._derived(
            self._user_coords.copy(),
            self._event_coords.copy(),
            None if self._plane is None else self._plane.copy(),
        )
        clone._event_event = self._event_event
        return clone

    def submatrix(
        self,
        user_ids: Sequence[int] | np.ndarray,
        event_ids: Sequence[int] | np.ndarray,
    ) -> "DistanceMatrix":
        """The distances restricted to a subset of users and events.

        Used by ``Instance.subinstance`` when a shard is cut out of a
        warmed instance: a resident plane is sliced (its values are
        copied, not recomputed), and distances are elementwise in the
        two endpoint coordinates, so the sliced coordinates serve the
        same values.
        """
        # np.intp, not the builtin int: the ids index numpy arrays, and
        # the builtin maps to a platform-dependent width (C long — 32-bit
        # on LLP64 platforms) while intp is always the pointer-sized
        # indexing type.
        user_ids = np.asarray(user_ids, dtype=np.intp)
        event_ids = np.asarray(event_ids, dtype=np.intp)
        return self._derived(
            self._user_coords[user_ids],
            self._event_coords[event_ids],
            None
            if self._plane is None
            else self._plane[np.ix_(user_ids, event_ids)],
        )

    def replace_event_location(self, event: int, location: Point) -> None:
        """Move one event in place (IEP location change).

        Writes the coordinate, recomputes the plane's column when the
        plane is resident (one vectorized ``cross_coords``, matching how
        the plane is built), and drops the lazy event-event block.
        """
        self._event_coords[event] = (location.x, location.y)
        if self._plane is not None:
            self._plane[:, event] = self._metric.cross_coords(
                self._user_coords, self._event_coords[event : event + 1]
            )[:, 0]
        self._event_event = None

    def replace_user_location(self, user: int, location: Point) -> None:
        """Move one user's home in place (IEP update).

        Writes the coordinate and, when the plane is resident, recomputes
        its row.  This keeps the plane write inside the geo layer — call
        sites never touch the raw matrix (lint rule RL008).
        """
        self._user_coords[user] = (location.x, location.y)
        if self._plane is not None:
            self._plane[user, :] = self._metric.cross_coords(
                self._user_coords[user : user + 1], self._event_coords
            )[0]

    def with_event_location(
        self, event: int, location: Point
    ) -> "DistanceMatrix":
        """A patched copy for one moved event (the original is untouched).

        This is the cache-preserving path of ``Instance.with_event``: the
        unchanged bulk is a memcpy instead of an O(n * m) metric
        recompute.
        """
        clone = self.copy()
        clone.replace_event_location(event, location)
        return clone

    def with_appended_event(self, location: Point) -> "DistanceMatrix":
        """An extended copy with one more event (IEP ``NewEvent``).

        A resident plane gains one computed column; every previously
        computed distance is carried over.
        """
        event_coords = np.vstack(
            [self._event_coords, [(location.x, location.y)]]
        )
        plane = None
        if self._plane is not None:
            plane = np.hstack(
                [
                    self._plane,
                    self._metric.cross_coords(
                        self._user_coords, event_coords[-1:]
                    ),
                ]
            )
        return self._derived(self._user_coords.copy(), event_coords, plane)
