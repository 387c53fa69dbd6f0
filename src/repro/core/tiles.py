"""Coordinate-resident distance backend.

Dense :class:`repro.geo.distance.DistanceMatrix` precomputes the full
``O(n_users x n_events)`` float64 user-event plane up front — the memory
wall between this reproduction and 10^5-user instances.
:class:`TiledDistanceMatrix` keeps only the ``(n, 2)`` user and
``(m, 2)`` event *coordinates* resident (``O(n + m)``) and computes every
user-event distance on demand, straight from them.  Nothing is cached:
a GEPC travel cost is the distance from a user's home to each event in
their plan, and recomputing it costs a subtract, a multiply-add and a
square root.

Value-identity contract
-----------------------

Dense stays the oracle.  Rows are computed with the metric's own
``cross_coords`` over the *same* coordinate arrays the dense path uses,
i.e. the identical elementwise operation sequence, and scalars with the
metric's ``scalar_coords``, which each metric guarantees equal to the
corresponding ``cross_coords`` cell.  So every served value is
bit-identical to the dense plane, and tier-1 plus the kernel-strategy
bit-identity audits pass unchanged under ``REPRO_DISTANCE=tiled``.

The dense plane property deliberately **raises** here: any call site that
still reaches for ``user_event_matrix`` under the tiled backend is a
scaling bug, and lint rule RL008 flags such sites statically.  Serving
goes through :meth:`user_event`, :meth:`user_event_row`, and
:meth:`user_event_rows`.  The event-event block is ``O(m^2)`` — events
number thousands where users number millions — and stays dense (built
lazily on first touch).

Backend selection (``REPRO_DISTANCE=dense|tiled``) follows the
``repro.core.kernel`` strategy-registry idiom: an env default, a process
override, and a scoped context manager.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

import numpy as np

from repro.geo.distance import Located
from repro.geo.metrics import EUCLIDEAN, TravelMetric
from repro.geo.point import Point

_VALID_BACKENDS = ("dense", "tiled")

_BACKEND_OVERRIDE: str | None = None


def distance_backend_from_env() -> str:
    """The backend named by ``REPRO_DISTANCE`` (default ``dense``)."""
    raw = os.environ.get("REPRO_DISTANCE", "dense").strip().lower()
    if raw not in _VALID_BACKENDS:
        raise ValueError(
            f"REPRO_DISTANCE={raw!r} is not a distance backend; "
            f"choose from {list(_VALID_BACKENDS)}"
        )
    return raw


def active_distance_backend() -> str:
    """The backend new ``Instance`` distance caches are built with."""
    if _BACKEND_OVERRIDE is not None:
        return _BACKEND_OVERRIDE
    return distance_backend_from_env()


def set_distance_backend(name: str | None) -> None:
    """Process-wide backend override (``None`` returns to the env)."""
    global _BACKEND_OVERRIDE
    if name is not None:
        name = name.strip().lower()
        if name not in _VALID_BACKENDS:
            raise ValueError(
                f"{name!r} is not a distance backend; "
                f"choose from {list(_VALID_BACKENDS)}"
            )
    _BACKEND_OVERRIDE = name


@contextmanager
def use_distance_backend(name: str) -> Iterator[None]:
    """Scoped backend override (mirrors ``kernel.use_kernel``)."""
    previous = _BACKEND_OVERRIDE
    set_distance_backend(name)
    try:
        yield
    finally:
        set_distance_backend(previous)


def coords_of(points: Sequence[Point]) -> np.ndarray:
    """``(k, 2)`` float64 coordinates of ``points`` (the dense metric's
    own packing, so served rows see bit-identical inputs)."""
    if not points:
        return np.zeros((0, 2), dtype=np.float64)
    return np.array([(p.x, p.y) for p in points], dtype=np.float64)


class TiledDistanceMatrix:
    """User-event distances served from resident coordinates.

    Parameters
    ----------
    user_coords / event_coords:
        ``(n, 2)`` / ``(m, 2)`` float64 coordinate arrays; copied, so the
        in-place patch methods never alias a caller's array.
    metric:
        The travel metric (defaults to Euclidean, the paper's choice).
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

    @classmethod
    def from_points(
        cls,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
        metric: TravelMetric | None = None,
    ) -> "TiledDistanceMatrix":
        """Construct from ``Point`` sequences (the ``Instance`` path)."""
        return cls(
            coords_of(user_locations), coords_of(event_locations), metric
        )

    # ------------------------------------------------------------------ #
    # Shape / coordinate access
    # ------------------------------------------------------------------ #

    @property
    def n_users(self) -> int:
        return int(self._user_coords.shape[0])

    @property
    def n_events(self) -> int:
        return int(self._event_coords.shape[0])

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
    def metric(self) -> TravelMetric:
        return self._metric

    # ------------------------------------------------------------------ #
    # The dense plane is deliberately unavailable
    # ------------------------------------------------------------------ #

    @property
    def user_event_matrix(self) -> np.ndarray:
        """Always raises: the tiled backend never owns the full plane."""
        raise RuntimeError(
            "the tiled distance backend does not materialise the dense "
            "user-event plane; serve through user_event / user_event_row / "
            "user_event_rows instead (see docs/memory.md and lint rule "
            "RL008)"
        )

    @property
    def event_event_matrix(self) -> np.ndarray:
        """The ``m x m`` event-event block (dense, lazy, read-only).

        Events number thousands where users number millions, so this
        block is not the memory wall; it is materialised once on first
        touch with the metric's pairwise elementwise ops (bit-identical
        to the dense backend's block).
        """
        if self._event_event is None:
            block = self._metric.cross_coords(
                self._event_coords, self._event_coords
            )
            block.flags.writeable = False
            self._event_event = block
        return self._event_event

    def tile_stats(self) -> dict[str, float]:
        """Backend accounting for the benchmark (counts, MiB).

        ``peak_backend_mib`` is the whole backend's resident footprint:
        the coordinates plus the event-event block, once built.  ``hits``
        and ``misses`` are always 0, since nothing is cached; they are
        kept because the benchmark derives a hit ratio from them and
        fails on a missing key.
        """
        event_event = (
            self._event_event.nbytes if self._event_event is not None else 0
        )
        resident = (
            self._user_coords.nbytes + self._event_coords.nbytes + event_event
        )
        return {
            "hits": 0.0,
            "misses": 0.0,
            "peak_backend_mib": resident / (1 << 20),
        }

    # ------------------------------------------------------------------ #
    # Serving: fresh float64, computed from the coordinates
    # ------------------------------------------------------------------ #

    def user_event(self, user: int, event: int) -> float:
        """Distance from ``user``'s home to ``event``'s venue.

        One ``scalar_coords`` call: a 1x1 numpy block would cost ~100x the
        arithmetic in array overhead, and the metric guarantees the
        scalar equals the ``cross_coords`` cell.
        """
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
        return float(self.event_event_matrix[first, second])

    def user_event_row(self, user: int) -> np.ndarray:
        """All event distances for one user (fresh float64, read-only)."""
        row = self._metric.cross_coords(
            self._user_coords[user : user + 1], self._event_coords
        )[0]
        row.flags.writeable = False
        return row

    def user_event_rows(self, users: Sequence[int] | np.ndarray) -> np.ndarray:
        """Distance rows for a batch of users (fresh float64 block).

        Callers that iterate very large user sets should chunk (the
        batched kernel does): the block and the metric's temporaries
        each take ``len(users) x m`` cells or more.
        """
        ids = np.asarray(users, dtype=np.intp).reshape(-1)
        return self._metric.cross_coords(
            self._user_coords[ids], self._event_coords
        )

    # ------------------------------------------------------------------ #
    # Copies, slices, and coordinate patches (dense-interface compatible;
    # the Point sequences some dense signatures carry are redundant here
    # — coordinates are already resident)
    # ------------------------------------------------------------------ #

    def copy(self) -> "TiledDistanceMatrix":
        """An independent copy; the event-event block (immutable) is
        shared."""
        clone = TiledDistanceMatrix(
            self._user_coords, self._event_coords, self._metric
        )
        clone._event_event = self._event_event
        return clone

    def submatrix(
        self,
        user_ids: Sequence[int] | np.ndarray,
        event_ids: Sequence[int] | np.ndarray,
    ) -> "TiledDistanceMatrix":
        """A fresh backend over the sliced coordinates.

        Distances are elementwise in the two endpoint coordinates, so
        recomputing a sliced pair from the same coordinates is
        bit-identical to slicing a dense plane.
        """
        user_ids = np.asarray(user_ids, dtype=np.intp)
        event_ids = np.asarray(event_ids, dtype=np.intp)
        return TiledDistanceMatrix(
            self._user_coords[user_ids],
            self._event_coords[event_ids],
            self._metric,
        )

    def replace_event_location(
        self,
        event: int,
        location: Point,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
    ) -> None:
        """Move one event: patch its coordinate and drop the lazy
        event-event block."""
        self._event_coords[event] = (location.x, location.y)
        self._event_event = None

    def with_event_location(
        self,
        event: int,
        location: Point,
        users: Sequence[Located],
        events: Sequence[Located],
    ) -> "TiledDistanceMatrix":
        """A patched copy for one moved event (original untouched).

        Distances come from coordinates, so the other locations are not
        read.
        """
        clone = self.copy()
        clone.replace_event_location(event, location, (), ())
        return clone

    def replace_user_location(
        self,
        user: int,
        location: Point,
        event_locations: Sequence[Point],
    ) -> None:
        """Move one user: patch the coordinate."""
        self._user_coords[user] = (location.x, location.y)

    def with_appended_event(
        self,
        location: Point,
        users: Sequence[Located],
        events: Sequence[Located],
    ) -> "TiledDistanceMatrix":
        """An extended copy with one more event (IEP ``NewEvent``)."""
        return TiledDistanceMatrix(
            self._user_coords,
            np.vstack([self._event_coords, [(location.x, location.y)]]),
            self._metric,
        )
