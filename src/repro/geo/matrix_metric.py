"""A travel metric backed by explicit distance matrices.

The paper's Theorem-2 reduction declares distances directly ("let
``d(u_i, e_j) = p_ij / 2``") — values that are generally *not* realisable
as Euclidean positions in the plane.  :class:`MatrixMetric` makes such
instances constructible anyway: points are index codes (users at
``Point(i, USER_SIDE)``, events at ``Point(j, EVENT_SIDE)``) and distances
come from caller-supplied matrices.

Only the distances the planning stack actually uses are required:
user-to-event and event-to-event (users never travel to other users).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.geo.point import Point

USER_SIDE = 0.0
EVENT_SIDE = 1.0


def user_point(index: int) -> Point:
    """The coded location of user ``index`` under a matrix metric."""
    return Point(float(index), USER_SIDE)


def event_point(index: int) -> Point:
    """The coded location of event ``index`` under a matrix metric."""
    return Point(float(index), EVENT_SIDE)


class MatrixMetric:
    """Distances looked up from matrices instead of computed from geometry."""

    name = "matrix"

    def __init__(
        self, user_event: np.ndarray, event_event: np.ndarray
    ) -> None:
        self._user_event = np.asarray(user_event, dtype=float)
        self._event_event = np.asarray(event_event, dtype=float)
        m = self._user_event.shape[1]
        if self._event_event.shape != (m, m):
            raise ValueError(
                "event-event matrix must be square and match the "
                "user-event column count"
            )
        if (self._user_event < 0).any() or (self._event_event < 0).any():
            raise ValueError("distances must be non-negative")

    # The planning stack reaches distances through these three hooks.

    def distance(self, a: Point, b: Point) -> float:
        side_a, side_b = a.y, b.y
        if side_a == USER_SIDE and side_b == EVENT_SIDE:
            return float(self._user_event[int(a.x), int(b.x)])
        if side_a == EVENT_SIDE and side_b == USER_SIDE:
            return float(self._user_event[int(b.x), int(a.x)])
        if side_a == EVENT_SIDE and side_b == EVENT_SIDE:
            return float(self._event_event[int(a.x), int(b.x)])
        raise ValueError("matrix metric has no user-to-user distances")

    def pairwise(self, points: Sequence[Point]) -> np.ndarray:
        indices = [int(p.x) for p in points]
        if any(p.y != EVENT_SIDE for p in points):
            raise ValueError("pairwise is only defined over event points")
        return self._event_event[np.ix_(indices, indices)].copy()

    def cross(
        self, left: Sequence[Point], right: Sequence[Point]
    ) -> np.ndarray:
        # Delegates like the geometric metrics do, so event-by-event
        # blocks (a moved or appended venue's column) work here too.
        return self.cross_coords(
            np.array([(p.x, p.y) for p in left], dtype=float),
            np.array([(p.x, p.y) for p in right], dtype=float),
        )

    def cross_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Array-coded lookup: rows of ``(index, side)`` pairs.

        User-by-event blocks serve user-event distances; event-by-event
        blocks serve the event-event plane and a moved or appended
        venue's column.
        """
        a = np.asarray(a, dtype=float).reshape(-1, 2)
        b = np.asarray(b, dtype=float).reshape(-1, 2)
        if a.shape[0] == 0 or b.shape[0] == 0:
            return np.zeros((a.shape[0], b.shape[0]))
        rows = a[:, 0].astype(int)
        cols = b[:, 0].astype(int)
        if (a[:, 1] == USER_SIDE).all() and (b[:, 1] == EVENT_SIDE).all():
            return self._user_event[np.ix_(rows, cols)].copy()
        if (a[:, 1] == EVENT_SIDE).all() and (b[:, 1] == EVENT_SIDE).all():
            return self._event_event[np.ix_(rows, cols)].copy()
        raise ValueError(
            "cross_coords expects user rows against event rows, or event "
            "rows against event rows"
        )

    def scalar_coords(
        self, ax: float, ay: float, bx: float, by: float
    ) -> float:
        """One coded lookup — the scalar twin of :meth:`cross_coords`."""
        if ay == USER_SIDE and by == EVENT_SIDE:
            return float(self._user_event[int(ax), int(bx)])
        if ay == EVENT_SIDE and by == EVENT_SIDE:
            return float(self._event_event[int(ax), int(bx)])
        raise ValueError(
            "scalar_coords expects a user (or event) row against an "
            "event row"
        )

    def rect_lower_bound(
        self, point: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> float:
        """Matrix distances carry no geometry, so the only sound lower
        bound on the distance from ``point`` to anywhere inside the
        rectangle is zero (the spatial index then prunes nothing)."""
        return 0.0
