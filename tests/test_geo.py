"""Tests for the geometry substrate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo.distance import DistanceMatrix, euclidean
from repro.geo.metrics import EUCLIDEAN
from repro.geo.point import Point

coords = st.floats(-1e3, 1e3, allow_nan=False)
points = st.builds(Point, coords, coords)


class TestPoint:
    def test_distance_pythagorean(self):
        assert Point(0, 3).distance_to(Point(4, 0)) == 5.0

    def test_distance_self_is_zero(self):
        p = Point(2.5, -7.1)
        assert p.distance_to(p) == 0.0

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(4, 6)) == Point(2, 3)

    def test_translated(self):
        assert Point(1, 1).translated(2, -3) == Point(3, -2)

    def test_as_tuple(self):
        assert Point(1.5, 2.5).as_tuple() == (1.5, 2.5)

    def test_origin(self):
        assert Point.origin() == Point(0.0, 0.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Point(0, 0).x = 1.0

    def test_hashable(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2

    @given(points, points)
    def test_symmetry(self, a, b):
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6


class TestMatrices:
    def test_pairwise_matches_pointwise(self):
        pts = [Point(0, 0), Point(3, 4), Point(-1, 2)]
        matrix = EUCLIDEAN.pairwise(pts)
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                assert matrix[i, j] == pytest.approx(a.distance_to(b))

    def test_pairwise_empty(self):
        assert EUCLIDEAN.pairwise([]).shape == (0, 0)

    def test_cross_matches_pointwise(self):
        left = [Point(0, 0), Point(1, 1)]
        right = [Point(2, 2), Point(3, 3), Point(4, 4)]
        matrix = EUCLIDEAN.cross(left, right)
        assert matrix.shape == (2, 3)
        assert matrix[1, 2] == pytest.approx(Point(1, 1).distance_to(Point(4, 4)))

    def test_cross_empty(self):
        assert EUCLIDEAN.cross([], [Point(0, 0)]).shape == (0, 1)

    def test_euclidean_helper(self):
        assert euclidean(Point(0, 0), Point(0, 5)) == 5.0


class TestDistanceMatrix:
    def setup_method(self):
        self.users = [Point(0, 0), Point(10, 0)]
        self.events = [Point(0, 5), Point(10, 5), Point(5, 5)]
        self.matrix = DistanceMatrix.from_points(self.users, self.events)

    def test_shapes(self):
        assert self.matrix.n_users == 2
        assert self.matrix.n_events == 3

    def test_user_event(self):
        assert self.matrix.user_event(0, 0) == pytest.approx(5.0)
        assert self.matrix.user_event(1, 1) == pytest.approx(5.0)

    def test_event_event_symmetric(self):
        assert self.matrix.event_event(0, 1) == pytest.approx(10.0)
        assert self.matrix.event_event(1, 0) == pytest.approx(10.0)

    def test_event_event_diagonal_zero(self):
        for j in range(3):
            assert self.matrix.event_event(j, j) == 0.0

    def test_row_read_only(self):
        row = self.matrix.user_event_row(0)
        with pytest.raises(ValueError):
            row[0] = 99.0

    def test_replace_event_location(self):
        self.matrix.replace_event_location(2, Point(0, 0))
        assert self.matrix.user_event(0, 2) == pytest.approx(0.0)
        assert self.matrix.event_event(0, 2) == pytest.approx(5.0)
        assert self.matrix.event_event(2, 0) == pytest.approx(5.0)
        assert self.matrix.event_event(2, 2) == 0.0
        # Untouched entries stay intact.
        assert self.matrix.user_event(0, 0) == pytest.approx(5.0)
