"""Distances on both serving paths: value identity, size rule, pruning.

The contract under test (see ``src/repro/geo/distance.py``): a
``DistanceMatrix`` serves user-event distances from a resident plane on
small instances and from coordinates on large ones, and every *served*
value — scalar, row, batch, event-event, through every copy, slice and
patch and under every travel metric — is bit-identical on both paths.
The spatial candidate index the sharded solve builds must prune
*soundly* on either path: exactly the pairs the kernel's own budget test
would reject, nothing more.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.core.model import Event, Instance
from repro.core.tiles import use_distance_backend
from repro.core.tolerances import BUDGET_TOL
from repro.geo import distance
from repro.geo.distance import PLANE_CELL_LIMIT, DistanceMatrix
from repro.geo.matrix_metric import (
    EVENT_SIDE,
    USER_SIDE,
    MatrixMetric,
    event_point,
    user_point,
)
from repro.geo.metrics import EUCLIDEAN, MANHATTAN
from repro.geo.point import Point
from repro.scale import partition_instance
from repro.service.tenants import TenantSpec
from repro.timeline.interval import Interval
from tests.conftest import random_instance, served_user_event_plane


def _with_metric(base: Instance, metric: str, seed: int) -> Instance:
    """``base`` under the named travel metric.

    The matrix metric needs index-coded locations, so its users and
    events move to coded points and the distances come from random
    matrices (event-event symmetric with a zero diagonal).
    """
    if metric == "euclidean":
        return base
    if metric == "manhattan":
        return Instance(
            base.users, base.events, base.utility, CostModel(metric=MANHATTAN)
        )
    rng = np.random.default_rng(seed)
    user_event = rng.uniform(0.0, 10.0, (base.n_users, base.n_events))
    upper = np.triu(rng.uniform(0.0, 10.0, (base.n_events,) * 2), 1)
    return Instance(
        [replace(u, location=user_point(u.id)) for u in base.users],
        [replace(e, location=event_point(e.id)) for e in base.events],
        base.utility,
        CostModel(metric=MatrixMetric(user_event, upper + upper.T)),
    )


def _twin_instances(
    seed: int, metric: str = "euclidean", **kwargs
) -> tuple[Instance, Instance]:
    """The same workload built on the plane path and the coordinate
    path."""
    with use_distance_backend("dense"):
        dense = _with_metric(random_instance(seed, **kwargs), metric, seed)
        dense.distances  # build the distances inside the scope
    with use_distance_backend("tiled"):
        tiled = _with_metric(random_instance(seed, **kwargs), metric, seed)
        tiled.distances
    return dense, tiled


def _assert_identical_serving(dense: Instance, tiled: Instance) -> None:
    plane = dense.distances.user_event_matrix
    assert np.array_equal(served_user_event_plane(tiled), plane)
    assert np.array_equal(
        tiled.distances.event_event_matrix,
        dense.distances.event_event_matrix,
    )
    for user in range(dense.n_users):
        row = tiled.distances.user_event_row(user)
        assert np.array_equal(row, plane[user])
        for event in range(dense.n_events):
            assert tiled.distances.user_event(user, event) == plane[
                user, event
            ]


# --------------------------------------------------------------------- #
# Bit-identity: direct serving and every instance transform
# --------------------------------------------------------------------- #


def _moved(metric: str, kind: str) -> Point:
    """A location for a transform to move to, valid under ``metric``.

    The matrix metric only knows its coded points, so a moved venue takes
    another event's code and a moved home another user's.
    """
    if metric == "matrix":
        return {
            "event": event_point(0),
            "user": user_point(3),
            "new": event_point(1),
        }[kind]
    return {
        "event": Point(99.0, -3.5),
        "user": Point(-7.0, 42.0),
        "new": Point(4.5, 4.5),
    }[kind]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_tiled_serves_bit_identical_to_dense(seed, metric="euclidean"):
    dense, tiled = _twin_instances(seed, metric, n_users=23, n_events=6)
    assert dense.distances.has_plane and not tiled.distances.has_plane
    _assert_identical_serving(dense, tiled)


@pytest.mark.parametrize("seed", [3, 11])
def test_tiled_identity_survives_subinstance(seed, metric="euclidean"):
    dense, tiled = _twin_instances(seed, metric, n_users=23, n_events=6)
    users = [0, 2, 5, 9, 17, 22]
    events = [1, 3, 4]
    _assert_identical_serving(
        dense.subinstance(users, events), tiled.subinstance(users, events)
    )


def test_tiled_identity_survives_with_event_relocation(metric="euclidean"):
    dense, tiled = _twin_instances(5, metric, n_users=17, n_events=5)
    moved = _moved(metric, "event")
    _assert_identical_serving(
        dense.with_event(2, location=moved),
        tiled.with_event(2, location=moved),
    )


def test_tiled_identity_survives_with_user_relocation_and_budget(
    metric="euclidean",
):
    dense, tiled = _twin_instances(6, metric, n_users=17, n_events=5)
    moved = _moved(metric, "user")
    _assert_identical_serving(
        dense.with_user(4, location=moved, budget=99.0),
        tiled.with_user(4, location=moved, budget=99.0),
    )


def test_tiled_identity_survives_with_new_event(metric="euclidean"):
    dense, tiled = _twin_instances(8, metric, n_users=17, n_events=5)
    new = Event(5, _moved(metric, "new"), 0, 3, Interval(50.0, 51.0))
    utilities = np.linspace(0.0, 1.0, dense.n_users)
    _assert_identical_serving(
        dense.with_new_event(new, utilities),
        tiled.with_new_event(new, utilities),
    )


@pytest.mark.parametrize("metric", ["manhattan", "matrix"])
def test_every_metric_serves_bit_identical(metric):
    # The twin tests above run the paper's Euclidean metric; this runs
    # each of them under the other two.  Serving goes through each
    # metric's own scalar_coords/cross_coords, so each needs cover.
    for seed in (0, 1, 7):
        test_tiled_serves_bit_identical_to_dense(seed, metric)
    for seed in (3, 11):
        test_tiled_identity_survives_subinstance(seed, metric)
    test_tiled_identity_survives_with_event_relocation(metric)
    test_tiled_identity_survives_with_user_relocation_and_budget(metric)
    test_tiled_identity_survives_with_new_event(metric)


def test_submatrix_accepts_plain_python_id_lists():
    # Regression: ids must be coerced to np.intp (pointer-sized), not
    # the platform-dependent builtin-int width, before indexing planes.
    dense, tiled = _twin_instances(4, n_users=12, n_events=4)
    sub_dense = dense.distances.submatrix([1, 3, 8], [0, 2])
    sub_tiled = tiled.distances.submatrix([1, 3, 8], [0, 2])
    assert np.array_equal(
        sub_tiled.user_event_rows(np.arange(3)),
        sub_dense.user_event_matrix,
    )


def test_location_patch_serves_moved_coordinates():
    rng = np.random.default_rng(9)
    uc = rng.uniform(0, 10, (16, 2))
    ec = rng.uniform(0, 10, (5, 2))
    with use_distance_backend("tiled"):
        t = DistanceMatrix(uc, ec, EUCLIDEAN)
    t.event_event_matrix  # build the lazy block the event patch must drop
    moved_user = np.array([[55.0, 55.0]])
    t.replace_user_location(0, Point(55.0, 55.0))
    uc2 = uc.copy()
    uc2[0] = moved_user
    assert np.array_equal(
        t.user_event_rows(np.arange(16)),
        EUCLIDEAN.cross_coords(uc2, ec),
    )
    t.replace_event_location(3, Point(-1.0, -2.0))
    ec2 = ec.copy()
    ec2[3] = (-1.0, -2.0)
    assert np.array_equal(
        t.user_event_rows(np.arange(16)),
        EUCLIDEAN.cross_coords(uc2, ec2),
    )
    assert np.array_equal(
        t.event_event_matrix, EUCLIDEAN.cross_coords(ec2, ec2)
    )


# --------------------------------------------------------------------- #
# Both paths through every copy, slice and patch
# --------------------------------------------------------------------- #


@st.composite
def _workloads(draw):
    """A metric, starting coordinates, and a sequence of patches whose
    locations are valid under that metric."""
    metric_name = draw(st.sampled_from(["euclidean", "manhattan", "matrix"]))
    n = draw(st.integers(0, 9))
    m = draw(st.integers(0, 5))
    steps = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if metric_name == "matrix":
        # Index codes: users 0..n-1, events 0..m+steps-1, so a moved
        # or appended venue takes any code the matrices cover.
        users, codes = n, m + steps
        upper = np.triu(rng.uniform(0.0, 10.0, (codes, codes)), 1)
        metric = MatrixMetric(
            rng.uniform(0.0, 10.0, (users, codes)), upper + upper.T
        )
        uc = np.column_stack([np.arange(n), np.full(n, USER_SIDE)])
        ec = np.column_stack([np.arange(m), np.full(m, EVENT_SIDE)])

        def user_location():
            return Point(float(rng.integers(0, users)), USER_SIDE)

        def event_location():
            return Point(float(rng.integers(0, codes)), EVENT_SIDE)
    else:
        metric = EUCLIDEAN if metric_name == "euclidean" else MANHATTAN
        uc = rng.uniform(-1e3, 1e3, (n, 2))
        ec = rng.uniform(-1e3, 1e3, (m, 2))

        def user_location():
            return Point(*rng.uniform(-1e3, 1e3, 2))

        event_location = user_location
    patches = []
    for _ in range(steps):
        kinds = ["copy", "submatrix", "append_event"]
        kinds += ["move_event"] if m else []
        kinds += ["move_user"] if n else []
        kind = draw(st.sampled_from(kinds))
        if kind == "submatrix":
            keep_users, keep_events = rng.random(n) < 0.7, rng.random(m) < 0.7
            patches.append((kind, keep_users, keep_events))
            n, m = int(keep_users.sum()), int(keep_events.sum())
        elif kind == "move_event":
            patches.append((kind, int(rng.integers(0, m)), event_location()))
        elif kind == "append_event":
            patches.append((kind, event_location()))
            m += 1
        elif kind == "move_user":
            patches.append((kind, int(rng.integers(0, n)), user_location()))
        else:
            patches.append((kind,))
    return metric, uc, ec, patches


def _apply(d: DistanceMatrix, uc, ec, patch):
    """``patch`` applied to ``d`` and to its expected coordinates."""
    kind = patch[0]
    if kind == "copy":
        return d.copy(), uc, ec
    if kind == "submatrix":
        users, events = np.flatnonzero(patch[1]), np.flatnonzero(patch[2])
        return d.submatrix(users, events), uc[users], ec[events]
    if kind == "move_event":
        _, event, location = patch
        ec = ec.copy()
        ec[event] = (location.x, location.y)
        return d.with_event_location(event, location), uc, ec
    if kind == "append_event":
        location = patch[1]
        ec = np.vstack([ec, [(location.x, location.y)]])
        return d.with_appended_event(location), uc, ec
    _, user, location = patch
    uc = uc.copy()
    uc[user] = (location.x, location.y)
    moved = d.copy()
    moved.replace_user_location(user, location)
    return moved, uc, ec


def _assert_serves(d: DistanceMatrix, metric, uc, ec) -> None:
    """Every value ``d`` serves equals the metric over ``uc``/``ec``."""
    expected = metric.cross_coords(uc, ec)
    n, m = expected.shape
    assert (d.n_users, d.n_events) == (n, m)
    assert np.array_equal(d.user_event_rows(np.arange(n)), expected)
    assert np.array_equal(
        d.user_event_rows(list(range(n))[::-1]), expected[::-1]
    )
    for user in range(n):
        assert np.array_equal(d.user_event_row(user), expected[user])
        for event in range(m):
            assert d.user_event(user, event) == expected[user, event]
    block = metric.cross_coords(ec, ec)
    assert np.array_equal(d.event_event_matrix, block)
    for first in range(m):
        for second in range(m):
            assert d.event_event(first, second) == block[first, second]


@settings(max_examples=60, deadline=None)
@given(_workloads())
def test_both_paths_serve_identical_values_through_every_patch(workload):
    metric, uc, ec, patches = workload
    with use_distance_backend("dense"):
        plane = DistanceMatrix(uc, ec, metric)
    with use_distance_backend("tiled"):
        coords = DistanceMatrix(uc, ec, metric)
    assert plane.has_plane and not coords.has_plane
    _assert_serves(plane, metric, uc, ec)
    _assert_serves(coords, metric, uc, ec)
    for patch in patches:
        new_plane, new_uc, new_ec = _apply(plane, uc, ec, patch)
        new_coords, _, _ = _apply(coords, uc, ec, patch)
        # Derived objects keep their parent's path, whatever the scope.
        assert new_plane.has_plane and not new_coords.has_plane
        _assert_serves(new_plane, metric, new_uc, new_ec)
        _assert_serves(new_coords, metric, new_uc, new_ec)
        # The parents are untouched by the patch.
        _assert_serves(plane, metric, uc, ec)
        _assert_serves(coords, metric, uc, ec)
        plane, coords, uc, ec = new_plane, new_coords, new_uc, new_ec


# --------------------------------------------------------------------- #
# The size rule and the accounting the benchmark reads
# --------------------------------------------------------------------- #


@pytest.fixture
def size_rule(monkeypatch):
    """The size rule, even in a session run with ``--distance``."""
    monkeypatch.setattr(distance, "_FORCED_PATH", None)


def test_size_rule_keeps_the_plane_only_on_small_instances(size_rule):
    # Coordinate arrays alone, no Instance and no utility matrix: the
    # scale benchmark's shape would need a 195 MiB plane.
    rng = np.random.default_rng(3)
    big = DistanceMatrix(
        rng.uniform(0, 100, (100_000, 2)), rng.uniform(0, 100, (256, 2))
    )
    assert 100_000 * 256 > PLANE_CELL_LIMIT
    assert not big.has_plane
    with pytest.raises(RuntimeError, match="no user-event plane"):
        big.user_event_matrix
    assert big.tile_stats()["peak_backend_mib"] < 2.0
    # A service tenant of the benchmark's size keeps it.
    tenant = TenantSpec(name="t", users=200, events=20, seed=1)
    instance = tenant.build_instance()
    assert instance.distances.has_plane


def test_tile_stats_keeps_the_benchmark_keys():
    # perfbench's scale-100k workload reads these three keys; a missing
    # one fails the benchmark run with a KeyError.
    rng = np.random.default_rng(4)
    uc, ec = rng.uniform(0, 10, (64, 2)), rng.uniform(0, 10, (8, 2))
    for path, plane_bytes in (("tiled", 0), ("dense", 64 * 8 * 8)):
        with use_distance_backend(path):
            t = DistanceMatrix(uc, ec, EUCLIDEAN)
        stats = t.tile_stats()
        assert set(stats) == {"hits", "misses", "peak_backend_mib"}
        assert stats["hits"] == stats["misses"] == 0.0
        block = t.event_event_matrix
        expected = (
            t.user_coords.nbytes + t.event_coords.nbytes + plane_bytes
            + block.nbytes
        ) / 2**20
        assert t.tile_stats()["peak_backend_mib"] == expected


def test_dense_plane_property_raises_under_tiled():
    _, tiled = _twin_instances(0, n_users=6, n_events=3)
    with pytest.raises(RuntimeError, match="no user-event plane"):
        tiled.distances.user_event_matrix


# --------------------------------------------------------------------- #
# Spatial candidate pruning: soundness against brute force
# --------------------------------------------------------------------- #


def _bruteforce_candidates(instance: Instance) -> list[np.ndarray]:
    plane = served_user_event_plane(instance)
    budgets = np.array([u.budget for u in instance.users], dtype=float)
    feasible = (
        2.0 * plane + instance.fee_vector <= budgets[:, None] + BUDGET_TOL
    )
    return [
        np.flatnonzero(feasible[:, e]) for e in range(instance.n_events)
    ]


@pytest.mark.parametrize("seed", [0, 2, 5, 13])
def test_candidate_index_matches_bruteforce(seed):
    # The sharded solve builds its index on either path and under any
    # metric; every build keeps exactly the brute-force pairs.
    for metric in ("euclidean", "manhattan", "matrix"):
        for instance in _twin_instances(
            seed, metric, n_users=60, n_events=7, budget_range=(2.0, 9.0)
        ):
            index = partition_instance(instance, 1).index
            expected = _bruteforce_candidates(instance)
            for event in range(instance.n_events):
                assert np.array_equal(
                    index.candidate_users(event), expected[event]
                ), (metric, instance.distances.has_plane, event)


def test_with_user_budget_rides_through_instance_update():
    # An index built after a budget change reads the new budget.
    for path in ("dense", "tiled"):
        with use_distance_backend(path):
            instance = random_instance(
                9, n_users=40, n_events=5, budget_range=(2.0, 9.0)
            )
            updated = instance.with_user(11, budget=100.0)
            index = partition_instance(updated, 1).index
        expected = _bruteforce_candidates(updated)
        assert expected[0].size < updated.n_users
        for event in range(updated.n_events):
            assert np.array_equal(
                index.candidate_users(event), expected[event]
            )
            assert 11 in index.candidate_users(event)


def test_candidate_index_tracks_event_relocation_and_append():
    # An index built after a move or an appended event reads the
    # distances' patched coordinates and the appended fee.
    for path in ("dense", "tiled"):
        with use_distance_backend(path):
            instance = random_instance(
                12, n_users=40, n_events=5, budget_range=(2.0, 9.0)
            )
            moved = instance.with_event(2, location=Point(0.0, 0.0))
            new = Event(5, Point(5.0, 5.0), 0, 2, Interval(60.0, 61.0))
            appended = moved.with_new_event(
                new, np.linspace(0.0, 1.0, moved.n_users), fee=0.5
            )
            for updated in (moved, appended):
                index = partition_instance(updated, 1).index
                expected = _bruteforce_candidates(updated)
                for event in range(updated.n_events):
                    assert np.array_equal(
                        index.candidate_users(event), expected[event]
                    )
