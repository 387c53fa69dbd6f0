"""Tiled distance backend: value identity, accounting, pruning.

The contract under test (see ``src/repro/core/tiles.py``): with
``REPRO_DISTANCE=tiled`` every *served* value — scalar, row, batch,
event-event, through every instance transform and under every travel
metric — is bit-identical to the dense oracle, while the full user-event
plane is never materialised.  The spatial candidate index must prune
*soundly*: exactly the pairs the kernel's own budget test would reject,
nothing more.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.costs import CostModel
from repro.core.model import Event, Instance
from repro.core.tiles import TiledDistanceMatrix, use_distance_backend
from repro.core.tolerances import BUDGET_TOL
from repro.geo.grid import SpatialCandidateIndex
from repro.geo.matrix_metric import MatrixMetric, event_point, user_point
from repro.geo.metrics import EUCLIDEAN, MANHATTAN
from repro.geo.point import Point
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
    """The same workload built under the dense and tiled backends."""
    with use_distance_backend("dense"):
        dense = _with_metric(random_instance(seed, **kwargs), metric, seed)
        dense.distances  # force the backend choice now
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
    assert isinstance(tiled.distances, TiledDistanceMatrix)
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
    t = TiledDistanceMatrix(uc, ec, EUCLIDEAN)
    t.event_event_matrix  # build the lazy block the event patch must drop
    moved_user = np.array([[55.0, 55.0]])
    t.replace_user_location(0, Point(55.0, 55.0), [])
    uc2 = uc.copy()
    uc2[0] = moved_user
    assert np.array_equal(
        t.user_event_rows(np.arange(16)),
        EUCLIDEAN.cross_coords(uc2, ec),
    )
    t.replace_event_location(3, Point(-1.0, -2.0), [], [])
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
# Accounting the benchmark reads
# --------------------------------------------------------------------- #


def test_tile_stats_keeps_the_benchmark_keys():
    # perfbench's scale-100k workload reads these three keys; a missing
    # one fails the benchmark run with a KeyError.
    rng = np.random.default_rng(4)
    t = TiledDistanceMatrix(
        rng.uniform(0, 10, (64, 2)), rng.uniform(0, 10, (8, 2)), EUCLIDEAN
    )
    stats = t.tile_stats()
    assert set(stats) == {"hits", "misses", "peak_backend_mib"}
    assert stats["hits"] == stats["misses"] == 0.0
    block = t.event_event_matrix
    expected = (
        t.user_coords.nbytes + t.event_coords.nbytes + block.nbytes
    ) / 2**20
    assert t.tile_stats()["peak_backend_mib"] == expected


def test_dense_plane_property_raises_under_tiled():
    _, tiled = _twin_instances(0, n_users=6, n_events=3)
    with pytest.raises(RuntimeError, match="tiled"):
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
    with use_distance_backend("tiled"):
        instance = random_instance(
            seed, n_users=60, n_events=7, budget_range=(2.0, 9.0)
        )
        index = instance.candidate_index
    assert index is not None
    expected = _bruteforce_candidates(instance)
    for event in range(instance.n_events):
        assert np.array_equal(index.candidate_users(event), expected[event])
        assert index.candidate_count(event) == expected[event].size
    mask = index.active_user_mask()
    active = set()
    for cands in expected:
        active.update(int(u) for u in cands)
    assert set(np.flatnonzero(mask)) == active


def test_candidate_index_absent_under_dense():
    with use_distance_backend("dense"):
        instance = random_instance(1, n_users=10, n_events=3)
        assert instance.candidate_index is None


@pytest.mark.parametrize("budget", [0.5, 6.0, 50.0])
def test_with_user_budget_patch_matches_fresh_rebuild(budget):
    with use_distance_backend("tiled"):
        instance = random_instance(
            7, n_users=60, n_events=7, budget_range=(2.0, 9.0)
        )
        index = instance.candidate_index
        assert index is not None
        user = 31
        patched = index.with_user_budget(user, budget)
        fresh_budgets = np.array(
            [u.budget for u in instance.users], dtype=float
        )
        fresh_budgets[user] = budget
        d = instance.distances
        fresh = SpatialCandidateIndex(
            d.user_coords,
            fresh_budgets,
            d.event_coords,
            instance.fee_vector,
            instance.cost_model.metric,
        )
    for event in range(instance.n_events):
        assert np.array_equal(
            patched.candidate_users(event), fresh.candidate_users(event)
        )


def test_with_user_budget_rides_through_instance_update():
    with use_distance_backend("tiled"):
        instance = random_instance(
            9, n_users=40, n_events=5, budget_range=(2.0, 9.0)
        )
        instance.candidate_index  # warm the index so the patch path runs
        updated = instance.with_user(11, budget=100.0)
        index = updated.candidate_index
    expected = _bruteforce_candidates(updated)
    for event in range(updated.n_events):
        assert np.array_equal(index.candidate_users(event), expected[event])


def test_candidate_index_tracks_event_relocation_and_append():
    with use_distance_backend("tiled"):
        instance = random_instance(
            12, n_users=40, n_events=5, budget_range=(2.0, 9.0)
        )
        instance.candidate_index
        moved = instance.with_event(2, location=Point(0.0, 0.0))
        expected = _bruteforce_candidates(moved)
        index = moved.candidate_index
        for event in range(moved.n_events):
            assert np.array_equal(
                index.candidate_users(event), expected[event]
            )
        new = Event(5, Point(5.0, 5.0), 0, 2, Interval(60.0, 61.0))
        appended = moved.with_new_event(
            new, np.linspace(0.0, 1.0, moved.n_users)
        )
        expected = _bruteforce_candidates(appended)
        index = appended.candidate_index
        for event in range(appended.n_events):
            assert np.array_equal(
                index.candidate_users(event), expected[event]
            )
