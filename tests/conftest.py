"""Shared fixtures and instance builders for the test-suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.model import Event, Instance, User
from repro.core.tiles import use_distance_backend
from repro.geo.point import Point
from repro.timeline.interval import Interval


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--distance",
        choices=("dense", "tiled"),
        default=None,
        help="run the whole suite with every instance's distances on one "
        "path (default: chosen by instance size)",
    )


@pytest.fixture(autouse=True, scope="session")
def _distance_path(request: pytest.FixtureRequest):
    """Pin the distance path for the session when ``--distance`` is given.

    Every served distance is bit-identical on both paths, so the whole
    suite must pass under ``--distance tiled`` too, where every small
    instance serves from coordinates and builds a candidate index.
    """
    path = request.config.getoption("--distance")
    if path is None:
        yield
        return
    with use_distance_backend(path):
        yield


def served_user_event_plane(instance: Instance) -> np.ndarray:
    """The full user-event distance plane, served through the rows.

    Path-portable replacement for reading ``user_event_matrix`` directly
    (which raises without a resident plane): bulk-serves every row, so
    plane comparisons run identically on either path.
    """
    ids = np.arange(instance.n_users, dtype=np.intp)
    return instance.distances.user_event_rows(ids)


def build_instance(
    users: list[tuple[float, float, float]],
    events: list[tuple[float, float, int, int, float, float]],
    utility,
) -> Instance:
    """Compact instance builder.

    ``users``: (x, y, budget) triples; ``events``: (x, y, lower, upper,
    start, end) tuples; ``utility``: n x m array-like.
    """
    return Instance(
        [User(i, Point(x, y), b) for i, (x, y, b) in enumerate(users)],
        [
            Event(j, Point(x, y), lo, hi, Interval(s, t))
            for j, (x, y, lo, hi, s, t) in enumerate(events)
        ],
        np.asarray(utility, dtype=float),
    )


def random_instance(
    seed: int,
    n_users: int = 8,
    n_events: int = 5,
    max_upper: int = 4,
    zero_fraction: float = 0.2,
    span: float = 10.0,
    budget_range: tuple[float, float] = (15.0, 40.0),
) -> Instance:
    """A small random instance for fuzz-style tests."""
    rng = random.Random(seed)
    users = [
        (rng.uniform(0, span), rng.uniform(0, span), rng.uniform(*budget_range))
        for _ in range(n_users)
    ]
    events = []
    for _ in range(n_events):
        start = rng.uniform(0, 20)
        lower = rng.randint(0, 2)
        upper = max(lower, rng.randint(1, max_upper))
        events.append(
            (
                rng.uniform(0, span),
                rng.uniform(0, span),
                lower,
                upper,
                start,
                start + rng.uniform(1, 4),
            )
        )
    utility = np.round(
        np.random.default_rng(seed).uniform(0, 1, (n_users, n_events)), 3
    )
    mask = np.random.default_rng(seed + 1).uniform(0, 1, utility.shape)
    utility[mask < zero_fraction] = 0.0
    return build_instance(users, events, utility)


@pytest.fixture
def paper_instance() -> Instance:
    """An instance modelled on the paper's Example 1 (Fig. 1 / Table I).

    Coordinates are chosen to reproduce the worked travel cost: the paper
    computes ``D_1 = d(u1,e1) + d(e1,e2) + d(e2,u1) = sqrt(17) + sqrt(41) +
    6 = 16.53`` for the plan {e1, e2}; placing ``u1=(0,0)``, ``e1=(1,4)``,
    ``e2=(6,0)`` yields exactly those distances.  Times are Table I's (in
    hours): e1 13-15, e2 16-18, e3 13:30-15, e4 18-20 — so e1/e3 conflict
    (overlap) and e2/e4 conflict (touching endpoints).
    """
    users = [
        (0.0, 0.0, 18.0),   # u1
        (2.0, 3.0, 20.0),   # u2
        (4.0, 2.0, 20.0),   # u3
        (5.0, 5.0, 30.0),   # u4
        (1.0, 5.0, 10.0),   # u5
    ]
    events = [
        (1.0, 4.0, 1, 3, 13.0, 15.0),   # e1
        (6.0, 0.0, 2, 4, 16.0, 18.0),   # e2
        (3.0, 4.0, 3, 4, 13.5, 15.0),   # e3
        (2.0, 6.0, 1, 5, 18.0, 20.0),   # e4
    ]
    utility = [
        [0.7, 0.6, 0.9, 0.3],
        [0.6, 0.5, 0.8, 0.4],
        [0.4, 0.7, 0.9, 0.5],
        [0.2, 0.3, 0.8, 0.6],
        [0.3, 0.1, 0.6, 0.7],
    ]
    return build_instance(users, events, utility)


@pytest.fixture
def small_instance() -> Instance:
    """A deterministic 4-user / 3-event instance with simple geometry."""
    users = [
        (0.0, 0.0, 25.0),
        (10.0, 0.0, 25.0),
        (0.0, 10.0, 25.0),
        (10.0, 10.0, 25.0),
    ]
    events = [
        (5.0, 5.0, 1, 3, 9.0, 10.0),
        (5.0, 0.0, 0, 2, 11.0, 12.0),
        (0.0, 5.0, 2, 4, 13.0, 14.0),
    ]
    utility = [
        [0.9, 0.5, 0.3],
        [0.8, 0.6, 0.2],
        [0.7, 0.0, 0.9],
        [0.6, 0.4, 0.8],
    ]
    return build_instance(users, events, utility)
