"""Vectorized generator for soak-scale synthetic EBSN instances.

:func:`repro.datasets.meetup.generate_ebsn` draws every location, tag
set, and utility cell through python-level ``random`` calls — perfect
for Table-IV-shaped workloads (hundreds of users), hopeless for the
memory-soak sizes whose distances are served from coordinates (10^5
users and up, past ``repro.geo.distance.PLANE_CELL_LIMIT``, where the
n x m python loop alone takes minutes).  This module
generates the same *shape* of instance — clustered city geography,
sparse skewed utility, conflict-controlled times, budget marginals —
entirely through numpy array programs, in O(n + m + nnz) python
operations.

Design choices that matter to the soak:

* **Local mobility** — the city diameter is much larger than the travel
  budgets, so each user can only reach events in or near their home
  district.  That is the regime the spatial candidate index
  (:class:`repro.geo.grid.SpatialCandidateIndex`) is built for, and the
  regime real city-scale EBSNs exhibit.
* **Cluster-aligned interest** — positive utility concentrates on
  events hosted in the user's home district (plus a sprinkle of
  cross-district interest), mirroring how tag similarity correlates
  with geography in the Meetup data.
* **Small dense planes only** — the generator materialises the n x m
  utility plane (the :class:`~repro.core.model.Instance` contract) but
  never an n x m distance plane: at these sizes
  :class:`~repro.geo.distance.DistanceMatrix` computes each distance
  from the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import Event, Instance, User
from repro.geo.point import Point
from repro.timeline.interval import Interval


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs of the soak-scale generator.

    Defaults describe a metropolis whose diameter dwarfs individual
    travel budgets: ``budget_range`` is absolute (not
    diameter-relative like :class:`~repro.datasets.meetup.MeetupConfig`),
    so reachability — and with it the candidate-index payoff — is
    governed by cluster geometry, not city size.
    """

    n_users: int = 100_000
    n_events: int = 256
    n_clusters: int = 32
    city_diameter: float = 200.0
    cluster_spread: float = 4.0
    budget_range: tuple[float, float] = (15.0, 40.0)
    # Probability a user holds positive utility for an event in their
    # own district / in any other district.
    home_affinity: float = 0.8
    remote_affinity: float = 0.01
    mean_upper: int = 50
    lower_max: int = 3
    conflict_ratio: float = 0.25
    horizon: float = 24.0
    seed: int = 0


def generate_scale_instance(config: ScaleConfig) -> Instance:
    """Generate a soak-scale instance; O(n + m + nnz) python work."""
    rng = np.random.default_rng(config.seed)
    n, m, k = config.n_users, config.n_events, max(config.n_clusters, 1)

    centres = rng.uniform(0.0, config.city_diameter, size=(k, 2))
    user_cluster = rng.integers(0, k, size=n)
    event_cluster = rng.integers(0, k, size=m)
    user_xy = centres[user_cluster] + rng.normal(
        0.0, config.cluster_spread, size=(n, 2)
    )
    event_xy = centres[event_cluster] + rng.normal(
        0.0, config.cluster_spread, size=(m, 2)
    )
    budgets = rng.uniform(*config.budget_range, size=n)

    # Cluster-aligned sparse utility: home-district events are liked
    # with high probability, everything else rarely.
    same = user_cluster[:, None] == event_cluster[None, :]
    p_like = np.where(same, config.home_affinity, config.remote_affinity)
    liked = rng.random((n, m)) < p_like
    utility = np.zeros((n, m))
    utility[liked] = np.round(rng.uniform(0.05, 1.0, size=int(liked.sum())), 3)

    uppers = np.maximum(
        1,
        np.rint(
            rng.normal(config.mean_upper, config.mean_upper / 5, size=m)
        ).astype(int),
    )
    lowers = np.minimum(uppers, rng.integers(0, config.lower_max + 1, size=m))
    starts, ends = _interval_arrays(rng, config)

    users = [
        User(id=i, location=Point(x, y), budget=b)
        for i, (x, y, b) in enumerate(
            zip(user_xy[:, 0], user_xy[:, 1], budgets)
        )
    ]
    events = [
        Event(
            id=j,
            location=Point(event_xy[j, 0], event_xy[j, 1]),
            lower=int(lowers[j]),
            upper=int(uppers[j]),
            interval=Interval(float(starts[j]), float(ends[j])),
        )
        for j in range(m)
    ]
    return Instance(users, events, utility)


def _interval_arrays(
    rng: np.random.Generator, config: ScaleConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Start/end arrays with roughly ``conflict_ratio`` conflicted events.

    Conflicted events are paired into shared slots (both members overlap);
    the rest get disjoint slots with positive margins, like the meetup
    generator's layout but computed as arrays.
    """
    m = config.n_events
    if m == 0:
        return np.zeros(0), np.zeros(0)
    n_conflicted = int(round(config.conflict_ratio * m))
    n_conflicted -= n_conflicted % 2  # whole pairs only
    n_pairs = n_conflicted // 2
    n_slots = (m - n_conflicted) + n_pairs
    slot_width = config.horizon / max(n_slots, 1)
    slot_of = np.concatenate(
        [
            np.repeat(np.arange(n_pairs), 2),
            np.arange(n_pairs, n_slots),
        ]
    )
    base = slot_of * slot_width
    is_pair_member = np.arange(m) < n_conflicted
    # Pair members share the slot window with jittered starts (always
    # overlapping); singletons sit inside their slot with a margin.
    jitter = np.where(
        is_pair_member,
        rng.uniform(0.0, slot_width * 0.2, size=m),
        slot_width * 0.05,
    )
    duration = np.where(
        is_pair_member,
        slot_width * rng.uniform(0.6, 0.75, size=m),
        slot_width * rng.uniform(0.4, 0.8, size=m),
    )
    starts = base + jitter
    order = rng.permutation(m)
    return starts[order], (starts + duration)[order]
