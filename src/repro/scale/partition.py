"""Geographic partitioning of an EBSN instance into spatial shards.

City-shaped workloads (the paper's Table IV datasets) are spatially
clustered: users mostly attend events in their own district.  The
partitioner exploits that — a deterministic seeded k-means over **event
locations** yields ``k`` event clusters; every event joins its nearest
centroid's shard and every user joins the shard of their nearest
event-cluster.  Each shard becomes an independent, re-indexed
:class:`~repro.core.model.Instance` (via ``Instance.subinstance``, which
slices any warmed caches bit-exactly) that can be solved in isolation.

The cut is lossy at shard boundaries: a user may be able to reach events
assigned to other shards.  The partitioner therefore computes a
**budget-aware fringe** — users with at least one *reachable* event
outside their home shard, where reachable means positive utility and a
singleton round trip within budget (``2 * d(u, e) + fee_e <= B_u``).
The sharded solver re-runs the step-2 filler on exactly these users after
merging, so no cross-shard utility is silently unreachable (see
``docs/scaling.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import Instance
from repro.core.tolerances import BUDGET_TOL
from repro.obs import get_recorder


@dataclass(frozen=True)
class Shard:
    """One spatial shard: global id maps plus the re-indexed sub-instance.

    ``user_ids[local]``/``event_ids[local]`` give the global id of a
    shard-local user/event; both arrays are strictly increasing, so the
    local order mirrors the global order.
    """

    index: int
    user_ids: np.ndarray
    event_ids: np.ndarray
    instance: Instance

    @property
    def n_users(self) -> int:
        return int(self.user_ids.size)

    @property
    def n_events(self) -> int:
        return int(self.event_ids.size)


@dataclass(frozen=True)
class Partition:
    """A complete spatial partition of one instance.

    Every user and every event belongs to exactly one shard;
    ``fringe_users`` are the (global) users whose reachable events span
    more than their home shard — the set the post-merge boundary repair
    re-fills.
    """

    k: int
    seed: int
    event_shard: np.ndarray
    user_shard: np.ndarray
    centroids: np.ndarray
    shards: list[Shard] = field(default_factory=list)
    fringe_users: frozenset[int] = frozenset()

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of_user(self, user: int) -> int:
        return int(self.user_shard[user])

    def shard_of_event(self, event: int) -> int:
        return int(self.event_shard[event])


def _kmeans(
    points: np.ndarray, k: int, seed: int, max_iter: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic seeded k-means (k-means++ init, Lloyd iterations).

    Returns ``(labels, centroids)``.  Ties and degenerate clusters are
    resolved deterministically: argmin picks the lowest index, and an
    emptied cluster keeps its previous centroid.
    """
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    centroids = np.empty((k, 2), dtype=float)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All points coincide with a chosen centroid; reuse the first.
            centroids[c:] = centroids[0]
            break
        probabilities = closest / total
        pick = int(rng.choice(n, p=probabilities))
        centroids[c] = points[pick]
        closest = np.minimum(
            closest, ((points - centroids[c]) ** 2).sum(axis=1)
        )
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        squared = (
            (points[:, None, :] - centroids[None, :, :]) ** 2
        ).sum(axis=2)
        labels = squared.argmin(axis=1)
        updated = centroids.copy()
        for c in range(k):
            members = labels == c
            if members.any():
                updated[c] = points[members].mean(axis=0)
        if np.allclose(updated, centroids):
            break
        centroids = updated
    return labels, centroids


def reachable_matrix(instance: Instance) -> np.ndarray:
    """Boolean ``n x m``: user could attend the event *as a singleton plan*.

    Positive utility and the lone round trip (plus admission fee) within
    budget.  This is the budget-aware notion of "the user can reach the
    event" the fringe computation uses — any assignment a solver could
    ever make implies singleton reachability, so the fringe over-approxi-
    mates (never misses) cross-shard opportunities.
    """
    candidates = instance.candidate_index
    if candidates is not None:
        # No plane: the spatial index already holds exactly the
        # ``within`` booleans (its refinement evaluates the identical
        # ``2d + fee <= B + tol`` comparison), so scatter the candidate
        # sets instead of materialising the full distance plane.
        within = np.zeros(
            (instance.n_users, instance.n_events), dtype=bool
        )
        for event in range(instance.n_events):
            within[candidates.candidate_users(event), event] = True
        return (instance.utility > 0.0) & within
    budgets = np.array([u.budget for u in instance.users], dtype=float)
    round_trip = (
        2.0 * instance.distances.user_event_matrix  # repro-lint: ignore[RL008] no candidate index means the plane is resident
        + instance.fee_vector
    )
    within = round_trip <= budgets[:, None] + BUDGET_TOL
    return (instance.utility > 0.0) & within


def partition_instance(
    instance: Instance, k: int, seed: int = 0
) -> Partition:
    """Split ``instance`` into at most ``k`` spatial shards.

    Deterministic for a fixed ``(instance, k, seed)``.  ``k`` is clamped
    to the event count; clusters that end up with no events are dropped
    (the effective shard count may be below ``k``).
    """
    obs = get_recorder()
    with obs.span("scale.partition"):
        k = max(1, min(k, instance.n_events)) if instance.n_events else 1
        event_points = np.array(
            [(e.location.x, e.location.y) for e in instance.events],
            dtype=float,
        )
        user_points = np.array(
            [(u.location.x, u.location.y) for u in instance.users],
            dtype=float,
        )

        if instance.n_events == 0 or k == 1:
            event_labels = np.zeros(instance.n_events, dtype=int)
            centroids = (
                event_points.mean(axis=0, keepdims=True)
                if instance.n_events
                else np.zeros((1, 2))
            )
        else:
            event_labels, centroids = _kmeans(event_points, k, seed)

        # Drop empty clusters and re-index shard ids densely.
        used = np.unique(event_labels)
        remap = {int(old): new for new, old in enumerate(used)}
        event_shard = np.array(
            [remap[int(label)] for label in event_labels], dtype=int
        )
        centroids = centroids[used]
        n_shards = len(used)

        # Users join the shard of their nearest event-cluster centroid.
        if instance.n_users and n_shards:
            user_squared = (
                (user_points[:, None, :] - centroids[None, :, :]) ** 2
            ).sum(axis=2)
            user_shard = user_squared.argmin(axis=1)
        else:
            user_shard = np.zeros(instance.n_users, dtype=int)

        # Budget-aware fringe: reachable events outside the home shard.
        fringe: frozenset[int] = frozenset()
        if n_shards > 1 and instance.n_users and instance.n_events:
            reach = reachable_matrix(instance)
            onehot = np.zeros((instance.n_events, n_shards), dtype=bool)
            onehot[np.arange(instance.n_events), event_shard] = True
            per_shard = reach.astype(np.int32) @ onehot.astype(np.int32)
            per_shard[np.arange(instance.n_users), user_shard] = 0
            fringe = frozenset(np.flatnonzero(per_shard.any(axis=1)).tolist())

        shards = []
        for s in range(n_shards):
            shard_users = np.flatnonzero(user_shard == s)
            shard_events = np.flatnonzero(event_shard == s)
            shards.append(
                Shard(
                    index=s,
                    user_ids=shard_users,
                    event_ids=shard_events,
                    instance=instance.subinstance(shard_users, shard_events),
                )
            )
    obs.count("scale.partitions")
    obs.gauge("scale.partition.shards", float(len(shards)))
    obs.gauge("scale.partition.fringe_users", float(len(fringe)))
    return Partition(
        k=k,
        seed=seed,
        event_shard=event_shard,
        user_shard=user_shard,
        centroids=centroids,
        shards=shards,
        fringe_users=fringe,
    )
