"""Sharded GEPC solving.

:class:`ShardedSolver` runs the three-stage pipeline described in
``docs/scaling.md``:

1. **Partition** — :func:`repro.scale.partition.partition_instance` cuts
   the instance into ``k`` spatial shards (seeded k-means over event
   locations, users to their nearest event-cluster).
2. **Solve shards** — each shard is an independent GEPC instance solved
   in shard order by the greedy two-step solver.
3. **Merge + cross-shard recovery** — shard plans are *transplanted*
   into one :class:`~repro.core.plan.GlobalPlan` over the full instance
   (shards are disjoint in users *and* events and the subinstance cache
   slicing is bit-exact, so shard-local routes and costs are already the
   global ones).  Then two recovery passes run: a **rescue** retries
   shard-cancelled events against the global user pool (committing only
   if ``xi_j`` is reached, rolling back otherwise), and a **boundary
   repair** re-runs the step-2 filler over exactly the users who can
   still reach an open event their shard solve could not see
   (cross-shard events plus rescued ones — see
   :func:`_repair_candidates`).  Both passes only top up events that
   already meet their lower bound (or roll back), so every ``xi_j`` that
   held per-shard still holds globally.

Every stage emits ``repro.obs`` spans, and each shard is solved under the
caller's recorder, so shard counters add up in place.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.gepc.base import Filler, GEPCSolution, GEPCSolver
from repro.core.gepc.fill import UtilityFill
from repro.core.gepc.greedy import GreedySolver
from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.obs import Recorder, get_recorder
from repro.scale.partition import (
    Partition,
    Shard,
    _reachable,
    partition_instance,
)


def _repair_candidates(
    instance: Instance,
    plan: GlobalPlan,
    partition: Partition,
    cancelled: set[int],
    rescued_events: set[int],
) -> set[int]:
    """Users worth re-filling after the merge (a subset of the fringe).

    The shard fill already exhausted every in-shard opportunity, so the
    repair only has to look at events a shard solve could not see:
    *cross-shard* ones, plus in-shard events that were cancelled by the
    shard but resurrected by the rescue pass.  Of those, only events with
    residual capacity can accept anyone — so the repair user set is
    "users with at least one reachable, open, shard-invisible event".
    Dropping the rest is free: their fill rows could only re-prove what
    the shard fill already decided.
    """
    held = np.zeros(instance.n_events, dtype=bool)
    residual = np.zeros(instance.n_events, dtype=bool)
    for event in range(instance.n_events):
        if event in cancelled:
            continue
        spec = instance.events[event]
        count = plan.attendance(event)
        held[event] = (count >= spec.lower and count > 0) or spec.lower == 0
        residual[event] = held[event] and count < spec.upper
    if not residual.any():
        return set()
    invisible = partition.event_shard[None, :] != partition.user_shard[:, None]
    if rescued_events:
        rescued_mask = np.zeros(instance.n_events, dtype=bool)
        rescued_mask[sorted(rescued_events)] = True
        invisible = invisible | rescued_mask[None, :]
    candidates = (
        _reachable(instance, partition.index)
        & residual[None, :]
        & invisible
    )
    return set(np.flatnonzero(candidates.any(axis=1)).tolist())


class ShardedSolver(GEPCSolver):
    """Solve a GEPC instance as ``k`` spatial shards.

    Parameters
    ----------
    shards:
        Target shard count ``k`` (clamped to the event count; empty
        clusters are dropped).  ``shards=1`` delegates to the plain
        greedy solver and produces its bit-identical plan.
    seed:
        Seed for both the partitioner's k-means and every shard's greedy
        visiting order.
    fill:
        Whether shards run their own step-2 filler (ablation hook,
        mirrors :class:`GreedySolver`).
    filler:
        The boundary-repair filler re-run on fringe users after the
        merge (defaults to :class:`UtilityFill`).
    """

    name = "sharded"

    def __init__(
        self,
        shards: int = 4,
        seed: int | None = 0,
        fill: bool = True,
        filler: Filler | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self._shards = shards
        self._seed = seed
        self._fill = fill
        self._filler = filler or UtilityFill()
        # Partition memo for repeated solves of the *same* instance
        # object: partitioning is deterministic in (instance, shards,
        # seed), so the cut can be reused — it is pure serial time on
        # every solve otherwise.  Held via weakref so the solver never
        # keeps a dead instance (and its planes) alive.
        self._partition_ref: "weakref.ref[Instance] | None" = None
        self._partition_cached: Partition | None = None

    def solve(self, instance: Instance) -> GEPCSolution:
        obs = get_recorder()
        if self._shards == 1 or instance.n_events <= 1:
            # One shard is the monolithic problem: delegate for a
            # bit-identical plan (the k=1 equivalence contract).
            solution = GreedySolver(
                seed=self._seed, fill=self._fill
            ).solve(instance)
            solution.solver = self.name
            solution.diagnostics.update(
                {"shards": 1.0, "fringe_users": 0.0,
                 "repair_added": 0.0}
            )
            return solution

        # Warm the dense planes before partitioning so every shard slice
        # is a bit-exact cut of the same arrays.  (The partitioner would
        # warm the user-event block anyway; this makes the rest explicit.)
        instance.warm_planes()
        partition = self._partition_for(instance)
        solutions = self._solve_shards(partition.shards, obs)

        with obs.span("scale.merge"):
            plan = GlobalPlan(instance)
            cancelled: set[int] = set()
            diagnostics: dict[str, float] = {}
            for shard, solution in zip(partition.shards, solutions):
                for local_user, events in solution.plan:
                    global_user = int(shard.user_ids[local_user])
                    # Transplant instead of plan.add: shards are disjoint
                    # in users and events and subinstance slicing is
                    # bit-exact, so the shard-local routes (start-sorted,
                    # start times preserved by the id remap) and their
                    # accumulated costs are already the global ones.
                    route = [int(shard.event_ids[e]) for e in events]
                    # repro-lint: ignore[RL001] bit-exact shard transplant
                    plan._plans[global_user] = route
                    cost = solution.plan.route_cost(local_user)
                    plan._route_costs[global_user] = cost  # repro-lint: ignore[RL001] transplant, see above
                    for event in route:
                        plan._attendee_sets[event].add(global_user)  # repro-lint: ignore[RL001] transplant, see above
                cancelled.update(
                    int(shard.event_ids[e]) for e in solution.cancelled
                )
                for key, value in solution.diagnostics.items():
                    diagnostics[key] = diagnostics.get(key, 0.0) + value

        rescued = 0
        rescued_events: set[int] = set()
        if self._fill and cancelled:
            with obs.span("scale.rescue_cancelled"):
                before = set(cancelled)
                rescued = self._rescue_cancelled(
                    instance, plan, cancelled, partition
                )
                rescued_events = before - cancelled

        repaired = 0
        if self._fill:
            repair_users = _repair_candidates(
                instance, plan, partition, cancelled, rescued_events
            )
            if repair_users:
                with obs.span("scale.boundary_repair"):
                    repaired = self._filler.fill(
                        instance,
                        plan,
                        excluded_events=cancelled,
                        only_users=repair_users,
                    )
        obs.count("scale.solves")
        obs.count("scale.rescue_added", rescued)
        obs.count("scale.repair_added", repaired)
        diagnostics.update(
            {
                "shards": float(partition.n_shards),
                "fringe_users": float(len(partition.fringe_users)),
                "rescue_added": float(rescued),
                "repair_added": float(repaired),
            }
        )
        return GEPCSolution(
            plan,
            cancelled=cancelled,
            solver=self.name,
            diagnostics=diagnostics,
        )

    def _rescue_cancelled(
        self,
        instance: Instance,
        plan: GlobalPlan,
        cancelled: set[int],
        partition: Partition,
    ) -> int:
        """Retry shard-cancelled events against the *global* user pool.

        A shard cancels an event when its own users cannot meet the
        event's ``xi`` lower bound — but users from other shards may well
        cover it (the monolithic solver would have).  For each cancelled
        event, in ascending id order, users are tried in descending
        utility (ties by id) and committed only if the lower bound is
        reached; otherwise every tentative add is rolled back, so a
        still-deficient event stays cancelled and attendance-free.

        Returns the number of assignments committed.
        """
        rescued = 0
        for event in sorted(cancelled):
            spec = instance.events[event]
            # Only this event's spatial candidates can ever pass
            # can_attend's budget check (the candidate test is the same
            # 2d+fee bound), so restricting the pool skips no user a full
            # scan could have added — the committed adds, and their
            # order, are identical.
            order = sorted(
                partition.index.candidate_users(event).tolist(),
                key=lambda u: (-float(instance.utility[u, event]), u),
            )
            added: list[int] = []
            for user in order:
                if plan.attendance(event) >= spec.upper:
                    break
                if instance.utility[user, event] <= 0.0:
                    break
                if plan.can_attend(user, event):
                    plan.add(user, event)
                    added.append(user)
            if len(added) >= spec.lower:
                cancelled.discard(event)
                rescued += len(added)
            else:
                for user in added:
                    plan.remove(user, event)
        return rescued

    def _solve_shards(
        self, shards: list[Shard], obs: Recorder
    ) -> list[GEPCSolution]:
        solutions = []
        with obs.span("scale.solve_shards"):
            for shard in shards:
                with obs.span("scale.shard_solve") as span:
                    solutions.append(
                        GreedySolver(seed=self._seed, fill=self._fill).solve(
                            shard.instance
                        )
                    )
                obs.gauge(f"scale.shard.{shard.index}.seconds", span.elapsed)
        return solutions

    def _partition_for(self, instance: Instance) -> Partition:
        """The (memoized) partition of ``instance``.

        Safe because partitioning is a pure function of
        ``(instance, shards, seed)`` and instances are immutable by
        convention — the IEP operations produce *new* instances, which
        miss the identity check and re-partition.
        """
        cached = (
            self._partition_cached
            if self._partition_ref is not None
            and self._partition_ref() is instance
            else None
        )
        if cached is None:
            cached = partition_instance(instance, self._shards, self._seed or 0)
            self._partition_ref = weakref.ref(instance)
            self._partition_cached = cached
        return cached

    def partition(self, instance: Instance) -> Partition:
        """The partition :meth:`solve` would use (for inspection/tests)."""
        return self._partition_for(instance)
