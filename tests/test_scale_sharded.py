"""ShardedSolver: k=1 equivalence, feasibility, determinism, counters."""

import pytest

from repro.check.auditor import InvariantAuditor
from repro.core.constraints import check_plan
from repro.core.gepc import GreedySolver
from repro.core.metrics import total_utility
from repro.core.plan import PlanSummary
from repro.core.tiles import use_distance_backend
from repro.datasets import make_city
from repro.obs import Recorder, recording
from repro.scale import ShardedSolver
from tests.conftest import random_instance

SMALL_CITIES = ["beijing", "auckland", "singapore"]


@pytest.mark.parametrize("city", SMALL_CITIES)
def test_k1_bit_identical_to_greedy(city):
    """shards=1 must delegate: identical plan, cancelled set, utility."""
    instance = make_city(city, scale=0.3)
    mono = GreedySolver(seed=0).solve(instance)
    sharded = ShardedSolver(shards=1, seed=0).solve(instance)
    assert PlanSummary.of(sharded.plan) == PlanSummary.of(mono.plan)
    assert sharded.cancelled == mono.cancelled
    assert total_utility(instance, sharded.plan) == total_utility(
        instance, mono.plan
    )
    assert sharded.solver == "sharded"
    assert sharded.diagnostics["shards"] == 1.0


@pytest.mark.parametrize("city", SMALL_CITIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sharded_plans_feasible_and_audit_clean(city, seed):
    instance = make_city(city, scale=0.3)
    solution = ShardedSolver(shards=3, seed=seed).solve(instance)
    assert not check_plan(instance, solution.plan)
    report = InvariantAuditor().audit(solution.plan)
    assert report.ok, report.mismatches[:3]


@pytest.mark.parametrize("seed", range(6))
def test_sharded_random_instances_feasible(seed):
    instance = random_instance(
        seed, n_users=20, n_events=8, budget_range=(10.0, 30.0)
    )
    solution = ShardedSolver(shards=3, seed=seed).solve(instance)
    assert not check_plan(instance, solution.plan)


#: ``greedy.*``/``fill.*`` totals of ``ShardedSolver(shards=4, seed=0)`` on
#: beijing at scale 0.5.  On the coordinate path greedy sees its spatial
#: candidates only, so it evaluates (and feasibility-checks) fewer pairs.
_SHARDED_COUNTERS = {
    "fill.added": 108.0,
    "fill.candidates": 127.0,
    "fill.feasibility_checks": 127.0,
    "greedy.copies_grabbed": 61.0,
    "greedy.events_cancelled": 2.0,
}
_SHARDED_GREEDY_SCANS = {
    "dense": {"greedy.candidates_evaluated": 88.0,
              "greedy.feasibility_checks": 63.0},
    "tiled": {"greedy.candidates_evaluated": 86.0,
              "greedy.feasibility_checks": 62.0},
}


@pytest.mark.parametrize("backend", ["dense", "tiled"])
def test_shard_counters_reach_the_callers_recorder(backend):
    """Every shard's greedy and fill counters land in the recorder that
    wraps the sharded solve, with the pinned totals."""
    with use_distance_backend(backend):
        instance = make_city("beijing", scale=0.5)
        with recording(Recorder()) as recorder:
            ShardedSolver(shards=4, seed=0).solve(instance)
    totals = {
        key: value
        for key, value in recorder.counters.items()
        if key.startswith(("greedy.", "fill."))
    }
    assert totals == {**_SHARDED_COUNTERS, **_SHARDED_GREEDY_SCANS[backend]}


def test_double_solve_is_deterministic():
    instance = make_city("auckland", scale=0.3)
    solver = ShardedSolver(shards=3, seed=1)
    first = solver.solve(instance)
    second = solver.solve(instance)
    assert PlanSummary.of(first.plan) == PlanSummary.of(second.plan)


def test_diagnostics_report_scaling_facts():
    instance = make_city("beijing", scale=0.3)
    solution = ShardedSolver(shards=3, seed=0).solve(instance)
    diag = solution.diagnostics
    assert diag["shards"] >= 1.0
    assert diag["fringe_users"] >= 0.0
    assert diag["repair_added"] >= 0.0


def test_rescue_recovers_events_shards_cannot_hold():
    """An event whose xi exceeds any single shard's user pool must be
    rescued by the global pass, not silently cancelled."""
    found_rescue = False
    for seed in range(8):
        instance = random_instance(
            seed, n_users=24, n_events=8, budget_range=(20.0, 50.0)
        )
        solution = ShardedSolver(shards=4, seed=seed).solve(
            instance
        )
        assert not check_plan(instance, solution.plan)
        if solution.diagnostics.get("rescue_added", 0.0) > 0.0:
            found_rescue = True
    # At least one of the seeds should exercise the rescue path; if the
    # generator changes and none do, the assertion flags the lost coverage.
    assert found_rescue


def test_utility_stays_close_to_monolithic():
    """On a real city the sharded result must stay within 2% of greedy
    (the bench-gate contract, checked here at test scale)."""
    instance = make_city("beijing", scale=0.5)
    mono = GreedySolver(seed=0).solve(instance)
    sharded = ShardedSolver(shards=4, seed=0).solve(instance)
    mono_utility = total_utility(instance, mono.plan)
    sharded_utility = total_utility(instance, sharded.plan)
    assert sharded_utility >= 0.98 * mono_utility


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        ShardedSolver(shards=0)

