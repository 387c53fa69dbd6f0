"""Utility pins: the seeded GEPC solves and IEP streams must not drift.

Greedy and the IEP stream are bit-deterministic for a fixed seed, so any
change in these totals is a behaviour change, not noise.  The relative
tolerance (1e-6) only absorbs LP-backend variation in the GAP solver.
"""

import pytest

from repro.core.gepc import GAPBasedSolver, GreedySolver
from repro.datasets import make_city
from repro.platform import EBSNPlatform, OperationStream

RTOL = 1e-6


def _solve(solver, city, scale):
    return solver.solve(make_city(city, scale=scale)).utility


def _mixed_stream(city, scale, operations, seed=0):
    """Greedy publish, then ``operations`` mixed ops drawn one at a time.

    Each op is drawn against the *current* state: a pre-generated batch
    would go stale as repairs mutate the plan.
    """
    platform = EBSNPlatform(
        make_city(city, scale=scale), solver=GreedySolver(seed=seed)
    )
    platform.publish_plans()
    stream = OperationStream(seed=seed)
    for _ in range(operations):
        operation = next(
            iter(stream.mixed(platform.instance, platform.plan, 1))
        )
        platform.submit(operation)
    return platform.audit()["utility"]


@pytest.mark.parametrize(
    "run, expected",
    [
        pytest.param(
            lambda: _solve(GreedySolver(seed=0), "beijing", 0.5),
            71.476996379836,
            id="greedy-beijing-0.5",
        ),
        pytest.param(
            lambda: _solve(GAPBasedSolver(), "beijing", 0.5),
            72.35853258286605,
            id="gap-beijing-0.5",
        ),
        pytest.param(
            lambda: _mixed_stream("beijing", 0.5, 20),
            68.14804829744806,
            id="iep-mixed-20-beijing-0.5",
        ),
        pytest.param(
            lambda: _solve(GreedySolver(seed=0), "vancouver", 1.0),
            4815.480489908128,
            id="greedy-vancouver-1.0",
        ),
        pytest.param(
            lambda: _mixed_stream("vancouver", 1.0, 30),
            4794.629511738916,
            id="iep-mixed-30-vancouver-1.0",
        ),
    ],
)
def test_utility_matches_pin(run, expected):
    assert run() == pytest.approx(expected, rel=RTOL)
