"""repro.core.kernel: the batched path, the scalar oracle, and bit-identity.

The contract under test is the one ``pytest --kernel scalar`` relies on:
the batched production kernel and the scalar oracle produce the *same
IEEE doubles* for (insertion_deltas, feasible_mask), and the greedy grab
and utility fill make the same decisions on their fast loops as on the
reference loops ``use_scalar_kernel()`` sends them to — so running under
the oracle can never change a plan.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.check import FuzzConfig, fuzz_instance
from repro.check.fuzz import NEW_EVENT_EVERY
from repro.core import kernel
from repro.core.gepc import GreedySolver
from repro.core.plan import PlanSummary
from repro.datasets import make_city
from repro.platform import EBSNPlatform, OperationStream
from repro.platform.service import REJECTION_ERRORS
from tests.conftest import random_instance

ROWS = {"scalar": kernel.scalar_row, "batched": kernel.batched_row}
BLOCKS = {"scalar": kernel.scalar_block, "batched": kernel.batched_block}
STRATEGIES = list(ROWS)


def _planned_instance(seed=0):
    """A solved instance + plan with a mix of empty and busy users."""
    instance = make_city("beijing", scale=0.3)
    solution = GreedySolver(seed=seed).solve(instance)
    return instance, solution.plan


def _override(name):
    return kernel.use_scalar_kernel() if name == "scalar" else nullcontext()


# --------------------------------------------------------------------- #
# Bit-identity: rows and blocks
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", ["batched"])
def test_rows_bit_identical_to_scalar(name):
    _, plan = _planned_instance()
    for user in range(plan.instance.n_users):
        want_deltas, want_mask = kernel.scalar_row(plan, user)
        got_deltas, got_mask = ROWS[name](plan, user)
        assert np.array_equal(got_deltas, want_deltas), (name, user)
        assert np.array_equal(got_mask, want_mask), (name, user)


@pytest.mark.parametrize("name", STRATEGIES)
def test_block_matches_rows(name):
    _, plan = _planned_instance()
    users = np.arange(plan.instance.n_users)
    deltas, mask = BLOCKS[name](plan, users)
    assert deltas.shape == (users.size, plan.instance.n_events)
    assert mask.dtype == bool
    for i, user in enumerate(users):
        row_deltas, row_mask = ROWS[name](plan, int(user))
        assert np.array_equal(deltas[i], row_deltas)
        assert np.array_equal(mask[i], row_mask)


@pytest.mark.parametrize("seed", range(4))
def test_random_instances_bit_identical(seed):
    instance = random_instance(seed, n_users=16, n_events=7)
    plan = GreedySolver(seed=seed).solve(instance).plan
    users = np.arange(instance.n_users)
    want = kernel.scalar_block(plan, users)
    got = kernel.batched_block(plan, users)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("name", STRATEGIES)
def test_solve_identical_across_strategies(name):
    """Whole solves — not just kernel rows — must not depend on the path."""
    instance = make_city("beijing", scale=0.3)
    reference = GreedySolver(seed=0).solve(instance)
    with _override(name):
        solution = GreedySolver(seed=0).solve(instance)
    assert PlanSummary.of(solution.plan) == PlanSummary.of(reference.plan)
    assert solution.cancelled == reference.cancelled


def _submit(platform, operation):
    """``(dif, rejected)`` of one submit."""
    try:
        return platform.submit(operation).dif, False
    except REJECTION_ERRORS:
        return 0, True


@pytest.mark.parametrize("seed", range(8))
def test_iep_stream_identical_under_scalar_oracle(seed):
    """Production and the oracle run one IEP stream in lockstep.

    Publish (greedy grab + fill) and every op's repair (fill re-checks,
    kernel rows and blocks) must leave the same plan, dif and rejections
    on both paths, after publish and after every op.
    """
    config = FuzzConfig()
    instance = fuzz_instance(seed, config)
    fast = EBSNPlatform(instance)
    oracle = EBSNPlatform(instance)
    fast.publish_plans()
    with kernel.use_scalar_kernel():
        oracle.publish_plans()
    assert PlanSummary.of(oracle.plan) == PlanSummary.of(fast.plan)
    stream = OperationStream(seed=seed)
    for step in range(config.operations):
        if step % NEW_EVENT_EVERY == 2:
            operation = stream.new_event(fast.instance)
        else:
            operation = next(iter(stream.mixed(fast.instance, fast.plan, 1)))
        want = _submit(fast, operation)
        with kernel.use_scalar_kernel():
            got = _submit(oracle, operation)
        assert got == want, (seed, step, operation)
        assert PlanSummary.of(oracle.plan) == PlanSummary.of(fast.plan), (
            seed,
            step,
            operation,
        )
    assert oracle.rejected_count == fast.rejected_count


def test_scalar_splice_matches_plan_splice():
    """The fast-path's python splice mirrors GlobalPlan._splice exactly."""
    instance = random_instance(3, n_users=12, n_events=6)
    plan = GreedySolver(seed=3).solve(instance).plan
    planes = kernel.SplicePlanes(instance)
    for user in range(instance.n_users):
        events = plan._plans[user]
        for event in range(instance.n_events):
            want = plan._splice(user, events, event)
            got = planes.splice(events, user, event)
            assert got == want, (user, event)


# --------------------------------------------------------------------- #
# The scoped override
# --------------------------------------------------------------------- #


def test_use_kernel_restores_previous(monkeypatch):
    """``use_scalar_kernel()`` routes dispatch, nests, and restores."""
    _, plan = _planned_instance()
    calls = []
    monkeypatch.setattr(
        kernel,
        "scalar_row",
        lambda p, u: calls.append(u) or kernel.batched_row(p, u),
    )
    before = kernel.scalar_kernel_active()
    with kernel.use_scalar_kernel():
        assert kernel.scalar_kernel_active()
        with kernel.use_scalar_kernel():
            assert kernel.scalar_kernel_active()
        assert kernel.scalar_kernel_active()
        kernel.kernel_row(plan, 3)
        assert calls == [3]
    assert kernel.scalar_kernel_active() == before
    with pytest.raises(RuntimeError):
        with kernel.use_scalar_kernel():
            raise RuntimeError("unwinds")
    assert kernel.scalar_kernel_active() == before
    kernel.kernel_row(plan, 4)  # the oracle only under --kernel scalar
    assert calls == ([3, 4] if before else [3])


def test_kernel_rows_are_writable_fresh_arrays():
    """Both paths hand back arrays the plan may own and mutate."""
    _, plan = _planned_instance()
    for name in STRATEGIES:
        deltas, mask = ROWS[name](plan, 0)
        assert deltas.flags.writeable, name
        assert mask.flags.writeable, name
        deltas2, _ = ROWS[name](plan, 0)
        assert deltas2 is not deltas, name
