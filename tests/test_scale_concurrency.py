"""Concurrent hammering of BatchedPlatform: no torn reads, serial-equal.

N writer threads enqueue interleaved operations while reader threads
continuously snapshot and query plans.  The platform must (a) never
expose a half-applied batch to a reader, (b) end with zero feasibility
violations, and (c) end in exactly the state produced by serially
replaying its own applied-operation log.  Run in CI both plain and with
``REPRO_SHADOW_CHECKS=1`` (every mutation shadow-audited).
"""

import threading

import pytest

from repro.core.iep.operations import BudgetChange, EtaIncrease, XiDecrease
from repro.core.plan import PlanSummary
from repro.datasets import MeetupConfig, generate_ebsn
from repro.platform import EBSNPlatform
from repro.scale import BatchedPlatform

N_WRITERS = 4
N_READERS = 2
OPS_PER_WRITER = 25


@pytest.fixture()
def instance():
    return generate_ebsn(MeetupConfig(n_users=48, n_events=10, seed=13))


def _writer_ops(instance, writer: int):
    """A deterministic per-writer operation mix, safe to apply in any
    interleaving: budget raises, eta raises, and xi relaxations are
    valid regardless of what other writers did first."""
    operations = []
    for i in range(OPS_PER_WRITER):
        user = (writer * 7 + i) % instance.n_users
        event = (writer * 3 + i) % instance.n_events
        kind = i % 3
        if kind == 0:
            operations.append(BudgetChange(user, 40.0 + writer + i * 0.25))
        elif kind == 1:
            operations.append(
                EtaIncrease(event, instance.events[event].upper + 1 + i)
            )
        else:
            operations.append(XiDecrease(event, 0))
    return operations


def test_hammer_no_torn_reads_and_serial_equivalence(instance):
    batched = BatchedPlatform(instance, max_pending=8)
    batched.publish_plans()
    errors: list[str] = []
    stop = threading.Event()

    def write(writer: int) -> None:
        try:
            for operation in _writer_ops(instance, writer):
                batched.enqueue(operation)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"writer {writer}: {exc!r}")

    def read() -> None:
        try:
            while not stop.is_set():
                snapshot = batched.snapshot()
                # A torn read would surface as a transient violation: the
                # audit runs under the state lock, so it must always see
                # a complete batch boundary.
                if snapshot["violations"] != 0:
                    errors.append(f"torn read: {snapshot}")
                    return
                batched.plan_for(0)
                batched.attendees_of(0)
                batched.stats()
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"reader: {exc!r}")

    writers = [
        threading.Thread(target=write, args=(w,)) for w in range(N_WRITERS)
    ]
    readers = [threading.Thread(target=read) for _ in range(N_READERS)]
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join()
    batched.drain()
    stop.set()
    for thread in readers:
        thread.join()

    assert not errors, errors[:5]
    final = batched.snapshot()
    assert final["violations"] == 0
    assert final["queue_depth"] == 0
    stats = batched.stats()
    assert stats["enqueued"] == N_WRITERS * OPS_PER_WRITER
    assert stats["applied"] + stats["rejected"] + stats["folded"] == stats[
        "enqueued"
    ]

    # Serial replay of the applied log reproduces the concurrent state.
    serial = EBSNPlatform(instance)
    serial.publish_plans()
    for operation in batched.applied_log:
        serial.submit(operation)
    assert PlanSummary.of(serial.plan) == PlanSummary.of(batched.plan)
    assert serial.audit()["utility"] == pytest.approx(final["utility"])


def test_concurrent_flush_calls_are_safe(instance):
    """Many threads calling flush() concurrently must each observe a
    consistent batch (no double-apply, no lost operations)."""
    batched = BatchedPlatform(instance, max_pending=10_000)
    batched.publish_plans()
    for user in range(instance.n_users):
        batched.enqueue(BudgetChange(user, 50.0))
    results = []
    lock = threading.Lock()

    def flush() -> None:
        result = batched.flush()
        with lock:
            results.append(result)

    threads = [threading.Thread(target=flush) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    applied = sum(len(result.applied) for result in results)
    assert applied == instance.n_users
    assert batched.queue_depth() == 0
    assert batched.snapshot()["violations"] == 0


def test_interleaved_enqueue_during_flush(instance):
    """Writers racing a drain(): every operation is either applied,
    rejected, or folded — none vanish."""
    batched = BatchedPlatform(instance, max_pending=5)
    batched.publish_plans()

    def write(offset: int) -> None:
        for i in range(30):
            user = (offset + i) % instance.n_users
            batched.enqueue(BudgetChange(user, 30.0 + i))

    threads = [threading.Thread(target=write, args=(w,)) for w in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    batched.drain()
    stats = batched.stats()
    assert stats["enqueued"] == 90
    assert stats["applied"] + stats["rejected"] + stats["folded"] == 90
    assert batched.snapshot()["violations"] == 0

