"""Runtime lockdep validator tests (repro.check.lockdep).

Covers the instrumented factories (edge recording, re-entrancy,
restoration on exit), compatibility with the threading primitives built
on locks, the static cross-check (declared-order violations, dynamic
ABBA cycles), the loop-stall watchdog, and the env-gated entry point.
"""

import asyncio
import queue
import threading
import time

from repro.check.lockdep import (
    LockDep,
    LoopWatchdog,
    lockdep_checks,
    maybe_lockdep,
)


def test_factories_record_and_restore():
    real_lock, real_rlock = threading.Lock, threading.RLock
    with lockdep_checks() as dep:
        a = threading.Lock()
        b = threading.Lock()
        with a:
            with b:
                pass
    assert threading.Lock is real_lock
    assert threading.RLock is real_rlock
    assert dep.locks == 2
    assert dep.acquisitions == 2
    # One order edge: a held while taking b.
    ((first, second),) = dep.edges
    assert dep.edges[(first, second)] == 1


def test_reentrant_lock_records_no_self_edge():
    with lockdep_checks() as dep:
        r = threading.RLock()
        with r:
            with r:
                pass
    assert dep.edges == {}
    assert dep.acquisitions == 2


def test_install_is_not_reentrant():
    dep = LockDep()
    dep.install()
    try:
        try:
            dep.install()
        except RuntimeError as err:
            assert "already installed" in str(err)
        else:  # pragma: no cover
            raise AssertionError("second install must refuse")
    finally:
        dep.uninstall()


def test_threading_primitives_survive_instrumentation():
    # Event, Condition, and Queue all build on the patched factories;
    # the wrapper must forward the private surface they poke at.
    with lockdep_checks():
        event = threading.Event()
        event.set()
        assert event.wait(timeout=1)

        fifo = queue.Queue()
        fifo.put("x")
        assert fifo.get(timeout=1) == "x"

        condition = threading.Condition(threading.Lock())
        with condition:
            condition.notify_all()


def test_cross_thread_acquisitions_do_not_leak_held_state():
    with lockdep_checks() as dep:
        a = threading.Lock()
        b = threading.Lock()

        def other():
            with b:
                pass

        with a:
            worker = threading.Thread(target=other)
            worker.start()
            worker.join()
    # start()/join() take stdlib-internal locks while ``a`` is held, so
    # edges into threading.py are expected; the point is the worker's
    # acquisition of ``b`` records no a->b edge (held stacks are
    # per-thread), so no edge has both endpoints in this file.
    assert not any(
        first[0] == __file__ and second[0] == __file__
        for first, second in dep.edges
    ), dep.edges


def test_declared_order_violation_reported():
    with lockdep_checks() as dep:
        outer = threading.Lock()
        inner = threading.Lock()
        with inner:
            with outer:
                pass
    ((inner_site, outer_site),) = dep.edges
    table = {"repro.fixture:Box._outer": outer_site,
             "repro.fixture:Box._inner": inner_site}
    summary = dep.summarize(
        declared_order=[
            "repro.fixture:Box._outer",
            "repro.fixture:Box._inner",
        ],
        lock_table=table,
    )
    assert summary.identified == 1
    assert len(summary.violations) == 1
    assert "declared-order violation" in summary.violations[0]
    assert not summary.ok


def test_declared_order_respected_is_clean():
    with lockdep_checks() as dep:
        outer = threading.Lock()
        inner = threading.Lock()
        with outer:
            with inner:
                pass
    ((outer_site, inner_site),) = dep.edges
    table = {"repro.fixture:Box._outer": outer_site,
             "repro.fixture:Box._inner": inner_site}
    summary = dep.summarize(
        declared_order=[
            "repro.fixture:Box._outer",
            "repro.fixture:Box._inner",
        ],
        lock_table=table,
    )
    assert summary.violations == []
    assert summary.cycles == []
    assert summary.ok


def test_dynamic_abba_cycle_detected_without_declared_order():
    with lockdep_checks() as dep:
        a = threading.Lock()
        b = threading.Lock()
        with a:
            with b:
                pass
        with b:
            with a:
                pass
    sites = {site for pair in dep.edges for site in pair}
    assert len(sites) == 2
    site_a, site_b = sorted(sites)
    summary = dep.summarize(
        declared_order=[],
        lock_table={"m:A": site_a, "m:B": site_b},
    )
    assert len(summary.cycles) == 1
    assert "dynamic lock-order cycle" in summary.cycles[0]
    assert not summary.ok


def test_unknown_sites_do_not_produce_findings():
    with lockdep_checks() as dep:
        a = threading.Lock()
        b = threading.Lock()
        with a:
            with b:
                pass
    summary = dep.summarize(declared_order=["x", "y"], lock_table={})
    assert summary.edges == 1
    assert summary.identified == 0
    assert summary.ok


def test_watchdog_detects_a_blocked_loop():
    loop = asyncio.new_event_loop()
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()
    try:
        dog = LoopWatchdog(loop, threshold=0.05, interval=0.01).start()
        blocked = threading.Event()
        loop.call_soon_threadsafe(lambda: (time.sleep(0.4), blocked.set()))
        assert blocked.wait(timeout=5)
        dog.stop()
        assert dog.stalls
        assert "event-loop stall" in dog.stalls[0]
    finally:
        loop.call_soon_threadsafe(loop.stop)
        runner.join(timeout=5)
        loop.close()


def test_watchdog_quiet_on_a_responsive_loop():
    loop = asyncio.new_event_loop()
    runner = threading.Thread(target=loop.run_forever, daemon=True)
    runner.start()
    try:
        dog = LoopWatchdog(loop, threshold=0.5, interval=0.01).start()
        time.sleep(0.2)
        dog.stop()
        assert dog.stalls == []
    finally:
        loop.call_soon_threadsafe(loop.stop)
        runner.join(timeout=5)
        loop.close()


def test_maybe_lockdep_is_env_gated(monkeypatch):
    monkeypatch.delenv("REPRO_SHADOW_CHECKS", raising=False)
    with maybe_lockdep() as dep:
        assert dep is None
    monkeypatch.setenv("REPRO_SHADOW_CHECKS", "1")
    real = threading.Lock
    with maybe_lockdep() as dep:
        assert dep is not None
        assert threading.Lock is not real
    assert threading.Lock is real


def test_service_fuzz_leg_reports_lockdep(monkeypatch):
    # One tiny seed through the real service with instrumentation on:
    # the declared _state_lock -> _queue_lock order must be observed
    # cleanly (this is the CI gate in miniature).
    monkeypatch.setenv("REPRO_SHADOW_CHECKS", "1")
    from repro.check import FuzzConfig, run_fuzz

    summary = run_fuzz(
        [0], FuzzConfig(operations=4, n_users=8, n_events=4), "service"
    )
    assert summary.ok
    assert summary.lockdep is not None
    assert summary.lockdep.locks > 0
    assert summary.lockdep.acquisitions > 0
    assert summary.lockdep.violations == []
    assert summary.lockdep.cycles == []
