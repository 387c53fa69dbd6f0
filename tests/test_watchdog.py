"""Loop watchdog tests (repro.check.watchdog): stall detection, and the
service fuzz target running it under ``REPRO_SHADOW_CHECKS=1``."""

import asyncio
import threading
import time

from repro.check import FuzzConfig, run_fuzz
from repro.check.watchdog import LoopWatchdog


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


def test_service_fuzz_watchdog_is_env_gated(monkeypatch):
    config = FuzzConfig(operations=4, n_users=8, n_events=4)
    monkeypatch.delenv("REPRO_SHADOW_CHECKS", raising=False)
    summary = run_fuzz([0], config, "service")
    assert summary.ok
    assert summary.stalls is None


def test_service_fuzz_runs_the_watchdog_under_shadow_checks(monkeypatch):
    # One tiny seed through the real service with the watchdog on: the
    # run stays correct and reports its (advisory) stall list.
    monkeypatch.setenv("REPRO_SHADOW_CHECKS", "1")
    summary = run_fuzz(
        [0], FuzzConfig(operations=4, n_users=8, n_events=4), "service"
    )
    assert summary.ok
    assert summary.stalls is not None
    assert all("event-loop stall" in s for s in summary.stalls)
