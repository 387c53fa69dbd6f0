"""A loop watchdog: catch blocking work that reached the event loop.

RL009 proves statically that no ``async def`` reaches a known blocking
primitive without an executor hop.  :class:`LoopWatchdog` is the dynamic
cross-check: a daemon thread heartbeats the service event loop via
``call_soon_threadsafe`` and records any beat whose round-trip exceeds
the stall threshold.  Stalls are advisory (CI runners stutter).

The service fuzz target runs it under ``REPRO_SHADOW_CHECKS=1``::

    REPRO_SHADOW_CHECKS=1 repro-gepc fuzz --service --seeds 10
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.obs import get_recorder


class LoopWatchdog:
    """Heartbeat an event loop from a daemon thread; record stalls.

    Every ``interval`` seconds a no-op callback is posted with
    ``call_soon_threadsafe``; if its round-trip exceeds ``threshold``
    the beat is recorded as a stall.  ``stop()`` joins the thread.
    """

    def __init__(
        self,
        loop: Any,
        threshold: float = 0.5,
        interval: float = 0.1,
        sink: list[str] | None = None,
    ) -> None:
        self.loop = loop
        self.threshold = threshold
        self.interval = interval
        self.stalls: list[str] = sink if sink is not None else []
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "LoopWatchdog":
        self._thread = threading.Thread(
            target=self._monitor, name="repro-loop-watchdog",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def _monitor(self) -> None:
        obs = get_recorder()
        while not self._stopping.wait(self.interval):
            beat = threading.Event()
            started = time.monotonic()
            try:
                self.loop.call_soon_threadsafe(beat.set)
            except RuntimeError:  # loop already closed
                return
            beat.wait(timeout=self.threshold * 4)
            delay = time.monotonic() - started
            if delay > self.threshold:
                obs.count("check.watchdog.stalls")
                self.stalls.append(
                    f"event-loop stall: heartbeat took {delay:.3f}s "
                    f"(threshold {self.threshold:.3f}s)"
                )


__all__ = ["LoopWatchdog"]
