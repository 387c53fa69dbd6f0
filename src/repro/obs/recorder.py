"""The recorder: named counters, gauges, and nested phase spans.

Two recorder implementations share one duck-typed API:

* :class:`Recorder` — the real thing.  Counters sum, gauges keep the last
  value, and spans aggregate wall-clock time (monotonic ``perf_counter``)
  per *path*: nested spans produce slash-joined keys (``solve/fill``), so
  one aggregate entry exists per unique call-stack position, with call
  counts and total seconds.  The open-span path lives in a
  :class:`contextvars.ContextVar`, so each asyncio task and each thread
  nests only its own spans.
* :class:`NullRecorder` — the default.  Every method is a no-op and
  ``span()`` returns one shared, reusable context manager, so instrumented
  hot loops pay only an attribute call when tracing is off.

The *active* recorder is held in a :class:`contextvars.ContextVar`, making
:func:`recording` safe under threads and asyncio tasks::

    from repro.obs import get_recorder, recording

    with recording() as rec:
        solver.solve(instance)          # instrumented code records into rec
    print(rec.counters, rec.span_stats)

Instrumented code only ever does::

    obs = get_recorder()
    with obs.span("greedy.grab"):
        obs.count("greedy.candidates", evaluated)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass


@dataclass
class SpanStats:
    """Aggregate timing of one span path."""

    calls: int = 0
    seconds: float = 0.0


class _NullSpan:
    """A reusable do-nothing context manager (the off-switch fast path)."""

    __slots__ = ()
    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder API with every operation compiled down to nothing."""

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def counter_value(self, name: str) -> float:
        return 0.0


NULL_RECORDER = NullRecorder()


class _Span:
    """One live span: times itself and aggregates into the recorder."""

    __slots__ = ("_recorder", "_name", "_start", "_token", "elapsed")

    def __init__(self, recorder: "Recorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._start = 0.0
        self._token: Token | None = None
        self.elapsed = 0.0

    def __enter__(self) -> "_Span":
        self._token = self._recorder._push(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.elapsed = time.perf_counter() - self._start
        assert self._token is not None
        self._recorder._pop(self._token, self.elapsed)
        return False


class Recorder:
    """Collects counters, gauges, and nested span timings."""

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.span_stats: dict[str, SpanStats] = {}
        # The open spans of the current task or thread: each asyncio
        # task and each thread nests only its own spans.
        self._path: ContextVar[tuple[str, ...]] = ContextVar(
            "repro_obs_span_path", default=()
        )

    # ------------------------------------------------------------------ #
    # Recording API (shared with NullRecorder)
    # ------------------------------------------------------------------ #

    def span(self, name: str) -> _Span:
        """A context manager timing one phase; nests into slash paths."""
        return _Span(self, name)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value (last write wins)."""
        self.gauges[name] = float(value)

    def counter_value(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #

    def _push(self, name: str) -> Token:
        return self._path.set(self._path.get() + (name,))

    def _pop(self, token: Token, elapsed: float) -> None:
        path = "/".join(self._path.get())
        self._path.reset(token)
        stats = self.span_stats.get(path)
        if stats is None:
            stats = self.span_stats[path] = SpanStats()
        stats.calls += 1
        stats.seconds += elapsed

    @property
    def current_path(self) -> str:
        """The slash-joined path of the innermost open span ('' at top)."""
        return "/".join(self._path.get())

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """A JSON-serialisable dump of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": {
                path: {"calls": stats.calls, "seconds": stats.seconds}
                for path, stats in self.span_stats.items()
            },
        }

    @staticmethod
    def from_snapshot(data: dict) -> "Recorder":
        """Rebuild a recorder from :meth:`snapshot` output (round-trip)."""
        recorder = Recorder()
        recorder.counters = {
            str(k): float(v) for k, v in data.get("counters", {}).items()
        }
        recorder.gauges = {
            str(k): float(v) for k, v in data.get("gauges", {}).items()
        }
        for path, stats in data.get("spans", {}).items():
            recorder.span_stats[str(path)] = SpanStats(
                calls=int(stats["calls"]), seconds=float(stats["seconds"])
            )
        return recorder


_ACTIVE: ContextVar[NullRecorder | Recorder] = ContextVar(
    "repro_obs_recorder", default=NULL_RECORDER
)


def get_recorder() -> NullRecorder | Recorder:
    """The active recorder (the shared no-op unless tracing is on)."""
    return _ACTIVE.get()


@contextmanager
def recording(recorder: Recorder | None = None):
    """Install ``recorder`` (or a fresh one) as the active recorder."""
    recorder = recorder if recorder is not None else Recorder()
    token = _ACTIVE.set(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE.reset(token)
