"""Experiment runner shared by every table/figure benchmark.

Each benchmark measures the same triple the paper reports — total utility,
wall-clock time, and peak memory — for one (algorithm, workload) cell.
``REPRO_SCALE`` selects the workload size:

* ``quick`` (default) — minutes-scale grids for pure-Python runs,
* ``paper`` — the paper's full Table IV / Table V sizes.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.bench.memory import peak_memory_mb, peak_rss_delta_mb
from repro.obs import Recorder, get_recorder


@dataclass
class ExperimentResult:
    """One measured cell: value plus cost metrics."""

    label: str
    utility: float
    seconds: float
    memory_mb: float
    extra: dict[str, float] = field(default_factory=dict)


def measure(
    label: str, call: Callable[[], Any], trace_memory: bool = True
) -> tuple[Any, ExperimentResult]:
    """Run ``call`` once, capturing time and (optionally) allocation peak.

    ``call`` must return an object with a ``utility`` attribute (GEPC
    solutions and IEP results both do) or a plain float.

    Timing goes through the shared :mod:`repro.obs` recorder: with a
    recorder active the run shows up as a ``bench.<label>`` span (nesting
    the solver's own phase spans under it); otherwise a detached local
    recorder provides the monotonic timing alone.

    ``trace_memory=False`` skips the tracemalloc wrapper and falls back to
    the OS peak-RSS delta (``ru_maxrss`` growth across the call, see
    :func:`repro.bench.memory.peak_rss_delta_mb`).  Per-malloc tracing
    slows allocation-heavy vectorized code by an order of magnitude, so
    pure wall-clock workloads must opt out to measure the real hot path;
    they still get a real — if coarser — memory number instead of the
    former hard-coded 0.0.
    """
    recorder = get_recorder()
    timer = recorder if recorder.enabled else Recorder()
    span = timer.span(f"bench.{label}")
    with span:
        if trace_memory:
            outcome, memory = peak_memory_mb(call)
        else:
            outcome, memory = peak_rss_delta_mb(call)
    recorder.gauge(f"bench.{label}.peak_mib", memory)
    utility = outcome if isinstance(outcome, (int, float)) else outcome.utility
    return outcome, ExperimentResult(
        label=label,
        utility=float(utility),
        seconds=span.elapsed,
        memory_mb=memory,
    )


def scale_from_env() -> str:
    """The benchmark scale: ``quick`` (default) or ``paper``."""
    scale = os.environ.get("REPRO_SCALE", "quick").lower()
    if scale not in {"quick", "paper"}:
        raise ValueError(
            f"REPRO_SCALE must be 'quick' or 'paper', got {scale!r}"
        )
    return scale
