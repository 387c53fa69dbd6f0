"""Shared pieces of every workload: percentiles, run records, host info."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mib() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    """What one pass over a workload measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    publish_s: list[float] = field(default_factory=list)
    publish_utilities: list = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    stream_s: float = 0.0
    acked: int = 0
    recover_s: list[float] = field(default_factory=list)
    utility: float = 0.0
    dif: float = 0.0
    peak_rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    # Per-layer numbers a workload reads outside the spans (tile cache
    # accounting, WAL size, load-generator lateness, ...).
    layer: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "setup_s": (median(self.setup_s), "s"),
            "publish_s": (median(self.publish_s), "s"),
            "op_p50_ms": (percentile(self.write_s, 0.50) * 1e3, "ms"),
            "op_p90_ms": (percentile(self.write_s, 0.90) * 1e3, "ms"),
            "op_p99_ms": (percentile(self.write_s, 0.99) * 1e3, "ms"),
            "ops_per_s": (self.acked / self.stream_s, "1/s"),
            "read_p50_ms": (percentile(self.read_s, 0.50) * 1e3, "ms"),
            "read_p99_ms": (percentile(self.read_s, 0.99) * 1e3, "ms"),
            "recover_s": (median(self.recover_s), "s"),
            "peak_rss_mib": (self.peak_rss_mib, "MiB"),
            "utility": (self.utility, "utility"),
            "dif": (self.dif, "count"),
            "ack_ratio": (
                (self.attempted - self.failed) / self.attempted, "ratio"
            ),
        }


def host_fingerprint(state_dir: Path) -> dict[str, str]:
    """CPU, core count, interpreter, numpy, and the state filesystem."""
    import numpy

    return {
        "cpu": _cpu_model(),
        "nproc": str(os.cpu_count() or 1),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "state_fs": _filesystem_of(state_dir),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem_of(path: Path) -> str:
    """Type of the mount holding ``path`` (longest mount-point prefix)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, kind = mount, parts[2]
    except OSError:
        pass
    return kind
