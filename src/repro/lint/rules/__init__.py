"""Rule modules — importing this package populates the registry."""

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    rl001_cache,
    rl002_tolerance,
    rl004_leaks,
    rl005_determinism,
    rl006_obs,
    rl008_dense,
    rl009_async,
    rl011_loop_confined,
)
from repro.lint.rules.rl001_cache import CacheDiscipline
from repro.lint.rules.rl002_tolerance import ToleranceDiscipline
from repro.lint.rules.rl004_leaks import LeakedMutableArray
from repro.lint.rules.rl005_determinism import Determinism
from repro.lint.rules.rl006_obs import ObsCoverage
from repro.lint.rules.rl008_dense import DenseMaterialisationDiscipline
from repro.lint.rules.rl009_async import AsyncBlockingDiscipline
from repro.lint.rules.rl011_loop_confined import LoopConfinement

__all__ = [
    "CacheDiscipline",
    "ToleranceDiscipline",
    "LeakedMutableArray",
    "Determinism",
    "ObsCoverage",
    "DenseMaterialisationDiscipline",
    "AsyncBlockingDiscipline",
    "LoopConfinement",
]
