"""Rule modules — importing this package populates the registry."""

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    rl001_cache,
    rl002_tolerance,
    rl003_locks,
    rl004_leaks,
    rl005_determinism,
    rl006_obs,
    rl008_dense,
    rl009_async,
    rl010_lockorder,
    rl011_guard_escape,
)
from repro.lint.rules.rl001_cache import CacheDiscipline
from repro.lint.rules.rl002_tolerance import ToleranceDiscipline
from repro.lint.rules.rl003_locks import LockDiscipline
from repro.lint.rules.rl004_leaks import LeakedMutableArray
from repro.lint.rules.rl005_determinism import Determinism
from repro.lint.rules.rl006_obs import ObsCoverage
from repro.lint.rules.rl008_dense import DenseMaterialisationDiscipline
from repro.lint.rules.rl009_async import AsyncBlockingDiscipline
from repro.lint.rules.rl010_lockorder import LockOrderDiscipline
from repro.lint.rules.rl011_guard_escape import GuardedByEscape

__all__ = [
    "CacheDiscipline",
    "ToleranceDiscipline",
    "LockDiscipline",
    "LeakedMutableArray",
    "Determinism",
    "ObsCoverage",
    "DenseMaterialisationDiscipline",
    "AsyncBlockingDiscipline",
    "LockOrderDiscipline",
    "GuardedByEscape",
]
