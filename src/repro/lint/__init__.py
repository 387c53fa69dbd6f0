"""repro-lint: AST-based invariant linter for this repository.

PRs 2-4 made the reproduction fast by layering *disciplines* over the
paper's algorithms — splice-delta route caches, one shared budget
tolerance, lock-guarded batch queues, seeded determinism.  The runtime
shadow auditor (:mod:`repro.check`) catches violations only when a fuzz
seed happens to hit them; this package enforces the same disciplines
statically, on every line, at CI time.

Rules (see ``docs/linting.md`` for the full catalogue and rationale):

========  =========================  ======================================
RL001     cache-discipline           solver caches written only by owners
RL002     tolerance-discipline       budget comparisons use BUDGET_TOL
RL003     lock-discipline            guarded-by attrs accessed under lock
RL004     leaked-mutable-array       public APIs freeze/copy cache ndarrays
RL005     determinism                seeded RNGs; no set-order loops
RL006     obs-coverage               entry points open a repro.obs span
RL008     dense-materialisation      no dense planes outside the backend
RL009     async-blocking-discipline  no blocking call paths from async defs
RL010     lock-order-discipline      acyclic global lock-acquisition order
RL011     guarded-by-escape          RL003 + loop confinement, cross-function
========  =========================  ======================================

RL009-RL011 are *project rules*: they run over a call graph built from
every module at once (:mod:`repro.lint.callgraph`) with effect
summaries propagated to a fixpoint (:mod:`repro.lint.interproc`).

Suppress a deliberate violation inline with a reason::

    plan._plans[u] = route  # repro-lint: ignore[RL001] bit-exact transplant

Unused suppressions are themselves findings (``RL000``).
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintResult, lint_source, run_lint
from repro.lint.findings import Finding
from repro.lint.registry import RULES, Rule, register
from repro.lint.reporters import render_json, render_text, to_dict

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "RULES",
    "Rule",
    "lint_source",
    "load_config",
    "register",
    "render_json",
    "render_text",
    "run_lint",
    "to_dict",
]
