"""Differential correctness harness for the incremental plan kernel.

PR 2 made every hot path depend on incrementally maintained state:
splice-delta route costs, per-event attendee indexes, lazy blocked-event
counters, write-locked kernel rows, and identity-shared caches across the
``with_*`` instance updates.  This package is the tooling that keeps that
state honest:

* :class:`InvariantAuditor` recomputes every cached quantity from scratch
  and diffs it against the live caches, producing structured
  :class:`CacheMismatch` reports;
* :func:`shadow_checks` (or the ``REPRO_SHADOW_CHECKS`` env var) wraps
  ``GlobalPlan.add``/``remove`` and ``IEPEngine.apply`` so every mutation
  is audited as it happens;
* :func:`run_fuzz` is the one differential fuzzer (``repro-gepc fuzz``):
  a single seed loop over three systems under test, each held against
  an oracle after every operation — ``engine`` (incremental IEP path
  vs. a from-scratch rebuild and the vectorized kernel vs. the scalar
  fallbacks; ``--sharded`` adds the sharded solver and batched
  platform), ``durable`` (a :class:`~repro.platform.durable
  .DurablePlatform` killed at every crash point, with and without torn
  WAL tails, recovered and diffed against an uncrashed
  :func:`run_twin`; see ``docs/durability.md``) and ``service`` (the
  real client/server loop in lockstep with an in-process oracle; see
  ``docs/service.md``);
* :class:`LoopWatchdog` heartbeats the service event loop to catch
  stalls — rides along with the service fuzz target under
  ``REPRO_SHADOW_CHECKS=1``.

See ``docs/correctness.md`` for the full guide.
"""

from repro.check.auditor import AuditReport, CacheMismatch, InvariantAuditor
from repro.check.fuzz import (
    TARGETS,
    FuzzConfig,
    FuzzReport,
    FuzzSummary,
    TwinState,
    fuzz_instance,
    run_fuzz,
    run_twin,
)
from repro.check.shadow import (
    ENV_VAR,
    ShadowCheckError,
    ShadowStats,
    maybe_shadow_checks,
    shadow_checks,
    shadow_checks_enabled,
)
from repro.check.watchdog import LoopWatchdog

__all__ = [
    "ENV_VAR",
    "TARGETS",
    "AuditReport",
    "CacheMismatch",
    "FuzzConfig",
    "FuzzReport",
    "FuzzSummary",
    "InvariantAuditor",
    "LoopWatchdog",
    "ShadowCheckError",
    "ShadowStats",
    "TwinState",
    "fuzz_instance",
    "maybe_shadow_checks",
    "run_fuzz",
    "run_twin",
    "shadow_checks",
    "shadow_checks_enabled",
]
