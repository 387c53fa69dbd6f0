"""The differential fuzzer (``repro-gepc fuzz``): one runner, three targets.

For each seed the runner generates a small synthetic Meetup instance
(:func:`fuzz_instance`), drives a seeded atomic-operation stream through
one *system under test*, and cross-checks it against an oracle.  The
seed loop, the report, the summary and the ``check.fuzz.*`` counters
are shared; each target contributes only its checks:

``engine`` (``repro-gepc fuzz``)
    Greedy-solve, then apply the stream through the IEP engine.  After
    *every* operation: the owned-user ``dif`` vs. a full scan; a full
    invariant audit (the carried utility total included); incremental vs. a
    from-scratch rebuild (``Instance.rebuilt()`` + a fresh
    :class:`GlobalPlan`) on utility and the ``check_plan`` verdict;
    vectorized kernel rows vs. the scalar cold-cache fallback; and
    route-cost drift, re-pinned via :meth:`GlobalPlan.repin_route_cost`
    past the re-pin tolerance.  The ``sharded`` variant (``--sharded``)
    additionally checks the sharded solver and the batched platform
    against their monolithic/serial counterparts on the final state.
``durable`` (``--durable``)
    Run an uncrashed :class:`DurablePlatform` twin recording its state
    after every seq, then rerun the same submit loop killed by a
    :class:`CrashInjector` at every crash point x {clean, torn WAL
    tail}.  The recovered state must be auditor-clean, bit-identical to
    the twin at the recovered seq, and drop a torn tail record.
``service`` (``--service``)
    Drive the stream through the real client/server loop (JSON wire
    codec, HTTP and WebSocket alternating per op, the tenant worker,
    the batched/durable stack) in lockstep with an in-process
    :class:`EBSNPlatform` oracle: same accept/reject verdict and
    bit-identical utility per frame, then equal plan summary and
    applied log at the end.  Between submits, ``plan``/``attendees``/
    ``summary`` frames are pipelined on a second connection, so reads
    overlap writes; each answer must equal the oracle's state at the
    ``seq`` it echoes.  Under ``REPRO_SHADOW_CHECKS=1`` a
    :class:`~repro.check.watchdog.LoopWatchdog` heartbeats the loop.

Everything is seeded: a failure prints the one-line command that
replays exactly its seed, sizes and target.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.check.auditor import CacheMismatch, InvariantAuditor
from repro.check.shadow import shadow_checks_enabled
from repro.check.watchdog import LoopWatchdog
from repro.core.constraints import check_plan
from repro.core.gepc.greedy import GreedySolver
from repro.core.iep.engine import IEPEngine
from repro.core.iep.operations import AtomicOperation, EtaDecrease
from repro.core.metrics import total_utility
from repro.core.model import Instance
from repro.core.plan import GlobalPlan, PlanSummary
from repro.core.tolerances import (
    AUDIT_FLOAT_TOL,
    BUDGET_TOL,
    ROUTE_DRIFT_REPIN_TOL,
)
from repro.datasets.meetup import MeetupConfig, generate_ebsn
from repro.obs import get_recorder
from repro.platform.durable import (
    CRASH_POINTS,
    CrashInjector,
    DurablePlatform,
    InjectedCrash,
    RecoveryError,
    RecoveryReport,
)
from repro.platform.oplog import operation_to_dict
from repro.platform.service import REJECTION_ERRORS, EBSNPlatform
from repro.platform.stream import OperationStream
from repro.service.client import ServiceClient, WebSocketClient
from repro.service.server import ServiceThread

# Instance shape shared by every target.
CONFLICT_RATIO = 0.35
N_GROUPS = 4
# engine: a NewEvent every NEW_EVENT_EVERY steps gives the
# with_new_event append path coverage (the mixed stream draws only
# in-place operations); --sharded solves with SHARD_COUNT shards and
# enqueues BATCH_SIZE operations per batched flush.
NEW_EVENT_EVERY = 5
SHARD_COUNT = 3
BATCH_SIZE = 4
# durable/service: small cadences so snapshots land mid-stream and
# recovery exercises snapshot+replay, not just replay.  No fsync: the
# "disk" is a temp dir that dies with the process; atomicity is still
# exercised.
DURABLE_SNAPSHOT_EVERY = 4
SERVICE_SNAPSHOT_EVERY = 8
DURABLE_FSYNC = False


@dataclass(frozen=True)
class FuzzConfig:
    """The sizes of one fuzzing run (identical across seeds and targets)."""

    operations: int = 12
    n_users: int = 24
    n_events: int = 10


@dataclass
class FuzzReport:
    """One fuzzed seed (one crash scenario, for ``durable``).

    ``stats`` holds the target's own numbers (:class:`EngineStats`,
    :class:`CrashStats`, or ``None``).
    """

    seed: int
    label: str
    operations: int = 0
    checks: int = 0
    mismatches: list[CacheMismatch] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    stats: Any = None

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.violations


@dataclass
class FuzzSummary:
    """Aggregate over every report of one :func:`run_fuzz` call."""

    target: str = "engine"
    reports: list[FuzzReport] = field(default_factory=list)
    #: Advisory event-loop stalls, when the service run was watched
    #: (``REPRO_SHADOW_CHECKS=1``).
    stalls: list[str] | None = None

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    @property
    def seeds(self) -> int:
        return len({report.seed for report in self.reports})

    @property
    def operations(self) -> int:
        return sum(report.operations for report in self.reports)

    @property
    def checks(self) -> int:
        return sum(report.checks for report in self.reports)

    @property
    def mismatches(self) -> list[CacheMismatch]:
        return [m for report in self.reports for m in report.mismatches]

    @property
    def violations(self) -> list[str]:
        return [v for report in self.reports for v in report.violations]

    def failures(self) -> list[FuzzReport]:
        return [report for report in self.reports if not report.ok]

    def total(self, stat: str) -> float:
        return sum(getattr(report.stats, stat) for report in self.reports)

    def peak(self, stat: str) -> float:
        return max(
            (getattr(report.stats, stat) for report in self.reports),
            default=0.0,
        )

    def columns(self) -> list[tuple[str, object]]:
        """``(header, value)`` pairs of the one-row result table."""
        return [
            ("seeds", self.seeds),
            ("operations", self.operations),
            ("checks", self.checks),
            ("mismatches", len(self.mismatches)),
            ("violations", len(self.violations)),
        ] + [
            (header, stat(self))
            for header, stat in TARGETS[self.target].columns
        ]


#: ``(seed, config, session env) -> reports`` for one target.
SeedRun = Callable[[int, FuzzConfig, Any], list[FuzzReport]]
Column = tuple[str, Callable[[FuzzSummary], float]]


def _no_session(summary: FuzzSummary) -> AbstractContextManager[Any]:
    return nullcontext()


@dataclass(frozen=True)
class Target:
    """One system under test: its seed run and its extra table columns.

    ``session(summary)`` is entered once around the whole seed loop and
    yields the environment every seed run receives.
    """

    title: str
    fuzz_seed: SeedRun
    columns: tuple[Column, ...] = ()
    session: Callable[[FuzzSummary], AbstractContextManager[Any]] = (
        _no_session
    )


def fuzz_instance(seed: int, config: FuzzConfig) -> Instance:
    """The spec-deterministic Meetup instance every target fuzzes."""
    return generate_ebsn(
        MeetupConfig(
            n_users=config.n_users,
            n_events=config.n_events,
            n_groups=N_GROUPS,
            conflict_ratio=CONFLICT_RATIO,
            seed=seed,
        )
    )


def run_fuzz(
    seeds: Iterable[int],
    config: FuzzConfig | None = None,
    target: str = "engine",
) -> FuzzSummary:
    """Fuzz every seed against ``target`` (a :data:`TARGETS` key).

    Emits ``check.fuzz.*`` counters per seed and one gauge per target
    column at the end.
    """
    obs = get_recorder()
    config = config or FuzzConfig()
    sut = TARGETS[target]
    summary = FuzzSummary(target=target)
    with obs.span("check.fuzz"), sut.session(summary) as env:
        for seed in seeds:
            with obs.span("seed"):
                reports = sut.fuzz_seed(seed, config, env)
            summary.reports.extend(reports)
            obs.count("check.fuzz.seeds")
            for name, value in (
                ("scenarios", len(reports)),
                ("operations", sum(r.operations for r in reports)),
                ("checks", sum(r.checks for r in reports)),
                ("mismatches", sum(len(r.mismatches) for r in reports)),
                ("violations", sum(len(r.violations) for r in reports)),
            ):
                obs.count(f"check.fuzz.{name}", value)
    for header, stat in sut.columns:
        obs.gauge("check.fuzz." + header.replace(" ", "_"), stat(summary))
    return summary


# --------------------------------------------------------------------- #
# engine: incremental IEP engine vs. from-scratch rebuilds
# --------------------------------------------------------------------- #


@dataclass
class EngineStats:
    max_drift: float = 0.0
    repins: int = 0
    total_dif: int = 0
    final_utility: float = 0.0
    # Sharded-vs-monolithic utility ratio (1.0 outside --sharded).
    # Recorded for trend inspection; correctness is gated by the
    # feasibility/determinism checks, not by this number.
    sharded_utility_ratio: float = 1.0


def _rebuild_state(
    instance: Instance, plan: GlobalPlan
) -> tuple[Instance, GlobalPlan]:
    """The from-scratch rerun baseline: same raw data, no carried caches."""
    fresh_instance = instance.rebuilt()
    fresh_plan = GlobalPlan(fresh_instance)
    for user, events in plan:
        for event in events:
            fresh_plan.add(user, event)
    return fresh_instance, fresh_plan


def _check_differential(
    instance: Instance,
    plan: GlobalPlan,
    step: int,
    report: FuzzReport,
) -> None:
    """Incremental state vs. a from-scratch rebuild of the same state."""
    fresh_instance, fresh_plan = _rebuild_state(instance, plan)
    report.checks += 2
    incremental = total_utility(instance, plan)
    rebuilt = total_utility(fresh_instance, fresh_plan)
    if incremental != rebuilt:
        report.mismatches.append(
            CacheMismatch(
                kind="differential_utility",
                cached=incremental,
                expected=rebuilt,
                detail=f"step {step}: incremental vs from-scratch utility",
            )
        )
    incremental_verdict = sorted(
        str(v) for v in check_plan(instance, plan)
    )
    rebuilt_verdict = sorted(
        str(v) for v in check_plan(fresh_instance, fresh_plan)
    )
    if incremental_verdict != rebuilt_verdict:
        report.mismatches.append(
            CacheMismatch(
                kind="differential_feasibility",
                cached=incremental_verdict,
                expected=rebuilt_verdict,
                detail=f"step {step}: check_plan verdicts diverge",
            )
        )


def _check_kernel_vs_scalar(
    instance: Instance,
    plan: GlobalPlan,
    step: int,
    report: FuzzReport,
) -> None:
    """Vectorized kernel rows vs. the scalar cold-cache fallback."""
    budget_of = [user.budget for user in instance.users]
    for user in range(instance.n_users):
        deltas = plan.insertion_deltas(user)
        mask = plan.feasible_mask(user)
        base = plan.route_cost(user)
        # A copy with this user's kernel row evicted exercises the scalar
        # O(k) fallback paths of can_attend/cost_with.
        cold = plan.copy()
        cold._kernel_cache.pop(user, None)  # repro-lint: ignore[RL001] deliberate eviction to force the scalar path
        assigned = set(plan.user_plan(user))
        for event in range(instance.n_events):
            report.checks += 1
            scalar_cost = cold.cost_with(user, event)
            vector_cost = base + float(deltas[event])
            if abs(scalar_cost - vector_cost) > AUDIT_FLOAT_TOL:
                report.mismatches.append(
                    CacheMismatch(
                        kind="kernel_vs_scalar_cost",
                        cached=vector_cost,
                        expected=scalar_cost,
                        user=user,
                        event=event,
                        detail=f"step {step}: cost_with disagrees",
                    )
                )
            if event in assigned:
                continue
            report.checks += 1
            scalar_ok = cold.can_attend(user, event)
            if scalar_ok != bool(mask[event]):
                # Tolerate pure boundary jitter: both sides sit within the
                # audit tolerance of the budget cut-off.
                margin = scalar_cost - budget_of[user]
                if abs(margin - BUDGET_TOL) <= AUDIT_FLOAT_TOL:
                    continue
                report.mismatches.append(
                    CacheMismatch(
                        kind="kernel_vs_scalar_mask",
                        cached=bool(mask[event]),
                        expected=scalar_ok,
                        user=user,
                        event=event,
                        detail=f"step {step}: can_attend disagrees",
                    )
                )


def _measure_drift(
    plan: GlobalPlan, report: FuzzReport, stats: EngineStats
) -> None:
    """Measure route-cost drift per user; re-pin when it exceeds the
    tolerance (the production response to accumulated float error)."""
    for user in range(plan.instance.n_users):
        drift = abs(plan.repin_route_cost(user, ROUTE_DRIFT_REPIN_TOL))
        report.checks += 1
        stats.max_drift = max(stats.max_drift, drift)
        if drift > ROUTE_DRIFT_REPIN_TOL:
            stats.repins += 1


def _check_sharded_solve(
    instance: Instance,
    seed: int,
    auditor: InvariantAuditor,
    report: FuzzReport,
    stats: EngineStats,
) -> None:
    """Sharded solve vs. monolithic greedy: k=1 bit-equivalence, k>1
    feasibility + invariant audit + double-solve determinism."""
    from repro.scale import ShardedSolver

    mono = GreedySolver(seed=seed).solve(instance)
    report.checks += 1
    k1 = ShardedSolver(shards=1, seed=seed).solve(instance)
    if PlanSummary.of(k1.plan) != PlanSummary.of(mono.plan):
        report.mismatches.append(
            CacheMismatch(
                kind="sharded_k1_equivalence",
                cached=PlanSummary.of(k1.plan),
                expected=PlanSummary.of(mono.plan),
                detail="shards=1 must reproduce the monolithic greedy plan",
            )
        )

    sharded = ShardedSolver(shards=SHARD_COUNT, seed=seed)
    first = sharded.solve(instance)
    second = sharded.solve(instance)
    report.checks += 1
    if PlanSummary.of(first.plan) != PlanSummary.of(second.plan):
        report.mismatches.append(
            CacheMismatch(
                kind="sharded_determinism",
                cached=PlanSummary.of(second.plan),
                expected=PlanSummary.of(first.plan),
                detail=f"double solve (k={SHARD_COUNT}) diverged",
            )
        )
    for violation in check_plan(instance, first.plan):
        report.violations.append(f"sharded: {violation}")
    audit = auditor.audit(first.plan)
    report.checks += audit.checks
    report.mismatches.extend(audit.mismatches)
    mono_utility = total_utility(instance, mono.plan)
    if mono_utility > 0.0:
        stats.sharded_utility_ratio = (
            total_utility(instance, first.plan) / mono_utility
        )


def _check_batched_stream(
    instance: Instance,
    seed: int,
    config: FuzzConfig,
    auditor: InvariantAuditor,
    report: FuzzReport,
) -> None:
    """Batched-coalesced application vs. serial replay of its own log."""
    from repro.scale import BatchedPlatform

    batched = BatchedPlatform(instance)
    batched.publish_plans()
    stream = OperationStream(seed=seed + 101)
    batches = max(2, config.operations // BATCH_SIZE)
    for _ in range(batches):
        for operation in stream.mixed(
            batched.instance, batched.plan, BATCH_SIZE
        ):
            batched.enqueue(operation)
        result = batched.flush()
        for violation in check_plan(batched.instance, batched.plan):
            report.violations.append(f"batched: {violation}")
        report.checks += 1 + result.violations

    serial = EBSNPlatform(instance)
    serial.publish_plans()
    for operation in batched.applied_log:
        serial.submit(operation)
    report.checks += 2
    if PlanSummary.of(serial.plan) != PlanSummary.of(batched.plan):
        report.mismatches.append(
            CacheMismatch(
                kind="batched_replay",
                cached=PlanSummary.of(batched.plan),
                expected=PlanSummary.of(serial.plan),
                detail="serial replay of the applied log diverged",
            )
        )
    serial_utility = serial.audit()["utility"]
    batched_utility = batched.snapshot()["utility"]
    if abs(serial_utility - batched_utility) > AUDIT_FLOAT_TOL:
        report.mismatches.append(
            CacheMismatch(
                kind="batched_replay_utility",
                cached=batched_utility,
                expected=serial_utility,
                detail="batched utility diverged from serial replay",
            )
        )
    audit = auditor.audit(batched.plan)
    report.checks += audit.checks
    report.mismatches.extend(audit.mismatches)


def _engine_seed(
    seed: int, config: FuzzConfig, sharded: bool = False
) -> list[FuzzReport]:
    """Solve, replay the operation stream, cross-check every step."""
    stats = EngineStats()
    report = FuzzReport(seed=seed, label=f"seed {seed}", stats=stats)
    instance = fuzz_instance(seed, config)
    plan = GreedySolver(seed=seed).solve(instance).plan
    engine = IEPEngine()
    stream = OperationStream(seed=seed)
    auditor = InvariantAuditor(float_tol=AUDIT_FLOAT_TOL)

    # The solved starting state must itself audit clean.
    initial = auditor.audit(plan)
    report.checks += initial.checks
    report.mismatches.extend(initial.mismatches)

    for step in range(config.operations):
        if step % NEW_EVENT_EVERY == 2:
            operation = stream.new_event(instance)
        else:
            operation = next(iter(stream.mixed(instance, plan, 1)))
        result = engine.apply(instance, plan, operation)
        dif_audit = auditor.audit_dif(plan, result.plan)
        report.checks += dif_audit.checks
        report.mismatches.extend(dif_audit.mismatches)
        instance, plan = result.instance, result.plan
        report.operations += 1
        stats.total_dif += result.dif

        audit = auditor.audit(plan)
        report.checks += audit.checks
        report.mismatches.extend(audit.mismatches)
        for violation in check_plan(instance, plan):
            report.violations.append(
                f"step {step} ({type(operation).__name__}): {violation}"
            )
        _check_differential(instance, plan, step, report)
        _measure_drift(plan, report, stats)
        _check_kernel_vs_scalar(instance, plan, step, report)

    # Batched-vs-oracle equivalence runs once per seed on the final state
    # — after the operation stream has bent the instance through NewEvent
    # appends, bound shifts, and cache patches, which is exactly where a
    # batched shortcut would show.
    strategy_audit = auditor.audit_kernel_strategies(plan)
    report.checks += strategy_audit.checks
    report.mismatches.extend(strategy_audit.mismatches)

    if sharded:
        # The stream mutated `instance` past the generated one; the
        # sharded cross-checks run on the *final* instance so they see
        # NewEvent-extended, bound-shifted state too.
        _check_sharded_solve(instance, seed, auditor, report, stats)
        _check_batched_stream(instance, seed, config, auditor, report)

    stats.final_utility = total_utility(instance, plan)
    return [report]


# --------------------------------------------------------------------- #
# durable: crash at every injection point, recover, diff vs. the twin
# --------------------------------------------------------------------- #


@dataclass
class CrashStats:
    point: str
    tear_tail: bool
    crash_after: int
    recovered_seq: int = 0
    snapshot_seq: int = 0
    replayed: int = 0
    truncated_records: int = 0


@dataclass(frozen=True)
class TwinState:
    """Uncrashed state after one sequence number."""

    utility: float
    summary: PlanSummary


def run_twin(
    platform: DurablePlatform,
    operations: list[AtomicOperation] | None = None,
    stream_seed: int = 0,
    n_operations: int = 0,
) -> tuple[dict[int, TwinState], list[AtomicOperation]]:
    """Run the twin: publish, apply, record state per seq.

    Publishes ``platform`` (which must be fresh/unpublished), applies
    ``operations`` in order — or draws ``n_operations`` from a seeded
    :class:`OperationStream` when ``operations`` is ``None`` — and
    records the state (utility + :class:`PlanSummary`) after publish and
    after *every* submit.  Rejected operations consume a sequence number
    without changing state, so every possible recovery horizon has a
    twin state to compare against.  Closes the platform and returns
    ``(states_by_seq, operations)``.

    A platform armed with a :class:`CrashInjector` makes this the
    crashed run of the same submit loop: :class:`InjectedCrash`
    propagates and the platform is left unclosed, as after a kill.

    Shared by the durable fuzz target and the service recovery tests:
    any component claiming "bit-identical at the durable horizon"
    proves it against these states.
    """
    states: dict[int, TwinState] = {}

    def record() -> None:
        states[platform.seq] = TwinState(
            utility=platform.audit()["utility"],
            summary=PlanSummary.of(platform.plan),
        )

    platform.publish_plans()
    record()
    if operations is None:
        operations = list(
            OperationStream(seed=stream_seed).mixed(
                platform.instance, platform.plan, n_operations
            )
        )
    for operation in operations:
        try:
            platform.submit(operation)
        except REJECTION_ERRORS:
            pass
        record()
    platform.close()
    return states, operations


class _PointCounter:
    """Injector stand-in that only counts crash-point occurrences."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def fire(self, point: str, wal: object) -> None:
        self.counts[point] = self.counts.get(point, 0) + 1


def _durable(
    seed: int,
    config: FuzzConfig,
    directory: Path,
    injector: CrashInjector | _PointCounter,
) -> DurablePlatform:
    return DurablePlatform(
        fuzz_instance(seed, config),
        directory,
        solver=GreedySolver(seed=seed),
        snapshot_every=DURABLE_SNAPSHOT_EVERY,
        fsync=DURABLE_FSYNC,
        injector=injector,  # type: ignore[arg-type]
    )


def _durable_seed(seed: int, config: FuzzConfig, _env: None) -> list[FuzzReport]:
    """All crash scenarios for one seed (every point, with/without tear)."""
    reports: list[FuzzReport] = []
    root = Path(tempfile.mkdtemp(prefix=f"crashfuzz-{seed}-"))
    try:
        counter = _PointCounter()
        twin, operations = run_twin(
            _durable(seed, config, root / "twin", counter),
            stream_seed=seed,
            n_operations=config.operations,
        )
        rng = random.Random(seed)
        for point in CRASH_POINTS:
            for tear_tail in (False, True):
                occurrences = counter.counts.get(point, 0)
                if occurrences == 0:
                    continue
                stats = CrashStats(
                    point, tear_tail, crash_after=rng.randint(1, occurrences)
                )
                reports.append(
                    _crash_scenario(
                        seed,
                        config,
                        root / f"{point}-{tear_tail}",
                        operations,
                        twin,
                        stats,
                    )
                )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return reports


def _crash_scenario(
    seed: int,
    config: FuzzConfig,
    directory: Path,
    operations: list[AtomicOperation],
    twin: dict[int, TwinState],
    stats: CrashStats,
) -> FuzzReport:
    tear = "+tear" if stats.tear_tail else ""
    label = f"seed {seed} {stats.point}{tear}@{stats.crash_after}"
    report = FuzzReport(seed=seed, label=label, stats=stats)
    injector = CrashInjector(
        crash_after=stats.crash_after,
        point=stats.point,
        tear_tail=stats.tear_tail,
    )
    try:
        run_twin(_durable(seed, config, directory, injector), operations)
    except InjectedCrash:
        pass
    else:
        report.violations.append(
            f"{label}: injector never fired (run completed)"
        )
        return report
    try:
        recovered, recovery = DurablePlatform.recover(
            directory,
            solver=GreedySolver(seed=seed),
            snapshot_every=DURABLE_SNAPSHOT_EVERY,
            fsync=DURABLE_FSYNC,
        )
    except RecoveryError as exc:
        if exc.report is not None:
            report.mismatches.extend(
                _recovery_mismatches(label, exc.report)
            )
            report.violations.extend(exc.report.violations)
        report.violations.append(f"{label}: {exc}")
        return report
    recovered.close()
    stats.recovered_seq = recovery.last_seq
    stats.snapshot_seq = recovery.snapshot_seq
    stats.replayed = recovery.replayed
    stats.truncated_records = recovery.truncated_records
    report.operations = recovery.last_seq
    report.checks += recovery.audit_checks
    report.mismatches.extend(_recovery_mismatches(label, recovery))
    report.violations.extend(recovery.violations)

    state = twin.get(recovery.last_seq)
    if state is None:
        report.mismatches.append(CacheMismatch(
            "crash_horizon", recovery.last_seq, max(twin),
            detail=f"{label}: recovered past the uncrashed twin's last seq",
        ))
        return report
    report.checks += 2
    if recovery.utility != state.utility:
        report.mismatches.append(CacheMismatch(
            "crash_twin_utility", recovery.utility, state.utility,
            detail=f"{label}: at seq {recovery.last_seq}",
        ))
    if PlanSummary.of(recovered.plan) != state.summary:
        report.mismatches.append(CacheMismatch(
            "crash_twin_plan", None, None,
            detail=f"{label}: plan differs at seq {recovery.last_seq}",
        ))
    if stats.tear_tail and stats.point != "snapshot":
        # A torn tail must be detected (the snapshot point can land after
        # the WAL record was already superseded by a snapshot, but for
        # wal-append/apply the torn record is always the newest).
        report.checks += 1
        if stats.truncated_records == 0:
            report.violations.append(
                f"{label}: tail was torn but nothing was truncated"
            )
    return report


def _recovery_mismatches(
    label: str, recovery: RecoveryReport
) -> list[CacheMismatch]:
    return [
        CacheMismatch("recovery_audit", None, None, detail=f"{label}: {text}")
        for text in recovery.mismatches
    ]


# --------------------------------------------------------------------- #
# service: the real client/server loop vs. an in-process oracle
# --------------------------------------------------------------------- #


@contextmanager
def _service_session(summary: FuzzSummary) -> Iterator[ServiceThread]:
    """One in-process service shared by every seed.

    Under ``REPRO_SHADOW_CHECKS=1`` a watchdog thread heartbeats the
    service event loop to catch blocking work that escaped the RL009
    executor discipline.
    """
    with (
        tempfile.TemporaryDirectory(prefix="servicefuzz-") as root,
        ServiceThread(root) as service,
    ):
        watchdog = None
        if shadow_checks_enabled() and service.loop is not None:
            summary.stalls = []
            watchdog = LoopWatchdog(service.loop, sink=summary.stalls).start()
        try:
            yield service
        finally:
            if watchdog is not None:
                watchdog.stop()


def _send_reads(
    reader: WebSocketClient,
    tenant: str,
    rng: random.Random,
    config: FuzzConfig,
) -> list[tuple[str, int]]:
    """Pipeline one ``plan``, one ``attendees`` and one ``summary``."""
    reads = [
        ("plan", rng.randrange(config.n_users)),
        ("attendees", rng.randrange(config.n_events)),
        ("summary", 0),
    ]
    for action, target in reads:
        if action == "plan":
            reader.send(action, tenant=tenant, user=target)
        elif action == "attendees":
            reader.send(action, tenant=tenant, event=target)
        else:
            reader.send(action, tenant=tenant)
    return reads


def _read_mismatch(
    action: str,
    target: int,
    response: dict[str, Any],
    states: dict[int, TwinState],
    where: str,
) -> CacheMismatch | None:
    """``None`` when a read's answer equals the oracle at its ``seq``."""
    seq = response["seq"]
    state = states.get(seq)
    if state is None:
        return CacheMismatch(
            "service_read_seq", seq, max(states),
            detail=f"{where}: {action} echoed a seq the oracle never had",
        )
    assignments = state.summary.assignments
    if action == "plan":
        served: object = tuple(sorted(response["events"]))
        expected: object = assignments[target]
    elif action == "attendees":
        served = response["users"]
        expected = [
            user for user, events in enumerate(assignments)
            if target in events
        ]
    else:
        served = (response["audit"]["utility"],
                  response["audit"]["violations"])
        expected = (state.utility, 0.0)
    if served == expected:
        return None
    return CacheMismatch(
        f"service_read_{action}", served, expected,
        detail=f"{where}: {action} {target} at seq {seq}",
    )


#: An op no tenant can apply (no such event): the service must reject it
#: alone and apply the rest of its frame.
_INVALID_OP = EtaDecrease(10**6, 1)


def _service_frame(
    stream: OperationStream,
    oracle: EBSNPlatform,
    rng: random.Random,
) -> list[AtomicOperation]:
    """One submit frame: usually one operation, else 2-4 of them.

    A multi-op frame may repeat one of its operations (the service folds
    the pair) and may carry :data:`_INVALID_OP`.  Its operations are all
    drawn against the state before the frame, so a later one can also
    turn stale once the earlier ones apply.
    """
    if rng.random() < 0.6:
        return list(stream.mixed(oracle.instance, oracle.plan, 1))
    frame = list(
        stream.mixed(oracle.instance, oracle.plan, rng.randint(1, 3))
    )
    if rng.random() < 0.5:
        frame.append(rng.choice(frame))
    if len(frame) < 2 or rng.random() < 0.3:
        frame.insert(rng.randint(0, len(frame)), _INVALID_OP)
    return frame[:4]


def _service_seed(
    seed: int, config: FuzzConfig, service: ServiceThread
) -> list[FuzzReport]:
    """Each step sends one submit frame of one to four operations.  The
    oracle applies ``coalesce_operations(frame)`` serially, as the
    tenant's batched flush does, so the response's counts, rejected ops
    and utility are checked against it.  Reads pipelined on a second
    connection land before, during or after each submit; the oracle's
    state after every seq is kept to check them."""
    from repro.scale.batched import coalesce_operations

    report = FuzzReport(seed=seed, label=f"seed {seed}")
    tenant = f"fuzz-{seed}"
    oracle = EBSNPlatform(
        fuzz_instance(seed, config), solver=GreedySolver(seed=seed)
    )
    rng = random.Random(seed)

    with (
        ServiceClient(service.host, service.port) as http_client,
        WebSocketClient(service.host, service.port) as ws_client,
        WebSocketClient(service.host, service.port) as reader,
    ):
        http_client.create_tenant(
            {
                "name": tenant,
                "kind": "meetup",
                "users": config.n_users,
                "events": config.n_events,
                "groups": N_GROUPS,
                "conflict": CONFLICT_RATIO,
                "seed": seed,
                "snapshot_every": SERVICE_SNAPSHOT_EVERY,
            }
        )
        served_utility = http_client.publish(tenant)
        oracle_utility = oracle.publish_plans()
        report.checks += 1
        if served_utility != oracle_utility:
            report.mismatches.append(CacheMismatch(
                "service_publish_utility", served_utility, oracle_utility,
                detail=f"seed {seed}",
            ))

        stream = OperationStream(seed=seed)
        accepted: list[AtomicOperation] = []
        seq = 0
        states = {0: TwinState(oracle_utility, PlanSummary.of(oracle.plan))}
        for step in range(config.operations):
            frame = _service_frame(stream, oracle, rng)
            if step % 2:
                # The submit goes out first, so the reads race its apply.
                ws_client.send(
                    "submit", tenant=tenant,
                    ops=[operation_to_dict(op) for op in frame],
                )
                reads = _send_reads(reader, tenant, rng, config)
                result = ws_client.receive()
            else:
                reads = _send_reads(reader, tenant, rng, config)
                result = http_client.submit(tenant, frame)
            report.operations += len(frame)

            survivors, folded = coalesce_operations(frame)
            applied: list[AtomicOperation] = []
            rejected: list[AtomicOperation] = []
            entry = None
            for operation in survivors:
                try:
                    entry = oracle.submit(operation)
                    applied.append(operation)
                except REJECTION_ERRORS:
                    rejected.append(operation)
                seq += 1
                states[seq] = TwinState(
                    oracle.audit()["utility"], PlanSummary.of(oracle.plan)
                )
            accepted.extend(applied)
            kinds = "+".join(type(op).__name__ for op in frame)
            where = f"seed {seed} step {step} ({kinds})"
            for action, target in reads:
                report.checks += 1
                mismatch = _read_mismatch(
                    action, target, reader.receive(), states, where
                )
                if mismatch is not None:
                    report.mismatches.append(mismatch)
            report.checks += 5
            served_rejected = [item["op"] for item in result["rejected"]]
            answered = (
                result["applied"] + result["folded"] + len(served_rejected)
            )
            if answered != len(frame):
                report.mismatches.append(CacheMismatch(
                    "service_frame_count", answered, len(frame),
                    detail=where,
                ))
            counts = (result["applied"], result["folded"], served_rejected)
            expected_counts = (
                len(applied),
                folded,
                [operation_to_dict(op) for op in rejected],
            )
            if counts != expected_counts:
                report.mismatches.append(CacheMismatch(
                    "service_acceptance", counts, expected_counts,
                    detail=where,
                ))
                continue
            if result["seq"] != seq:
                report.mismatches.append(CacheMismatch(
                    "service_seq", result["seq"], seq, detail=where,
                ))
            expected = (
                entry.utility_after
                if entry is not None
                else oracle.audit()["utility"]
            )
            if result["utility"] != expected:
                report.mismatches.append(CacheMismatch(
                    "service_utility", result["utility"], expected,
                    detail=where,
                ))
            if result["violations"]:
                report.violations.append(
                    f"{where}: service reported "
                    f"{result['violations']} feasibility violations"
                )

        report.checks += 2
        assignments = http_client.plan_summary(tenant)
        if (
            tuple(tuple(events) for events in assignments)
            != PlanSummary.of(oracle.plan).assignments
        ):
            report.mismatches.append(CacheMismatch(
                "service_plan_summary", None, None,
                detail=f"seed {seed}: final plan differs from the oracle's",
            ))
        served_log = ws_client.rpc("oplog", tenant=tenant)["ops"]
        expected_log = [operation_to_dict(op) for op in accepted]
        if served_log != expected_log:
            report.mismatches.append(CacheMismatch(
                "service_oplog", len(served_log), len(expected_log),
                detail=f"seed {seed}: applied log differs from the "
                "oracle's accepted stream",
            ))
    return [report]


_ENGINE_COLUMNS: tuple[Column, ...] = (
    ("max drift", lambda s: s.peak("max_drift")),
    ("repins", lambda s: s.total("repins")),
)

#: Every system under test, keyed by the ``repro-gepc fuzz`` flag that
#: selects it (``engine`` is the default).
TARGETS: dict[str, Target] = {
    "engine": Target(
        "Differential fuzz",
        lambda seed, config, _env: _engine_seed(seed, config),
        columns=_ENGINE_COLUMNS,
    ),
    "sharded": Target(
        "Sharded differential fuzz",
        lambda seed, config, _env: _engine_seed(seed, config, sharded=True),
        columns=_ENGINE_COLUMNS,
    ),
    "durable": Target(
        "Crash-recovery fuzz",
        _durable_seed,
        columns=(
            ("scenarios", lambda s: len(s.reports)),
            ("replayed", lambda s: s.total("replayed")),
            ("torn records", lambda s: s.total("truncated_records")),
        ),
    ),
    "service": Target(
        "Service fuzz", _service_seed, session=_service_session
    ),
}


__all__ = [
    "TARGETS",
    "CrashStats",
    "EngineStats",
    "FuzzConfig",
    "FuzzReport",
    "FuzzSummary",
    "Target",
    "TwinState",
    "fuzz_instance",
    "run_fuzz",
    "run_twin",
]
