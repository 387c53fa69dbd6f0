"""The durable platform: write-ahead logging, snapshots, crash recovery.

:class:`DurablePlatform` wraps :class:`repro.platform.service.EBSNPlatform`
with the durability protocol the long-lived service (ROADMAP item 1)
stands on:

1. **Write-ahead log** — every submitted operation is appended to an
   fsync'd JSONL WAL (:class:`repro.platform.oplog.WriteAheadLog`)
   *before* it is applied.  An operation the engine rejects gets a
   reject marker so recovery never replays it as applied.
2. **Snapshots** — every ``snapshot_every`` accepted operations (and at
   publish time) the full ``Instance`` + ``GlobalPlan`` state is written
   atomically via :mod:`repro.platform.snapshot`.
3. **Recovery** — :meth:`DurablePlatform.recover` loads the newest valid
   snapshot, truncates any torn WAL tail, replays the WAL suffix through
   the IEP engine, and verifies the result with the
   :class:`~repro.check.auditor.InvariantAuditor` plus a ``check_plan``
   feasibility pass.  The crash-recovery fuzz leg
   (``repro-gepc fuzz --durable``) additionally proves utility equality
   against an uncrashed twin for every injection point.

Crash points are injectable (:class:`CrashInjector`, or the
``REPRO_CRASH_AFTER`` / ``REPRO_CRASH_POINT`` / ``REPRO_CRASH_TEAR``
environment variables) between WAL-append, apply, and snapshot, so tests
and the fuzz harness can kill the platform at any boundary — including
mid-record (a torn WAL tail).  See ``docs/durability.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.constraints import check_plan
from repro.core.gepc.base import GEPCSolver
from repro.core.iep.engine import IEPEngine
from repro.core.iep.operations import AtomicOperation
from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.obs import get_recorder
from repro.platform.oplog import WriteAheadLog, recover_wal
from repro.platform.service import (
    REJECTION_ERRORS,
    EBSNPlatform,
    PlatformLogEntry,
)
from repro.platform.snapshot import latest_snapshot, save_snapshot

WAL_FILENAME = "wal.jsonl"

# The three durability boundaries a crash can land between (in submit
# order): after the WAL append, after the in-memory apply, and after a
# snapshot write.
CRASH_WAL_APPEND = "wal-append"
CRASH_APPLY = "apply"
CRASH_SNAPSHOT = "snapshot"
CRASH_POINTS = (CRASH_WAL_APPEND, CRASH_APPLY, CRASH_SNAPSHOT)


class InjectedCrash(RuntimeError):
    """Raised by :class:`CrashInjector` to simulate a process kill."""


class RecoveryError(RuntimeError):
    """Recovery could not produce a verified state (see ``.report``)."""

    def __init__(self, message: str, report: "RecoveryReport | None" = None):
        super().__init__(message)
        self.report = report


class CrashInjector:
    """Deterministic fault injection at the durability boundaries.

    ``crash_after=n`` kills the platform (raises :class:`InjectedCrash`)
    the *n*-th time a matching crash point is passed (1-based).  ``point``
    restricts which boundary counts (any of :data:`CRASH_POINTS`);
    ``tear_tail=True`` additionally truncates the WAL's final record
    mid-line first, simulating a write torn by the crash — the recovery
    path must detect and discard it.

    Environment form (for subprocess tests and CLI soaks)::

        REPRO_CRASH_AFTER=7 REPRO_CRASH_POINT=apply REPRO_CRASH_TEAR=1
    """

    def __init__(
        self,
        crash_after: int,
        point: str | None = None,
        tear_tail: bool = False,
    ) -> None:
        if crash_after < 1:
            raise ValueError("crash_after must be >= 1")
        if point is not None and point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {point!r}; choose from {CRASH_POINTS}"
            )
        self.crash_after = crash_after
        self.point = point
        self.tear_tail = tear_tail
        self.passed = 0
        self.fired = False

    @classmethod
    def from_env(cls) -> "CrashInjector | None":
        """Build an injector from ``REPRO_CRASH_*``, or ``None``."""
        raw = os.environ.get("REPRO_CRASH_AFTER")
        if not raw:
            return None
        return cls(
            crash_after=int(raw),
            point=os.environ.get("REPRO_CRASH_POINT") or None,
            tear_tail=os.environ.get("REPRO_CRASH_TEAR", "") not in ("", "0"),
        )

    def fire(self, point: str, wal: WriteAheadLog) -> None:
        """Pass one crash point; raise when the configured kill is due."""
        if self.fired or (self.point is not None and point != self.point):
            return
        self.passed += 1
        if self.passed < self.crash_after:
            return
        self.fired = True
        wal.close()
        if self.tear_tail:
            _tear_wal_tail(wal.path)
        raise InjectedCrash(
            f"injected crash at {point!r} (occurrence {self.passed})"
        )


def _tear_wal_tail(path: Path) -> None:
    """Cut the WAL's last record in half (a mid-record torn write)."""
    data = path.read_bytes() if path.exists() else b""
    if not data:
        return
    body = data[:-1] if data.endswith(b"\n") else data
    start = body.rfind(b"\n") + 1
    last_line = len(data) - start
    keep = start + max(1, last_line // 2)
    with open(path, "r+b") as handle:
        handle.truncate(keep)
        handle.flush()
        os.fsync(handle.fileno())


@dataclass
class RecoveryReport:
    """What :meth:`DurablePlatform.recover` found and rebuilt."""

    directory: str
    snapshot_seq: int
    wal_last_seq: int
    last_seq: int
    replayed: int
    rejected_skipped: int
    replay_rejected: int
    truncated_records: int
    truncated_bytes: int
    utility: float = 0.0
    audit_checks: int = 0
    mismatches: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else (
            f"{len(self.mismatches)} mismatch(es), "
            f"{len(self.violations)} violation(s)"
        )
        return (
            f"recovered {self.directory}: snapshot seq {self.snapshot_seq}, "
            f"replayed {self.replayed} op(s) to seq {self.last_seq} "
            f"(skipped {self.rejected_skipped} rejected, re-rejected "
            f"{self.replay_rejected}, truncated {self.truncated_records} "
            f"torn record(s) / {self.truncated_bytes} byte(s)), "
            f"utility {self.utility:.6f}, "
            f"{self.audit_checks} audit checks: {status}"
        )


class DurablePlatform:
    """A crash-safe :class:`EBSNPlatform`: WAL + snapshots + recovery.

    Mirrors the in-memory platform's surface (``publish_plans``,
    ``submit``, ``plan_for``, ``attendees_of``, ``audit``, ``log``) so it
    drops into :class:`repro.scale.BatchedPlatform` via its ``platform``
    parameter.  Single-threaded like its inner platform: the service
    drives it from one writer per tenant.
    """

    def __init__(
        self,
        instance: Instance,
        directory: str | Path,
        solver: GEPCSolver | None = None,
        snapshot_every: int = 32,
        fsync: bool = True,
        injector: CrashInjector | None = None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._platform = EBSNPlatform(instance, solver=solver)
        self._snapshot_every = snapshot_every
        self._fsync = fsync
        self._wal = WriteAheadLog(
            self._directory / WAL_FILENAME, durable=fsync
        )
        self._injector = injector or CrashInjector.from_env()

    # ------------------------------------------------------------------ #
    # Delegated reads
    # ------------------------------------------------------------------ #

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def instance(self) -> Instance:
        return self._platform.instance

    @property
    def plan(self) -> GlobalPlan:
        return self._platform.plan

    @property
    def is_planned(self) -> bool:
        return self._platform.is_planned

    @property
    def log(self) -> list[PlatformLogEntry]:
        return self._platform.log

    @property
    def seq(self) -> int:
        """Sequence number of the last WAL-logged operation."""
        return self._wal.seq

    def plan_for(self, user: int) -> list[int]:
        return self._platform.plan_for(user)

    def attendees_of(self, event: int) -> list[int]:
        return self._platform.attendees_of(event)

    def audit(self, deep: bool = False) -> dict[str, float]:
        return self._platform.audit(deep=deep)

    # ------------------------------------------------------------------ #
    # Durable writes
    # ------------------------------------------------------------------ #

    def _crash_point(self, point: str) -> None:
        if self._injector is not None:
            self._injector.fire(point, self._wal)

    def publish_plans(self) -> float:
        """Solve, then snapshot the published state before serving.

        The baseline snapshot is the recovery anchor: every later WAL
        record is replayed on top of some snapshot, so publishing is not
        durable (and recovery refuses the directory) until this first
        snapshot is on disk.
        """
        utility = self._platform.publish_plans()
        self.snapshot_now(utility=utility)
        get_recorder().count("durable.publishes")
        self._crash_point(CRASH_SNAPSHOT)
        return utility

    def submit(self, operation: AtomicOperation) -> PlatformLogEntry:
        """WAL-append, then apply, then (periodically) snapshot.

        A rejected operation (engine raises) is marked in the WAL so
        recovery will not replay it, and the rejection is re-raised with
        the in-memory state provably untouched (see
        :meth:`EBSNPlatform.submit`).
        """
        seq = self._wal.append(operation)
        self._crash_point(CRASH_WAL_APPEND)
        try:
            entry = self._platform.submit(operation)
        except REJECTION_ERRORS:
            self._wal.mark_rejected(seq)
            get_recorder().count("durable.rejected")
            raise
        self._crash_point(CRASH_APPLY)
        if seq % self._snapshot_every == 0:
            self.snapshot_now(utility=entry.utility_after)
            self._crash_point(CRASH_SNAPSHOT)
        return entry

    def snapshot_now(self, utility: float | None = None) -> Path:
        """Write a snapshot of the current state at the current seq."""
        return save_snapshot(
            self._directory,
            self._platform.instance,
            self._platform.plan,
            seq=self._wal.seq,
            utility=utility,
            durable=self._fsync,
        )

    def close(self) -> None:
        self._wal.close()

    def __enter__(self) -> "DurablePlatform":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls,
        directory: str | Path,
        solver: GEPCSolver | None = None,
        snapshot_every: int = 32,
        fsync: bool = True,
        strict: bool = True,
        injector: CrashInjector | None = None,
    ) -> tuple["DurablePlatform", RecoveryReport]:
        """Rebuild a platform from ``directory`` after a crash.

        Protocol: load the newest valid snapshot; scan the WAL and
        truncate any torn tail; replay the WAL suffix (ops with a seq
        above the snapshot's, minus reject-marked ones) through a fresh
        :class:`IEPEngine`; verify with the invariant auditor and a
        feasibility pass.  With ``strict=True`` (default) an unverified
        recovery raises :class:`RecoveryError` instead of returning.

        The returned platform is live: its WAL continues from the last
        durable sequence number and snapshots resume on cadence.
        """
        # Imported here, not at module top: repro.check's package init
        # pulls in the fuzzer, which imports this module back.
        from repro.check.auditor import InvariantAuditor

        directory = Path(directory)
        obs = get_recorder()
        with obs.span("durable.recover"):
            recovery = recover_wal(directory / WAL_FILENAME, truncate=True)
            snapshot = latest_snapshot(directory)
            if snapshot is None:
                raise RecoveryError(
                    f"{directory}: no valid snapshot to recover from "
                    "(publish_plans never completed durably)"
                )
            instance, plan = snapshot.instance, snapshot.plan
            engine = IEPEngine()
            replayed = 0
            replay_rejected = 0
            rejected_skipped = 0
            for seq, operation in recovery.replayable():
                if seq <= snapshot.seq:
                    continue
                try:
                    result = engine.apply(instance, plan, operation)
                except REJECTION_ERRORS:
                    # The crash hit between apply-failure and the reject
                    # marker; replay re-derives the same refusal.
                    replay_rejected += 1
                    continue
                instance, plan = result.instance, result.plan
                replayed += 1
            rejected_skipped = len(recovery.rejected_seqs)
            # A torn tail can lose the WAL record of an operation whose
            # *snapshot* already made it durable (crash between snapshot
            # fsync and a later tear of the same record).  The durable
            # horizon is therefore the max of the two, and new appends
            # must resume above it or sequence numbers would collide.
            last_seq = max(recovery.last_seq, snapshot.seq)

            platform = cls(
                instance,
                directory,
                solver=solver,
                snapshot_every=snapshot_every,
                fsync=fsync,
                injector=injector,
            )
            platform._platform.install_plan(plan)
            platform._wal.resume_at(last_seq)

            audit = InvariantAuditor().audit(plan)
            violations = check_plan(instance, plan)
            report = RecoveryReport(
                directory=str(directory),
                snapshot_seq=snapshot.seq,
                wal_last_seq=recovery.last_seq,
                last_seq=last_seq,
                replayed=replayed,
                rejected_skipped=rejected_skipped,
                replay_rejected=replay_rejected,
                truncated_records=recovery.truncated_records,
                truncated_bytes=recovery.truncated_bytes,
                utility=platform.audit()["utility"],
                audit_checks=audit.checks,
                mismatches=[str(m) for m in audit.mismatches],
                violations=[str(v) for v in violations],
            )
        obs.count("durable.recoveries")
        obs.count("durable.recovery_replayed", replayed)
        if strict and not report.ok:
            raise RecoveryError(
                f"recovery of {directory} failed verification: "
                f"{report.summary()}",
                report=report,
            )
        return platform, report
