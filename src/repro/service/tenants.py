"""Tenant lifecycle: specs, single-writer workers, published records.

One **tenant** is one city :class:`~repro.core.model.Instance` served by
its own durability stack::

    BatchedPlatform  (write coalescing)
        └── DurablePlatform  (WAL + snapshots in <root>/<name>/)
                └── EBSNPlatform  (the IEP engine)

Writes: every write (publish, submit) is funnelled through the tenant's
single asyncio worker task, which executes jobs one at a time on an
executor thread — the per-tenant single-writer discipline the WAL's
sequence numbers depend on, and the only code that touches the stack.
The worker's inbox is a bounded :class:`asyncio.Queue`; a full inbox
blocks the producing connection (backpressure) instead of growing
without bound.

Reads: after each write job the worker captures a :class:`TenantRecord`
(seq, instance, plan, log prefix, counters) and swaps it in with one
reference assignment on the loop.  A read takes the record once and
reads only it, so it never waits for a write and needs no lock: the
engine never mutates a plan or instance it returned, and the log only
grows at the end.

A tenant directory is self-describing: ``tenant.json`` holds the
:class:`TenantSpec` (instances are regenerated deterministically from
it, never serialized), and the WAL + snapshots live alongside.  On
startup :meth:`TenantManager.recover_all` rebuilds every tenant —
published ones via :meth:`DurablePlatform.recover` with strict
auditing, unpublished ones from their regenerated instance.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, TypeVar

from repro.core.fsio import atomic_write_text
from repro.core.gepc.greedy import GreedySolver
from repro.core.iep.operations import AtomicOperation
from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.datasets.cities import CITY_CONFIGS, make_city
from repro.datasets.meetup import MeetupConfig, generate_ebsn
from repro.obs import get_recorder
from repro.platform.durable import DurablePlatform, RecoveryReport
from repro.platform.service import PlatformLogEntry, audit_numbers
from repro.platform.snapshot import latest_snapshot
from repro.scale.batched import BatchedPlatform
from repro.service.protocol import (
    E_BAD_SPEC,
    E_SHUTTING_DOWN,
    E_TENANT_EXISTS,
    E_UNKNOWN_TENANT,
    ProtocolError,
)

SPEC_FILENAME = "tenant.json"

#: Directory-safe tenant names (also the wire-visible identifier).
_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")

T = TypeVar("T")


@dataclass(frozen=True)
class TenantSpec:
    """Deterministic recipe for one tenant's instance and solver.

    The spec — not the instance — is what persists (``tenant.json``):
    regenerating from it is bit-reproducible, so recovery only ever has
    to trust the WAL and snapshots for *state*, never for raw data.
    """

    name: str
    kind: str = "meetup"  # "meetup" (synthetic) or "city" (Table IV)
    city: str = "auckland"
    scale: float = 0.1
    users: int = 24
    events: int = 10
    groups: int = 4
    conflict: float = 0.35
    seed: int = 0
    snapshot_every: int = 16

    def __post_init__(self) -> None:
        for attr, kind in (
            ("name", str), ("kind", str), ("city", str),
            ("users", int), ("events", int), ("groups", int),
            ("seed", int), ("snapshot_every", int),
            ("scale", (int, float)), ("conflict", (int, float)),
        ):
            value = getattr(self, attr)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ProtocolError(
                    E_BAD_SPEC,
                    f"spec field {attr!r} must be "
                    f"{kind.__name__ if isinstance(kind, type) else 'numeric'},"
                    f" got {type(value).__name__}",
                )
        if not _NAME_RE.match(self.name):
            raise ProtocolError(
                E_BAD_SPEC,
                f"invalid tenant name {self.name!r} (want "
                "[a-z0-9][a-z0-9_-]*, at most 64 chars)",
            )
        if self.kind not in ("meetup", "city"):
            raise ProtocolError(
                E_BAD_SPEC,
                f"unknown tenant kind {self.kind!r} "
                "(choose 'meetup' or 'city')",
            )
        if self.kind == "city" and self.city not in CITY_CONFIGS:
            raise ProtocolError(
                E_BAD_SPEC,
                f"unknown city {self.city!r}; "
                f"choose from {sorted(CITY_CONFIGS)}",
            )
        if self.snapshot_every < 1:
            raise ProtocolError(
                E_BAD_SPEC, "snapshot_every must be >= 1"
            )

    @classmethod
    def from_dict(cls, document: dict[str, Any]) -> "TenantSpec":
        try:
            return cls(**{
                key: document[key]
                for key in cls.__dataclass_fields__
                if key in document
            })
        except TypeError as exc:
            raise ProtocolError(E_BAD_SPEC, f"bad tenant spec: {exc}")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def build_instance(self) -> Instance:
        """Regenerate the tenant's instance (deterministic per spec)."""
        if self.kind == "city":
            return make_city(self.city, scale=self.scale)
        return generate_ebsn(
            MeetupConfig(
                n_users=self.users,
                n_events=self.events,
                n_groups=self.groups,
                conflict_ratio=self.conflict,
                seed=self.seed,
            )
        )

    def build_solver(self) -> GreedySolver:
        return GreedySolver(seed=self.seed)


async def off_loop(
    fn: Callable[[], T], context: contextvars.Context | None = None
) -> T:
    """Run ``fn`` on the loop's default executor inside ``context``, by
    default a copy of the caller's.

    ``loop.run_in_executor`` runs a job in the worker thread's own
    context, so the recorder and span path the caller installed would
    not follow it, and every counter recorded inside would go to the
    ``NullRecorder``.  Every executor hop in the service goes through
    here.
    """
    if context is None:
        context = contextvars.copy_context()
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, context.run, fn)


@dataclass(frozen=True)
class TenantRecord:
    """One published tenant state: what every read is served from.

    ``log`` is the platform's live audit log and ``operations`` the
    length of the prefix this record covers; the log only grows at the
    end, so that prefix never changes.  Each entry's ``operation`` is
    the coalesced operation the batch applied, so the prefix is also
    the applied log that serial replay reproduces.
    """

    seq: int
    instance: Instance
    plan: GlobalPlan | None  # None until the tenant publishes
    log: list[PlatformLogEntry] = field(repr=False)
    operations: int
    stats: dict[str, int]
    queue_depth: int
    violations: int | None  # check_plan's count, if a flush took it

    def audit(self) -> dict[str, float]:
        """:meth:`BatchedPlatform.snapshot`'s numbers, for this state."""
        assert self.plan is not None
        numbers = audit_numbers(
            self.instance,
            self.plan,
            self.log[: self.operations],
            self.violations,
        )
        numbers["queue_depth"] = float(self.queue_depth)
        return numbers

    def applied_log(self) -> list[AtomicOperation]:
        return [entry.operation for entry in self.log[: self.operations]]


@dataclass
class _Job:
    """One unit of work in a tenant worker's inbox, with the context of
    the frame that submitted it."""

    fn: Callable[[], Any]
    future: asyncio.Future = field(repr=False)
    context: contextvars.Context = field(repr=False)


_STOP = object()


class Tenant:
    """One hosted instance: platform stack + single-writer worker."""

    def __init__(
        self,
        spec: TenantSpec,
        directory: Path,
        durable: DurablePlatform,
        recovery: RecoveryReport | None = None,
        backpressure: int = 64,
    ) -> None:
        self.spec = spec
        self.directory = directory
        self.durable = durable
        self.platform = BatchedPlatform(platform=durable)
        self.recovery = recovery
        self.record = self._capture()  # loop-confined
        self._backpressure = backpressure
        self._inbox: asyncio.Queue | None = None  # loop-confined
        self._worker: asyncio.Task | None = None  # loop-confined
        self._obs = get_recorder()

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def published(self) -> bool:
        return self.record.plan is not None

    @property
    def seq(self) -> int:
        """The published record's sequence number (WAL position)."""
        return self.record.seq

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.spec.kind,
            "published": self.published,
            "seq": self.seq,
            "queue_depth": (
                self._inbox.qsize() if self._inbox is not None else 0
            ),
            "users": self.record.instance.n_users,
            "events": self.record.instance.n_events,
        }

    def _capture(self) -> TenantRecord:
        """The stack's current state as a record.

        Called only while no write job runs: at construction, and by the
        worker between jobs.
        """
        durable = self.durable
        log = durable.log
        plan = durable.plan if durable.is_planned else None
        checked = self.platform.last_check
        return TenantRecord(
            seq=durable.seq,
            instance=durable.instance,
            plan=plan,
            log=log,
            operations=len(log),
            stats=self.platform.stats(),
            queue_depth=self.platform.queue_depth(),
            violations=(
                checked[1] if checked and checked[0] is plan else None
            ),
        )

    # ------------------------------------------------------------------ #
    # Single-writer worker
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the worker task (idempotent; call from the loop)."""
        if self._worker is not None:
            return
        self._inbox = asyncio.Queue(maxsize=self._backpressure)
        self._worker = asyncio.get_running_loop().create_task(
            self._run(), name=f"tenant-{self.name}"
        )

    async def _run(self) -> None:
        assert self._inbox is not None
        while True:
            job = await self._inbox.get()
            if job is _STOP:
                break
            try:
                result = await off_loop(job.fn, job.context)
            except Exception as exc:  # delivered to the one caller
                self.record = self._capture()
                if not job.future.done():
                    job.future.set_exception(exc)
            else:
                self.record = self._capture()
                if not job.future.done():
                    job.future.set_result(result)

    async def run_write(self, fn: Callable[[], T]) -> T:
        """Run one write job through the worker, in arrival order.

        Blocks (cooperatively) while the inbox is full — the
        backpressure that slows producers down to apply speed.  The new
        :attr:`record` is in place before the caller resumes.
        """
        if self._worker is None or self._worker.done():
            raise ProtocolError(
                E_SHUTTING_DOWN,
                f"tenant {self.name!r} is not accepting writes",
            )
        assert self._inbox is not None
        if self._inbox.full():
            self._obs.count("service.backpressure_waits")
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        job = _Job(fn=fn, future=future, context=contextvars.copy_context())
        await self._inbox.put(job)
        self._obs.gauge(
            "service.tenant_queue_depth", float(self._inbox.qsize())
        )
        return await future

    async def stop(self) -> None:
        """Drain the inbox, stop the worker, flush and close the stack.

        Jobs already queued complete first (the inbox is FIFO and the
        stop marker goes in last); then :meth:`BatchedPlatform.close`
        flushes any coalesced leftovers exactly once and seals the WAL.
        """
        if self._worker is not None:
            assert self._inbox is not None
            await self._inbox.put(_STOP)
            await self._worker
            self._worker = None
        await off_loop(self.platform.close)


class TenantManager:
    """The tenant registry: creation, recovery, lookup, shutdown.

    The registry lives on the event loop: every method but
    :meth:`build` and :meth:`recover_all` runs there, so lookups need no
    lock.  :meth:`recover_all` runs before the loop starts; :meth:`build`
    is the one blocking step of a create and runs on an executor thread.
    """

    def __init__(self, root: str | Path, backpressure: int = 64,
                 fsync: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._backpressure = backpressure
        self._fsync = fsync
        self._tenants: dict[str, Tenant] = {}  # loop-confined
        self._creating: set[str] = set()  # loop-confined
        self._closing = False  # loop-confined
        self._obs = get_recorder()

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    @property
    def closing(self) -> bool:
        """Whether shutdown has begun."""
        return self._closing

    def get(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise ProtocolError(
                E_UNKNOWN_TENANT, f"no such tenant {name!r}"
            )
        return tenant

    def describe_all(self) -> list[dict[str, Any]]:
        return [self._tenants[name].describe()
                for name in sorted(self._tenants)]

    def __len__(self) -> int:
        return len(self._tenants)

    # ------------------------------------------------------------------ #
    # Creation
    # ------------------------------------------------------------------ #

    @contextmanager
    def reserving(self, name: str) -> Iterator[None]:
        """Hold ``name`` for one create in flight.

        A second create of the same name is refused at once, so two
        racing creates never build two platforms in one directory.
        """
        if self._closing:
            raise ProtocolError(E_SHUTTING_DOWN, "service is shutting down")
        if name in self._tenants or name in self._creating:
            raise ProtocolError(
                E_TENANT_EXISTS, f"tenant {name!r} already exists"
            )
        self._creating.add(name)
        try:
            yield
        finally:
            self._creating.discard(name)

    def build(self, spec: TenantSpec) -> Tenant:
        """Build a fresh (unpublished) tenant and persist its spec.

        Blocking (instance generation, WAL open, spec write): callers on
        the event loop run it on an executor, inside :meth:`reserving`.
        """
        directory = self.root / spec.name
        durable = self._build_durable(spec, directory)
        try:
            self._write_spec(spec, directory)
        except BaseException:
            durable.close()
            raise
        return Tenant(spec, directory, durable,
                      backpressure=self._backpressure)

    def add(self, tenant: Tenant) -> None:
        """Register a tenant :meth:`build` made and start its worker."""
        self._tenants[tenant.name] = tenant
        tenant.start()
        self._obs.count("service.tenants_created")

    def _build_durable(
        self, spec: TenantSpec, directory: Path
    ) -> DurablePlatform:
        return DurablePlatform(
            spec.build_instance(),
            directory,
            solver=spec.build_solver(),
            snapshot_every=spec.snapshot_every,
            fsync=self._fsync,
        )

    def _write_spec(self, spec: TenantSpec, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            directory / SPEC_FILENAME,
            json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n",
            durable=self._fsync,
        )

    # ------------------------------------------------------------------ #
    # Startup recovery
    # ------------------------------------------------------------------ #

    def recover_all(self) -> list[tuple[str, RecoveryReport | None]]:
        """Rebuild every tenant directory under the root.

        Runs before the event loop starts.  A tenant that ever published
        recovers through :meth:`DurablePlatform.recover` with
        ``strict=True`` — an unverifiable directory refuses to serve
        rather than serving corrupt plans.  A tenant that never
        published (no snapshot on disk) has no durable state by
        construction; it is rebuilt from its regenerated instance.
        Returns ``(name, report-or-None)`` per tenant, in name order.
        """
        results: list[tuple[str, RecoveryReport | None]] = []
        with self._obs.span("service.recover"):
            for spec_path in sorted(self.root.glob(f"*/{SPEC_FILENAME}")):
                directory = spec_path.parent
                spec = TenantSpec.from_dict(
                    json.loads(spec_path.read_text())
                )
                report: RecoveryReport | None = None
                if latest_snapshot(directory) is not None:
                    durable, report = DurablePlatform.recover(
                        directory,
                        solver=spec.build_solver(),
                        snapshot_every=spec.snapshot_every,
                        fsync=self._fsync,
                        strict=True,
                    )
                else:
                    durable = self._build_durable(spec, directory)
                self._tenants[spec.name] = Tenant(
                    spec,
                    directory,
                    durable,
                    recovery=report,
                    backpressure=self._backpressure,
                )
                results.append((spec.name, report))
                self._obs.count("service.tenants_recovered")
        return results

    def start_all(self) -> None:
        """Start every recovered tenant's worker (on the loop)."""
        for tenant in self._tenants.values():
            tenant.start()

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #

    async def close_all(self) -> None:
        """Graceful shutdown: stop accepting, drain workers, seal WALs."""
        self._closing = True
        for tenant in list(self._tenants.values()):
            await tenant.stop()
        self._obs.count("service.shutdowns")


__all__ = [
    "SPEC_FILENAME",
    "Tenant",
    "TenantManager",
    "TenantRecord",
    "TenantSpec",
]
