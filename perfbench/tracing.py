"""Timing shims around the planning stack's public functions.

The benchmark traces from its own files: :func:`install` replaces each
measured function (where its caller looks it up) with a wrapper that
records a span, and the returned callable puts every original back.
Nothing inside ``src/`` is edited; a function that was renamed or
deleted makes :func:`install` fail loudly instead of reading as zero.

A span is ``[id, name, op, start, end, parent, attrs]``.  ``op`` ties
every span of one client operation together: the op index in process,
the frame id inside the server.  The current ``(span, op)`` pair lives
in a :class:`contextvars.ContextVar`, so asyncio tasks keep separate
stacks, and :meth:`Tracer.carry` moves it onto executor threads, which
do not inherit context.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

_CURRENT: contextvars.ContextVar[tuple[int | None, Any]] = (
    contextvars.ContextVar("perfbench_span", default=(None, None))
)


class Tracer:
    """In-memory span recorder; spans are written out when a run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)

    @contextmanager
    def op(self, op_id: Any) -> Iterator[None]:
        """Make ``op_id`` the operation of every span opened inside."""
        token = _CURRENT.set((None, op_id))
        try:
            yield
        finally:
            _CURRENT.reset(token)

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time the block; the yielded dict becomes the span's attrs."""
        parent, op = _CURRENT.get()
        span_id = next(self._ids)
        attrs: dict = {}
        token = _CURRENT.set((span_id, op))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append([span_id, name, op, start, end, parent, attrs])

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere, as a child of the current one."""
        parent, op = _CURRENT.get()
        self.spans.append([next(self._ids), name, op, start, end, parent, {}])

    def carry(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """``fn`` bound to the caller's span, for another thread."""
        current = _CURRENT.get()

        def job() -> Any:
            token = _CURRENT.set(current)
            try:
                return fn()
            finally:
                _CURRENT.reset(token)

        return job

    def wrap(
        self,
        fn: Callable,
        name: str,
        observe: Callable[[Any, dict], None] | None = None,
    ) -> Callable:
        """``fn`` inside a span; ``observe(result, attrs)`` may annotate."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, attrs)
                return result

        return traced


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, self.original(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner: Any, attr: str, name: str,
             observe: Callable[[Any, dict], None] | None = None) -> None:
        original = self.original(owner, attr)
        self.set(owner, attr, tracer.wrap(original, name, observe))

    @staticmethod
    def original(owner: Any, attr: str) -> Any:
        if attr not in vars(owner):
            raise AttributeError(
                f"{getattr(owner, '__name__', owner)!r} has no {attr!r} "
                "to trace (renamed or deleted?)"
            )
        return vars(owner)[attr]

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every measured layer; returns the function that unwraps."""
    from repro.check.auditor import InvariantAuditor
    from repro.core.gepc.fill import UtilityFill
    from repro.core.gepc.greedy import GreedySolver
    from repro.core.iep import engine, operations, reductions
    from repro.core.plan import GlobalPlan
    from repro.platform import durable, service
    from repro.platform.oplog import WriteAheadLog
    from repro.scale import batched
    from repro.service import app, tenants

    patches = _Patches()
    wrap = functools.partial(patches.wrap, tracer)

    # repro.datasets, as the service builds tenant instances (the
    # in-process workloads time their own build call).
    wrap(tenants.TenantSpec, "build_instance", "datasets.build")

    # repro.core.gepc: publish = grab + fill.
    wrap(GreedySolver, "solve", "gepc.solve")
    wrap(UtilityFill, "fill", "gepc.fill")

    # repro.core.iep: the engine, its rebind step, and the repairs where
    # IEPEngine._dispatch looks them up.
    wrap(engine.IEPEngine, "apply", "iep.apply")
    for cls in (operations.AtomicOperation,
                *operations.AtomicOperation.__subclasses__()):
        if "validate" in vars(cls):
            wrap(cls, "validate", "iep.validate")
        if "apply_to_instance" in vars(cls):
            wrap(cls, "apply_to_instance", "iep.rebind")
    wrap(GlobalPlan, "rebound_to", "iep.rebind")
    for name in ("eta_decrease", "xi_increase", "time_change",
                 "location_change"):
        wrap(engine, name, "iep.repair")
    for name in ("eta_increase", "xi_decrease", "new_event",
                 "utility_change", "budget_change"):
        wrap(reductions, name, "iep.repair")
    wrap(engine, "dif_metric", "iep.dif")

    # repro.core.metrics: the full objective EBSNPlatform.submit reads
    # through IEPResult.utility after every op.
    wrap(engine, "total_utility", "metrics.total_utility")

    # repro.platform
    wrap(service.EBSNPlatform, "submit", "platform.submit")
    wrap(service.EBSNPlatform, "audit", "platform.audit")

    # repro.platform.durable / oplog / snapshot
    wrap(durable.DurablePlatform, "submit", "durable.submit")
    wrap(WriteAheadLog, "append", "durable.wal_append")
    wrap(WriteAheadLog, "mark_rejected", "durable.wal_append")

    def snapshot_size(path: Any, attrs: dict) -> None:
        attrs["bytes"] = path.stat().st_size

    wrap(durable, "save_snapshot", "durable.snapshot", snapshot_size)
    wrap(durable, "recover_wal", "durable.recover_load")
    wrap(durable, "latest_snapshot", "durable.recover_load")
    wrap(durable, "check_plan", "durable.recover_audit")
    wrap(InvariantAuditor, "audit", "durable.recover_audit")

    # repro.scale.batched
    def batch_sizes(result: Any, attrs: dict) -> None:
        attrs["submitted"] = result.submitted
        attrs["folded"] = result.folded

    wrap(batched.BatchedPlatform, "flush", "batched.flush", batch_sizes)
    wrap(batched, "check_plan", "batched.check_plan")

    # repro.service: frame dispatch, the tenant inbox, executor hops.
    _install_service(tracer, patches, app.PlanningApp, tenants.Tenant,
                     tenants.TenantManager)
    return patches.undo


def _install_service(tracer: Tracer, patches: _Patches, planning_app: type,
                     tenant_cls: type, manager_cls: type) -> None:
    dispatch_raw = planning_app.dispatch_raw
    read = planning_app._read
    run_write = tenant_cls.run_write
    recover_all = manager_cls.recover_all

    async def traced_dispatch(self: Any, raw: str | bytes) -> Any:
        try:
            frame_id = json.loads(raw).get("id")
        except (ValueError, AttributeError):
            frame_id = None
        with tracer.op(frame_id), tracer.span("service.dispatch"):
            return await dispatch_raw(self, raw)

    async def traced_read(self: Any, fn: Callable[[], Any]) -> Any:
        with tracer.span("service.read_exec"):
            return await read(self, tracer.carry(fn))

    async def traced_run_write(self: Any, fn: Callable[[], Any]) -> Any:
        with tracer.span("service.run_write") as attrs:
            attrs["queue_depth"] = self.describe()["queue_depth"]
            entered = time.perf_counter()

            def job() -> Any:
                tracer.record("service.inbox_wait", entered,
                              time.perf_counter())
                with tracer.span("service.write_apply"):
                    return fn()

            return await run_write(self, tracer.carry(job))

    def traced_recover_all(self: Any) -> Any:
        with tracer.op("recover"), tracer.span("service.recover"):
            return recover_all(self)

    patches.set(planning_app, "dispatch_raw", traced_dispatch)
    patches.set(planning_app, "_read", traced_read)
    patches.set(tenant_cls, "run_write", traced_run_write)
    patches.set(manager_cls, "recover_all", traced_recover_all)


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #


def self_time(span: list, children: list[list]) -> float:
    """Span duration minus the part of it its children cover."""
    start, end = span[3], span[4]
    covered = 0.0
    cursor = start
    for child in sorted(children, key=lambda c: c[3]):
        lo, hi = max(child[3], cursor), min(child[4], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


class SpanIndex:
    """Spans grouped by operation and parent, for per-layer sums."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.parent_of = {span[0]: span[5] for span in spans}
        self.children: dict[int, list[list]] = {}
        self.by_op: dict[Any, list[list]] = {}
        for span in spans:
            if span[5] is not None:
                self.children.setdefault(span[5], []).append(span)
            self.by_op.setdefault(span[2], []).append(span)

    def named(self, name: str, op: Any = None) -> list[list]:
        pool = self.spans if op is None else self.by_op.get(op, [])
        return [span for span in pool if span[1] == name]

    def total(self, op: Any, name: str) -> float:
        """Seconds ``op`` spent in ``name``, nested repeats counted once."""
        spans = self.named(name, op)
        ids = {span[0] for span in spans}
        return sum(
            span[4] - span[3]
            for span in spans
            if not self._has_ancestor(span, ids)
        )

    def _has_ancestor(self, span: list, ids: set[int]) -> bool:
        parent = span[5]
        while parent is not None:
            if parent in ids:
                return True
            parent = self.parent_of.get(parent)
        return False

    def self_time(self, span: list) -> float:
        return self_time(span, self.children.get(span[0], []))


def rung_table(index: SpanIndex, ops: list[Any],
               rungs: list[tuple[str, float]]) -> list[dict]:
    """Per rung: total, child layers' totals, and the unaccounted rest.

    A rung is a span name whose children should account for its time;
    its remainder is the summed self time of its spans, which only the
    rung's own glue code should fill.
    """
    wanted = set(ops)
    table = []
    for name, tolerance in rungs:
        spans = [s for s in index.named(name) if s[2] in wanted]
        total = sum(s[4] - s[3] for s in spans)
        layers: dict[str, float] = {}
        for span in spans:
            for child in index.children.get(span[0], []):
                layers[child[1]] = (
                    layers.get(child[1], 0.0) + child[4] - child[3]
                )
        remainder = sum(index.self_time(s) for s in spans)
        share = remainder / total if total > 0 else 0.0
        table.append({
            "rung": name,
            "spans": len(spans),
            "total_ms": total * 1e3,
            "layers_ms": {k: v * 1e3 for k, v in sorted(layers.items())},
            "remainder_ms": remainder * 1e3,
            "remainder_share": share,
            "tolerance": tolerance,
            "ok": bool(spans) and share <= tolerance,
        })
    return table
