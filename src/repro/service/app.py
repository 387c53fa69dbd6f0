"""The planning application: one protocol frame in, one frame out.

:class:`PlanningApp` is transport-neutral.  Its core is
:meth:`~PlanningApp.dispatch_raw`: one request frame in, one response
frame and HTTP status out (see :mod:`repro.service.protocol`).
:mod:`repro.service.server` routes HTTP requests and WebSocket messages
to it.

Everything here runs on the event loop.  The tenant registry lives on
the loop too, so a lookup costs no hop.  Blocking platform work never
runs on the loop: writes are ordered through each tenant's
single-writer worker (:meth:`repro.service.tenants.Tenant.run_write`).
A read takes the tenant's published
:class:`~repro.service.tenants.TenantRecord` once on the loop, hops onto
the default executor through :meth:`PlanningApp._read` to read only that
record, and echoes the record's ``seq``: it never waits for a write and
takes no lock.  Tenant builds hop the same way.  Each frame makes at
most one hop; only a create that shutdown overtakes makes a second, to
seal what it built.  Every hop goes through
:func:`repro.service.tenants.off_loop`, which carries the caller's
context (the active recorder and span path) onto the thread.

Errors map to HTTP statuses via :data:`repro.service.protocol
.HTTP_STATUS`; over WebSocket the envelope's ``ok``/``error`` fields
carry the same information.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable

from repro.core.plan import PlanSummary
from repro.obs import get_recorder
from repro.scale.batched import BatchResult
from repro.service.protocol import (
    E_ALREADY_PUBLISHED,
    E_INTERNAL,
    E_NOT_FOUND,
    E_NOT_PUBLISHED,
    E_SHUTTING_DOWN,
    E_UNKNOWN_ACTION,
    ProtocolError,
    decode_operations,
    encode_operations,
    error_frame,
    ok_frame,
    parse_frame,
    require,
)
from repro.service.tenants import Tenant, TenantManager, TenantSpec, off_loop


def _best_effort_id(raw: str | bytes) -> Any:
    """Salvage the request id from a frame that failed validation.

    A version-mismatch or bad-frame error should still echo the id when
    the envelope was at least parseable JSON, so pipelined clients can
    correlate the refusal.
    """
    try:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        frame = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if isinstance(frame, dict):
        identifier = frame.get("id")
        if isinstance(identifier, (str, int, float)) or identifier is None:
            return identifier
    return None


class PlanningApp:
    """Dispatches protocol frames against a :class:`TenantManager`."""

    def __init__(self, manager: TenantManager) -> None:
        self.manager = manager
        self._obs = get_recorder()
        self._actions: dict[
            str, Callable[[dict[str, Any]], Awaitable[dict[str, Any]]]
        ] = {
            "ping": self._do_ping,
            "tenants": self._do_tenants,
            "create": self._do_create,
            "publish": self._do_publish,
            "submit": self._do_submit,
            "plan": self._do_plan,
            "attendees": self._do_attendees,
            "summary": self._do_summary,
            "plan-summary": self._do_plan_summary,
            "oplog": self._do_oplog,
        }

    # ------------------------------------------------------------------ #
    # Frame dispatch (transport-neutral core)
    # ------------------------------------------------------------------ #

    async def dispatch_raw(
        self, raw: str | bytes
    ) -> tuple[dict[str, Any], int]:
        """One frame in, ``(response_frame, http_status)`` out.

        Every refusal is a structured error with tenant state provably
        untouched: validation (parse, version, action, tenant lookup,
        operation decode) all happens before anything reaches a worker.
        """
        frame_id: Any = None
        self._obs.count("service.frames")
        try:
            frame = parse_frame(raw)
            frame_id = frame.get("id")
            action = require(frame, "action", str)
            handler = self._actions.get(action)
            if handler is None:
                raise ProtocolError(
                    E_UNKNOWN_ACTION, f"unknown action {action!r}"
                )
            with self._obs.span(f"service.dispatch.{action}"):
                result = await handler(frame)
            return ok_frame(frame_id, result), 200
        except ProtocolError as err:
            if frame_id is None:
                frame_id = _best_effort_id(raw)
            self._obs.count("service.errors")
            self._obs.count(f"service.errors.{err.code}")
            return error_frame(frame_id, err), err.http_status
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # A handler bug must not kill the connection loop; surface
            # it as a structured internal error and count it loudly.
            self._obs.count("service.errors")
            self._obs.count("service.errors.internal")
            err = ProtocolError(
                E_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
            return error_frame(frame_id, err), err.http_status

    # ------------------------------------------------------------------ #
    # Actions
    # ------------------------------------------------------------------ #

    def _tenant(self, frame: dict[str, Any]) -> Tenant:
        return self.manager.get(require(frame, "tenant", str))

    def _published_tenant(self, frame: dict[str, Any]) -> Tenant:
        tenant = self._tenant(frame)
        if not tenant.published:
            # EBSNPlatform.submit raises RuntimeError pre-publish, which
            # is *not* in its rejection contract — refuse at the
            # protocol layer so nothing touches the WAL.
            raise ProtocolError(
                E_NOT_PUBLISHED,
                f"tenant {tenant.name!r} has not published plans yet",
            )
        return tenant

    def _refuse_if_closing(self) -> None:
        if self.manager.closing:
            raise ProtocolError(
                E_SHUTTING_DOWN, "service is shutting down"
            )

    async def _read(self, fn: Callable[[], Any]) -> Any:
        return await off_loop(fn)

    async def _do_ping(self, frame: dict[str, Any]) -> dict[str, Any]:
        return {"pong": True, "tenants": len(self.manager)}

    async def _do_tenants(self, frame: dict[str, Any]) -> dict[str, Any]:
        return {"tenants": self.manager.describe_all()}

    async def _do_create(self, frame: dict[str, Any]) -> dict[str, Any]:
        spec = TenantSpec.from_dict(require(frame, "spec", dict))
        with self.manager.reserving(spec.name):
            tenant = await self._read(lambda: self.manager.build(spec))
            if self.manager.closing:
                # Shutdown began during the build: seal what was built.
                await self._read(tenant.platform.close)
                self._refuse_if_closing()
            self.manager.add(tenant)
        return {"tenant": tenant.describe()}

    async def _do_publish(self, frame: dict[str, Any]) -> dict[str, Any]:
        tenant = self._tenant(frame)
        if tenant.published:
            raise ProtocolError(
                E_ALREADY_PUBLISHED,
                f"tenant {tenant.name!r} already published its plans",
            )
        self._refuse_if_closing()
        utility = await tenant.run_write(tenant.platform.publish_plans)
        return {"utility": utility, "seq": tenant.seq}

    async def _do_submit(self, frame: dict[str, Any]) -> dict[str, Any]:
        tenant = self._published_tenant(frame)
        self._refuse_if_closing()
        operations = decode_operations(frame.get("ops"))
        obs = self._obs

        def apply() -> BatchResult:
            with obs.span("service.apply"):
                for operation in operations:
                    tenant.platform.enqueue(operation)
                with obs.span("service.flush"):
                    return tenant.platform.flush()

        result = await tenant.run_write(apply)
        obs.count("service.submitted", len(operations))
        obs.count("service.rejected", len(result.rejected))
        return {
            "applied": len(result.applied),
            "folded": result.folded,
            "rejected": [
                {"op": encode_operations([op])[0], "reason": reason}
                for op, reason in result.rejected
            ],
            "utility": result.utility,
            "violations": result.violations,
            "seq": tenant.seq,
        }

    async def _do_plan(self, frame: dict[str, Any]) -> dict[str, Any]:
        tenant = self._published_tenant(frame)
        record = tenant.record
        user = require(frame, "user", int)
        if not 0 <= user < record.instance.n_users:
            raise ProtocolError(
                E_NOT_FOUND, f"tenant {tenant.name!r} has no user {user}"
            )
        plan = record.plan
        assert plan is not None
        return {
            "user": user,
            "events": await self._read(lambda: plan.user_plan(user)),
            "seq": record.seq,
        }

    async def _do_attendees(self, frame: dict[str, Any]) -> dict[str, Any]:
        tenant = self._published_tenant(frame)
        record = tenant.record
        event = require(frame, "event", int)
        if not 0 <= event < record.instance.n_events:
            raise ProtocolError(
                E_NOT_FOUND, f"tenant {tenant.name!r} has no event {event}"
            )
        plan = record.plan
        assert plan is not None
        return {
            "event": event,
            "users": await self._read(lambda: plan.attendees(event)),
            "seq": record.seq,
        }

    async def _do_summary(self, frame: dict[str, Any]) -> dict[str, Any]:
        record = self._published_tenant(frame).record
        return {
            "audit": await self._read(record.audit),
            "stats": record.stats,
            "seq": record.seq,
        }

    async def _do_plan_summary(
        self, frame: dict[str, Any]
    ) -> dict[str, Any]:
        record = self._published_tenant(frame).record
        plan = record.plan
        assert plan is not None

        def summarize() -> list[list[int]]:
            summary = PlanSummary.of(plan)
            return [list(events) for events in summary.assignments]

        return {"assignments": await self._read(summarize), "seq": record.seq}

    async def _do_oplog(self, frame: dict[str, Any]) -> dict[str, Any]:
        """The tenant's applied log — serial-replay ground truth."""
        record = self._published_tenant(frame).record
        operations = await self._read(
            lambda: encode_operations(record.applied_log())
        )
        return {"ops": operations, "seq": record.seq}


__all__ = ["PlanningApp"]
