"""The asyncio server: HTTP/1.1 + WebSocket over one port.

A deliberately small stdlib-only host for :class:`~repro.service.app
.PlanningApp`.  Each accepted connection is parsed just far enough to
route it: HTTP requests (with keep-alive) by method and path, and
WebSocket messages after an RFC 6455 upgrade, one protocol frame each::

    GET  /healthz      liveness, tenant count, closing flag (no envelope)
    GET  /v1/tenants   alias for the "tenants" action
    POST /v1/rpc       one protocol frame per request body
    WS   /v1/stream    one protocol frame per message, pipelined

Any other path answers 404 ``not-found``, any other method 400
``bad-request``, both as error frames; a WebSocket upgrade to another
path gets the same 404.  A malformed request head or ``content-length``
gets a plain 400 and the connection closes.

Two entry points share one serve coroutine:

* :func:`run_service` — the blocking ``repro-gepc serve`` body: recover
  tenants, bind, print the readiness line, serve until SIGTERM/SIGINT,
  then shut down gracefully (drain workers, flush batches, seal WALs).
* :class:`ServiceThread` — an in-process server on a background thread
  for tests and the fuzzer.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
from concurrent import futures
from pathlib import Path
from typing import Any, Callable

from repro.obs import get_recorder
from repro.service import ws
from repro.service.app import PlanningApp
from repro.service.protocol import (
    E_BAD_REQUEST,
    E_NOT_FOUND,
    MAX_FRAME_BYTES,
    ProtocolError,
    error_frame,
)
from repro.service.tenants import TenantManager

#: Cap on the request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    409: "Conflict", 413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str]] | None:
    """Parse one request head; ``None`` on a cleanly closed connection."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # keep-alive connection closed between requests
        raise _HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise _HttpError(413, "request head too large")
    if len(head) > MAX_HEAD_BYTES:
        raise _HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, f"malformed request line {lines[0]!r}")
    method, target = parts[0], parts[1]
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return method, target, headers


#: The frame ``GET /v1/tenants`` dispatches.
_TENANTS_FRAME = json.dumps({"v": 1, "id": None, "action": "tenants"})


def _response(
    status: int, payload: dict[str, Any], keep_alive: bool = False
) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    reason = _REASONS.get(status, "Status")
    connection = "keep-alive" if keep_alive else "close"
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"content-type: application/json\r\n"
        f"content-length: {len(body)}\r\n"
        f"connection: {connection}\r\n\r\n"
    ).encode("latin-1") + body


def _no_route(method: str, path: str) -> tuple[dict[str, Any], int]:
    err = ProtocolError(
        E_NOT_FOUND if method in ("GET", "POST") else E_BAD_REQUEST,
        f"no route for {method} {path}",
    )
    return error_frame(None, err), err.http_status


def _content_length(headers: dict[str, str]) -> int:
    raw = headers.get("content-length", "0") or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise _HttpError(400, "bad content-length")
    length = int(raw)
    if length > MAX_FRAME_BYTES:
        raise _HttpError(413, "request body too large")
    return length


class ServiceServer:
    """Bind, accept, and route each request or message to the app."""

    def __init__(
        self, app: PlanningApp, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._obs = get_recorder()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_FRAME_BYTES + MAX_HEAD_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._obs.count("service.connections")
        with self._obs.span("service.accept"):
            try:
                await self._serve_connection(reader, writer)
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                ws.WebSocketError,
            ):
                pass  # peer went away or spoke garbage mid-frame
            except _HttpError as exc:
                try:
                    writer.write(_response(
                        exc.status, {"ok": False, "error": str(exc)}
                    ))
                    await writer.drain()
                except ConnectionError:
                    pass
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:
                    pass

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:  # HTTP keep-alive loop
            head = await _read_head(reader)
            if head is None:
                return
            method, target, headers = head
            if headers.get("upgrade", "").lower() == "websocket":
                await self._serve_websocket(
                    reader, writer, method, target, headers
                )
                return
            keep_alive = await self._serve_http(
                reader, writer, method, target, headers
            )
            if not keep_alive:
                return

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: dict[str, str],
    ) -> bool:
        length = _content_length(headers)
        body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "").lower() != "close"
        path = target.partition("?")[0]
        if method == "GET" and path == "/healthz":
            manager = self.app.manager
            response: dict[str, Any] = {
                "ok": True,
                "tenants": len(manager),
                "closing": manager.closing,
            }
            status = 200
        elif method == "GET" and path == "/v1/tenants":
            response, status = await self.app.dispatch_raw(_TENANTS_FRAME)
        elif method == "POST" and path == "/v1/rpc":
            response, status = await self.app.dispatch_raw(body)
        else:
            response, status = _no_route(method, path)
        writer.write(_response(status, response, keep_alive))
        await writer.drain()
        return keep_alive

    async def _serve_websocket(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        headers: dict[str, str],
    ) -> None:
        key = headers.get("sec-websocket-key")
        if method != "GET" or not key:
            raise _HttpError(400, "malformed websocket upgrade")
        path = target.partition("?")[0]
        if path != "/v1/stream":
            response, status = _no_route(method, path)
            writer.write(_response(status, response))
            await writer.drain()
            return
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "upgrade: websocket\r\n"
                "connection: Upgrade\r\n"
                f"sec-websocket-accept: {ws.accept_key(key)}\r\n"
                "\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        self._obs.count("service.ws_connections")
        while True:
            opcode, payload = await self._read_ws_frame(reader)
            if opcode == ws.OP_CLOSE:
                writer.write(ws.build_frame(ws.OP_CLOSE, payload[:2]))
                await writer.drain()
                return
            if opcode == ws.OP_PONG:
                continue
            if opcode == ws.OP_PING:
                writer.write(ws.build_frame(ws.OP_PONG, payload))
            else:
                raw: str | bytes = (
                    payload.decode("utf-8", "replace")
                    if opcode == ws.OP_TEXT
                    else payload
                )
                response, _ = await self.app.dispatch_raw(raw)
                writer.write(
                    ws.build_frame(ws.OP_TEXT, json.dumps(response).encode())
                )
            await writer.drain()

    async def _read_ws_frame(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, bytes]:
        """One complete message (fragments coalesced, unmasked)."""
        message_opcode: int | None = None
        buffer = bytearray()
        while True:
            fin, opcode, masked, length7, extra_bytes = ws.parse_header(
                await reader.readexactly(2)
            )
            length = ws.decode_extended_length(
                length7,
                await reader.readexactly(extra_bytes) if extra_bytes else b"",
            )
            mask_key = await reader.readexactly(4) if masked else b""
            payload = await reader.readexactly(length) if length else b""
            if masked:
                payload = ws.mask_payload(payload, mask_key)
            if opcode in (ws.OP_CLOSE, ws.OP_PING, ws.OP_PONG):
                return opcode, payload  # control frames are never split
            if opcode != ws.OP_CONT:
                message_opcode = opcode
                buffer = bytearray(payload)
            else:
                if message_opcode is None:
                    raise ws.WebSocketError("continuation without start")
                buffer += payload
            if len(buffer) > ws.MAX_PAYLOAD:
                raise ws.WebSocketError("fragmented message too large")
            if fin:
                assert message_opcode is not None
                return message_opcode, bytes(buffer)


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #

#: Matched by subprocess tests to learn the bound port.
READY_LINE = "serving on"

#: What a bound server hands its starter: loop, stop event, port.
_Handoff = tuple[asyncio.AbstractEventLoop, asyncio.Event, int]


async def _serve(
    manager: TenantManager,
    host: str,
    port: int,
    on_ready: Callable[[_Handoff], None],
) -> None:
    """Serve a recovered ``manager`` until its stop event is set.

    Once bound, ``on_ready((loop, stop_event, port))`` runs on the loop;
    setting the stop event (from any thread, via the loop) drains every
    tenant and seals its WAL before this returns.
    """
    manager.start_all()
    try:
        server = ServiceServer(PlanningApp(manager), host=host, port=port)
        await server.start()
        stop = asyncio.Event()
        on_ready((asyncio.get_running_loop(), stop, server.port))
        await stop.wait()
        await server.stop()
    finally:
        await manager.close_all()


def run_service(
    root: str | Path,
    host: str = "127.0.0.1",
    port: int = 8414,
    backpressure: int = 64,
    fsync: bool = True,
) -> int:
    """The blocking ``repro-gepc serve`` body."""
    manager = TenantManager(root, backpressure=backpressure, fsync=fsync)
    for name, report in manager.recover_all():
        if report is not None:
            print(f"recovered tenant {name}: {report.summary()}",
                  file=sys.stderr)

    def announce(handoff: _Handoff) -> None:
        loop, stop, bound = handoff

        def shut_down() -> None:
            print("shutting down: draining tenants", file=sys.stderr,
                  flush=True)
            stop.set()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, shut_down)
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
        print(
            f"{READY_LINE} {host}:{bound} "
            f"({len(manager)} tenant(s), root={root})",
            flush=True,
        )

    asyncio.run(_serve(manager, host, port, announce))
    return 0


class ServiceThread:
    """An in-process service on a daemon thread (tests and the fuzzer).

    ``start()`` returns once the socket is bound; ``stop()`` performs
    the same graceful shutdown as the signal path (drain workers, flush
    batches, seal WALs).  Usable as a context manager.
    """

    def __init__(
        self,
        root: str | Path,
        host: str = "127.0.0.1",
        backpressure: int = 64,
        fsync: bool = False,
    ) -> None:
        self.root = Path(root)
        self.host = host
        self.port = 0
        #: The service's running loop (for watchdogs); None pre-start.
        self.loop: asyncio.AbstractEventLoop | None = None
        self._backpressure = backpressure
        self._fsync = fsync
        self._stop_event: asyncio.Event | None = None
        self._ready: futures.Future = futures.Future()
        self._thread: threading.Thread | None = None

    def start(self) -> "ServiceThread":
        thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        thread.start()
        try:
            self.loop, self._stop_event, self.port = self._ready.result(
                timeout=30
            )
        except futures.TimeoutError:
            raise RuntimeError("service thread failed to start in time")
        except Exception as exc:
            raise RuntimeError("service thread failed to start") from exc
        self._thread = thread
        return self

    def _run(self) -> None:
        try:
            manager = TenantManager(
                self.root, backpressure=self._backpressure, fsync=self._fsync
            )
            manager.recover_all()
            asyncio.run(
                _serve(manager, self.host, 0, self._ready.set_result)
            )
        except BaseException as exc:
            if self._ready.done():
                raise
            self._ready.set_exception(exc)

    def stop(self) -> None:
        if self._thread is None:
            return
        assert self.loop is not None and self._stop_event is not None
        self.loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop in time")
        self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


__all__ = [
    "READY_LINE",
    "ServiceServer",
    "ServiceThread",
    "run_service",
]
