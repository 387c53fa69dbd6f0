"""Blocking clients for the planning service (tests, fuzzer, bench).

Two transports, one call shape::

    with ServiceClient("127.0.0.1", port) as http_client:
        http_client.create_tenant({"name": "auckland", "kind": "city"})
        http_client.publish("auckland")
        result = http_client.submit("auckland", [EtaDecrease(3, 12)])

    with WebSocketClient("127.0.0.1", port) as ws_client:
        ws_client.ping()

``rpc(action, ..., check=False)`` returns the raw response frame
(including structured errors) for protocol-conformance tests; with the
default ``check=True`` a non-``ok`` response raises
:class:`ServiceError` carrying the wire error code.

Both clients are deliberately synchronous: the concurrency tests drive
them from plain threads, which is exactly how the service's backpressure
and single-writer ordering get exercised from outside the event loop.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import socket
from typing import Any

from repro.core.iep.operations import AtomicOperation
from repro.platform.oplog import operation_from_dict
from repro.service import ws
from repro.service.protocol import (
    PROTOCOL_VERSION,
    encode_operations,
)


class ServiceError(RuntimeError):
    """A non-``ok`` response frame (``.code`` is the wire error code)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class _RpcMixin:
    """The action surface, shared verbatim by both transports."""

    def rpc(self, action: str, *, check: bool = True,
            **fields: Any) -> dict[str, Any]:
        raise NotImplementedError

    # -- tenant lifecycle ---------------------------------------------- #

    def ping(self) -> dict[str, Any]:
        return self.rpc("ping")

    def tenants(self) -> list[dict[str, Any]]:
        return self.rpc("tenants")["tenants"]

    def create_tenant(self, spec: dict[str, Any]) -> dict[str, Any]:
        return self.rpc("create", spec=spec)["tenant"]

    def publish(self, tenant: str) -> float:
        return self.rpc("publish", tenant=tenant)["utility"]

    # -- writes --------------------------------------------------------- #

    def submit(
        self, tenant: str, operations: list[AtomicOperation]
    ) -> dict[str, Any]:
        return self.rpc(
            "submit", tenant=tenant, ops=encode_operations(operations)
        )

    # -- reads ---------------------------------------------------------- #

    def plan(self, tenant: str, user: int) -> list[int]:
        return self.rpc("plan", tenant=tenant, user=user)["events"]

    def attendees(self, tenant: str, event: int) -> list[int]:
        return self.rpc("attendees", tenant=tenant, event=event)["users"]

    def summary(self, tenant: str) -> dict[str, Any]:
        return self.rpc("summary", tenant=tenant)

    def plan_summary(self, tenant: str) -> list[list[int]]:
        """Per-user sorted assignments — the bit-identity comparator."""
        return self.rpc("plan-summary", tenant=tenant)["assignments"]

    def oplog(self, tenant: str) -> list[AtomicOperation]:
        """The tenant's applied log, decoded back into operations."""
        return [
            operation_from_dict(doc)
            for doc in self.rpc("oplog", tenant=tenant)["ops"]
        ]

    # -- shared plumbing ------------------------------------------------ #

    _next_id = 0

    def _frame(self, action: str, fields: dict[str, Any]) -> str:
        self._next_id += 1
        frame = {"v": PROTOCOL_VERSION, "id": self._next_id,
                 "action": action}
        frame.update(fields)
        return json.dumps(frame)

    def _finish(
        self, response: dict[str, Any], check: bool
    ) -> dict[str, Any]:
        if check and not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(
                error.get("code", "internal"),
                error.get("message", "unknown error"),
            )
        return response


class ServiceClient(_RpcMixin):
    """HTTP transport: ``POST /v1/rpc`` over one keep-alive connection."""

    def __init__(
        self, host: str, port: int, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(
            host, port, timeout=timeout
        )

    def rpc(self, action: str, *, check: bool = True,
            **fields: Any) -> dict[str, Any]:
        body = self._frame(action, fields)
        self._conn.request(
            "POST",
            "/v1/rpc",
            body=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = self._conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return self._finish(payload, check)

    def raw_post(self, body: bytes) -> tuple[int, dict[str, Any]]:
        """POST arbitrary bytes to /v1/rpc (malformed-frame tests)."""
        self._conn.request("POST", "/v1/rpc", body=body)
        response = self._conn.getresponse()
        return response.status, json.loads(
            response.read().decode("utf-8")
        )

    def healthz(self) -> dict[str, Any]:
        self._conn.request("GET", "/healthz")
        response = self._conn.getresponse()
        return json.loads(response.read().decode("utf-8"))

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class WebSocketClient(_RpcMixin):
    """WebSocket transport: one frame per message on ``/v1/stream``.

    :meth:`send` and :meth:`receive` pipeline: send several frames, then
    read their responses in the same order.
    """

    def __init__(
        self, host: str, port: int, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection(
            (host, port), timeout=timeout
        )
        self._file = self._sock.makefile("rb")
        self._handshake()

    def _handshake(self) -> None:
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        self._sock.sendall(
            (
                "GET /v1/stream HTTP/1.1\r\n"
                f"host: {self.host}:{self.port}\r\n"
                "upgrade: websocket\r\n"
                "connection: Upgrade\r\n"
                f"sec-websocket-key: {key}\r\n"
                "sec-websocket-version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        status_line = self._file.readline().decode("latin-1")
        if "101" not in status_line:
            raise ws.WebSocketError(
                f"upgrade refused: {status_line.strip()!r}"
            )
        accept = None
        while True:
            line = self._file.readline().decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "sec-websocket-accept":
                accept = value.strip()
        if accept != ws.accept_key(key):
            raise ws.WebSocketError("bad Sec-WebSocket-Accept")

    def rpc(self, action: str, *, check: bool = True,
            **fields: Any) -> dict[str, Any]:
        self.send(action, **fields)
        return self.receive(check=check)

    def send(self, action: str, **fields: Any) -> None:
        """Send one request frame without waiting for its response."""
        self.send_text(self._frame(action, fields))

    def receive(self, *, check: bool = True) -> dict[str, Any]:
        """The next response frame, in send order."""
        return self._finish(json.loads(self.recv_text()), check)

    def send_text(self, text: str) -> None:
        """One masked text frame (clients MUST mask, RFC 6455 §5.1)."""
        self._sock.sendall(
            ws.build_frame(ws.OP_TEXT, text.encode("utf-8"), mask=True)
        )

    def recv_text(self) -> str:
        opcode, payload = self._recv_frame()
        if opcode == ws.OP_CLOSE:
            raise ws.WebSocketError("server closed the stream")
        return payload.decode("utf-8")

    def _read_exact(self, n: int) -> bytes:
        data = self._file.read(n)
        if data is None or len(data) != n:
            raise ws.WebSocketError("connection closed mid-frame")
        return data

    def _recv_frame(self) -> tuple[int, bytes]:
        while True:
            fin, opcode, masked, length7, extra_bytes = ws.parse_header(
                self._read_exact(2)
            )
            length = ws.decode_extended_length(
                length7,
                self._read_exact(extra_bytes) if extra_bytes else b"",
            )
            mask_key = self._read_exact(4) if masked else b""
            payload = self._read_exact(length) if length else b""
            if masked:
                payload = ws.mask_payload(payload, mask_key)
            if opcode == ws.OP_PING:
                self._sock.sendall(
                    ws.build_frame(ws.OP_PONG, payload, mask=True)
                )
                continue
            if opcode == ws.OP_PONG:
                continue
            if not fin:
                raise ws.WebSocketError(
                    "unexpected fragmented server frame"
                )
            return opcode, payload

    def close(self) -> None:
        try:
            self._sock.sendall(
                ws.build_frame(
                    ws.OP_CLOSE, (1000).to_bytes(2, "big"), mask=True
                )
            )
        except OSError:
            pass
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "WebSocketClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


__all__ = ["ServiceClient", "ServiceError", "WebSocketClient"]
