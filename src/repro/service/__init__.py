"""Multi-tenant async planning service over the durable platform.

ROADMAP item 1: the paper's online IEP problem served as a long-lived
networked system.  Many tenants — each one city
:class:`~repro.core.model.Instance` — are hosted concurrently, each on
its own durability stack (``BatchedPlatform`` → ``DurablePlatform`` →
``EBSNPlatform``), behind a versioned JSON wire protocol spoken over
HTTP and WebSocket.  See ``docs/service.md`` for the protocol
reference, tenant lifecycle, and recovery semantics.

Layers (each importable on its own):

* :mod:`repro.service.protocol` — the wire protocol: frames, error
  codes, the operation codec shared with the WAL.
* :mod:`repro.service.tenants` — tenant specs, single-writer workers
  with backpressure, startup recovery via ``DurablePlatform.recover``.
* :mod:`repro.service.app` — the transport-neutral frame dispatcher.
* :mod:`repro.service.server` — the stdlib asyncio HTTP + WebSocket
  server that routes requests and messages to the dispatcher
  (``repro-gepc serve``), plus :class:`ServiceThread` for in-process
  use.
* :mod:`repro.service.client` — blocking HTTP/WebSocket clients used by
  the tests, the service fuzzer, and the bench harness.
"""

from repro.service.app import PlanningApp
from repro.service.client import ServiceClient, ServiceError, WebSocketClient
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError
from repro.service.server import ServiceServer, ServiceThread, run_service
from repro.service.tenants import Tenant, TenantManager, TenantSpec

__all__ = [
    "PROTOCOL_VERSION",
    "PlanningApp",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceThread",
    "Tenant",
    "TenantManager",
    "TenantSpec",
    "WebSocketClient",
    "run_service",
]
