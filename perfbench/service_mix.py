"""The service workloads: ``repro-gepc serve`` under one client's load.

Eight spec-deterministic meetup tenants run in one server subprocess
(fsync on).  Writes are one-op ``submit`` frames, sent over one HTTP
keep-alive connection, so each tenant's ops arrive in generation order
and stay valid.  Reads (``plan``, ``attendees``, ``summary``) go over one
WebSocket connection, so a read waits for the server (its event loop,
executor and locks, shared with the writes) but never for a write
queued ahead of it in the client.

``service-mix`` plays a seeded Poisson schedule at a fixed offered rate
(open loop), half writes and half reads.  ``service-closed`` sends the
writes back to back while the reader reads back to back alongside them
(closed loop).
"""

from __future__ import annotations

import json
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterator

from loadgen import (
    HttpLane,
    Request,
    WebSocketLane,
    frame,
    latency_from_due,
    poisson_arrivals,
    run_closed_loop,
    run_open_loop,
)
from measure import Pass, percentile
from opgen import OpGenerator

TENANTS = tuple(f"t{i}" for i in range(8))
USERS, EVENTS = 200, 20
# Offered load in requests per second, half of them writes: 45 writes/s
# is about 65% of the writes/s one writer sustains closed loop
# (service-closed) on the reference host (see README.md).
RATE = 90.0
# Per tenant, each block of eight requests holds four writes, two plan
# reads, one attendee read, and one summary read.  The mix is a
# sampling choice (both kinds well sampled), not measured traffic.
READS = ("plan", "plan", "attendees", "summary")
BLOCK = ("write",) * 4 + READS

HERE = Path(__file__).resolve().parent


def tenant_spec(name: str) -> Any:
    from repro.service.tenants import TenantSpec

    return TenantSpec(name=name, users=USERS, events=EVENTS,
                      seed=1 + TENANTS.index(name))


class Server:
    """One ``serve.py`` subprocess; always stopped by :meth:`stop`."""

    def __init__(self, root: Path, out: Path, trace: bool) -> None:
        self.out = out
        self.log = open(root.parent / f"{root.name}-server.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "--root", str(root),
             "--out", str(out)] + (["--trace"] if trace else []),
            stdout=subprocess.PIPE, stderr=self.log, cwd=HERE.parent,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("serving on "):
                raise RuntimeError(f"server did not start: {line!r}")
            host, port = line.split()[2].rsplit(":", 1)
            self.host, self.port = host, int(port)
        except BaseException:
            self.kill()
            raise

    def stop(self) -> dict:
        """Graceful SIGTERM shutdown; returns what the launcher wrote."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop within 60 s")
        finally:
            self.proc.stdout.close()
            self.log.close()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")
        return json.loads(self.out.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _rpc(lane: HttpLane, frame_id: str, action: str, **fields: Any) -> dict:
    response = lane.call(frame(frame_id, action, **fields))
    if not response.get("ok"):
        raise RuntimeError(f"{action} failed: {response.get('error')}")
    return response


def _start(root: Path, out: Path, trace: bool, result: Pass) -> Server:
    """Start the server and create every tenant (timed as set-up)."""
    begin = time.perf_counter()
    server = Server(root, out, trace)
    try:
        lane = HttpLane(server.host, server.port)
        try:
            for name in TENANTS:
                _rpc(lane, f"create-{name}", "create",
                     spec=tenant_spec(name).to_dict())
            result.setup_s.append(time.perf_counter() - begin)
            utilities = []
            for name in TENANTS:
                begin = time.perf_counter()
                utilities.append(_rpc(
                    lane, f"publish-{name}", "publish", tenant=name
                )["utility"])
                result.publish_s.append(time.perf_counter() - begin)
            result.publish_utilities.append(tuple(utilities))
        finally:
            lane.close()
    except BaseException:
        server.kill()
        raise
    return server


def build_requests(seed: int, count: int) -> tuple[list[Request], dict]:
    """The seeded schedule and each tenant's ops in send order."""
    rng = random.Random(f"service-mix-{seed}")
    generators = _generators(seed)
    kinds: list[tuple[str, str]] = []
    while len(kinds) < count:
        block = [(name, kind) for name in TENANTS for kind in BLOCK]
        rng.shuffle(block)
        kinds.extend(block)
    ops: dict[str, list] = {name: [] for name in TENANTS}
    requests = []
    for index, (due, (tenant, kind)) in enumerate(
        zip(poisson_arrivals(rng, count, RATE), kinds)
    ):
        if kind == "write":
            requests.append(_write(index, tenant, generators, ops, due))
        else:
            requests.append(_read(index, tenant, kind, rng, due))
    return requests, ops


def build_closed(seed: int, count: int) -> tuple[list[Request], dict,
                                                  Iterator[Request]]:
    """``count`` writes, each tenant's ops, and the endless reads.

    Writes take frame ids ``0 .. count - 1`` and reads the ids after.
    """
    rng = random.Random(f"service-closed-{seed}")
    generators = _generators(seed)
    ops: dict[str, list] = {name: [] for name in TENANTS}
    tenants: list[str] = []
    while len(tenants) < count:
        block = list(TENANTS)
        rng.shuffle(block)
        tenants.extend(block)
    writes = [
        _write(index, tenant, generators, ops)
        for index, tenant in enumerate(tenants[:count])
    ]

    def reads() -> Iterator[Request]:
        reader = random.Random(f"service-closed-reads-{seed}")
        index = count
        while True:
            block = [(name, kind) for name in TENANTS for kind in READS]
            reader.shuffle(block)
            for tenant, kind in block:
                yield _read(index, tenant, kind, reader)
                index += 1

    return writes, ops, reads()


def _generators(seed: int) -> dict[str, OpGenerator]:
    return {
        name: OpGenerator(tenant_spec(name).build_instance(),
                          seed * 7919 + index)
        for index, name in enumerate(TENANTS)
    }


def _write(index: int, tenant: str, generators: dict, ops: dict,
           due: float = 0.0) -> Request:
    from repro.service.protocol import encode_operations

    operation = generators[tenant].next()
    ops[tenant].append(operation)
    text = frame(index, "submit", tenant=tenant,
                 ops=encode_operations([operation]))
    return Request(due=due, lane=0, kind="write", tenant=tenant, frame=text)


def _read(index: int, tenant: str, kind: str, rng: random.Random,
          due: float = 0.0) -> Request:
    if kind == "plan":
        text = frame(index, "plan", tenant=tenant, user=rng.randrange(USERS))
    elif kind == "attendees":
        text = frame(index, "attendees", tenant=tenant,
                     event=rng.randrange(EVENTS))
    else:
        text = frame(index, "summary", tenant=tenant)
    return Request(due=due, lane=1, kind="read", tenant=tenant, frame=text)


def _served_state(server: Server) -> dict[str, tuple]:
    lane = HttpLane(server.host, server.port)
    try:
        return {
            name: (
                _rpc(lane, f"summary-{name}", "summary", tenant=name)["audit"],
                _rpc(lane, f"plans-{name}", "plan-summary",
                     tenant=name)["assignments"],
            )
            for name in TENANTS
        }
    finally:
        lane.close()


def _replay(ops: dict[str, list]) -> dict[str, tuple[float, list]]:
    """Each tenant's ops through an in-process EBSNPlatform."""
    from repro.core.plan import PlanSummary
    from repro.platform import EBSNPlatform

    replayed = {}
    for name in TENANTS:
        spec = tenant_spec(name)
        platform = EBSNPlatform(spec.build_instance(),
                                solver=spec.build_solver())
        platform.publish_plans()
        for operation in ops[name]:
            platform.submit(operation)
        replayed[name] = (
            platform.audit()["utility"],
            [list(events) for events in PlanSummary.of(platform.plan).assignments],
        )
    return replayed


def run_service_mix(state: Path, seed: int, count: int, repeats: int,
                    recoveries: int, trace: bool = False,
                    closed: bool = False) -> tuple[Pass, dict]:
    """Returns the pass and the raw material of the traced split.

    ``count`` is the number of requests open loop, of writes closed loop.
    """
    result = Pass()
    root = state / "service"
    out = state / "service-server.json"
    server = None
    try:
        for _ in range(repeats):
            if server is not None:
                server.stop()
                server = None
            shutil.rmtree(root, ignore_errors=True)
            server = _start(root, out, trace, result)
        lanes = [HttpLane(server.host, server.port),
                 WebSocketLane(server.host, server.port)]
        try:
            if closed:
                requests, ops, reads = build_closed(seed, count)
                start, outcomes, sent = run_closed_loop(requests, reads, lanes)
                requests = requests + [request for request, _ in sent]
                outcomes = outcomes + [outcome for _, outcome in sent]
            else:
                requests, ops = build_requests(seed, count)
                start, outcomes = run_open_loop(requests, lanes)
        finally:
            for lane in lanes:
                lane.close()
        served = _served_state(server)
        stopped = server.stop()
        server = None

        recovered = []
        for _ in range(recoveries):
            begin = time.perf_counter()
            server = Server(root, out, trace)
            result.recover_s.append(time.perf_counter() - begin)
            recovered.append(_served_state(server))
            restarted = server.stop()
            server = None
    finally:
        if server is not None:
            server.kill()

    _score(result, start, requests, outcomes, paced=not closed)
    result.peak_rss_mib = stopped["peak_rss_mib"]
    result.utility = sum(audit["utility"] for audit, _ in served.values())
    result.dif = sum(audit["total_dif"] for audit, _ in served.values())
    result.check(
        "check_plan reports 0 violations",
        all(audit["violations"] == 0 for audit, _ in served.values()),
    )
    result.check(
        "restarted service serves the same utility and plans",
        all(
            served[name][0]["utility"] == restart[name][0]["utility"]
            and served[name][1] == restart[name][1]
            for restart in recovered
            for name in TENANTS
        ),
    )
    replayed = _replay(ops)
    result.check(
        "served summary and plan-summary equal an in-process replay",
        all(
            served[name][0]["utility"] == replayed[name][0]
            and served[name][1] == replayed[name][1]
            for name in TENANTS
        ),
    )
    result.layer["wal_bytes"] = sum(
        (root / name / "wal.jsonl").stat().st_size for name in TENANTS
    )
    result.layer["wal_appends"] = sum(len(v) for v in ops.values())
    shutil.rmtree(root, ignore_errors=True)
    raw = {
        "start": start,
        "requests": requests,
        "outcomes": outcomes,
        "server_spans": stopped["spans"],
        "restart_spans": restarted["spans"],
    }
    return result, raw


def _score(result: Pass, start: float, requests: list[Request],
           outcomes: list, paced: bool) -> None:
    """Latency from the due time when ``paced``, else from the send."""
    late = []
    last_write = start
    for request, outcome in zip(requests, outcomes):
        result.attempted += 1
        response = outcome.response
        ok = outcome.error is None and response is not None and response.get("ok")
        if ok and request.kind == "write":
            ok = (response["applied"] == 1 and not response["rejected"]
                  and response["violations"] == 0)
        if not ok:
            result.failed += 1
            continue
        if paced:
            latency = latency_from_due(start, request, outcome)
            late.append(outcome.sent - (start + request.due))
        else:
            latency = outcome.done - outcome.sent
        if request.kind == "write":
            result.write_s.append(latency)
            result.acked += 1
            last_write = max(last_write, outcome.done)
        else:
            result.read_s.append(latency)
    result.stream_s = last_write - start
    result.layer["loadgen.achieved_ops_s"] = (
        (len(requests) - result.failed) / result.stream_s
    )
    if paced:
        result.layer["loadgen.late_p99_ms"] = percentile(late, 0.99) * 1e3
        result.layer["loadgen.offered_ops_s"] = len(requests) / requests[-1].due
