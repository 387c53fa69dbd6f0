"""Service wire-protocol conformance (ISSUE 9).

Every refusal must be a structured error frame with the named code —
and must leave tenant state provably untouched (same durable seq, same
plan, same applied log).  Runs against a real in-process server over
both transports.
"""

import asyncio
import http.client
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.iep.operations import BudgetChange
from repro.obs import Recorder, get_recorder, recording
from repro.service import (
    PROTOCOL_VERSION,
    PlanningApp,
    ServiceClient,
    ServiceError,
    ServiceThread,
    TenantManager,
    WebSocketClient,
    ws,
)
from repro.service.protocol import (
    ACTIONS,
    E_ALREADY_PUBLISHED,
    E_BAD_FRAME,
    E_BAD_REQUEST,
    E_BAD_SPEC,
    E_INVALID_OP,
    E_NOT_FOUND,
    E_NOT_PUBLISHED,
    E_TENANT_EXISTS,
    E_UNKNOWN_ACTION,
    E_UNKNOWN_TENANT,
    E_VERSION_MISMATCH,
    MAX_FRAME_BYTES,
    encode_operations,
)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("service-protocol")
    with ServiceThread(root) as svc:
        with ServiceClient(svc.host, svc.port) as client:
            client.create_tenant(
                {"name": "alpha", "kind": "meetup", "users": 12,
                 "events": 6, "seed": 1}
            )
            client.publish("alpha")
            client.create_tenant(
                {"name": "beta", "kind": "meetup", "users": 10,
                 "events": 5, "seed": 2}
            )
        yield svc


@pytest.fixture()
def client(service):
    with ServiceClient(service.host, service.port) as c:
        yield c


@pytest.fixture()
def ws_client(service):
    with WebSocketClient(service.host, service.port) as c:
        yield c


def raw_exchange(service, head: str) -> str:
    """Send one raw request head; return all the server sends back.

    Every exchange sent this way ends with the server closing the
    connection, so reading to EOF collects the whole response.
    """
    chunks = []
    with socket.create_connection(
        (service.host, service.port), timeout=10
    ) as sock:
        sock.sendall(head.encode("latin-1"))
        while chunk := sock.recv(4096):
            chunks.append(chunk)
    return b"".join(chunks).decode("latin-1")


def state_of(client, tenant="alpha"):
    """Everything an errored frame must not have changed."""
    summary = client.summary(tenant)
    return (
        summary["seq"],
        client.plan_summary(tenant),
        client.rpc("oplog", tenant=tenant)["ops"],
    )


class TestFrameValidation:
    def test_non_json_body_is_bad_frame(self, client):
        before = state_of(client)
        status, response = client.raw_post(b"{definitely not json")
        assert status == 400
        assert response["ok"] is False
        assert response["error"]["code"] == E_BAD_FRAME
        assert state_of(client) == before

    def test_non_object_frame_is_bad_frame(self, client):
        status, response = client.raw_post(b'[1, 2, 3]')
        assert status == 400
        assert response["error"]["code"] == E_BAD_FRAME

    def test_missing_version_is_version_mismatch(self, client):
        status, response = client.raw_post(
            json.dumps({"id": 1, "action": "ping"}).encode()
        )
        assert status == 400
        assert response["error"]["code"] == E_VERSION_MISMATCH

    def test_future_version_is_version_mismatch(self, client):
        before = state_of(client)
        status, response = client.raw_post(
            json.dumps(
                {"v": PROTOCOL_VERSION + 1, "id": 9, "action": "submit",
                 "tenant": "alpha",
                 "ops": [{"op": "budget_change", "user": 0,
                          "new_budget": 1.0}]}
            ).encode()
        )
        assert status == 400
        assert response["error"]["code"] == E_VERSION_MISMATCH
        assert response["id"] == 9  # envelope still echoes the id
        assert state_of(client) == before

    def test_missing_action_is_bad_frame(self, client):
        status, response = client.raw_post(
            json.dumps({"v": PROTOCOL_VERSION, "id": 2}).encode()
        )
        assert response["error"]["code"] == E_BAD_FRAME

    def test_wrongly_typed_field_is_bad_frame(self, client):
        response = client.rpc("plan", tenant="alpha", user="zero",
                              check=False)
        assert response["error"]["code"] == E_BAD_FRAME

    def test_unknown_action(self, client):
        response = client.rpc("frobnicate", check=False)
        assert response["error"]["code"] == E_UNKNOWN_ACTION

    def test_action_set_is_pinned(self):
        # Extending the protocol must update docs/service.md alongside.
        assert ACTIONS == (
            "ping", "tenants", "create", "publish", "submit", "plan",
            "attendees", "summary", "plan-summary", "oplog",
        )


class TestTenantErrors:
    def test_unknown_tenant(self, client):
        response = client.rpc("summary", tenant="ghost", check=False)
        assert response["error"]["code"] == E_UNKNOWN_TENANT

    def test_duplicate_create_is_tenant_exists(self, client):
        before = state_of(client)
        with pytest.raises(ServiceError) as err:
            client.create_tenant({"name": "alpha", "kind": "meetup"})
        assert err.value.code == E_TENANT_EXISTS
        assert state_of(client) == before

    @pytest.mark.parametrize(
        "spec",
        [
            {"name": "Bad Name!"},
            {"name": "../escape"},
            {"name": "okname", "kind": "volcano"},
            {"name": "okname", "kind": "city", "city": "atlantis"},
            {"name": "okname", "snapshot_every": 0},
            {"name": "okname", "users": "many"},
        ],
    )
    def test_invalid_specs_are_bad_spec(self, client, spec):
        with pytest.raises(ServiceError) as err:
            client.create_tenant(spec)
        assert err.value.code == E_BAD_SPEC

    def test_submit_before_publish_is_not_published(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("beta", [BudgetChange(0, 30.0)])
        assert err.value.code == E_NOT_PUBLISHED
        # Nothing may have reached beta's WAL.
        assert all(
            t["seq"] == 0 for t in client.tenants()
            if t["name"] == "beta"
        )

    def test_reads_before_publish_are_not_published(self, client):
        for action, fields in (
            ("plan", {"user": 0}),
            ("attendees", {"event": 0}),
            ("summary", {}),
            ("plan-summary", {}),
            ("oplog", {}),
        ):
            response = client.rpc(
                action, tenant="beta", check=False, **fields
            )
            assert response["error"]["code"] == E_NOT_PUBLISHED, action

    def test_double_publish_is_already_published(self, client):
        with pytest.raises(ServiceError) as err:
            client.publish("alpha")
        assert err.value.code == E_ALREADY_PUBLISHED


class TestOperationValidation:
    def test_malformed_ops_rejected_whole_frame(self, client):
        before = state_of(client)
        for ops in (
            [],                              # empty list
            "not a list",
            [{"no_op_tag": True}],
            [{"op": "warp_reality"}],
            [{"op": "budget_change", "user": 0}],  # missing field
            [{"op": "budget_change", "user": 0, "new_budget": 1.0},
             {"op": "nonsense"}],             # one bad op poisons frame
        ):
            response = client.rpc(
                "submit", tenant="alpha", ops=ops, check=False
            )
            assert response["ok"] is False
            assert response["error"]["code"] == E_INVALID_OP
        assert state_of(client) == before

    def test_out_of_range_ids(self, client):
        response = client.rpc("plan", tenant="alpha", user=10_000,
                              check=False)
        assert response["error"]["code"] == E_NOT_FOUND
        response = client.rpc("attendees", tenant="alpha", event=-1,
                              check=False)
        assert response["error"]["code"] == E_NOT_FOUND

    def test_stale_operation_is_reported_not_raised(self, client):
        # An op the engine refuses is a structured per-op rejection in
        # an ok frame (the frame itself was well-formed).
        before_seq = client.summary("alpha")["seq"]
        result = client.submit("alpha", [BudgetChange(0, -1.0)])
        assert result["applied"] == 0
        assert len(result["rejected"]) == 1
        assert result["rejected"][0]["reason"]
        # The rejected op still consumed a WAL seq (reject-marked).
        assert result["seq"] == before_seq + 1
        assert client.rpc("oplog", tenant="alpha")["ops"] == state_of(
            client
        )[2]


class TestTransports:
    def test_healthz(self, client):
        health = client.healthz()
        assert health == {"ok": True, "tenants": 2, "closing": False}

    def test_unknown_route_is_404(self, service):
        conn = http.client.HTTPConnection(service.host, service.port)
        conn.request("GET", "/v2/nothing")
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 404
        assert payload["error"]["code"] == E_NOT_FOUND
        conn.close()

    def test_other_method_is_bad_request(self, service):
        conn = http.client.HTTPConnection(service.host, service.port)
        conn.request("DELETE", "/v1/rpc")
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert payload["ok"] is False
        assert payload["error"]["code"] == E_BAD_REQUEST
        assert payload["error"]["message"] == "no route for DELETE /v1/rpc"
        conn.close()

    def test_oversized_body_is_413(self, service):
        # The head alone is refused: the server never reads the body.
        status = raw_exchange(
            service,
            "POST /v1/rpc HTTP/1.1\r\n"
            f"content-length: {MAX_FRAME_BYTES + 1}\r\n\r\n",
        ).split("\r\n")[0]
        assert status.startswith("HTTP/1.1 413 ")

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, service, length):
        response = raw_exchange(
            service,
            f"POST /v1/rpc HTTP/1.1\r\ncontent-length: {length}\r\n\r\n",
        )
        assert response.split("\r\n")[0] == "HTTP/1.1 400 Bad Request"
        body = json.loads(response.split("\r\n\r\n", 1)[1])
        assert body == {"ok": False, "error": "bad content-length"}

    def test_tenants_alias_route(self, service):
        conn = http.client.HTTPConnection(service.host, service.port)
        conn.request("GET", "/v1/tenants")
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200
        assert {t["name"] for t in payload["tenants"]} == {
            "alpha", "beta"
        }
        conn.close()

    def test_websocket_speaks_the_same_protocol(self, ws_client):
        assert ws_client.ping()["pong"] is True
        response = ws_client.rpc("summary", tenant="ghost", check=False)
        assert response["error"]["code"] == E_UNKNOWN_TENANT

    def test_websocket_bad_frame_keeps_stream_alive(self, ws_client):
        ws_client.send_text("this is not json")
        response = json.loads(ws_client.recv_text())
        assert response["error"]["code"] == E_BAD_FRAME
        # The stream survives the error and keeps serving.
        assert ws_client.ping()["pong"] is True

    def test_websocket_binary_message_is_dispatched(self, ws_client):
        frame = json.dumps(
            {"v": PROTOCOL_VERSION, "id": "bin", "action": "ping"}
        ).encode()
        ws_client._sock.sendall(
            ws.build_frame(ws.OP_BINARY, frame, mask=True)
        )
        response = json.loads(ws_client.recv_text())
        assert response["id"] == "bin"
        assert response["ok"] is True
        assert response["pong"] is True

    def test_websocket_wrong_path_is_refused(self, service):
        response = raw_exchange(
            service,
            "GET /wrong/path HTTP/1.1\r\n"
            f"host: {service.host}\r\n"
            "upgrade: websocket\r\n"
            "connection: Upgrade\r\n"
            "sec-websocket-key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n",
        )
        assert response.split("\r\n")[0] == "HTTP/1.1 404 Not Found"
        body = json.loads(response.split("\r\n\r\n", 1)[1])
        assert body["error"]["code"] == E_NOT_FOUND

    def test_http_and_ws_share_state(self, client, ws_client):
        http_view = client.plan_summary("alpha")
        ws_view = ws_client.plan_summary("alpha")
        assert http_view == ws_view


class TestErrorEnvelope:
    def test_error_frames_echo_version_and_id(self, client):
        response = client.rpc("nope", check=False)
        assert response["v"] == PROTOCOL_VERSION
        assert response["id"] is not None
        assert set(response["error"]) == {"code", "message"}

    def test_http_statuses_match_error_classes(self, client):
        cases = [
            (b"garbage", 400),
            (json.dumps({"v": 1, "action": "summary",
                         "tenant": "ghost"}).encode(), 404),
            (json.dumps({"v": 1, "action": "create",
                         "spec": {"name": "alpha"}}).encode(), 409),
        ]
        for body, expected_status in cases:
            status, _ = client.raw_post(body)
            assert status == expected_status


class CountingExecutor(ThreadPoolExecutor):
    """The loop's default executor, counting every job it is given."""

    def __init__(self) -> None:
        super().__init__(max_workers=2)
        self.jobs = 0

    def submit(self, fn, /, *args, **kwargs):
        self.jobs += 1
        return super().submit(fn, *args, **kwargs)


def test_each_frame_makes_at_most_one_executor_hop(tmp_path):
    executor = CountingExecutor()

    async def install() -> None:
        asyncio.get_running_loop().set_default_executor(executor)

    with (
        ServiceThread(tmp_path) as svc,
        ServiceClient(svc.host, svc.port) as client,
    ):
        asyncio.run_coroutine_threadsafe(install(), svc.loop).result(10)
        client.create_tenant(
            {"name": "hops", "kind": "meetup", "users": 8, "events": 4}
        )
        client.publish("hops")
        for action, call in (
            ("submit", lambda: client.submit("hops", [BudgetChange(0, 30.0)])),
            ("plan", lambda: client.plan("hops", user=0)),
            ("attendees", lambda: client.attendees("hops", event=0)),
            ("summary", lambda: client.summary("hops")),
        ):
            before = executor.jobs
            call()
            assert executor.jobs - before == 1, action
        before = executor.jobs
        client.ping()
        client.tenants()
        client.healthz()
        assert executor.jobs == before


def _frame(action: str, **fields) -> str:
    return json.dumps({"v": PROTOCOL_VERSION, "id": action, "action": action,
                       **fields})


async def _published_app(root):
    """A PlanningApp over one published tenant, without a server."""
    manager = TenantManager(root, fsync=False)
    app = PlanningApp(manager)
    spec = {"name": "t", "kind": "meetup", "users": 8, "events": 4}
    for frame in (_frame("create", spec=spec), _frame("publish", tenant="t")):
        response, status = await app.dispatch_raw(frame)
        assert status == 200, response
    return manager, app


def test_reads_do_not_wait_for_a_write(tmp_path, monkeypatch):
    """While a submit is held mid-flush, ``summary``, ``plan`` and
    ``attendees`` answer at once, from the record published before it."""
    import repro.scale.batched as batched

    entered = threading.Event()
    release = threading.Event()
    check_plan = batched.check_plan

    def held_check_plan(*args):
        entered.set()
        release.wait(timeout=10)
        return check_plan(*args)

    async def probe() -> None:
        manager, app = await _published_app(tmp_path)
        monkeypatch.setattr(batched, "check_plan", held_check_plan)
        op = encode_operations([BudgetChange(0, 30.0)])
        submit = asyncio.ensure_future(
            app.dispatch_raw(_frame("submit", tenant="t", ops=op))
        )
        assert await asyncio.to_thread(entered.wait, 10)
        try:
            for frame in (
                _frame("summary", tenant="t"),
                _frame("plan", tenant="t", user=0),
                _frame("attendees", tenant="t", event=0),
            ):
                response, status = await asyncio.wait_for(
                    app.dispatch_raw(frame), timeout=5
                )
                assert status == 200, response
                assert response["seq"] == 0, response
            assert not submit.done()
        finally:
            release.set()
        response, status = await submit
        assert status == 200 and response["seq"] == 1, response
        response, _ = await app.dispatch_raw(_frame("summary", tenant="t"))
        assert response["seq"] == 1
        await manager.close_all()

    asyncio.run(probe())


def test_reads_leave_the_published_plans_caches_alone(tmp_path):
    """``plan``, ``attendees``, ``summary`` and ``plan-summary`` never
    fill the lazy caches of a plan the writer may be rebinding."""

    async def probe() -> None:
        manager, app = await _published_app(tmp_path)
        plan = manager.get("t").record.plan
        plan.insertion_deltas(0)
        plan.blocked_counts(0)
        blocked = dict(plan._blocked)
        kernel = dict(plan._kernel_cache)
        assert blocked and kernel
        for frame in (
            *(_frame("plan", tenant="t", user=u) for u in range(8)),
            *(_frame("attendees", tenant="t", event=e) for e in range(4)),
            _frame("summary", tenant="t"),
            _frame("plan-summary", tenant="t"),
        ):
            response, status = await app.dispatch_raw(frame)
            assert status == 200, response
        assert plan._blocked.keys() == blocked.keys()
        assert all(plan._blocked[u] is row for u, row in blocked.items())
        assert plan._kernel_cache.keys() == kernel.keys()
        assert all(
            plan._kernel_cache[u] is row for u, row in kernel.items()
        )
        await manager.close_all()

    asyncio.run(probe())


def test_summary_audit_equals_the_platforms_audit(tmp_path):
    """The record's audit (violations carried from the last flush) reads
    exactly what ``BatchedPlatform.snapshot`` recomputes."""

    async def probe() -> None:
        manager, app = await _published_app(tmp_path)
        ops = encode_operations([BudgetChange(0, 30.0), BudgetChange(1, 5.0)])
        for frame in (_frame("summary", tenant="t"),
                      _frame("submit", tenant="t", ops=ops)):
            await app.dispatch_raw(frame)
            response, _ = await app.dispatch_raw(_frame("summary", tenant="t"))
            assert response["audit"] == manager.get("t").platform.snapshot()
        await manager.close_all()

    asyncio.run(probe())


def test_counters_recorded_off_loop_reach_the_recorder(tmp_path):
    """Jobs run through ``_read`` and ``run_write`` see the recorder the
    frame's context installed (``loop.run_in_executor`` alone drops it)."""

    async def probe(recorder: Recorder) -> None:
        manager, app = await _published_app(tmp_path)
        with recording(recorder):
            await app._read(lambda: get_recorder().count("probe.read"))
            await manager.get("t").run_write(
                lambda: get_recorder().count("probe.write")
            )
        await manager.close_all()

    recorder = Recorder()
    asyncio.run(probe(recorder))
    assert recorder.counters["probe.read"] == 1
    assert recorder.counters["probe.write"] == 1
