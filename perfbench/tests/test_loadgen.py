import itertools
import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from loadgen import (
    HttpLane,
    Request,
    frame,
    latency_from_due,
    poisson_arrivals,
    run_closed_loop,
    run_open_loop,
)

STALL_AT = 10  # the request the stub holds
STALL_S = 0.3
GAP_S = 0.02


class _StallOnce(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, like the service
    served = 0

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).served += 1
        if request["id"] == STALL_AT:
            time.sleep(STALL_S)
        body = json.dumps({"v": 1, "id": request["id"], "ok": True}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallOnce)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_stall_shows_in_every_request_due_during_it(stub):
    host, port = stub
    requests = [
        Request(due=i * GAP_S, lane=0, kind="read", tenant="t",
                frame=frame(i, "ping"))
        for i in range(40)
    ]
    lane = HttpLane(host, port)
    try:
        start, outcomes = run_open_loop(requests, [lane])
    finally:
        lane.close()
    assert all(o.error is None and o.response["ok"] for o in outcomes)
    stalled = outcomes[STALL_AT]
    assert stalled.done - stalled.sent >= STALL_S
    during = [
        (request, outcome)
        for request, outcome in zip(requests, outcomes)
        if stalled.sent < start + request.due < stalled.done
    ]
    assert len(during) >= int(STALL_S / GAP_S) - 2
    for request, outcome in during:
        # Counted from its due time, each waited out the stall's rest...
        assert latency_from_due(start, request, outcome) >= (
            stalled.done - (start + request.due)
        )
        # ...which its own round trip, timed from the send, would hide.
        assert outcome.done - outcome.sent < STALL_S / 2


def test_poisson_arrivals_are_seeded_and_hold_the_rate():
    first = poisson_arrivals(random.Random(1), 4000, 200.0)
    assert first == poisson_arrivals(random.Random(1), 4000, 200.0)
    assert first != poisson_arrivals(random.Random(2), 4000, 200.0)
    assert 4000 / first[-1] == pytest.approx(200.0, rel=0.05)


def test_closed_loop_reads_alongside_the_writes_until_they_end(stub):
    host, port = stub
    writes = [
        Request(due=0.0, lane=0, kind="write", tenant="t",
                frame=frame(i, "ping"))
        for i in range(20)
    ]
    reads = (
        Request(due=0.0, lane=1, kind="read", tenant="t",
                frame=frame(100 + n, "ping"))
        for n in itertools.count()
    )
    lanes = [HttpLane(host, port), HttpLane(host, port)]
    try:
        start, outcomes, sent = run_closed_loop(writes, reads, lanes)
    finally:
        for lane in lanes:
            lane.close()
    assert all(o.error is None and o.response["ok"] for o in outcomes)
    # The stalled write held the writer, and the reader kept reading.
    assert outcomes[STALL_AT].done - outcomes[STALL_AT].sent >= STALL_S
    assert len(sent) > int(STALL_S / GAP_S)
    assert all(o.error is None and o.sent >= start for _, o in sent)
