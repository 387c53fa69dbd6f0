"""Load over one HTTP keep-alive and one WebSocket connection.

Open loop (:func:`run_open_loop`): every request has a due time drawn
from a seeded Poisson schedule.  A lane (one connection, one thread)
sends its requests in order, each no earlier than its due time; when the
connection is still busy with an earlier request, the next one goes out
late.  Latency is counted from the due time, not from the send, so a
stall shows up in every request that was due while it lasted (no
coordinated omission).

Closed loop (:func:`run_closed_loop`): one writer and one reader, each
sending its next request as soon as the previous reply is in.  Latency
is counted from the send.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator, Protocol


@dataclass
class Request:
    due: float  # seconds after the schedule starts
    lane: int
    kind: str  # "write" or "read"
    tenant: str
    frame: str


@dataclass
class Outcome:
    sent: float = 0.0
    done: float = 0.0
    response: dict | None = None
    error: str | None = None


def poisson_arrivals(rng: random.Random, count: int, rate: float) -> list[float]:
    """``count`` arrival times of a Poisson process at ``rate`` per second."""
    times, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        times.append(now)
    return times


class Lane(Protocol):
    def call(self, text: str) -> dict: ...
    def close(self) -> None: ...


class HttpLane:
    """``POST /v1/rpc`` over one keep-alive connection."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def call(self, text: str) -> dict:
        self._conn.request(
            "POST", "/v1/rpc", body=text.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        return json.loads(self._conn.getresponse().read())

    def close(self) -> None:
        self._conn.close()


class WebSocketLane:
    """One frame per message on ``/v1/stream``."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        from repro.service.client import WebSocketClient

        self._client = WebSocketClient(host, port, timeout=timeout)

    def call(self, text: str) -> dict:
        self._client.send_text(text)
        return json.loads(self._client.recv_text())

    def close(self) -> None:
        self._client.close()


def _send(lane: Lane, request: Request, outcome: Outcome) -> bool:
    """One round trip; ``False`` when the lane failed and is unusable."""
    outcome.sent = time.perf_counter()
    try:
        outcome.response = lane.call(request.frame)
    except (OSError, ValueError, http.client.HTTPException) as exc:
        # Transport errors and timeouts count as failed requests.
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.done = time.perf_counter()
        return False
    outcome.done = time.perf_counter()
    return True


def _drive(lane: Lane, requests: list[tuple[int, Request]],
           start: float | None, outcomes: list[Outcome]) -> None:
    """Send in order; with a ``start``, none before its due time."""
    for position, (index, request) in enumerate(requests):
        if start is not None:
            delay = start + request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        if not _send(lane, request, outcomes[index]):
            for rest, _ in requests[position + 1:]:
                outcomes[rest].error = "lane closed after an earlier error"
            return


def run_open_loop(requests: list[Request], lanes: list[Lane],
                  lead: float = 0.05) -> tuple[float, list[Outcome]]:
    """Play the schedule; returns its start time and one outcome each.

    Lane 0 runs on the calling thread, every other lane on its own.
    """
    outcomes = [Outcome() for _ in requests]
    by_lane: list[list[tuple[int, Request]]] = [[] for _ in lanes]
    for index, request in enumerate(requests):
        by_lane[request.lane].append((index, request))
    start = time.perf_counter() + lead
    threads = [
        threading.Thread(
            target=_drive, args=(lane, by_lane[i], start, outcomes),
            name=f"lane-{i}",
        )
        for i, lane in enumerate(lanes)
        if i > 0
    ]
    for thread in threads:
        thread.start()
    try:
        _drive(lanes[0], by_lane[0], start, outcomes)
    finally:
        for thread in threads:
            thread.join()
    return start, outcomes


def run_closed_loop(
    writes: list[Request], reads: Iterator[Request], lanes: list[Lane]
) -> tuple[float, list[Outcome], list[tuple[Request, Outcome]]]:
    """Writer and reader back to back; returns start, writes, reads sent.

    The writer (lane 0, the calling thread) sends ``writes`` in order.
    The reader (lane 1, its own thread) draws from ``reads`` until the
    writer is done, so reads overlap writes for the whole stream; how
    many it sends depends on how fast both are served.
    """
    outcomes = [Outcome() for _ in writes]
    sent: list[tuple[Request, Outcome]] = []
    writer_done = threading.Event()

    def reader() -> None:
        for request in reads:
            if writer_done.is_set():
                return
            outcome = Outcome()
            sent.append((request, outcome))
            if not _send(lanes[1], request, outcome):
                return

    thread = threading.Thread(target=reader, name="lane-1")
    start = time.perf_counter()
    thread.start()
    try:
        _drive(lanes[0], list(enumerate(writes)), None, outcomes)
    finally:
        writer_done.set()
        thread.join()
    return start, outcomes, sent


def latency_from_due(start: float, request: Request, outcome: Outcome) -> float:
    return outcome.done - (start + request.due)


def frame(frame_id: Any, action: str, **fields: Any) -> str:
    body = {"v": 1, "id": frame_id, "action": action}
    body.update(fields)
    return json.dumps(body)
