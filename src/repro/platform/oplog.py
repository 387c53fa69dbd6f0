"""Operation logs: serialise atomic-operation streams as JSON.

Pairs with :mod:`repro.datasets.io`: a saved dataset plus a saved operation
log is a fully reproducible IEP workload — the unit of exchange for bug
reports and cross-implementation comparisons.  Each operation serialises to
a tagged dictionary; :func:`load_operations` rebuilds the exact objects.

Two log shapes share the dictionary codec:

* :func:`save_operations` / :func:`load_operations` — one JSON document
  holding a whole stream (the replayable-workload archive format),
  written atomically (tmp + rename) so a crash never leaves a truncated
  document;
* :class:`WriteAheadLog` — an fsync'd append-only JSONL file where every
  record carries a sequence number and a CRC, appended *before* the
  operation is applied.  This is the durability spine of
  :class:`repro.platform.durable.DurablePlatform`: after a crash,
  :meth:`WriteAheadLog.recover` detects a torn tail (partial write, bad
  CRC, or sequence gap), truncates it, and returns the replayable prefix.
  See ``docs/durability.md``.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.core.fsio import atomic_write_text, fsync_dir
from repro.core.iep.operations import (
    AtomicOperation,
    BudgetChange,
    EtaDecrease,
    EtaIncrease,
    LocationChange,
    NewEvent,
    TimeChange,
    UtilityChange,
    XiDecrease,
    XiIncrease,
)
from repro.geo.point import Point
from repro.obs import get_recorder
from repro.timeline.interval import Interval

_FORMAT_VERSION = 1


def operation_to_dict(operation: AtomicOperation) -> dict:
    """One atomic operation as a JSON-ready tagged dictionary.

    Every numeric field is coerced to a builtin ``int``/``float``:
    fuzzer- and dataset-generated operations routinely carry numpy
    scalars (``np.float64`` utilities and fees, ``np.int64`` ids), which
    ``json.dumps`` rejects with a ``TypeError``.
    """
    if isinstance(operation, EtaDecrease):
        return {"op": "eta_decrease", "event": int(operation.event),
                "new_upper": int(operation.new_upper)}
    if isinstance(operation, EtaIncrease):
        return {"op": "eta_increase", "event": int(operation.event),
                "new_upper": int(operation.new_upper)}
    if isinstance(operation, XiIncrease):
        return {"op": "xi_increase", "event": int(operation.event),
                "new_lower": int(operation.new_lower)}
    if isinstance(operation, XiDecrease):
        return {"op": "xi_decrease", "event": int(operation.event),
                "new_lower": int(operation.new_lower)}
    if isinstance(operation, TimeChange):
        return {"op": "time_change", "event": int(operation.event),
                "start": float(operation.new_interval.start),
                "end": float(operation.new_interval.end)}
    if isinstance(operation, LocationChange):
        return {"op": "location_change", "event": int(operation.event),
                "x": float(operation.new_location.x),
                "y": float(operation.new_location.y)}
    if isinstance(operation, NewEvent):
        return {"op": "new_event", "x": float(operation.location.x),
                "y": float(operation.location.y),
                "lower": int(operation.lower),
                "upper": int(operation.upper),
                "start": float(operation.interval.start),
                "end": float(operation.interval.end),
                "utilities": [float(u) for u in operation.utilities],
                "fee": float(operation.fee)}
    if isinstance(operation, UtilityChange):
        return {"op": "utility_change", "user": int(operation.user),
                "event": int(operation.event),
                "new_value": float(operation.new_value)}
    if isinstance(operation, BudgetChange):
        return {"op": "budget_change", "user": int(operation.user),
                "new_budget": float(operation.new_budget)}
    raise TypeError(f"unknown operation type {type(operation).__name__}")


def operation_from_dict(document: dict) -> AtomicOperation:
    """Rebuild an atomic operation from its tagged dictionary."""
    kind = document.get("op")
    if kind == "eta_decrease":
        return EtaDecrease(document["event"], document["new_upper"])
    if kind == "eta_increase":
        return EtaIncrease(document["event"], document["new_upper"])
    if kind == "xi_increase":
        return XiIncrease(document["event"], document["new_lower"])
    if kind == "xi_decrease":
        return XiDecrease(document["event"], document["new_lower"])
    if kind == "time_change":
        return TimeChange(
            document["event"], Interval(document["start"], document["end"])
        )
    if kind == "location_change":
        return LocationChange(
            document["event"], Point(document["x"], document["y"])
        )
    if kind == "new_event":
        return NewEvent(
            location=Point(document["x"], document["y"]),
            lower=document["lower"],
            upper=document["upper"],
            interval=Interval(document["start"], document["end"]),
            utilities=tuple(document["utilities"]),
            fee=document.get("fee", 0.0),
        )
    if kind == "utility_change":
        return UtilityChange(
            document["user"], document["event"], document["new_value"]
        )
    if kind == "budget_change":
        return BudgetChange(document["user"], document["new_budget"])
    raise ValueError(f"unknown operation tag {kind!r}")


def save_operations(
    operations: Sequence[AtomicOperation], path: str | Path
) -> Path:
    """Write an operation log as JSON (parents created, atomic).

    The document is written to a temporary file in the target directory,
    fsynced, and renamed into place — a crash mid-write leaves either no
    file or the previous complete one, never a truncated parse error.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "format_version": _FORMAT_VERSION,
        "operations": [operation_to_dict(op) for op in operations],
    }
    return atomic_write_text(path, json.dumps(document, indent=1))


def load_operations(path: str | Path) -> list[AtomicOperation]:
    """Read an operation log written by :func:`save_operations`."""
    document = json.loads(Path(path).read_text())
    if document.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported operation-log version "
            f"{document.get('format_version')}"
        )
    return [operation_from_dict(doc) for doc in document["operations"]]


# ---------------------------------------------------------------------- #
# The write-ahead log
# ---------------------------------------------------------------------- #

KIND_OPERATION = "op"
KIND_REJECT = "reject"


def canonical_json(document: dict) -> str:
    """The byte-stable JSON encoding CRCs are computed over."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def document_crc(record: dict) -> int:
    """CRC32 over the record's canonical encoding (sans the crc field)."""
    body = {key: value for key, value in record.items() if key != "crc"}
    return zlib.crc32(canonical_json(body).encode("utf-8"))


@dataclass(frozen=True)
class WalRecord:
    """One validated WAL record."""

    seq: int
    kind: str
    operation: AtomicOperation | None = None


@dataclass(frozen=True)
class WalRecovery:
    """Outcome of scanning (and possibly truncating) a WAL file.

    ``records`` is the longest valid prefix; ``truncated_records`` and
    ``truncated_bytes`` describe the torn tail that was cut (0 for a
    clean log).  ``last_seq`` is the highest durable operation sequence
    number — the replay horizon for recovery.
    """

    records: tuple[WalRecord, ...]
    truncated_records: int
    truncated_bytes: int

    @property
    def last_seq(self) -> int:
        return max(
            (r.seq for r in self.records if r.kind == KIND_OPERATION),
            default=0,
        )

    @property
    def rejected_seqs(self) -> frozenset[int]:
        return frozenset(
            r.seq for r in self.records if r.kind == KIND_REJECT
        )

    def replayable(self) -> list[tuple[int, AtomicOperation]]:
        """``(seq, operation)`` pairs to replay, rejected ops skipped."""
        rejected = self.rejected_seqs
        return [
            (record.seq, record.operation)
            for record in self.records
            if record.kind == KIND_OPERATION
            and record.seq not in rejected
            and record.operation is not None
        ]


class WalFailedError(RuntimeError):
    """A write to a :class:`WriteAheadLog` that already failed once."""


class WriteAheadLog:
    """An fsync'd append-only JSONL operation log with CRC'd records.

    Contract (see ``docs/durability.md``):

    * :meth:`append` writes ``{"seq": n, "kind": "op", "op": {...},
      "crc": ...}`` plus a newline, flushes, and fsyncs **before** the
      caller applies the operation — the WAL is always at least as new
      as the in-memory state.
    * A rejected operation (the engine refused to apply it) is recorded
      with :meth:`mark_rejected`; recovery skips such sequence numbers,
      so an op is only ever replayed if it was actually applied (or the
      process died before its fate was decided, in which case replaying
      it re-derives the same accept/reject decision deterministically).
    * :meth:`recover` scans the file, validates every record (JSON
      parse, CRC, monotonically increasing op sequence), truncates the
      first invalid record and everything after it (the torn tail of a
      crashed write), and returns the valid prefix.
    * The first exception from a write or sync poisons the log: every
      later :meth:`append`/:meth:`mark_rejected` raises
      :class:`WalFailedError` without writing, so no sequence number is
      ever reused.  Only a new log recovered from disk writes again.
    """

    def __init__(self, path: str | Path, durable: bool = True) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._durable = durable
        self._handle = None  # opened lazily on first append
        self._seq = 0
        self._failure: BaseException | None = None

    @property
    def path(self) -> Path:
        return self._path

    @property
    def seq(self) -> int:
        """Sequence number of the most recently appended operation."""
        return self._seq

    # ------------------------------ writes ----------------------------- #

    def _open(self):
        if self._handle is None:
            self._handle = open(self._path, "ab")
        return self._handle

    def _write_record(self, record: dict) -> None:
        if self._failure is not None:
            raise WalFailedError(
                f"{self._path}: write-ahead log failed earlier "
                f"({self._failure!r}); recover it from disk"
            ) from self._failure
        record["crc"] = document_crc(record)
        line = (canonical_json(record) + "\n").encode("utf-8")
        try:
            handle = self._open()
            handle.write(line)
            handle.flush()
            if self._durable:
                # fdatasync flushes the data and the metadata needed to
                # read it back (the new file size) but skips timestamp
                # updates — all an append-only log needs, at lower cost
                # than fsync.
                getattr(os, "fdatasync", os.fsync)(handle.fileno())
                get_recorder().count("durable.fsyncs")
        except BaseException as exc:
            # The record may or may not be in the file, and a retried
            # fsync can report false success: reusing this seq or
            # guessing its fate could lose acknowledged ops, so every
            # later write is refused instead.
            self._failure = exc
            raise

    def append(self, operation: AtomicOperation) -> int:
        """Durably log ``operation``; returns its sequence number.

        Must be called *before* applying the operation (write-ahead).
        """
        seq = self._seq + 1
        self._write_record(
            {
                "seq": seq,
                "kind": KIND_OPERATION,
                "op": operation_to_dict(operation),
            }
        )
        self._seq = seq
        get_recorder().count("durable.wal_appends")
        return seq

    def mark_rejected(self, seq: int) -> None:
        """Record that the engine refused op ``seq`` (never replay it)."""
        self._write_record({"seq": seq, "kind": KIND_REJECT})
        get_recorder().count("durable.wal_rejects")

    def resume_at(self, seq: int) -> None:
        """Continue appending above ``seq`` (the recovery horizon).

        Used after recovery when the durable horizon exceeds the WAL's
        own last record — a snapshot can outlive a torn tail — so new
        appends never reuse a sequence number already embedded in a
        durable artifact.
        """
        self._seq = max(self._seq, int(seq))

    def sync(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ----------------------------- recovery ---------------------------- #

    def recover(self, truncate: bool = True) -> WalRecovery:
        """Scan the log, cut any torn tail, and position for appends.

        After recovery the log's next :meth:`append` continues the
        sequence from the last durable record.
        """
        self.close()
        recovery = recover_wal(self._path, truncate=truncate)
        self._seq = recovery.last_seq
        if recovery.truncated_records:
            get_recorder().count(
                "durable.wal_truncated_records", recovery.truncated_records
            )
        return recovery


def recover_wal(path: str | Path, truncate: bool = True) -> WalRecovery:
    """Validate a WAL file and (optionally) truncate its torn tail.

    A record is invalid — and marks the start of the torn tail — when its
    line is not complete JSON, its CRC does not match, its kind is
    unknown, or an ``op`` record's sequence number is not exactly the
    previous one plus one.  Everything from the first invalid record to
    EOF is dropped: a torn tail is never replayed.
    """
    path = Path(path)
    if not path.exists():
        return WalRecovery(records=(), truncated_records=0, truncated_bytes=0)
    data = path.read_bytes()
    records: list[WalRecord] = []
    offset = 0
    valid_end = 0
    truncated_records = 0
    last_seq = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            # No terminator: the final write was torn mid-line.
            truncated_records += 1
            break
        line = data[offset:newline]
        record = _parse_record(line, last_seq)
        if record is None:
            # First invalid record: everything after it is untrusted
            # (later records may depend on the lost one).
            truncated_records += data[offset:].count(b"\n")
            break
        records.append(record)
        if record.kind == KIND_OPERATION:
            last_seq = record.seq
        offset = newline + 1
        valid_end = offset
    truncated_bytes = len(data) - valid_end
    if truncate and truncated_bytes:
        with open(path, "r+b") as handle:
            handle.truncate(valid_end)
            handle.flush()
            os.fsync(handle.fileno())
        fsync_dir(path.parent)
    return WalRecovery(
        records=tuple(records),
        truncated_records=truncated_records,
        truncated_bytes=truncated_bytes,
    )


def _parse_record(line: bytes, last_seq: int) -> WalRecord | None:
    """One WAL line as a validated record, or ``None`` if invalid."""
    try:
        document = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(document, dict):
        return None
    crc = document.get("crc")
    if not isinstance(crc, int) or crc != document_crc(document):
        return None
    seq = document.get("seq")
    kind = document.get("kind")
    if not isinstance(seq, int):
        return None
    if kind == KIND_OPERATION:
        if seq != last_seq + 1:
            return None
        try:
            operation = operation_from_dict(document["op"])
        except (KeyError, TypeError, ValueError):
            return None
        return WalRecord(seq=seq, kind=kind, operation=operation)
    if kind == KIND_REJECT:
        if not 1 <= seq <= last_seq:
            return None
        return WalRecord(seq=seq, kind=kind)
    return None
