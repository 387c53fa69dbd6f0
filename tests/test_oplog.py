"""Tests for operation-log serialisation."""

import json

import pytest

from repro.core.gepc import GreedySolver
from repro.core.iep import (
    BudgetChange,
    EtaDecrease,
    EtaIncrease,
    IEPEngine,
    LocationChange,
    NewEvent,
    TimeChange,
    UtilityChange,
    XiDecrease,
    XiIncrease,
)
from repro.geo.point import Point
from repro.platform.oplog import (
    load_operations,
    operation_from_dict,
    operation_to_dict,
    save_operations,
)
from repro.platform.stream import OperationStream
from repro.timeline.interval import Interval

from tests.conftest import random_instance

ALL_OPERATIONS = [
    EtaDecrease(1, 2),
    EtaIncrease(0, 9),
    XiIncrease(2, 3),
    XiDecrease(2, 0),
    TimeChange(1, Interval(4.0, 6.0)),
    LocationChange(0, Point(3.5, -1.0)),
    NewEvent(Point(1, 2), 1, 5, Interval(0.5, 1.5), (0.1, 0.9), fee=2.0),
    UtilityChange(3, 1, 0.75),
    BudgetChange(2, 17.5),
]


class TestRoundTrip:
    @pytest.mark.parametrize("operation", ALL_OPERATIONS, ids=lambda op: type(op).__name__)
    def test_every_type_round_trips(self, operation):
        assert operation_from_dict(operation_to_dict(operation)) == operation

    def test_file_round_trip(self, tmp_path):
        path = save_operations(ALL_OPERATIONS, tmp_path / "log" / "ops.json")
        assert load_operations(path) == ALL_OPERATIONS

    def test_log_is_plain_json(self, tmp_path):
        path = save_operations(ALL_OPERATIONS[:2], tmp_path / "ops.json")
        document = json.loads(path.read_text())
        assert document["operations"][0]["op"] == "eta_decrease"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown operation tag"):
            operation_from_dict({"op": "teleport"})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            operation_to_dict(object())

    def test_version_check(self, tmp_path):
        path = save_operations([], tmp_path / "ops.json")
        document = json.loads(path.read_text())
        document["format_version"] = 42
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="version"):
            load_operations(path)


class TestPropertyRoundTrip:
    """Hypothesis: any representable operation survives the round trip."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    _events = st.integers(0, 50)
    _users = st.integers(0, 200)
    _counts = st.integers(0, 100)
    _coords = st.floats(-100, 100, allow_nan=False)
    _scores = st.floats(0, 1, allow_nan=False)

    _intervals = st.builds(
        lambda start, duration: Interval(start, start + duration),
        st.floats(0, 50, allow_nan=False),
        st.floats(0.1, 10, allow_nan=False),
    )
    _operations = st.one_of(
        st.builds(EtaDecrease, _events, _counts),
        st.builds(EtaIncrease, _events, _counts),
        st.builds(XiIncrease, _events, _counts),
        st.builds(XiDecrease, _events, _counts),
        st.builds(TimeChange, _events, _intervals),
        st.builds(
            LocationChange, _events, st.builds(Point, _coords, _coords)
        ),
        st.builds(UtilityChange, _users, _events, _scores),
        st.builds(
            BudgetChange, _users, st.floats(0, 1000, allow_nan=False)
        ),
        st.builds(
            NewEvent,
            st.builds(Point, _coords, _coords),
            st.integers(0, 10),
            st.integers(10, 20),
            _intervals,
            st.tuples(_scores, _scores, _scores),
            st.floats(0, 50, allow_nan=False),
        ),
    )

    @settings(max_examples=100, deadline=None)
    @given(_operations)
    def test_round_trip(self, operation):
        assert operation_from_dict(operation_to_dict(operation)) == operation


class TestReplay:
    def test_replayed_workload_identical(self, tmp_path):
        """Saving a drawn stream and replaying it produces the exact same
        final plan — the reproducible-workload property."""
        instance = random_instance(5, n_users=12, n_events=6)
        plan = GreedySolver(seed=5).solve(instance).plan
        stream = OperationStream(seed=5)
        engine = IEPEngine()

        operations = []
        current_instance, current_plan = instance, plan
        for _ in range(8):
            operation = next(
                iter(stream.mixed(current_instance, current_plan, 1))
            )
            operations.append(operation)
            result = engine.apply(current_instance, current_plan, operation)
            current_instance, current_plan = result.instance, result.plan

        path = save_operations(operations, tmp_path / "workload.json")
        replayed = load_operations(path)

        replay_instance, replay_plan = instance, plan
        for operation in replayed:
            result = engine.apply(replay_instance, replay_plan, operation)
            replay_instance, replay_plan = result.instance, result.plan

        assert replay_plan == current_plan


class TestNumpyCoercion:
    """Satellite: fuzzer-drawn ops carry numpy scalars; the codec must
    emit plain-JSON builtins (json.dumps rejects np.float64 et al.)."""

    def test_numpy_scalar_fields_serialise(self):
        import numpy as np

        operations = [
            EtaDecrease(np.int64(1), np.int64(2)),
            TimeChange(np.int64(0), Interval(np.float64(1.0), np.float64(2.0))),
            UtilityChange(np.int64(3), np.int64(1), np.float64(0.75)),
            BudgetChange(np.int64(2), np.float64(17.5)),
            NewEvent(
                Point(np.float64(1.0), np.float64(2.0)),
                np.int64(1),
                np.int64(5),
                Interval(np.float64(0.5), np.float64(1.5)),
                tuple(np.asarray([0.1, 0.9])),
                fee=np.float64(2.0),
            ),
        ]
        for operation in operations:
            document = operation_to_dict(operation)
            text = json.dumps(document)  # TypeError before the coercion fix
            assert operation_from_dict(json.loads(text)) == operation

    def test_stream_drawn_ops_round_trip_through_json(self):
        """Every op an OperationStream can draw survives dict -> JSON ->
        dict -> object, bit-identically (NewEvent utilities come straight
        from a numpy RNG)."""
        instance = random_instance(11, n_users=14, n_events=7)
        plan = GreedySolver(seed=11).solve(instance).plan
        engine = IEPEngine()
        stream = OperationStream(seed=11)
        for _ in range(40):
            operation = next(iter(stream.mixed(instance, plan, 1)))
            text = json.dumps(operation_to_dict(operation))
            rebuilt = operation_from_dict(json.loads(text))
            assert rebuilt == operation
            try:
                result = engine.apply(instance, plan, operation)
            except (ValueError, IndexError, KeyError):
                continue
            instance, plan = result.instance, result.plan


class TestAtomicSave:
    """Satellite: a crash mid-save must never corrupt an existing log."""

    def test_crash_during_write_preserves_previous_log(self, tmp_path, monkeypatch):
        import repro.core.fsio as fsio

        path = save_operations(ALL_OPERATIONS[:4], tmp_path / "ops.json")
        assert load_operations(path) == ALL_OPERATIONS[:4]

        real_replace = fsio.os.replace

        def torn_replace(src, dst):  # the crash lands before the rename
            raise OSError("simulated crash mid-save")

        monkeypatch.setattr(fsio.os, "replace", torn_replace)
        with pytest.raises(OSError, match="simulated crash"):
            save_operations(ALL_OPERATIONS, tmp_path / "ops.json")
        monkeypatch.setattr(fsio.os, "replace", real_replace)

        # The old document is untouched and no tmp residue remains.
        assert load_operations(path) == ALL_OPERATIONS[:4]
        assert [p.name for p in tmp_path.iterdir()] == ["ops.json"]

    def test_crash_before_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        import repro.core.fsio as fsio

        monkeypatch.setattr(
            fsio.os, "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            save_operations(ALL_OPERATIONS, tmp_path / "fresh.json")
        assert list(tmp_path.iterdir()) == []


class TestWriteAheadLog:
    def _wal(self, tmp_path):
        from repro.platform.oplog import WriteAheadLog

        return WriteAheadLog(tmp_path / "wal.jsonl", durable=False)

    def test_append_assigns_monotonic_seqs(self, tmp_path):
        wal = self._wal(tmp_path)
        assert [wal.append(op) for op in ALL_OPERATIONS[:3]] == [1, 2, 3]
        assert wal.seq == 3
        wal.close()

    def test_records_are_crc_tagged_jsonl(self, tmp_path):
        from repro.platform.oplog import document_crc

        wal = self._wal(tmp_path)
        wal.append(ALL_OPERATIONS[0])
        wal.close()
        lines = (tmp_path / "wal.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        assert record["seq"] == 1
        assert record["kind"] == "op"
        assert record["crc"] == document_crc(record)

    def test_recover_clean_log(self, tmp_path):
        wal = self._wal(tmp_path)
        for op in ALL_OPERATIONS:
            wal.append(op)
        wal.close()
        recovery = self._wal(tmp_path).recover()
        assert recovery.truncated_records == 0
        assert [op for _, op in recovery.replayable()] == ALL_OPERATIONS

    def test_recover_truncates_partial_line(self, tmp_path):
        wal = self._wal(tmp_path)
        for op in ALL_OPERATIONS[:3]:
            wal.append(op)
        wal.close()
        path = tmp_path / "wal.jsonl"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])  # tear the last record
        recovery = self._wal(tmp_path).recover()
        assert recovery.truncated_records == 1
        assert recovery.last_seq == 2
        # The tail was physically cut: a fresh scan sees a clean log.
        fresh = self._wal(tmp_path).recover()
        assert fresh.truncated_records == 0
        assert fresh.last_seq == 2

    def test_recover_rejects_crc_corruption(self, tmp_path):
        wal = self._wal(tmp_path)
        for op in ALL_OPERATIONS[:3]:
            wal.append(op)
        wal.close()
        path = tmp_path / "wal.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"seq":2', '"seq":9')  # bit-flip, stale CRC
        path.write_text("\n".join(lines) + "\n")
        recovery = self._wal(tmp_path).recover()
        # Records 2 and 3 are both dropped: everything after the first
        # invalid record is untrusted.
        assert recovery.last_seq == 1
        assert recovery.truncated_records == 2

    def test_recover_rejects_sequence_gap(self, tmp_path):
        from repro.platform.oplog import recover_wal

        wal = self._wal(tmp_path)
        wal.append(ALL_OPERATIONS[0])
        wal._seq = 5  # simulate lost records 2..5
        wal.append(ALL_OPERATIONS[1])
        wal.close()
        recovery = recover_wal(tmp_path / "wal.jsonl", truncate=False)
        assert recovery.last_seq == 1
        assert recovery.truncated_records == 1

    def test_reject_markers_skip_replay(self, tmp_path):
        wal = self._wal(tmp_path)
        wal.append(ALL_OPERATIONS[0])
        seq = wal.append(ALL_OPERATIONS[1])
        wal.mark_rejected(seq)
        wal.append(ALL_OPERATIONS[2])
        wal.close()
        recovery = self._wal(tmp_path).recover()
        assert recovery.rejected_seqs == frozenset({2})
        assert [s for s, _ in recovery.replayable()] == [1, 3]
        assert recovery.last_seq == 3

    def test_reject_marker_for_future_seq_is_invalid(self, tmp_path):
        wal = self._wal(tmp_path)
        wal.append(ALL_OPERATIONS[0])
        wal.mark_rejected(7)  # no such operation yet
        wal.close()
        recovery = self._wal(tmp_path).recover()
        assert recovery.last_seq == 1
        assert recovery.truncated_records == 1

    def test_appends_continue_after_recovery(self, tmp_path):
        wal = self._wal(tmp_path)
        for op in ALL_OPERATIONS[:2]:
            wal.append(op)
        wal.close()
        reopened = self._wal(tmp_path)
        reopened.recover()
        assert reopened.append(ALL_OPERATIONS[2]) == 3
        reopened.close()
        assert self._wal(tmp_path).recover().last_seq == 3

    def test_resume_at_never_rewinds(self, tmp_path):
        wal = self._wal(tmp_path)
        wal.append(ALL_OPERATIONS[0])
        wal.resume_at(5)
        assert wal.append(ALL_OPERATIONS[1]) == 6
        wal.resume_at(2)  # lower horizon: a no-op
        assert wal.append(ALL_OPERATIONS[2]) == 7
        wal.close()

    def test_missing_file_recovers_empty(self, tmp_path):
        from repro.platform.oplog import recover_wal

        recovery = recover_wal(tmp_path / "absent.jsonl")
        assert recovery.records == ()
        assert recovery.last_seq == 0


class TestWalWriteFailure:
    """An I/O error poisons the WAL: no seq is reused, acked ops survive."""

    @pytest.fixture
    def eio_at_fdatasync(self, monkeypatch):
        import errno
        import os

        real = getattr(os, "fdatasync", os.fsync)
        fault = {"armed": False}

        def fdatasync(fd):
            if fault["armed"]:
                raise OSError(errno.EIO, "injected EIO")
            real(fd)

        monkeypatch.setattr(os, "fdatasync", fdatasync, raising=False)
        return fault

    @staticmethod
    def _op_seqs(path):
        lines = path.read_text().splitlines()
        return [
            json.loads(line)["seq"] for line in lines
            if json.loads(line)["kind"] == "op"
        ]

    def test_later_writes_refused_without_writing(
        self, tmp_path, eio_at_fdatasync
    ):
        from repro.platform.oplog import (
            WalFailedError,
            WriteAheadLog,
            recover_wal,
        )

        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        assert wal.append(ALL_OPERATIONS[0]) == 1
        eio_at_fdatasync["armed"] = True
        with pytest.raises(OSError, match="injected EIO"):
            wal.append(ALL_OPERATIONS[1])
        eio_at_fdatasync["armed"] = False
        size = path.stat().st_size
        with pytest.raises(WalFailedError):
            wal.append(ALL_OPERATIONS[2])
        with pytest.raises(WalFailedError):
            wal.mark_rejected(1)
        wal.close()
        assert path.stat().st_size == size
        seqs = self._op_seqs(path)
        assert len(seqs) == len(set(seqs))
        recovery = recover_wal(path)
        assert recovery.replayable()[0] == (1, ALL_OPERATIONS[0])

    def test_acknowledged_ops_recover_after_fsync_error(
        self, tmp_path, eio_at_fdatasync
    ):
        from repro.platform.durable import (
            REJECTION_ERRORS,
            WAL_FILENAME,
            DurablePlatform,
        )
        from repro.platform.oplog import WalFailedError, recover_wal

        instance = random_instance(3, n_users=12, n_events=6)
        directory = tmp_path / "state"
        platform = DurablePlatform(
            instance, directory, solver=GreedySolver(seed=3),
            snapshot_every=1000,
        )
        platform.publish_plans()
        operations = list(
            OperationStream(seed=3).mixed(
                platform.instance, platform.plan, 8
            )
        )
        acked = {}
        for operation in operations[:4]:
            try:
                platform.submit(operation)
            except REJECTION_ERRORS:
                continue
            acked[platform.seq] = operation
        assert acked
        eio_at_fdatasync["armed"] = True
        with pytest.raises(OSError, match="injected EIO"):
            platform.submit(operations[4])
        eio_at_fdatasync["armed"] = False
        for operation in operations[5:]:
            with pytest.raises(WalFailedError):
                platform.submit(operation)
        platform.close()

        seqs = self._op_seqs(directory / WAL_FILENAME)
        assert len(seqs) == len(set(seqs))
        recovered, report = DurablePlatform.recover(
            directory, solver=GreedySolver(seed=3), snapshot_every=1000
        )
        recovered.close()
        assert report.ok
        assert report.last_seq >= max(acked)
        replayable = dict(recover_wal(directory / WAL_FILENAME).replayable())
        assert {seq: replayable.get(seq) for seq in acked} == acked
