"""Tests for the zero-dependency observability layer (``repro.obs``)."""

import asyncio
import json
import threading

from repro import cli
from repro.bench.harness import measure
from repro.core.gepc import GreedySolver
from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    recording,
    render_text,
    to_json,
)

from tests.conftest import random_instance


class TestRecorder:
    def test_counters_sum(self):
        recorder = Recorder()
        recorder.count("hits")
        recorder.count("hits", 2)
        recorder.count("misses", 0.5)
        assert recorder.counter_value("hits") == 3.0
        assert recorder.counter_value("misses") == 0.5
        assert recorder.counter_value("absent") == 0.0

    def test_gauges_last_write_wins(self):
        recorder = Recorder()
        recorder.gauge("peak_mib", 10.0)
        recorder.gauge("peak_mib", 7.5)
        assert recorder.gauges == {"peak_mib": 7.5}

    def test_span_nesting_produces_slash_paths(self):
        recorder = Recorder()
        with recorder.span("solve"):
            assert recorder.current_path == "solve"
            with recorder.span("fill"):
                assert recorder.current_path == "solve/fill"
        assert recorder.current_path == ""
        assert set(recorder.span_stats) == {"solve", "solve/fill"}
        assert recorder.span_stats["solve/fill"].calls == 1

    def test_span_aggregates_repeated_calls(self):
        recorder = Recorder()
        for _ in range(3):
            with recorder.span("round"):
                pass
        stats = recorder.span_stats["round"]
        assert stats.calls == 3
        assert stats.seconds >= 0.0

    def test_span_elapsed_exposed(self):
        recorder = Recorder()
        span = recorder.span("work")
        with span:
            pass
        assert span.elapsed >= 0.0

    def test_span_pops_on_exception(self):
        recorder = Recorder()
        try:
            with recorder.span("outer"):
                with recorder.span("boom"):
                    raise RuntimeError("x")
        except RuntimeError:
            pass
        assert recorder.current_path == ""
        assert "outer/boom" in recorder.span_stats

    def test_overlapping_tasks_nest_only_their_own_spans(self):
        recorder = Recorder()

        async def outer() -> None:
            with recorder.span("a"):
                await asyncio.sleep(0.01)

        async def inner() -> None:
            await asyncio.sleep(0)
            with recorder.span("b"):
                await asyncio.sleep(0.02)

        async def probe() -> None:
            await asyncio.gather(outer(), inner())

        asyncio.run(probe())
        assert sorted(recorder.span_stats) == ["a", "b"]
        assert recorder.current_path == ""

    def test_threads_nest_only_their_own_spans(self):
        recorder = Recorder()
        opened = threading.Barrier(2)

        def work(name: str) -> None:
            with recorder.span(name):
                opened.wait(timeout=10)
                with recorder.span("leaf"):
                    opened.wait(timeout=10)

        threads = [
            threading.Thread(target=work, args=(name,))
            for name in ("left", "right")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(recorder.span_stats) == [
            "left", "left/leaf", "right", "right/leaf",
        ]

    def test_snapshot_round_trip(self):
        recorder = Recorder()
        recorder.count("ops", 4)
        recorder.gauge("utility", 71.5)
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        rebuilt = Recorder.from_snapshot(
            json.loads(to_json(recorder))
        )
        assert rebuilt.snapshot() == recorder.snapshot()

    def test_render_text_lists_all_sections(self):
        recorder = Recorder()
        recorder.count("greedy.checks", 2)
        recorder.gauge("peak", 1.0)
        with recorder.span("solve"):
            pass
        text = render_text(recorder, title="T")
        assert "T: phases" in text
        assert "T: counters" in text
        assert "T: gauges" in text
        assert "greedy.checks" in text


class TestNullRecorder:
    def test_default_recorder_is_shared_noop(self):
        recorder = get_recorder()
        assert recorder is NULL_RECORDER
        assert isinstance(recorder, NullRecorder)
        assert recorder.enabled is False

    def test_noop_records_nothing(self):
        null = NullRecorder()
        with null.span("anything"):
            null.count("c", 5)
            null.gauge("g", 1.0)
        assert null.counter_value("c") == 0.0
        # Shared span instance: instrumented hot loops allocate nothing.
        assert null.span("a") is null.span("b")

    def test_recording_restores_previous_recorder(self):
        with recording() as outer:
            assert get_recorder() is outer
            with recording() as inner:
                assert get_recorder() is inner
            assert get_recorder() is outer
        assert get_recorder() is NULL_RECORDER


class TestInstrumentation:
    def test_greedy_records_counters_and_spans(self):
        instance = random_instance(0, n_users=12, n_events=6)
        with recording() as recorder:
            GreedySolver(seed=0).solve(instance)
        assert recorder.counter_value("greedy.candidates_evaluated") > 0
        assert recorder.counter_value("greedy.feasibility_checks") > 0
        assert "greedy.grab" in recorder.span_stats

    def test_solve_without_recording_is_unobserved(self):
        # Same workload, no active recorder: nothing leaks into a later one.
        instance = random_instance(0, n_users=12, n_events=6)
        GreedySolver(seed=0).solve(instance)
        with recording() as recorder:
            pass
        assert recorder.counters == {}
        assert recorder.span_stats == {}

    def test_measure_records_bench_span_and_gauge(self):
        with recording() as recorder:
            value, result = measure("unit", lambda: 41 + 1)
        assert value == 42
        assert result.seconds >= 0.0
        assert "bench.unit" in recorder.span_stats
        assert "bench.unit.peak_mib" in recorder.gauges


class TestCLITrace:
    def test_trace_prints_phase_table_to_stderr(self, capsys):
        code = cli.main(
            ["solve", "--city", "beijing", "--scale", "0.25", "--trace"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Trace: solve" in captured.err
        assert "greedy.grab" in captured.err
        assert "greedy.candidates_evaluated" in captured.err

    def test_trace_json_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = cli.main(
            [
                "solve",
                "--city",
                "beijing",
                "--scale",
                "0.25",
                "--trace-json",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        document = json.loads(out.read_text())
        assert set(document) == {"counters", "gauges", "spans"}
        assert document["counters"]["greedy.candidates_evaluated"] > 0
        assert any(path.startswith("bench.") for path in document["spans"])
