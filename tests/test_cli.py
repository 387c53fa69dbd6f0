"""Tests for the repro-gepc command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.city == "beijing"
        assert args.solver == "greedy"
        assert args.scale == 1.0

    def test_city_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--city", "nowhere"])


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--city", "beijing"]) == 0
        out = capsys.readouterr().out
        assert "113" in out and "16" in out

    def test_solve_greedy(self, capsys):
        code = main(
            ["solve", "--city", "beijing", "--solver", "greedy", "--scale", "0.3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy" in out
        assert "utility" in out

    def test_solve_gap_small(self, capsys):
        code = main(
            ["solve", "--city", "beijing", "--solver", "gap", "--scale", "0.3"]
        )
        assert code == 0

    def test_compare(self, capsys):
        assert main(["compare", "--city", "beijing", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "gap" in out and "greedy" in out

    def test_export_and_solve_file(self, capsys, tmp_path):
        out_dir = str(tmp_path / "bj")
        assert main(
            ["export", "--city", "beijing", "--scale", "0.3", "--out", out_dir]
        ) == 0
        assert (tmp_path / "bj" / "meta.json").exists()
        assert main(["solve-file", out_dir, "--solver", "greedy"]) == 0
        out = capsys.readouterr().out
        assert "utility" in out

    def test_replay(self, capsys, tmp_path):
        from repro.core.iep import EtaIncrease
        from repro.platform.oplog import save_operations

        dataset = str(tmp_path / "city")
        assert main(
            ["export", "--city", "beijing", "--scale", "0.3", "--out", dataset]
        ) == 0
        oplog = save_operations(
            [EtaIncrease(0, 999)], tmp_path / "ops.json"
        )
        assert main(["replay", dataset, str(oplog)]) == 0
        out = capsys.readouterr().out
        assert "Replay: 1 operations" in out
        assert "violations" in out

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "--city", "beijing", "--scale", "0.4",
             "--operations", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "End-of-run audit" in out
        assert "published" in out


class TestScaleFlags:
    def test_solve_sharded(self, capsys):
        code = main(
            ["solve", "--city", "beijing", "--scale", "0.3",
             "--shards", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded" in out

    def test_shards_reject_gap_solver(self):
        with pytest.raises(SystemExit):
            main(
                ["solve", "--city", "beijing", "--solver", "gap",
                 "--shards", "2"]
            )

    def test_simulate_batched(self, capsys):
        code = main(
            ["simulate", "--city", "beijing", "--scale", "0.3",
             "--operations", "8", "--batch", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batched" in out
        assert "folded" in out

    def test_simulate_batched_defaults_to_serial(self):
        args = build_parser().parse_args(["simulate"])
        assert args.batch == 1
        assert args.shards == 1

    def test_fuzz_sharded_flag_parsed(self):
        args = build_parser().parse_args(["fuzz", "--sharded"])
        assert args.sharded is True


class TestDistanceFlag:
    def test_fuzz_distance_defaults_to_size_rule(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.distance is None

    def test_distance_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--distance", "sparse"])

    @pytest.mark.parametrize(
        "command", ["solve", "compare", "simulate", "replay", "recover"]
    )
    def test_only_fuzz_accepts_distance(self, command):
        # The path is chosen by instance size; only the fuzzer, a
        # checking tool, may pin the path it checks.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--distance", "tiled"])

    def test_solve_tiled(self, capsys, tmp_path):
        import json

        from repro.core.tiles import use_distance_backend

        trace = tmp_path / "trace.json"
        with use_distance_backend("tiled"):
            code = main(
                ["solve", "--city", "beijing", "--scale", "0.3",
                 "--trace-json", str(trace)]
            )
        assert code == 0
        # The scoped pin reaches the solve: without a plane, greedy
        # builds the spatial candidate index.
        assert json.loads(trace.read_text())["counters"]["grid.builds"] >= 1

    def test_fuzz_tiled(self, capsys):
        from repro.geo import distance

        before = distance._FORCED_PATH
        assert main(
            ["fuzz", "--seeds", "1", "--operations", "3", "--users", "9",
             "--events", "6", "--distance", "tiled"]
        ) == 0
        # the pin holds for the run only
        assert distance._FORCED_PATH == before

    def test_solve_tiled_matches_dense(self, capsys):
        from repro.core.tiles import use_distance_backend

        def solver_rows(text):
            # drop the volatile time/memory columns; keep
            # solver/utility/cancelled/violations
            rows = []
            for line in text.splitlines():
                cols = line.split()
                if len(cols) == 6 and cols[0] == "greedy":
                    rows.append((cols[0], cols[1], cols[4], cols[5]))
            return rows

        outputs = {}
        for backend in ("dense", "tiled"):
            with use_distance_backend(backend):
                assert main(
                    ["solve", "--city", "beijing", "--scale", "0.3"]
                ) == 0
            outputs[backend] = solver_rows(capsys.readouterr().out)
        assert outputs["dense"]  # the row pattern actually matched
        assert outputs["tiled"] == outputs["dense"]


class TestDurableFlags:
    def test_simulate_durable_writes_state(self, capsys, tmp_path):
        state = str(tmp_path / "state")
        code = main(
            ["simulate", "--city", "beijing", "--scale", "0.3",
             "--operations", "5", "--durable", state]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "durable" in out
        assert (tmp_path / "state" / "wal.jsonl").exists()
        assert list((tmp_path / "state").glob("snapshot-*.json"))

    def test_recover_after_simulate(self, capsys, tmp_path):
        state = str(tmp_path / "state")
        assert main(
            ["simulate", "--city", "beijing", "--scale", "0.3",
             "--operations", "5", "--durable", state]
        ) == 0
        capsys.readouterr()
        assert main(["recover", state]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "replayed" in out

    def test_recover_empty_directory_fails(self, capsys, tmp_path):
        code = main(["recover", str(tmp_path / "nothing")])
        assert code == 1
        err = capsys.readouterr().err
        assert "no valid snapshot" in err

    def test_recover_torn_tail(self, capsys, tmp_path):
        from repro.platform.durable import _tear_wal_tail

        state = tmp_path / "state"
        assert main(
            ["simulate", "--city", "beijing", "--scale", "0.3",
             "--operations", "6", "--durable", str(state)]
        ) == 0
        _tear_wal_tail(state / "wal.jsonl")
        capsys.readouterr()
        assert main(["recover", str(state)]) == 0
        out = capsys.readouterr().out
        assert "truncated 1 torn record" in out

    def test_fuzz_durable_smoke(self, capsys):
        code = main(
            ["fuzz", "--durable", "--seeds", "1", "--operations", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Crash-recovery fuzz" in out
        assert "mismatches" in out

    def test_fuzz_durable_flag_parsed(self):
        args = build_parser().parse_args(["fuzz", "--durable"])
        assert args.durable is True
        args = build_parser().parse_args(["fuzz"])
        assert args.durable is False

    def test_simulate_defaults_to_memory(self):
        args = build_parser().parse_args(["simulate"])
        assert args.durable is None


class TestFuzzFlags:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--durable", "--service"],
            ["--sharded", "--durable"],
            ["--sharded", "--service"],
        ],
    )
    def test_target_flags_are_mutually_exclusive(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["fuzz", *flags])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [None, "sharded", "durable", "service"])
    def test_reproduce_line_parses_back_to_the_run(
        self, flag, capsys, monkeypatch
    ):
        import shlex

        from repro import cli
        from repro.check import run_fuzz

        def failing(seeds, config, target):
            summary = run_fuzz(seeds, config, target)
            summary.reports[0].violations.append("injected failure")
            return summary

        monkeypatch.setattr(cli, "run_fuzz", failing)
        argv = ["fuzz", "--base-seed", "7", "--seeds", "1",
                "--operations", "3", "--users", "9", "--events", "6"]
        if flag is not None:
            argv.append(f"--{flag}")
        assert main(argv) == 1
        err = capsys.readouterr().err
        (line,) = [
            line.split("reproduce: ", 1)[1]
            for line in err.splitlines() if "reproduce: " in line
        ]
        program, *replay = shlex.split(line)
        assert program == "repro-gepc"
        replayed = build_parser().parse_args(replay)
        original = build_parser().parse_args(argv)
        assert cli.fuzz_run_of(replayed) == cli.fuzz_run_of(original)
        assert (replayed.base_seed, replayed.seeds) == (7, 1)

    def test_reproduce_line_keeps_the_distance_path(self):
        import shlex

        from repro import cli
        from repro.check import FuzzConfig

        line = cli.fuzz_command(7, FuzzConfig(3, 9, 6), "sharded", "tiled")
        replayed = build_parser().parse_args(shlex.split(line)[1:])
        assert (replayed.distance, replayed.sharded) == ("tiled", True)
