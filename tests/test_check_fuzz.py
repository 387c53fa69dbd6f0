"""The differential fuzzer: every target's seeded runs are clean,
deterministic and aggregated the same way, and the CLI gate exits by
the summary verdict.

:class:`FuzzTargetContract` holds what every system under test must
satisfy; one subclass per target runs it (``TestFuzzSeeds`` is the
engine).  Target-specific properties live beside their subclass, and
the durable target's crash matrix in ``tests/test_crash_fuzz.py``.
"""

import dataclasses

import pytest

from repro.check import TARGETS, CacheMismatch, FuzzConfig, run_fuzz
from repro.core.tolerances import AUDIT_FLOAT_TOL
from repro.obs import recording

FAST = FuzzConfig(operations=6, n_users=16, n_events=8)


class TestFuzzConfig:
    def test_config_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FuzzConfig().operations = 1

    def test_only_the_sizes_are_settable(self):
        assert [f.name for f in dataclasses.fields(FuzzConfig)] == [
            "operations", "n_users", "n_events",
        ]


class FuzzTargetContract:
    """Generic cases, run once per target by the subclasses below."""

    target: str

    def test_seeded_stream_is_clean(self):
        summary = run_fuzz([0], FAST, self.target)
        assert summary.reports
        for report in summary.reports:
            assert report.ok, (report.label, report.mismatches,
                               report.violations)
            assert report.checks > 0
        assert summary.operations > 0

    def test_fuzz_is_deterministic(self):
        first = run_fuzz([1], FAST, self.target)
        second = run_fuzz([1], FAST, self.target)
        assert first.reports == second.reports
        assert first.columns() == second.columns()

    def test_run_fuzz_aggregates_and_counts(self):
        with recording() as recorder:
            summary = run_fuzz([3, 4], FAST, self.target)
        assert summary.ok
        assert summary.seeds == 2
        assert summary.operations == sum(r.operations for r in summary.reports)
        assert summary.checks == sum(r.checks for r in summary.reports)
        assert summary.mismatches == []
        assert summary.violations == []
        assert summary.failures() == []
        assert recorder.counter_value("check.fuzz.seeds") == 2.0
        assert recorder.counter_value("check.fuzz.scenarios") == len(
            summary.reports
        )
        assert recorder.counter_value("check.fuzz.checks") == summary.checks
        assert recorder.counter_value("check.fuzz.mismatches") == 0.0
        values = dict(summary.columns())
        for header, _ in TARGETS[self.target].columns:
            gauge = "check.fuzz." + header.replace(" ", "_")
            assert recorder.gauges[gauge] == values[header]

    def test_failures_surface_in_summary(self):
        summary = run_fuzz([5], FAST, self.target)
        report = summary.reports[0]
        synthetic = CacheMismatch(
            kind="synthetic", cached=1, expected=2, detail="injected"
        )
        report.mismatches.append(synthetic)
        assert not summary.ok
        assert summary.failures() == [report]
        assert synthetic in summary.mismatches


class TestFuzzSeeds(FuzzTargetContract):
    target = "engine"

    def test_every_operation_is_applied(self):
        (report,) = run_fuzz([0], FAST).reports
        assert report.operations == FAST.operations
        assert report.stats.final_utility > 0

    def test_drift_stays_bounded_over_long_streams(self):
        # Accumulated splice deltas must stay within the audit tolerance
        # over IEP streams several times the CI length (the re-pin
        # machinery records any excursion as a repin).
        config = FuzzConfig(operations=30, n_users=16, n_events=8)
        (report,) = run_fuzz([7], config).reports
        assert report.ok
        assert report.stats.max_drift < AUDIT_FLOAT_TOL
        assert report.stats.repins == 0


class TestDurableSeeds(FuzzTargetContract):
    target = "durable"


class TestServiceSeeds(FuzzTargetContract):
    target = "service"


class TestFuzzCLI:
    def test_fuzz_subcommand_passes(self, capsys):
        from repro import cli

        code = cli.main(
            [
                "fuzz", "--seeds", "2", "--operations", "4",
                "--users", "16", "--events", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Differential fuzz" in out
        assert "mismatches" in out

    def test_fuzz_subcommand_fails_on_mismatch(self, capsys, monkeypatch):
        from repro import cli

        def sabotaged(seeds, config=None, target="engine"):
            summary = run_fuzz(seeds, config, target)
            summary.reports[0].violations.append("injected failure")
            return summary

        monkeypatch.setattr(cli, "run_fuzz", sabotaged)
        code = cli.main(
            ["fuzz", "--seeds", "1", "--operations", "4",
             "--users", "16", "--events", "8"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert "reproduce: repro-gepc fuzz --base-seed 0" in err


class TestRepin:
    def test_repin_restores_exact_route_cost(self):
        from repro.core.gepc.greedy import GreedySolver
        from repro.datasets.meetup import MeetupConfig, generate_ebsn

        instance = generate_ebsn(
            MeetupConfig(n_users=16, n_events=8, n_groups=4, seed=2)
        )
        plan = GreedySolver(seed=2).solve(instance).plan
        user = next(u for u, events in plan if events)
        exact = instance.route_cost(user, plan.user_plan(user))
        plan._route_costs[user] = exact + 1e-3
        plan.feasible_mask(user)  # materialise a kernel row to invalidate
        drift = plan.repin_route_cost(user)
        assert drift == pytest.approx(1e-3)
        assert plan.route_cost(user) == exact
        assert user not in plan._kernel_cache  # stale row dropped

    def test_repin_leaves_healthy_cache_alone(self):
        from repro.core.gepc.greedy import GreedySolver
        from repro.datasets.meetup import MeetupConfig, generate_ebsn

        instance = generate_ebsn(
            MeetupConfig(n_users=16, n_events=8, n_groups=4, seed=2)
        )
        plan = GreedySolver(seed=2).solve(instance).plan
        user = next(u for u, events in plan if events)
        cached = plan.route_cost(user)
        plan.feasible_mask(user)
        drift = plan.repin_route_cost(user)
        assert abs(drift) < AUDIT_FLOAT_TOL
        assert plan.route_cost(user) == cached  # untouched below tolerance
        assert user in plan._kernel_cache  # kernel row survives


class TestShardedFuzz:
    def test_sharded_mode_is_clean(self):
        (report,) = run_fuzz([0], FAST, "sharded").reports
        assert report.ok, report.mismatches or report.violations
        assert report.stats.sharded_utility_ratio > 0

    def test_sharded_mode_is_deterministic(self):
        (first,) = run_fuzz([2], FAST, "sharded").reports
        (second,) = run_fuzz([2], FAST, "sharded").reports
        assert first.checks == second.checks
        assert first.stats.final_utility == second.stats.final_utility
        assert (
            first.stats.sharded_utility_ratio
            == second.stats.sharded_utility_ratio
        )

    def test_sharded_mode_adds_checks_over_plain(self):
        (plain,) = run_fuzz([3], FAST).reports
        (sharded,) = run_fuzz([3], FAST, "sharded").reports
        assert sharded.checks > plain.checks

    def test_sharded_cli_flag(self, capsys):
        from repro import cli

        code = cli.main(
            ["fuzz", "--seeds", "1", "--operations", "4", "--sharded"]
        )
        assert code == 0
        assert "mismatches" in capsys.readouterr().out
