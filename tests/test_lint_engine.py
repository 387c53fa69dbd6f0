"""Engine-level tests: suppressions, reporters, CLI, and the self-check.

The self-check — ``repro-lint`` exits clean on this repository's own
``src/`` tree — is the acceptance criterion the CI ``lint-invariants``
job enforces; the re-introduction tests pin that the gate actually
catches the incident classes it was built for.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_source, run_lint, to_dict
from repro.lint.cli import main as lint_main
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import module_name_for
from repro.lint.reporters import render_json, render_text

REPO = Path(__file__).resolve().parents[1]

VIOLATION = """
def check(cost, budget):
    return cost > budget + 1e-9
"""


def run(source, module="repro.core.fixture"):
    return lint_source(textwrap.dedent(source), module=module)


# --------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------- #


def test_inline_suppression_silences_finding():
    result = run(
        """
        def check(cost, budget):
            return cost > budget + 1e-9  # repro-lint: ignore[RL002] scalar oracle must mirror the raw literal
        """
    )
    assert result.findings == []
    assert [f.code for f in result.suppressed] == ["RL002"]


def test_standalone_suppression_covers_next_line():
    result = run(
        """
        def check(cost, budget):
            # repro-lint: ignore[RL002] scalar oracle
            return cost > budget + 1e-9
        """
    )
    assert result.findings == []
    assert [f.code for f in result.suppressed] == ["RL002"]


def test_unused_suppression_is_reported():
    result = run(
        """
        def check(cost, budget):  # repro-lint: ignore[RL002] nothing here fires
            return cost <= budget
        """
    )
    assert [f.code for f in result.findings] == ["RL000"]
    assert "unused suppression" in result.findings[0].message


def test_unknown_rule_suppression_is_reported():
    result = run(
        """
        x = 1  # repro-lint: ignore[RL999] typo
        """
    )
    assert [f.code for f in result.findings] == ["RL000"]
    assert "unknown rule" in result.findings[0].message


def test_suppression_only_covers_named_rule():
    result = run(
        """
        def check(cost, budget):
            return cost > budget + 1e-9  # repro-lint: ignore[RL001] wrong rule named
        """
    )
    codes = sorted(f.code for f in result.findings)
    assert codes == ["RL000", "RL002"]  # kept finding + stale marker


# --------------------------------------------------------------------- #
# Reporters
# --------------------------------------------------------------------- #


def test_json_reporter_schema():
    result = run(VIOLATION)
    payload = json.loads(render_json(result))
    assert payload == to_dict(result)
    assert payload["version"] == 1
    assert payload["files"] == 1
    assert payload["summary"]["findings"] == 1
    assert payload["summary"]["suppressed"] == 0
    assert payload["summary"]["by_rule"] == {"RL002": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {
        "code", "name", "message", "path", "line", "column",
    }
    assert finding["code"] == "RL002"
    assert finding["line"] == 3


def test_text_reporter_format():
    result = run(VIOLATION)
    text = render_text(result)
    assert "RL002 [tolerance-discipline]" in text
    assert "1 finding(s), 0 suppressed, 1 file(s) checked" in text


def test_parse_error_becomes_finding():
    result = run("def broken(:\n    pass\n")
    assert [f.code for f in result.findings] == ["RL900"]


# --------------------------------------------------------------------- #
# Config
# --------------------------------------------------------------------- #


def test_load_config_reads_pyproject(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        textwrap.dedent(
            """
            [tool.repro-lint]
            paths = ["lib"]
            exclude = ["vendored"]

            [tool.repro-lint.rules.rl004]
            attributes = ["_hidden"]
            freeze-helpers = ["_lock_view"]
            """
        )
    )
    config = load_config(pyproject=pyproject)
    if config.paths == ["src"]:  # pragma: no cover - py3.10 without tomli
        pytest.skip("no TOML parser available")
    assert config.paths == ["lib"]
    assert config.exclude == ["vendored"]
    assert config.rule_options["rl004"]["attributes"] == ["_hidden"]
    # Dashed TOML keys are normalised to underscores.
    assert config.rule_options["rl004"]["freeze_helpers"] == ["_lock_view"]


def test_committed_config_matches_engine_defaults():
    """pyproject's [tool.repro-lint] must mirror the built-in defaults.

    The engine silently falls back to its defaults on interpreters
    without a TOML parser; this pin keeps both configurations identical
    so the lint gate means the same thing everywhere.
    """
    committed = load_config(pyproject=REPO / "pyproject.toml")
    defaults = LintConfig()
    assert committed.paths == defaults.paths
    assert committed.exclude == defaults.exclude
    # Committed rule tables must restate the registered defaults, not
    # change them (the TOML-less fallback must behave identically).
    from repro.lint.registry import RULES

    for code, options in committed.rule_options.items():
        rule = RULES[code.upper()]
        for key, value in options.items():
            assert rule.default_options.get(key) == value, (
                f"pyproject [tool.repro-lint.rules.{code}] {key} "
                "diverges from the engine default"
            )


def test_module_name_for_src_layout():
    assert (
        module_name_for(Path("src/repro/core/plan.py")) == "repro.core.plan"
    )
    assert module_name_for(Path("src/repro/lint/__init__.py")) == "repro.lint"


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "src" / "repro" / "core" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text(textwrap.dedent(VIOLATION))

    assert lint_main([str(clean)]) == 0
    assert lint_main([str(dirty)]) == 1
    assert lint_main(["--select", "NOPE", str(clean)]) == 2
    capsys.readouterr()


def test_cli_json_output(tmp_path, capsys):
    dirty = tmp_path / "src" / "repro" / "core" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text(textwrap.dedent(VIOLATION))
    assert lint_main(["--format", "json", str(dirty)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["by_rule"] == {"RL002": 1}


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RL001", "RL002", "RL004", "RL005", "RL006", "RL011"):
        assert code in out


def test_repro_gepc_lint_subcommand():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "RL001" in proc.stdout


# --------------------------------------------------------------------- #
# Self-check: this repository lints clean (the CI acceptance gate)
# --------------------------------------------------------------------- #


def test_src_tree_lints_clean():
    result = run_lint([REPO / "src"], config=load_config(pyproject=REPO / "pyproject.toml"))
    assert result.ok, "\n" + render_text(result)
    # The deliberate violations (sharded transplant, fuzz cache eviction)
    # are suppressed with reasons, not silently absent; no src branch
    # reads the dense plane any more.
    assert len(result.suppressed) >= 4
    assert not [f for f in result.suppressed if f.code == "RL008"]


# --------------------------------------------------------------------- #
# Re-introduction gates: the documented incident classes must re-fire
# --------------------------------------------------------------------- #


def test_reintroducing_raw_tolerance_in_check_plan_fails_lint():
    """PR-3 bug class: a 1e-9 comparison in check_plan must be caught."""
    source_path = REPO / "src" / "repro" / "core" / "constraints.py"
    source = source_path.read_text()
    patched = source.replace("budget + BUDGET_TOL", "budget + 1e-9")
    assert patched != source, "check_plan no longer compares against budget"
    result = lint_source(
        patched, module="repro.core.constraints", path=str(source_path)
    )
    assert "RL002" in {f.code for f in result.findings}


def test_reintroducing_writable_blocked_row_fails_lint():
    """PR-2 cache class: returning the raw blocked row must be caught."""
    result = lint_source(
        textwrap.dedent(
            """
            class GlobalPlan:
                def blocked_counts(self, user):
                    return self._blocked[user]
            """
        ),
        module="repro.core.plan",
    )
    assert [f.code for f in result.findings] == ["RL004"]
