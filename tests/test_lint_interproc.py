"""Interprocedural lint tests: call graph, RL009/RL011, self-check.

Fixture snippets exercise each rule's true-positive *and* true-negative
shape (notably: executor-laundered blocking calls must NOT fire RL009).
The final tests lint the repository's own ``src/`` tree and assert zero
unsuppressed findings — the same gate CI enforces — and that every
inline suppression carries a reason.
"""

import json
import textwrap
from pathlib import Path

from repro.lint import lint_source, run_lint
from repro.lint.callgraph import CallGraph
from repro.lint.cli import main as lint_main
from repro.lint.config import load_config
from repro.lint.context import ModuleContext
from repro.lint.engine import collect_contexts
from repro.lint.reporters import render_text
from repro.lint.suppressions import parse_suppressions

REPO = Path(__file__).resolve().parent.parent


def run(source, module="repro.scale.fixture", select=None, rules=None):
    return lint_source(
        textwrap.dedent(source), module=module, select=select, rules=rules
    )


def codes(result):
    return [finding.code for finding in result.findings]


def context(source, module):
    return ModuleContext.from_source(
        textwrap.dedent(source), path=f"{module}.py", module=module
    )


# --------------------------------------------------------------------- #
# Call graph construction
# --------------------------------------------------------------------- #


def test_callgraph_resolves_cross_module_calls():
    helper = context(
        """
        def helper():
            return 1
        """,
        "repro.alpha",
    )
    caller = context(
        """
        from repro.alpha import helper

        def caller():
            return helper()
        """,
        "repro.beta",
    )
    graph = CallGraph.build([helper, caller])
    calls = graph.functions["repro.beta:caller"].calls
    assert [call.callee for call in calls] == ["repro.alpha:helper"]


def test_callgraph_resolves_methods_via_annotations():
    graph = CallGraph.build([
        context(
            """
            class Engine:
                def step(self):
                    return 0

            def drive(engine: Engine):
                return engine.step()
            """,
            "repro.gamma",
        )
    ])
    calls = graph.functions["repro.gamma:drive"].calls
    assert [call.callee for call in calls] == ["repro.gamma:Engine.step"]


def test_callgraph_marks_executor_arguments_laundered():
    graph = CallGraph.build([
        context(
            """
            import asyncio

            def work():
                return 1

            async def main(loop):
                await loop.run_in_executor(None, work)
                await asyncio.to_thread(work)
            """,
            "repro.delta",
        )
    ])
    calls = graph.functions["repro.delta:main"].calls
    laundered = [c for c in calls if c.callee == "repro.delta:work"]
    assert laundered and all(c.via_executor for c in laundered)


# --------------------------------------------------------------------- #
# RL009 async-blocking-discipline
# --------------------------------------------------------------------- #


def test_rl009_flags_fsync_reached_through_sync_helper():
    result = run(
        """
        import os

        def _persist(fd):
            os.fsync(fd)

        async def handler(fd):
            _persist(fd)
        """,
        select=["RL009"],
    )
    assert codes(result) == ["RL009"]
    (finding,) = result.findings
    assert finding.line == 8  # the call site inside the async def
    assert "_persist" in finding.detail


def test_rl009_ignores_to_thread_laundered_fsync():
    result = run(
        """
        import asyncio
        import os

        def _persist(fd):
            os.fsync(fd)

        async def handler(fd):
            await asyncio.to_thread(_persist, fd)
        """,
        select=["RL009"],
    )
    assert codes(result) == []


def test_rl009_ignores_run_in_executor_lambda():
    result = run(
        """
        import asyncio
        import time

        async def handler():
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, lambda: time.sleep(1))
        """,
        select=["RL009"],
    )
    assert codes(result) == []


def test_rl009_skips_async_callees():
    # Calling an async def without awaiting only builds a coroutine;
    # the callee is analysed as its own root instead.
    result = run(
        """
        import os

        async def inner(fd):
            os.fsync(fd)

        async def outer(fd):
            return inner(fd)
        """,
        select=["RL009"],
    )
    assert codes(result) == ["RL009"]
    assert result.findings[0].line == 5  # inner's own fsync, not outer


# --------------------------------------------------------------------- #
# RL011 loop-confinement
# --------------------------------------------------------------------- #

def test_rl011_flags_loop_confined_access_from_executor():
    result = run(
        """
        class Worker:
            def __init__(self):
                self._task = None  # loop-confined

            def _probe(self):
                return self._task

            async def run(self, loop):
                return await loop.run_in_executor(None, self._probe)
        """,
        select=["RL011"],
    )
    assert codes(result) == ["RL011"]
    assert "loop-confined" in result.findings[0].message


CLOSURE = """
class Record:
    def __init__(self):
        self.plan = None

class Tenant:
    def __init__(self):
        self.record = Record()  # loop-confined

class App:
    async def handler(self, loop):
        tenant = Tenant()

        def summarize():
            return tenant.record.plan

        return await loop.run_in_executor(None, summarize)
"""


def test_rl011_flags_loop_confined_access_through_a_closure():
    result = run(CLOSURE, select=["RL011"])
    assert codes(result) == ["RL011"]
    assert "summarize" in result.findings[0].message


def test_rl011_closure_name_rebound_in_the_nested_def_is_its_own():
    rebound = CLOSURE.replace(
        "            return tenant.record.plan",
        "            tenant = object()\n            return tenant.record",
    )
    assert codes(run(rebound, select=["RL011"])) == []


def test_rl011_loop_confined_clean_on_the_loop():
    result = run(
        """
        class Worker:
            def __init__(self):
                self._task = None  # loop-confined

            async def run(self):
                return self._task
        """,
        select=["RL011"],
    )
    assert codes(result) == []


# --------------------------------------------------------------------- #
# CLI surface: --rule, --explain, --callgraph-json
# --------------------------------------------------------------------- #


FSYNC = """
import os

def _persist(fd):
    os.fsync(fd)

async def handler(fd):
    _persist(fd)
"""


def _write_fixture_tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "scale"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "fixture.py").write_text(FSYNC)
    return tmp_path / "src"


def test_cli_rule_and_explain_print_witness_path(tmp_path, capsys):
    src = _write_fixture_tree(tmp_path)
    status = lint_main(["--rule", "RL009", "--explain", str(src)])
    out = capsys.readouterr().out
    assert status == 1
    assert "RL009" in out
    assert "blocking path" in out
    # Witness hops are rendered as indented file:line lines.
    assert any(
        line.startswith("    ") and "fixture.py:" in line
        for line in out.splitlines()
    )


def test_cli_callgraph_json_dump(tmp_path, capsys):
    src = _write_fixture_tree(tmp_path)
    out_path = tmp_path / "callgraph.json"
    lint_main(
        ["--rule", "RL009", "--callgraph-json", str(out_path), str(src)]
    )
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["version"] == 2
    handler = next(
        fn for key, fn in payload["functions"].items()
        if key.endswith(":handler")
    )
    assert handler["async"] is True
    assert [call["callee"] for call in handler["calls"]] == [
        "repro.scale.fixture:_persist"
    ]


def test_cli_rejects_unknown_rule(capsys):
    assert lint_main(["--rule", "RL999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Self-check: the repository's own sources must be clean
# --------------------------------------------------------------------- #


def repo_config():
    return load_config(pyproject=REPO / "pyproject.toml")


def test_src_tree_has_zero_unsuppressed_findings():
    result = run_lint(None, config=repo_config())
    assert result.findings == [], "\n".join(
        finding.format() for finding in result.findings
    )


def test_every_suppression_in_src_carries_a_reason():
    contexts, errors, _ = collect_contexts(None, config=repo_config())
    assert not errors
    missing = []
    for ctx in contexts:
        for suppression in parse_suppressions(ctx):
            if not suppression.reason:
                missing.append(f"{ctx.path}:{suppression.line}")
    assert not missing, (
        "suppressions without a reason: " + ", ".join(missing)
    )


def test_explain_renderer_indents_detail_lines():
    result = run(FSYNC, select=["RL009"])
    text = render_text(result, explain=True)
    lines = text.splitlines()
    assert any(line.startswith("    ") for line in lines)
    # Without --explain the detail stays out of the report.
    assert "    " not in render_text(result, explain=False).split(
        "\n"
    )[0]
