"""RL006 obs-coverage: solver/platform entry points record telemetry.

PR 1 threaded ``repro.obs`` through every hot path precisely so that
regressions show up in traces and ``--trace`` tables; an entry point that
never touches the recorder is a blind spot — its cost is silently folded
into whichever parent span happens to be open.  Public methods named like
entry points (``solve``, ``apply``, ``submit``, ``flush``, ...) in solver
and platform modules must open a span or emit a counter/gauge (directly,
or by capturing a recorder via ``recording(...)``/``get_recorder()``).
"""

from __future__ import annotations

import ast

from repro.lint.context import (
    ModuleContext,
    is_abstract_body,
    iter_functions,
    module_matches,
)
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_OBS_ATTRS = {"span", "count", "gauge"}
_OBS_NAMES = {"recording", "get_recorder", "measure"}


@register
class ObsCoverage(Rule):
    code = "RL006"
    name = "obs-coverage"
    description = (
        "public solver/platform entry points must open a repro.obs span "
        "or counter"
    )
    default_options = {
        "modules": [
            "repro.core.gepc", "repro.core.iep", "repro.platform",
            "repro.scale", "repro.baselines", "repro.flow",
        ],
        "entry_points": [
            "solve", "apply", "submit", "publish_plans", "flush",
            "fill", "improve",
        ],
    }

    def check(self, context: ModuleContext) -> list[Finding]:
        if not module_matches(context.module, self.options["modules"]):
            return []
        entry_points = set(self.options["entry_points"])
        findings: list[Finding] = []
        for func, qualname, _ in iter_functions(context.tree):
            if func.name not in entry_points:
                continue
            if is_abstract_body(func):
                continue
            if self._touches_obs(func):
                continue
            if self._is_pure_delegation(func):
                continue
            findings.append(
                self.finding(
                    context,
                    func,
                    f"entry point `{qualname}` never records telemetry — "
                    "open `obs.span(...)` (or emit a counter) around the "
                    "hot phase so traces and `--trace` tables can see it "
                    "(docs/observability.md)",
                )
            )
        return findings

    @staticmethod
    def _is_pure_delegation(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> bool:
        """A body that only forwards to another call owns no hot phase.

        ``return self._inner.publish_plans(...)`` (optionally under a
        ``with`` for lock scope) should be instrumented in the delegate,
        not at every forwarding shim.
        """
        body = [
            stmt for stmt in func.body
            if not isinstance(stmt, ast.Expr)
            or not isinstance(stmt.value, ast.Constant)  # docstring
        ]
        if len(body) == 1 and isinstance(body[0], ast.With):
            body = body[0].body
        if len(body) != 1:
            return False
        stmt = body[0]
        if isinstance(stmt, ast.Return):
            return isinstance(stmt.value, ast.Call)
        return isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Call
        )

    @staticmethod
    def _touches_obs(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _OBS_ATTRS
            ):
                return True
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _OBS_NAMES
            ):
                return True
        return False
