"""RL001 cache-discipline: solver caches are written only by their owners.

The incremental kernel's speed rests on caches (`GlobalPlan._blocked`,
``_route_costs``, ``Instance._distances``, ...) whose every write site is
paired with the bookkeeping that keeps them coherent (``docs/performance.md``,
``docs/correctness.md``).  A write from any other module silently desyncs
them — the exact bug class PR 3's shadow auditor catches *at runtime*; this
rule refuses it at CI time.  Deliberate exceptions (the sharded merge
transplant, the fuzzer's cache eviction) carry inline suppressions with a
reason.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext, module_matches
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

# Methods that mutate their receiver in place.
_MUTATORS = (
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "discard", "add", "update", "setdefault", "sort", "reverse", "fill",
)


@register
class CacheDiscipline(Rule):
    code = "RL001"
    name = "cache-discipline"
    description = (
        "solver cache attributes may only be written by their owning "
        "modules (or registered mutation hooks)"
    )
    default_options = {
        "attributes": [
            "_distances", "_conflict_matrix", "_event_starts",
            "_fee_vector", "_blocked", "_route_costs", "_plans",
            "_attendee_sets", "_kernel_cache",
        ],
        "allow_modules": ["repro.core.model", "repro.core.plan"],
        "allow_functions": ["_from_validated", "__setstate__"],
        "mutators": list(_MUTATORS),
    }

    def check(self, context: ModuleContext) -> list[Finding]:
        if module_matches(context.module, self.options["allow_modules"]):
            return []
        attributes = set(self.options["attributes"])
        mutators = set(self.options["mutators"])
        allow_functions = set(self.options["allow_functions"])
        rule = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.findings: list[Finding] = []
                self.seen: set[tuple[int, str]] = set()

            def report(self, node: ast.AST, attr: str, how: str) -> None:
                key = (getattr(node, "lineno", 0), attr)
                if key in self.seen:
                    return
                self.seen.add(key)
                self.findings.append(
                    rule.finding(
                        context,
                        node,
                        f"{how} solver cache `{attr}` outside its owning "
                        "module — go through the owning class's API so the "
                        "dependent caches stay coherent (docs/correctness.md)",
                    )
                )

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                if node.name in allow_functions:
                    return  # trusted construction/restore paths
                self.generic_visit(node)

            visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

            def _check_target(self, node: ast.AST, target: ast.AST) -> None:
                for child in ast.walk(target):
                    if (
                        isinstance(child, ast.Attribute)
                        and child.attr in attributes
                    ):
                        self.report(node, child.attr, "write to")

            def visit_Assign(self, node: ast.Assign) -> None:
                for target in node.targets:
                    self._check_target(node, target)
                self.generic_visit(node)

            def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
                self._check_target(node, node.target)
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                self._check_target(node, node.target)
                self.generic_visit(node)

            def visit_Delete(self, node: ast.Delete) -> None:
                for target in node.targets:
                    self._check_target(node, target)
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in mutators:
                    for child in ast.walk(func.value):
                        if (
                            isinstance(child, ast.Attribute)
                            and child.attr in attributes
                        ):
                            self.report(
                                node, child.attr, f"in-place `{func.attr}` on"
                            )
                self.generic_visit(node)

        visitor = Visitor()
        visitor.visit(context.tree)
        return visitor.findings
