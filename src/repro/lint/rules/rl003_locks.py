"""RL003 lock-discipline: ``# guarded-by:`` attributes stay under their lock.

Concurrency state is declared at its ``__init__`` assignment::

    self._pending: list[Op] = []  # guarded-by: _queue_lock

and from then on every ``self._pending`` access anywhere in the class must
sit inside ``with self._queue_lock:`` (any enclosing ``with`` on the named
lock counts, so nested lock scopes work).  ``__init__``/``__del__`` are
exempt — no second thread can hold the object yet/any more.  This encodes
the locking contract of ``BatchedPlatform`` that the concurrency tests
can only probe, not prove.
"""

from __future__ import annotations

import ast

from repro.lint.annotations import (
    GUARDED_BY_RE,
    SELF_ATTR_RE,
    declarations_for_span,
)
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

__all__ = ["GUARDED_BY_RE", "SELF_ATTR_RE", "LockDiscipline"]


@register
class LockDiscipline(Rule):
    code = "RL003"
    name = "lock-discipline"
    description = (
        "attributes declared '# guarded-by: <lock>' must be accessed "
        "under 'with self.<lock>:'"
    )
    default_options = {
        "exempt_methods": ["__init__", "__del__", "__new__"],
    }

    def check(self, context: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for cls in ast.walk(context.tree):
            if isinstance(cls, ast.ClassDef):
                findings.extend(self._check_class(context, cls))
        return findings

    def _declarations(
        self, context: ModuleContext, cls: ast.ClassDef
    ) -> dict[str, tuple[str, int]]:
        """``attr -> (lock, declaration line)`` from guarded-by comments.

        Parsing is shared with RL011 (:mod:`repro.lint.annotations`) so
        every historical spelling of the marker binds identically in
        the intra- and interprocedural checks.
        """
        end = cls.end_lineno or cls.lineno
        return declarations_for_span(context, cls.lineno, end).guarded

    def _check_class(
        self, context: ModuleContext, cls: ast.ClassDef
    ) -> list[Finding]:
        declarations = self._declarations(context, cls)
        if not declarations:
            return []
        exempt = set(self.options["exempt_methods"])
        rule = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.findings: list[Finding] = []
                self.held: list[str] = []

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                if node.name in exempt:
                    return
                self.generic_visit(node)

            visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

            def visit_ClassDef(self, node: ast.ClassDef) -> None:
                return  # nested classes declare their own contracts

            def _locks_of(self, item: ast.withitem) -> str | None:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                ):
                    return expr.attr
                return None

            def visit_With(self, node: ast.With) -> None:
                acquired = [
                    lock
                    for lock in map(self._locks_of, node.items)
                    if lock is not None
                ]
                self.held.extend(acquired)
                self.generic_visit(node)
                del self.held[len(self.held) - len(acquired):]

            visit_AsyncWith = visit_With  # type: ignore[assignment]

            def visit_Attribute(self, node: ast.Attribute) -> None:
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in declarations
                ):
                    lock, declared_at = declarations[node.attr]
                    if lock not in self.held:
                        self.findings.append(
                            rule.finding(
                                context,
                                node,
                                f"self.{node.attr} is guarded by "
                                f"self.{lock} (declared at line "
                                f"{declared_at}) but accessed without "
                                "holding it — wrap the access in "
                                f"'with self.{lock}:'",
                            )
                        )
                self.generic_visit(node)

        visitor = Visitor()
        for statement in cls.body:
            visitor.visit(statement)
        return visitor.findings
