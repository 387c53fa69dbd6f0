"""Per-module lint context: parsed AST, raw source, and comment map.

Rules never re-read or re-parse files; the engine builds one
:class:`ModuleContext` per module and every rule walks the same tree.
Comments (which :mod:`ast` discards) are recovered with :mod:`tokenize`
so that suppression markers and ``# loop-confined`` declarations can be
attached to their physical lines.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections.abc import Iterator
from dataclasses import dataclass, field


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one Python module."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    comments: dict[int, str] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls, source: str, *, path: str = "<string>", module: str = "<module>"
    ) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            module=module,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            comments=extract_comments(source),
        )

    def segment(self, node: ast.AST) -> str:
        """Exact source text of ``node`` (falls back to ``ast.unparse``)."""
        text = ast.get_source_segment(self.source, node)
        if text is None:
            text = ast.unparse(node)
        return text

    def line_code(self, line: int) -> str:
        """Source of a physical line with any trailing comment stripped."""
        if not 1 <= line <= len(self.lines):
            return ""
        text = self.lines[line - 1]
        comment = self.comments.get(line)
        if comment is not None:
            index = text.rfind("#" + comment)
            if index >= 0:
                text = text[:index]
        return text


def extract_comments(source: str) -> dict[int, str]:
    """Map physical line number to comment text (without the ``#``)."""
    comments: dict[int, str] = {}
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string.lstrip("#")
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass  # partial comment map beats failing the whole lint run
    return comments


def module_matches(module: str, prefixes: list[str]) -> bool:
    """Whether ``module`` equals or lives under any of ``prefixes``."""
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, ast.ClassDef | None]]:
    """Yield ``(function, qualname, enclosing class)`` for every def.

    Nested defs are reported with a dotted qualname; the enclosing class is
    the *innermost* one (or ``None`` for module-level functions).
    """

    def walk(
        body: list[ast.stmt], prefix: str, cls: ast.ClassDef | None
    ) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, ast.ClassDef | None]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                yield node, qualname, cls
                yield from walk(node.body, qualname + ".", cls)
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.", node)

    yield from walk(tree.body, "", None)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def attribute_names(node: ast.AST) -> set[str]:
    """Every ``Attribute.attr`` name appearing anywhere inside ``node``."""
    return {
        child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute)
    }


def is_abstract_body(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether the body is declaration-only (docstring / pass / raise / ...)."""
    for stmt in node.body:
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or Ellipsis
        return False
    return True
