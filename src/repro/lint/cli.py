"""The ``repro-lint`` console entry point (also ``repro-gepc lint``).

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.config import load_config
from repro.lint.engine import run_lint
from repro.lint.registry import RULES
from repro.lint.reporters import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant linter for the GEPC/IEP reproduction: "
            "cache, tolerance, lock, determinism, leak, and telemetry "
            "discipline (see docs/linting.md)"
        ),
    )
    add_lint_arguments(parser)
    return parser


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared by ``repro-lint`` and the ``repro-gepc lint`` subcommand."""
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: [tool.repro-lint] "
        "paths from pyproject.toml, falling back to src/)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (e.g. RL001,RL002)",
    )
    parser.add_argument(
        "--rule", default=None, metavar="CODE",
        help="run a single rule (shorthand for --select CODE)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print witness paths (blocking chains, lock-order cycles) "
        "under each finding as file:line hops",
    )
    parser.add_argument(
        "--callgraph-json", default=None, metavar="PATH",
        help="also dump the project call graph as JSON to PATH "
        "(see docs/linting.md for the shape)",
    )
    parser.add_argument(
        "--config", default=None, metavar="PYPROJECT",
        help="explicit pyproject.toml to read [tool.repro-lint] from",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def list_rules() -> str:
    lines = []
    for code in sorted(RULES):
        rule = RULES[code]
        lines.append(f"{code} {rule.name}: {rule.description}")
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(list_rules())
        return 0
    select = None
    selected: list[str] = []
    if args.select:
        selected.extend(
            code.strip().upper() for code in args.select.split(",")
        )
    if args.rule:
        selected.append(args.rule.strip().upper())
    if selected:
        select = sorted(set(selected))
        unknown = [code for code in select if code not in RULES]
        if unknown:
            print(
                f"repro-lint: unknown rule code(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(RULES))})",
                file=sys.stderr,
            )
            return 2
    config_path = Path(args.config) if args.config else None
    if config_path is not None and not config_path.is_file():
        print(
            f"repro-lint: config file not found: {config_path}",
            file=sys.stderr,
        )
        return 2
    config = load_config(pyproject=config_path)
    result = run_lint(args.paths or None, config=config, select=select)
    if args.callgraph_json:
        from repro.lint.callgraph import dump_callgraph

        payload = dump_callgraph(args.paths or None, config=config)
        Path(args.callgraph_json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, explain=args.explain))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
