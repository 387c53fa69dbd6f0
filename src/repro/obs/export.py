"""Exporters: render a recorder as a per-phase text table or JSON.

The text form is what ``repro-gepc --trace`` prints to stderr; the JSON
form is what ``--trace-json`` writes, for machine consumption.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.recorder import Recorder


def render_text(recorder: Recorder, title: str = "Trace") -> str:
    """Per-phase timing table plus counter and gauge dumps."""
    # Imported here, not at module level: repro.obs sits below repro.bench
    # (the harness records into it), so the reverse edge must stay lazy.
    from repro.bench.tables import format_table

    sections: list[str] = []
    ordered = sorted(
        recorder.span_stats.items(), key=lambda item: item[0].split("/")
    )
    span_rows = [
        [
            _indent(path),
            stats.calls,
            stats.seconds,
            stats.seconds / stats.calls if stats.calls else 0.0,
        ]
        for path, stats in ordered
    ]
    sections.append(
        format_table(
            f"{title}: phases",
            ["phase", "calls", "total (s)", "mean (s)"],
            span_rows,
        )
    )
    if recorder.counters:
        sections.append(
            format_table(
                f"{title}: counters",
                ["counter", "value"],
                [[name, value] for name, value in sorted(recorder.counters.items())],
            )
        )
    if recorder.gauges:
        sections.append(
            format_table(
                f"{title}: gauges",
                ["gauge", "value"],
                [[name, value] for name, value in sorted(recorder.gauges.items())],
            )
        )
    return "\n\n".join(sections)


def to_json(recorder: Recorder, indent: int | None = 2) -> str:
    """The recorder snapshot as a JSON document."""
    return json.dumps(recorder.snapshot(), indent=indent, sort_keys=True)


def write_json(recorder: Recorder, path: str | Path) -> Path:
    """Write :func:`to_json` to ``path`` (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_json(recorder) + "\n")
    return path


def _indent(path: str) -> str:
    """Show nesting depth of a slash path as leading indentation."""
    depth = path.count("/")
    return "  " * depth + path.rsplit("/", 1)[-1] if depth else path
