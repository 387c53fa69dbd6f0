"""Parsing of the ``# loop-confined`` concurrency annotation.

The marker is attached to the physical line of an attribute assignment
(``self.x = ...`` or ``self.x: T = ...``): the attribute belongs to the
owning event loop and must not be touched from code that runs on
executor threads (RL011 flags accesses reachable through
``run_in_executor``/``to_thread``).
"""

from __future__ import annotations

import re

from repro.lint.context import ModuleContext

LOOP_CONFINED_RE = re.compile(r"\bloop-confined\b")
SELF_ATTR_RE = re.compile(r"self\.([A-Za-z_]\w*)")


def loop_confined_for_span(
    context: ModuleContext, first_line: int, last_line: int
) -> dict[str, int]:
    """``attr -> declaration line`` for markers between two physical
    lines (inclusive).

    The marker must share a line with a ``self.<attr>`` assignment — the
    attribute named there is the one being declared.
    """
    confined: dict[str, int] = {}
    for line in range(first_line, last_line + 1):
        comment = context.comments.get(line)
        if comment is None or not LOOP_CONFINED_RE.search(comment):
            continue
        attr = SELF_ATTR_RE.search(context.line_code(line))
        if attr is not None:
            confined[attr.group(1)] = line
    return confined
