"""RL008 dense-materialisation-discipline: no full distance planes.

``repro.geo.distance.DistanceMatrix`` keeps the ``O(n_users x n_events)``
user-event plane only for instances under ``PLANE_CELL_LIMIT`` cells;
larger ones keep user and event coordinates and compute distances on
demand, so memory follows the number of users plus events, not their
product, and ``user_event_matrix`` raises.  Any call site that reads the
full plane — directly or by multiplying it into a derived plane —
reintroduces that memory wall, and breaks outright on a large instance
even though every small test instance holds the plane.

The rule flags any ``<expr>.user_event_matrix`` attribute access outside
the geometry layer (``repro.geo``, which owns the plane).  A site that
is provably on a plane-resident branch (an oracle comparison in a
test) carries an inline ``repro-lint: ignore`` suppression naming the
rule and a reason instead; ``src/`` has none.

``event_event_matrix`` is *not* flagged: events number hundreds where
users number hundreds of thousands, so the ``O(m^2)`` block is not the
memory wall and is built on either path.

See ``docs/linting.md`` and ``docs/memory.md``.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext, module_matches
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_DENSE_PLANE_ATTR = "user_event_matrix"


@register
class DenseMaterialisationDiscipline(Rule):
    code = "RL008"
    name = "dense-materialisation-discipline"
    description = (
        "the full user-event distance plane must never be materialised "
        "outside the geometry layer — serve through user_event / "
        "user_event_row / user_event_rows so large instances scale"
    )
    default_options = {
        "modules": ["repro"],
        "allow_modules": ["repro.geo"],
    }

    def check(self, context: ModuleContext) -> list[Finding]:
        if not module_matches(context.module, self.options["modules"]):
            return []
        if module_matches(context.module, self.options["allow_modules"]):
            return []
        findings: list[Finding] = []
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == _DENSE_PLANE_ATTR
            ):
                findings.append(
                    self.finding(
                        context,
                        node,
                        f"`.{_DENSE_PLANE_ATTR}` materialises the full "
                        "O(n_users x n_events) distance plane and raises "
                        "on instances too large to hold it — serve through "
                        "user_event / user_event_row / user_event_rows, "
                        "or suppress inline on a provably dense-only "
                        "oracle branch",
                    )
                )
        return findings
