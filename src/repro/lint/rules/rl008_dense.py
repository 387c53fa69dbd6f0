"""RL008 dense-materialisation-discipline: no full distance planes.

The tiled distance backend (``repro.core.tiles``) keeps only user and
event coordinates resident and computes distances on demand, so memory
follows the number of users plus events, not their product; its
``user_event_matrix`` property deliberately raises.  Any call site that
reads the full ``O(n_users x n_events)`` plane — directly or by
multiplying it into a derived plane — reintroduces the memory wall the
backend removes, and breaks outright under ``REPRO_DISTANCE=tiled``.

The rule flags any ``<expr>.user_event_matrix`` attribute access outside
the geometry layer (``repro.geo``, which *owns* dense planes — the dense
backend is the bit-exactness oracle).  The tiled backend only *defines*
the raising property, which is not an attribute access, so it needs no
exemption.  Sites that are provably on a dense-only branch (an oracle
comparison, a dense-baseline bench) carry an inline
``# repro-lint: ignore[RL008] <reason>`` suppression instead.

``event_event_matrix`` is *not* flagged: events number thousands where
users number millions, so the ``O(m^2)`` block is not the memory wall
and stays dense under both backends.

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
        "user_event_row / user_event_rows so the tiled backend scales"
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
                        "under REPRO_DISTANCE=tiled — serve through "
                        "user_event / user_event_row / user_event_rows, "
                        "or suppress inline on a provably dense-only "
                        "oracle branch",
                    )
                )
        return findings
