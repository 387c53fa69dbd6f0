"""RL011 loop-confinement: ``# loop-confined`` attributes stay on the loop.

An attribute declared with a trailing ``# loop-confined`` comment belongs
to the owning event loop.  This rule flags any access to one from code
that can run on executor threads: anything reachable from a
``run_in_executor``/``to_thread``/``run_write``/``off_loop`` dispatch
(receiver types come from the call graph's annotation inference).
"""

from __future__ import annotations

from repro.lint.callgraph import CallGraph
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.interproc import InterproceduralAnalysis
from repro.lint.registry import ProjectRule, register


@register
class LoopConfinement(ProjectRule):
    code = "RL011"
    name = "loop-confinement"
    description = (
        "'# loop-confined' attributes must stay off executor threads"
    )
    default_options = {
        "exempt_methods": ["__init__", "__del__", "__new__"],
    }

    def check_project(
        self, contexts: list[ModuleContext], graph: CallGraph
    ) -> list[Finding]:
        exempt = frozenset(self.options["exempt_methods"])
        analysis = InterproceduralAnalysis(graph)
        findings: list[Finding] = []
        for key in sorted(analysis.executor_tainted()):
            fn = graph.functions[key]
            if fn.name in exempt:
                continue
            for confined in fn.confined_accesses:
                findings.append(
                    self.project_finding(
                        fn.path,
                        confined.line,
                        confined.col,
                        f"loop-confined attribute '{confined.attr}' of "
                        f"{confined.owner} accessed from "
                        f"'{fn.qualname}', which can run on an "
                        "executor thread (reachable from a "
                        "run_in_executor/to_thread dispatch)",
                    )
                )
        return findings
