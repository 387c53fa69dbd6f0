"""RL009 async-blocking-discipline: no blocking primitives on the loop.

The service stack is a single asyncio loop fronting fsync-heavy durable
platforms; one ``os.fsync`` reached from an ``async def`` stalls every
tenant at once.  This rule follows the project call graph from each
``async def`` and flags any path to a known blocking primitive
(``os.fsync``/``fdatasync``, ``time.sleep``, blocking file/socket I/O,
``WriteAheadLog`` appends, ``DurablePlatform`` applies) that is not
laundered through ``run_in_executor``/``asyncio.to_thread``.  Findings
anchor at the call site inside the ``async def`` so suppressions stay
local; ``--explain`` prints the full witness chain.
"""

from __future__ import annotations

from repro.lint.callgraph import CallGraph
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.interproc import (
    DEFAULT_BLOCKING_CALLS,
    Effect,
    InterproceduralAnalysis,
)
from repro.lint.registry import ProjectRule, register


@register
class AsyncBlockingDiscipline(ProjectRule):
    code = "RL009"
    name = "async-blocking-discipline"
    description = (
        "call paths from 'async def' to blocking primitives (fsync, "
        "sleep, WAL append) must hop through "
        "run_in_executor/to_thread"
    )
    default_options = {
        "blocking_calls": dict(DEFAULT_BLOCKING_CALLS),
    }

    def check_project(
        self, contexts: list[ModuleContext], graph: CallGraph
    ) -> list[Finding]:
        analysis = InterproceduralAnalysis(
            graph, blocking_calls=dict(self.options["blocking_calls"])
        )
        findings: list[Finding] = []
        for fn in graph.functions.values():
            if not fn.is_async:
                continue
            seen: set[tuple[int, str, tuple[str, int]]] = set()
            for call in fn.calls:
                if call.via_executor:
                    continue
                label = analysis.match_blocking(call)
                if label is not None:
                    key = (call.line, label, (fn.path, call.line))
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(
                        self.project_finding(
                            fn.path,
                            call.line,
                            call.col,
                            f"async '{fn.qualname}' calls {label} "
                            "directly on the event loop — route it "
                            "through run_in_executor/to_thread",
                        )
                    )
                    continue
                if call.callee is None:
                    continue
                callee = graph.functions.get(call.callee)
                if callee is None or callee.is_async:
                    continue  # async callees are analysed as roots
                for effect in analysis.blocking_effects(call.callee):
                    key = (call.line, effect.label, effect.site)
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(
                        self.project_finding(
                            fn.path,
                            call.line,
                            call.col,
                            f"async '{fn.qualname}' can reach "
                            f"{effect.label} at "
                            f"{effect.site[0]}:{effect.site[1]} via "
                            f"'{callee.qualname}' without an executor "
                            "hop — route the call through "
                            "run_in_executor/to_thread",
                            detail=self._detail(
                                fn.qualname,
                                fn.path,
                                call.line,
                                callee.qualname,
                                effect,
                            ),
                        )
                    )
        return findings

    @staticmethod
    def _detail(
        root: str,
        root_path: str,
        call_line: int,
        first_callee: str,
        effect: Effect,
    ) -> str:
        lines = [
            "blocking path:",
            f"  {root} ({root_path}:{call_line})",
            f"  -> {first_callee}",
        ]
        for qualname, path, line in effect.chain:
            lines.append(f"     calls {qualname} ({path}:{line})")
        lines.append(
            f"  blocks at {effect.label} "
            f"({effect.site[0]}:{effect.site[1]})"
        )
        return "\n".join(lines)
