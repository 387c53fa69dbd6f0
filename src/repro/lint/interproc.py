"""Interprocedural effect summaries over the project call graph.

Two analyses run over :class:`~repro.lint.callgraph.CallGraph`:

* **blocking** — for each sync function, the set of blocking primitives
  it can reach (os.fsync, time.sleep, WAL appends, ...) with a shortest
  witness chain of call sites, computed to a fixpoint.  Edges marked
  ``via_executor`` are *not* followed: work handed to
  ``run_in_executor``/``to_thread`` leaves the event loop.  Calling an
  ``async def`` from sync code only builds a coroutine, so those edges
  are skipped too.  Recursive cycles in the graph are cut by treating an
  in-progress callee as empty (a fixpoint under-approximation documented
  in ``docs/linting.md``).
* **executor taint** — every function that can run on an executor
  thread (RL011's ``loop-confined`` check).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lint.callgraph import CallGraph, CallSite

#: pattern -> human label.  Three pattern forms: exact dotted externals
#: ("os.fsync"), any-receiver method names ("?.read_text"), and
#: project-qualified methods ("Class.method", matched against resolved
#: callee qualnames).
DEFAULT_BLOCKING_CALLS: dict[str, str] = {
    "os.fsync": "os.fsync",
    "os.fdatasync": "os.fdatasync",
    "time.sleep": "time.sleep",
    "open": "blocking file open",
    "socket.create_connection": "blocking socket connect",
    "subprocess.run": "subprocess.run",
    "subprocess.check_call": "subprocess.check_call",
    "subprocess.check_output": "subprocess.check_output",
    "?.read_text": "blocking file read (Path.read_text)",
    "?.write_text": "blocking file write (Path.write_text)",
    "?.read_bytes": "blocking file read (Path.read_bytes)",
    "?.write_bytes": "blocking file write (Path.write_bytes)",
    "?.recv": "blocking socket recv",
    "?.sendall": "blocking socket sendall",
    "?.accept": "blocking socket accept",
    "WriteAheadLog.append": "fsync'd WAL append",
    "WriteAheadLog.close": "fsync'd WAL seal",
    "WriteAheadLog.resume_at": "fsync'd WAL resume",
    "DurablePlatform.submit": "durable apply (WAL + fsync)",
    "DurablePlatform.publish_plans": "durable publish (snapshot)",
    "DurablePlatform.recover": "durable recovery replay",
    "DurablePlatform.close": "durable close (seal + snapshot)",
}


@dataclass(frozen=True)
class Effect:
    """One blocking primitive reachable from a function."""

    label: str  # human description of the primitive
    site: tuple[str, int]  # (path, line) of the primitive itself
    chain: tuple[tuple[str, str, int], ...]  # (qualname, path, call line)



def _match_blocking(
    patterns: dict[str, str],
    call: CallSite,
    graph: CallGraph,
) -> str | None:
    """The blocking label for a call site, or ``None``."""
    if call.external is not None:
        if call.external in patterns:
            return patterns[call.external]
        tail = call.external.split(".")[-1]
        if f"?.{tail}" in patterns:
            return patterns[f"?.{tail}"]
        return None
    if call.callee is not None:
        fn = graph.functions.get(call.callee)
        if fn is None:
            return None
        if fn.qualname in patterns:
            return patterns[fn.qualname]
    return None


class InterproceduralAnalysis:
    """Memoised fixpoint summaries over one call graph."""

    def __init__(
        self,
        graph: CallGraph,
        *,
        blocking_calls: dict[str, str] | None = None,
    ) -> None:
        self.graph = graph
        self.blocking_calls = (
            DEFAULT_BLOCKING_CALLS
            if blocking_calls is None
            else blocking_calls
        )
        self._blocking: dict[str, dict[tuple[str, tuple[str, int]], Effect]] = {}
        self._blocking_in_progress: set[str] = set()

    # -- blocking summaries (RL009) ------------------------------------

    def match_blocking(self, call: CallSite) -> str | None:
        """The blocking label for one call site, or ``None``."""
        return _match_blocking(self.blocking_calls, call, self.graph)

    def blocking_effects(self, key: str) -> list[Effect]:
        """Blocking primitives reachable from a *sync* function."""
        return list(self._blocking_summary(key).values())

    def _blocking_summary(
        self, key: str
    ) -> dict[tuple[str, tuple[str, int]], Effect]:
        if key in self._blocking:
            return self._blocking[key]
        if key in self._blocking_in_progress:
            return {}  # cycle: under-approximate while unwinding
        self._blocking_in_progress.add(key)
        fn = self.graph.functions[key]
        summary: dict[tuple[str, tuple[str, int]], Effect] = {}
        for call in fn.calls:
            if call.via_executor:
                continue  # laundered: runs off the event loop
            label = _match_blocking(self.blocking_calls, call, self.graph)
            if label is not None:
                effect = Effect(
                    label=label, site=(fn.path, call.line), chain=()
                )
                summary.setdefault((effect.label, effect.site), effect)
                continue
            if call.callee is None:
                continue
            callee = self.graph.functions.get(call.callee)
            if callee is None or callee.is_async:
                continue  # calling async builds a coroutine only
            hop = (callee.qualname, fn.path, call.line)
            for sub in self._blocking_summary(call.callee).values():
                effect = Effect(
                    label=sub.label,
                    site=sub.site,
                    chain=(hop,) + sub.chain,
                )
                summary.setdefault((effect.label, effect.site), effect)
        self._blocking_in_progress.discard(key)
        self._blocking[key] = summary
        return summary

    # -- executor taint (loop-confined checking) -----------------------

    def executor_tainted(self) -> set[str]:
        """Functions that can run on executor threads.

        Seeds are the resolved targets of ``via_executor`` edges; the
        set is closed over ordinary sync call edges (an executor thread
        cannot await, so async callees do not propagate taint).
        """
        tainted: set[str] = set()
        queue: list[str] = []
        for fn in self.graph.functions.values():
            for call in fn.calls:
                if call.via_executor and call.callee is not None:
                    queue.append(call.callee)
        while queue:
            key = queue.pop()
            if key in tainted:
                continue
            fn = self.graph.functions.get(key)
            if fn is None or fn.is_async:
                continue
            tainted.add(key)
            for call in fn.calls:
                if call.callee is not None:
                    queue.append(call.callee)
        return tainted
