"""RL005 determinism: solver modules seed every RNG and order every set.

The differential fuzzer, the sharded worker-count-independence contract,
and the tier-1 utility pins all assume a solve is a pure function of
``(instance, seed)``.  Two things silently break that inside solver code:

* module-level RNG calls (``random.shuffle``, ``np.random.rand``) or
  seedless constructions (``random.Random()``, ``default_rng()``) — their
  state is process-global and order-dependent;
* iterating a ``set`` (or ``dict.keys()``) straight into a plan or
  ordering decision — set order depends on the hash seed, so two
  identical runs can grab events in different orders.

Seeded generators (``random.Random(seed)``, ``default_rng(seed)``) and
``sorted(...)``-wrapped iterations pass.  The set analysis is
intra-procedural: only iterables built from a set literal/constructor/
``.keys()`` in the same function are tracked.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext, dotted_name, module_matches
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_BANNED_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "triangular", "seed",
}
_ALLOWED_NP_RANDOM = {"default_rng", "Generator", "SeedSequence"}
_SEEDED_FACTORIES = {
    "random.Random",
    "np.random.default_rng",
    "numpy.random.default_rng",
}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
            "set", "frozenset"
        ):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return True
    return False


@register
class Determinism(Rule):
    code = "RL005"
    name = "determinism"
    description = (
        "solver modules must seed RNGs and must not iterate sets/dict-keys "
        "into ordering decisions"
    )
    default_options = {
        "modules": [
            "repro.core.gepc", "repro.core.iep", "repro.core.repair",
            "repro.scale", "repro.baselines", "repro.platform",
        ],
    }

    def check(self, context: ModuleContext) -> list[Finding]:
        if not module_matches(context.module, self.options["modules"]):
            return []
        findings: list[Finding] = []
        findings.extend(self._check_rng(context))
        findings.extend(self._check_set_iteration(context))
        return findings

    def _check_rng(self, context: ModuleContext) -> list[Finding]:
        findings = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in _SEEDED_FACTORIES:
                if not node.args and not node.keywords:
                    findings.append(
                        self.finding(
                            context,
                            node,
                            f"`{dotted}()` without a seed draws entropy "
                            "from the OS — pass the solver's seed so "
                            "reruns are reproducible (docs/correctness.md)",
                        )
                    )
                continue
            head, _, tail = dotted.rpartition(".")
            if head == "random" and tail in _BANNED_RANDOM:
                findings.append(
                    self.finding(
                        context,
                        node,
                        f"module-level `{dotted}(...)` uses process-global "
                        "RNG state — construct `random.Random(seed)` and "
                        "call it instead",
                    )
                )
            elif (
                head in ("np.random", "numpy.random")
                and tail not in _ALLOWED_NP_RANDOM
            ):
                findings.append(
                    self.finding(
                        context,
                        node,
                        f"legacy global-state `{dotted}(...)` — use "
                        "`np.random.default_rng(seed)` so parallel solves "
                        "cannot interleave draws",
                    )
                )
        return findings

    def _check_set_iteration(self, context: ModuleContext) -> list[Finding]:
        findings = []
        seen: set[tuple[int, int]] = set()
        for func in ast.walk(context.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            set_names = {
                name.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign) and _is_set_expr(node.value)
                for target in node.targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            }

            def flag(iterable: ast.AST) -> None:
                key = (
                    getattr(iterable, "lineno", 0),
                    getattr(iterable, "col_offset", 0),
                )
                if key in seen:
                    return  # nested defs are walked twice
                if _is_set_expr(iterable) or (
                    isinstance(iterable, ast.Name)
                    and iterable.id in set_names
                ):
                    seen.add(key)
                    findings.append(
                        self.finding(
                            context,
                            iterable,
                            "iterating a set/dict-keys feeds hash-seed-"
                            "dependent order into solver decisions — wrap "
                            "the iterable in sorted(...)",
                        )
                    )

            for node in ast.walk(func):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    flag(node.iter)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)
                ):
                    for generator in node.generators:
                        flag(generator.iter)
        return findings
