"""Per-rule fixture tests for repro-lint (true positive + true negative).

Each rule gets at least one snippet that must fire and one that must not;
``lint_source`` runs the real engine on in-memory modules so these double
as regression tests for the visitor plumbing.
"""

import textwrap

from repro.lint import lint_source
from repro.lint.registry import RULES, instantiate_rules


def run(source, module="repro.scale.fixture", select=None):
    return lint_source(
        textwrap.dedent(source), module=module, select=select
    )


def codes(result):
    return [finding.code for finding in result.findings]


# --------------------------------------------------------------------- #
# RL001 cache-discipline
# --------------------------------------------------------------------- #


def test_rl001_flags_cache_write_outside_owner():
    result = run(
        """
        def hijack(plan, user):
            plan._route_costs[user] = 0.0
        """,
        module="repro.baselines.rogue",
    )
    assert codes(result) == ["RL001"]


def test_rl001_flags_inplace_mutator_call():
    result = run(
        """
        def evict(plan, user):
            plan._kernel_cache.pop(user, None)
        """,
        module="repro.baselines.rogue",
    )
    assert codes(result) == ["RL001"]


def test_rl001_allows_owner_module():
    result = run(
        """
        class GlobalPlan:
            def _touch(self, user):
                self._route_costs[user] = 0.0
        """,
        module="repro.core.plan",
    )
    assert codes(result) == []


def test_rl001_allows_trusted_functions():
    result = run(
        """
        class Instance:
            @classmethod
            def _from_validated(cls, users):
                instance = cls.__new__(cls)
                instance._distances = None
                return instance
        """,
        module="repro.scale.other",
    )
    assert codes(result) == []


# --------------------------------------------------------------------- #
# RL002 tolerance-discipline
# --------------------------------------------------------------------- #


def test_rl002_flags_raw_budget_literal():
    result = run(
        """
        def check(cost, budget):
            return cost > budget + 1e-9
        """,
        module="repro.core.constraints",
    )
    assert codes(result) == ["RL002"]


def test_rl002_allows_named_tolerance():
    result = run(
        """
        from repro.core.tolerances import BUDGET_TOL

        def check(cost, budget):
            return cost > budget + BUDGET_TOL
        """,
        module="repro.core.constraints",
    )
    assert codes(result) == []


def test_rl002_ignores_non_cost_comparisons():
    result = run(
        """
        def near_zero(angle):
            return abs(angle) < 1e-9
        """,
        module="repro.geo.angles",
    )
    assert codes(result) == []


def test_rl002_exempts_tolerances_module():
    result = run(
        """
        BUDGET_TOL = 1e-6

        def derived(cost):
            return cost > 1e-6
        """,
        module="repro.core.tolerances",
    )
    assert codes(result) == []


# --------------------------------------------------------------------- #
# RL004 leaked-mutable-array
# --------------------------------------------------------------------- #


def test_rl004_flags_leaked_cache_array():
    result = run(
        """
        class Plan:
            def blocked_counts(self, user):
                return self._blocked[user]
        """,
        module="repro.core.plan",
    )
    assert codes(result) == ["RL004"]


def test_rl004_flags_leak_through_local():
    result = run(
        """
        class Plan:
            def blocked_counts(self, user):
                row = self._blocked[user]
                return row
        """,
        module="repro.core.plan",
    )
    assert codes(result) == ["RL004"]


def test_rl004_allows_frozen_view():
    result = run(
        """
        class Plan:
            def blocked_counts(self, user):
                view = self._blocked[user].view()
                view.flags.writeable = False
                return view
        """,
        module="repro.core.plan",
    )
    assert codes(result) == []


def test_rl004_allows_copy_and_scalars():
    result = run(
        """
        class Plan:
            def blocked_counts(self, user):
                return self._blocked[user].copy()

            def conflict_count(self, user, event):
                return int(self._blocked[user][event])
        """,
        module="repro.core.plan",
    )
    assert codes(result) == []


def test_rl004_ignores_private_methods():
    result = run(
        """
        class Plan:
            def _blocked_row(self, user):
                return self._blocked[user]
        """,
        module="repro.core.plan",
    )
    assert codes(result) == []


# --------------------------------------------------------------------- #
# RL005 determinism
# --------------------------------------------------------------------- #


def test_rl005_flags_unseeded_module_random():
    result = run(
        """
        import random

        def visit_order(n):
            users = list(range(n))
            random.shuffle(users)
            return users
        """,
        module="repro.core.gepc.rogue",
    )
    assert codes(result) == ["RL005"]


def test_rl005_flags_argless_default_rng():
    result = run(
        """
        import numpy as np

        def noise(n):
            return np.random.default_rng().random(n)
        """,
        module="repro.core.gepc.rogue",
    )
    assert codes(result) == ["RL005"]


def test_rl005_allows_seeded_rng():
    result = run(
        """
        import random

        def visit_order(n, seed):
            users = list(range(n))
            random.Random(seed).shuffle(users)
            return users
        """,
        module="repro.core.gepc.greedy",
    )
    assert codes(result) == []


def test_rl005_flags_set_iteration_ordering():
    result = run(
        """
        def caller(plan):
            touched = set(plan)
            out = []
            for user in touched:
                out.append(user)
            return out
        """,
        module="repro.core.gepc.rogue",
    )
    assert codes(result) == ["RL005"]


def test_rl005_allows_sorted_set_iteration():
    result = run(
        """
        def caller(plan):
            touched = set(plan)
            out = []
            for user in sorted(touched):
                out.append(user)
            return out
        """,
        module="repro.core.gepc.greedy",
    )
    assert codes(result) == []


def test_rl005_silent_outside_solver_modules():
    result = run(
        """
        import random

        def jitter():
            return random.random()
        """,
        module="repro.viz.plots",
    )
    assert codes(result) == []


# --------------------------------------------------------------------- #
# RL006 obs-coverage
# --------------------------------------------------------------------- #


def test_rl006_flags_blind_entry_point():
    result = run(
        """
        class Solver:
            def solve(self, instance):
                return instance
        """,
        module="repro.core.gepc.rogue",
    )
    assert codes(result) == ["RL006"]


def test_rl006_allows_span():
    result = run(
        """
        from repro.obs import get_recorder

        class Solver:
            def solve(self, instance):
                obs = get_recorder()
                with obs.span("solve"):
                    return instance
        """,
        module="repro.core.gepc.greedy",
    )
    assert codes(result) == []


def test_rl006_allows_pure_delegation():
    result = run(
        """
        class Facade:
            def solve(self, instance):
                return self._inner.solve(instance)
        """,
        module="repro.core.gepc.facade",
    )
    assert codes(result) == []


def test_rl006_allows_abstract_entry_point():
    result = run(
        """
        import abc

        class Solver(abc.ABC):
            @abc.abstractmethod
            def solve(self, instance):
                \"\"\"Produce a plan.\"\"\"
        """,
        module="repro.core.gepc.base",
    )
    assert codes(result) == []


# --------------------------------------------------------------------- #
# Rule registry and option plumbing
# --------------------------------------------------------------------- #


def test_rl008_flags_dense_plane_access():
    result = run(
        """
        def round_trips(instance):
            return 2.0 * instance.distances.user_event_matrix
        """,
        module="repro.scale.rogue",
    )
    assert codes(result) == ["RL008"]


def test_rl008_allows_event_event_block():
    result = run(
        """
        def hops(instance, route):
            return instance.distances.event_event_matrix[route[:-1], route[1:]]
        """,
        module="repro.scale.rogue",
    )
    assert codes(result) == []


def test_rl008_allows_geometry_layer_and_tiles():
    snippet = """
        def oracle_plane(dense):
            return dense.user_event_matrix
        """
    assert codes(run(snippet, module="repro.geo.distance")) == []
    # Defining the property is not an access; reading a plane is
    # flagged everywhere outside repro.geo.
    definition = """
        class DistanceMatrix:
            @property
            def user_event_matrix(self):
                raise RuntimeError("no user-event plane")
        """
    assert codes(run(definition, module="repro.core.tiles")) == []
    assert codes(run(snippet, module="repro.core.tiles")) == ["RL008"]


def test_rl008_flags_row_free_serving_rewrites():
    result = run(
        """
        def plane_sum(instance):
            plane = instance.distances.user_event_matrix  # repro-lint: ignore[RL008] oracle comparison
            return plane.sum()
        """,
        module="repro.scale.rogue",
    )
    # The inline suppression mechanism silences it, as at the one
    # real dense-oracle branch (partition.reachable_matrix).
    assert codes(result) == []


def test_all_rules_registered():
    assert sorted(RULES) == [
        "RL001", "RL002", "RL004", "RL005", "RL006", "RL008", "RL009",
        "RL011",
    ]


def test_select_restricts_rules():
    rules = instantiate_rules({}, ["RL002"])
    assert [rule.code for rule in rules] == ["RL002"]


def test_rule_options_override_defaults():
    rules = instantiate_rules(
        {"rl004": {"attributes": ["_secret"]}}, ["RL004"]
    )
    assert rules[0].options["attributes"] == ["_secret"]
    # Unset options keep their defaults.
    assert rules[0].options["freeze_helpers"] == ["_read_only"]
