"""Spatial reachability: per-event candidate user sets from a grid.

In city-shaped EBSN workloads most user-event pairs are *unreachable*: a
lone round trip to the venue plus its admission fee already exceeds the
user's travel budget.  :class:`SpatialCandidateIndex` finds the reachable
pairs without scanning every one of them.  The sharded solve
(:mod:`repro.scale`) is its only reader: it builds one index per solve
and reads it for the partition fringe, the boundary repair and the
rescue pool.  At 10^5 users x 256 events it keeps about 1.2M of the
25.6M pairs.

Soundness (why restricting to candidates is bit-identical):

Any route of user ``u`` that contains event ``e`` visits ``e`` between two
legs anchored at ``u``'s home, so under a metric travel cost it is at
least ``2 * d(u, e)`` long, and with non-negative admission fees it costs
at least ``2 * d(u, e) + fee_e``.  The solvers' budget test is
``route <= B_u + BUDGET_TOL`` — therefore a pair with
``2 * d(u, e) + fee_e > B_u + BUDGET_TOL`` can *never* pass any budget
check, whatever the rest of the plan looks like.  The index keeps exactly
the complementary set: ``candidate_users(e)`` is bit-for-bit the set of
users whose singleton round trip to ``e`` passes the same
``<= B_u + BUDGET_TOL`` comparison the kernel mask evaluates (the exact
refinement below reuses the metric's own ``cross_coords`` floats, the
same floats a resident plane holds), so a pass that tries candidates
only and a pass that tries everyone make identical decisions.

The grid itself is a uniform bucketing of *user* homes.  Per event, whole
cells are discarded with a rectangle lower bound
(``2 * lb(cell, e) + fee_e > max-budget-in-cell + tol``); surviving cells
are refined member by member with the exact test.  The lower bound is the
metric's distance to the cell's tight bounding rectangle, so no feasible
user can ever be discarded at the cell level.
"""

from __future__ import annotations

import numpy as np

from repro.core.tolerances import BUDGET_TOL
from repro.obs import get_recorder

#: Average users per grid cell the bucketing aims for.
TARGET_CELL_OCCUPANCY = 64


class SpatialCandidateIndex:
    """Per-event candidate user sets over a uniform spatial grid.

    Parameters
    ----------
    user_coords:
        ``(n, 2)`` float64 user home coordinates.
    budgets:
        ``(n,)`` float64 travel budgets ``B_u``.
    event_coords:
        ``(m, 2)`` float64 event venue coordinates.
    fees:
        ``(m,)`` float64 admission fees (zeros when the cost model is
        fee-free).
    metric:
        The travel metric (must provide ``cross_coords`` and
        ``rect_lower_bound``).
    tol:
        The budget tolerance; defaults to the repo-wide
        :data:`~repro.core.tolerances.BUDGET_TOL` so the candidate test
        is exactly the kernel's.
    """

    def __init__(
        self,
        user_coords: np.ndarray,
        budgets: np.ndarray,
        event_coords: np.ndarray,
        fees: np.ndarray,
        metric: object,
        tol: float = BUDGET_TOL,
    ) -> None:
        self._user_coords = np.asarray(user_coords, dtype=float).reshape(-1, 2)
        self._budgets = np.asarray(budgets, dtype=float).reshape(-1)
        self._event_coords = np.asarray(event_coords, dtype=float).reshape(
            -1, 2
        )
        self._fees = np.asarray(fees, dtype=float).reshape(-1)
        self._metric = metric
        self._tol = tol
        self._build_grid()
        self._candidates: list[np.ndarray] = [
            self._compute_candidates(e) for e in range(self.n_events)
        ]
        kept = int(sum(c.size for c in self._candidates))
        obs = get_recorder()
        obs.count("grid.builds")
        obs.count("grid.candidate_pairs", kept)
        obs.count("grid.pruned_pairs", self.n_users * self.n_events - kept)

    # ------------------------------------------------------------------ #
    # Construction internals
    # ------------------------------------------------------------------ #

    def _build_grid(self) -> None:
        n = self.n_users
        coords = self._user_coords
        if n == 0:
            self._cell_slices = np.zeros(1, dtype=np.intp)
            self._sorted_users = np.zeros(0, dtype=np.intp)
            self._cell_lo = np.zeros((0, 2))
            self._cell_hi = np.zeros((0, 2))
            self._cell_max_budget = np.zeros(0)
            return
        cells_per_axis = max(1, int(np.sqrt(n / TARGET_CELL_OCCUPANCY)))
        lo = coords.min(axis=0)
        hi = coords.max(axis=0)
        span = np.maximum(hi - lo, 1e-12)
        # Clip keeps the max coordinate in the last cell.
        ix = np.clip(
            ((coords[:, 0] - lo[0]) / span[0] * cells_per_axis).astype(
                np.intp
            ),
            0,
            cells_per_axis - 1,
        )
        iy = np.clip(
            ((coords[:, 1] - lo[1]) / span[1] * cells_per_axis).astype(
                np.intp
            ),
            0,
            cells_per_axis - 1,
        )
        cell_of_user = ix * cells_per_axis + iy
        order = np.argsort(cell_of_user, kind="stable").astype(np.intp)
        sorted_cells = cell_of_user[order]
        # Only non-empty cells are materialised; ``_cell_slices`` are the
        # boundaries of each occupied cell's run inside ``_sorted_users``.
        unique_cells, starts = np.unique(sorted_cells, return_index=True)
        self._sorted_users = order
        self._cell_slices = np.append(starts, n).astype(np.intp)
        n_cells = unique_cells.size
        cell_lo = np.empty((n_cells, 2))
        cell_hi = np.empty((n_cells, 2))
        cell_max_budget = np.empty(n_cells)
        for c in range(n_cells):
            members = order[self._cell_slices[c] : self._cell_slices[c + 1]]
            member_coords = coords[members]
            # Tight per-cell bounding rectangle of the *actual* members —
            # tighter than the nominal grid rectangle, equally sound.
            cell_lo[c] = member_coords.min(axis=0)
            cell_hi[c] = member_coords.max(axis=0)
            cell_max_budget[c] = self._budgets[members].max()
        self._cell_lo = cell_lo
        self._cell_hi = cell_hi
        self._cell_max_budget = cell_max_budget

    def _compute_candidates(self, event: int) -> np.ndarray:
        """Exact candidate set of one event (sorted global user ids)."""
        if self.n_users == 0:
            return np.zeros(0, dtype=np.intp)
        fee = float(self._fees[event])
        point = self._event_coords[event]
        lower = self._metric.rect_lower_bound(
            point, self._cell_lo, self._cell_hi
        )
        # A cell survives when even its best case (closest corner, richest
        # member) might be feasible; everything else is provably out.
        alive = 2.0 * lower + fee <= self._cell_max_budget + self._tol
        if not alive.any():
            return np.zeros(0, dtype=np.intp)
        member_runs = [
            self._sorted_users[
                self._cell_slices[c] : self._cell_slices[c + 1]
            ]
            for c in np.flatnonzero(alive)
        ]
        members = np.concatenate(member_runs)
        # Exact refinement with the metric's own block floats: identical
        # values (and the identical ``<= B + tol`` comparison) to the
        # kernel's singleton budget test.
        distances = self._metric.cross_coords(
            self._user_coords[members], point[None, :]
        )[:, 0]
        feasible = (
            2.0 * distances + fee <= self._budgets[members] + self._tol
        )
        return np.sort(members[feasible]).astype(np.intp)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def n_users(self) -> int:
        return int(self._user_coords.shape[0])

    @property
    def n_events(self) -> int:
        return int(self._event_coords.shape[0])

    def candidate_users(self, event: int) -> np.ndarray:
        """Users whose singleton round trip to ``event`` fits their budget
        (sorted ascending, read-only)."""
        row = self._candidates[event].view()
        row.flags.writeable = False
        return row
