"""Conflict structure over a set of event intervals.

The conflict relation is offered as:

* a pairwise predicate (``conflicts``),
* a dense boolean matrix (``conflict_matrix``), the one structure an
  :class:`~repro.core.model.Instance` caches: the vectorized plan kernel
  masks whole candidate rows with it, and every pairwise check reads it,
* adjacency sets (``conflict_graph``), built by an independent sweep, for
  the summary statistics and as the tests' oracle,
* summary statistics (``conflict_ratio``, used by the dataset generator to
  hit the paper's Table IV target of 0.25, and ``max_clique_upper_bound``,
  the ``maxCF`` quantity in the paper's complexity analysis).

``patched_conflict_matrix`` rebuilds only the one row/column an IEP
``TimeChange`` touches.
"""

from __future__ import annotations

from collections.abc import Sequence

import networkx as nx
import numpy as np

from repro.timeline.interval import Interval


def conflicts(a: Interval, b: Interval) -> bool:
    """Whether two event intervals conflict under the paper's rule."""
    return a.conflicts_with(b)


def conflict_graph(intervals: Sequence[Interval]) -> list[set[int]]:
    """Adjacency sets of the conflict graph over ``intervals``.

    ``result[j]`` is the set of event indices that conflict with event ``j``
    (never containing ``j`` itself).  Built with a sweep over start-sorted
    intervals, O(m log m + m * k) for k conflicts per event.
    """
    order = sorted(range(len(intervals)), key=lambda j: intervals[j].start)
    adjacency: list[set[int]] = [set() for _ in intervals]
    for pos, j in enumerate(order):
        for k in order[pos + 1 :]:
            # Once a later event starts strictly after j ends, no further
            # event in start order can conflict with j.
            if intervals[k].start > intervals[j].end:
                break
            adjacency[j].add(k)
            adjacency[k].add(j)
    return adjacency


def conflict_matrix(intervals: Sequence[Interval]) -> np.ndarray:
    """Dense symmetric boolean conflict matrix over ``intervals``.

    ``result[j, k]`` is ``True`` when events ``j`` and ``k`` (``j != k``)
    conflict under the paper's rule (the earlier must end *strictly* before
    the later starts).  Built with one vectorized comparison, O(m^2) but
    branch-free; the diagonal is always ``False``.
    """
    m = len(intervals)
    if m == 0:
        return np.zeros((0, 0), dtype=bool)
    starts = np.array([interval.start for interval in intervals])
    ends = np.array([interval.end for interval in intervals])
    # a conflicts b  <=>  not (a ends before b starts or b ends before a
    # starts); this is symmetric, so one broadcast comparison suffices.
    matrix = ~((ends[:, None] < starts[None, :]) | (ends[None, :] < starts[:, None]))
    np.fill_diagonal(matrix, False)
    return matrix


def conflict_row(intervals: Sequence[Interval], event: int) -> np.ndarray:
    """One event's boolean conflict row against all of ``intervals``."""
    starts = np.array([interval.start for interval in intervals])
    ends = np.array([interval.end for interval in intervals])
    row = ~((ends[event] < starts) | (ends < starts[event]))
    row[event] = False
    return row


def patched_conflict_matrix(
    matrix: np.ndarray,
    intervals: Sequence[Interval],
    event: int,
) -> np.ndarray:
    """A copy of ``matrix`` with ``event``'s row/column recomputed."""
    row = conflict_row(intervals, event)
    patched = matrix.copy()
    patched[event, :] = row
    patched[:, event] = row
    return patched


def conflict_ratio(intervals: Sequence[Interval]) -> float:
    """Fraction of events that conflict with at least one other event.

    This matches the paper's Table IV "conflict ratio" column (the proportion
    of events that have time conflicts).
    """
    if not intervals:
        return 0.0
    adjacency = conflict_graph(intervals)
    conflicted = sum(1 for neighbours in adjacency if neighbours)
    return conflicted / len(intervals)


def max_clique_upper_bound(intervals: Sequence[Interval]) -> int:
    """The paper's ``maxCF``: the largest set of mutually conflicting events.

    For intervals under the touching-conflicts rule this equals the maximum
    number of intervals sharing a common instant, computable exactly with a
    sweep line (interval graphs are perfect, so this is the clique number,
    not just a bound).
    """
    if not intervals:
        return 0
    points: list[tuple[float, int]] = []
    for interval in intervals:
        # Closed endpoints: starts sort before ends at equal time so that
        # touching intervals count as overlapping.
        points.append((interval.start, 0))
        points.append((interval.end, 1))
    points.sort()
    depth = best = 0
    for _, kind in points:
        if kind == 0:
            depth += 1
            best = max(best, depth)
        else:
            depth -= 1
    return best


def as_networkx(intervals: Sequence[Interval]) -> nx.Graph:
    """The conflict graph as a networkx graph (used in tests/diagnostics)."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(intervals)))
    for j, neighbours in enumerate(conflict_graph(intervals)):
        graph.add_edges_from((j, k) for k in neighbours if k > j)
    return graph
