"""Bandwidth measurement and BFS-based bandwidth-reducing orderings.

The ordering heuristic roots a breadth-first search at the lowest-degree
unvisited vertex, emits each BFS level sorted by ascending degree (ties by
ascending index), and restarts on the lowest-degree unvisited vertex until
every component, including isolated vertices, has been placed.  Reversing
the finished order gives the variant conventionally used ahead of sparse
factorizations; reversal never changes the bandwidth.
"""

from __future__ import annotations

import numpy as np

from . import similarity
from .errors import ParameterError
from .io import validate_permutation
from .similarity import SparseSimilarityGraph, _compact_sorted


def _unvisited_neighbors(graph: SparseSimilarityGraph, level: np.ndarray,
                         visited: np.ndarray) -> np.ndarray:
    """The neighbors of ``level`` not yet visited, each once, in ascending
    index order; they are marked visited."""
    # every neighbor slot of the level in one gather: the runs
    # indptr[u] .. indptr[u + 1], laid end to end
    starts = graph.indptr[level]
    counts = graph.indptr[level + 1] - starts
    slots = np.repeat(starts - np.cumsum(counts) + counts, counts)
    slots += np.arange(slots.size)
    found = graph.indices[slots]
    found = found[~visited[found]]
    found.sort()  # a fresh array: sorted and compacted in place
    found = found[: _compact_sorted(found, found.size)]
    visited[found] = True
    return found


def cuthill_mckee(graph: SparseSimilarityGraph, reverse: bool = True) -> np.ndarray:
    """Return a bandwidth-reducing node order (``order[t]`` = node at position t).

    Deterministic: every tie (root choice and within-level order) is broken
    by ascending node index, so identical graphs always yield identical
    orders.  ``reverse=True`` returns the exact reversal of the plain order.
    A hand-made graph is validated first; one from ``build_sparse_graph`` is
    valid by construction.
    """
    graph._check()
    n = graph.n
    degrees = graph.degrees
    # a level expands this many vertices at a time, so it gathers at most
    # similarity._BLOCK_BYTES of int64 neighbour slots at any degree
    step = max(1, similarity._BLOCK_BYTES // 8 // max(1, int(degrees.max(initial=0))))
    # Fixed (degree, index) ranking; the first unvisited entry is always the
    # lowest-degree unvisited vertex, which seeds each component.
    by_degree = np.argsort(degrees, kind="stable")
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    # isolated vertices rank first and each is a whole component: place them at once
    filled = cursor = int(np.count_nonzero(degrees == 0))
    order[:filled] = by_degree[:filled]
    visited[order[:filled]] = True
    while filled < n:
        while visited[by_degree[cursor]]:
            cursor += 1
        root = int(by_degree[cursor])
        visited[root] = True
        order[filled] = root
        filled += 1
        level = np.array([root], dtype=np.int64)
        while level.size:
            frontier = np.concatenate([_unvisited_neighbors(graph, level[a : a + step], visited)
                                       for a in range(0, level.size, step)])
            # the level sorted by degree, ties by ascending index (a level of several
            # runs joins ascending runs, so the index is a key of its own)
            frontier = frontier[np.lexsort((frontier, degrees[frontier]))]
            order[filled : filled + frontier.size] = frontier
            filled += frontier.size
            level = frontier
    return order[::-1].copy() if reverse else order


def matrix_bandwidth(graph: SparseSimilarityGraph, order: np.ndarray) -> int:
    """Largest |position(i) - position(j)| over edges; 0 for edgeless graphs."""
    order = np.asarray(order)
    if order.ndim != 1 or order.size != graph.n:
        raise ParameterError(f"order has {order.size} entries for a {graph.n}-node graph")
    order = validate_permutation(order, graph.n)
    if graph.indices.size == 0:
        return 0
    position = np.empty(graph.n, dtype=np.int64)
    position[order] = np.arange(graph.n)
    rows = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    return int(np.abs(position[rows] - position[graph.indices]).max())
