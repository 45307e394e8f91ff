"""Bandwidth measurement and BFS-based bandwidth-reducing orderings.

The ordering heuristic roots a breadth-first search at the lowest-degree
unvisited vertex, emits each BFS level sorted by ascending degree (ties by
ascending index), and restarts on the lowest-degree unvisited vertex until
every component, including isolated vertices, has been placed.  Reversing
the finished order gives the variant conventionally used ahead of sparse
factorizations; reversal never changes the bandwidth.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import similarity
from .errors import CapacityError, ParameterError
from .io import validate_permutation
from .similarity import SparseSimilarityGraph, _sorted_unique

# n! explodes past this; the exhaustive searches here and in oracle.py are
# test oracles, not solvers.
_MAX_EXHAUSTIVE_NODES = 10


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
    found = _sorted_unique(found[~visited[found]])
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


def exhaustive_min_bandwidth(graph: SparseSimilarityGraph) -> tuple[np.ndarray, int]:
    """Exact minimum bandwidth by trying all n! orders (n <= 10).

    Returns the lexicographically smallest minimizing order and its
    bandwidth.  Test oracle only.
    """
    n = graph.n
    if n > _MAX_EXHAUSTIVE_NODES:
        raise CapacityError(f"exhaustive search limited to {_MAX_EXHAUSTIVE_NODES} nodes, got {n}")
    graph.validate()
    identity = np.arange(n, dtype=np.int64)
    if graph.indices.size == 0:
        return identity, 0

    rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    keep = rows < graph.indices
    eu, ev = rows[keep], graph.indices[keep]

    best_bw = n  # any order has bandwidth <= n-1
    best_order = identity
    perms = itertools.permutations(range(n))
    while True:
        block = np.array(list(itertools.islice(perms, 40320)), dtype=np.int64)
        if block.size == 0:
            break
        # argsort of the order array is the position lookup for each node
        position = np.argsort(block, axis=1)
        bw = np.abs(position[:, eu] - position[:, ev]).max(axis=1)
        idx = int(np.argmin(bw))
        if bw[idx] < best_bw:  # strict: keeps the lexicographically first
            best_bw = int(bw[idx])
            best_order = block[idx].copy()
    return best_order, best_bw
