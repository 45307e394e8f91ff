"""BFS bandwidth ordering and the exhaustive bandwidth oracle."""

import itertools

import numpy as np
import pytest

from contrabatch import (
    CapacityError,
    GraphError,
    ParameterError,
    PermutationError,
    SparseSimilarityGraph,
    build_sparse_graph,
    cuthill_mckee,
    estimate_quantile_threshold,
    exhaustive_min_bandwidth,
    matrix_bandwidth,
    similarity,
)
from conftest import random_pair
from test_graph_reference import PAIRS, cutoff_and_scan


def brute_bandwidth(n, edges, order):
    """Independent bandwidth evaluation from first principles."""
    pos = {int(node): t for t, node in enumerate(order)}
    return max((abs(pos[i] - pos[j]) for i, j in edges), default=0)


def path_graph(n, relabel=None):
    relabel = relabel if relabel is not None else list(range(n))
    edges = [(relabel[i], relabel[i + 1]) for i in range(n - 1)]
    return SparseSimilarityGraph.from_edges(n, edges), edges


def random_connected_graph(n, seed):
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(n)
    edges = {tuple(sorted((int(nodes[i - 1]), int(nodes[i])))) for i in range(1, n)}
    extra = rng.integers(0, n, size=(rng.integers(0, n + 1), 2))
    edges |= {tuple(sorted((int(a), int(b)))) for a, b in extra if a != b}
    return SparseSimilarityGraph.from_edges(n, sorted(edges)), sorted(edges)


def reference_cuthill_mckee(graph: SparseSimilarityGraph, reverse: bool) -> list[int]:
    """Cuthill-McKee in plain Python: the isolated vertices first, then from
    each lowest (degree, index) unvisited root one BFS level at a time, each
    level's new vertices sorted by (degree, index)."""
    neighbours = [graph.neighbors(v).tolist() for v in range(graph.n)]

    def rank(v: int) -> tuple[int, int]:
        return len(neighbours[v]), v

    order = [v for v in range(graph.n) if not neighbours[v]]
    seen = set(order)
    for root in sorted(range(graph.n), key=rank):
        if root in seen:
            continue
        level = [root]
        while level:
            seen.update(level)
            order += level
            level = sorted({w for v in level for w in neighbours[v]} - seen, key=rank)
    return order[::-1] if reverse else order


def small_components_graph(seed: int) -> SparseSimilarityGraph:
    """A seeded random graph of up to 80 vertices with isolated vertices and
    many small components: either a sparse G(n, m), or relabeled groups of
    one to six vertices, each a random tree with a few chords."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 81))
    edges = set()
    if seed % 2:
        for a, b in rng.integers(0, n, size=(int(rng.integers(0, n + 1)), 2)):
            edges.add((min(a, b), max(a, b)))
    else:
        labels, start = rng.permutation(n), 0
        while start < n:
            group = labels[start : start + int(rng.integers(1, 7))].tolist()
            start += len(group)
            edges |= {(group[int(rng.integers(0, i))], v) for i, v in enumerate(group) if i}
            for _ in range(int(rng.integers(0, 3))):
                a, b = rng.choice(group, size=2)
                edges.add((a, b))
    return SparseSimilarityGraph.from_edges(n, [(a, b) for a, b in edges if a != b])


class TestReferenceOrdering:
    """``cuthill_mckee`` equals its plain definition exactly: the gate for a
    rewrite of the ordering."""

    def test_random_graphs_with_small_components(self):
        shapes = []
        for seed in range(400):
            graph = small_components_graph(seed)
            for reverse in (False, True):
                assert cuthill_mckee(graph, reverse=reverse).tolist() == reference_cuthill_mckee(
                    graph, reverse), (seed, reverse)
            degrees = graph.degrees
            shapes.append((int((degrees == 0).sum()), int((degrees == 1).sum())))
        # the shapes the per-component work meets: isolated vertices and degree-1 ends
        assert sum(isolated > 0 and ends > 2 for isolated, ends in shapes) > 200

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.999])
    @pytest.mark.parametrize("chunk", ["whole", "on-grid", "off-grid"])
    @pytest.mark.parametrize("kind", PAIRS)
    def test_built_graphs(self, monkeypatch, kind, chunk, q):
        pair, threshold, scan = cutoff_and_scan(monkeypatch, kind, chunk, q)
        graph = build_sparse_graph(pair, threshold, _scan=scan)
        for reverse in (False, True):
            assert cuthill_mckee(graph, reverse=reverse).tolist() == reference_cuthill_mckee(
                graph, reverse)


class TestOrdering:
    def test_edgeless_graph_plain_is_identity(self):
        g = SparseSimilarityGraph.from_edges(4, [])
        np.testing.assert_array_equal(cuthill_mckee(g, reverse=False), [0, 1, 2, 3])
        np.testing.assert_array_equal(cuthill_mckee(g, reverse=True), [3, 2, 1, 0])

    def test_scrambled_path_reaches_bandwidth_one(self):
        # path 3-0-4-1-2; the tie-break rules fix the exact output
        g, edges = path_graph(5, relabel=[3, 0, 4, 1, 2])
        order = cuthill_mckee(g, reverse=False)
        np.testing.assert_array_equal(order, [2, 1, 4, 0, 3])
        assert brute_bandwidth(5, edges, order) == 1

    def test_any_relabeled_path_reaches_bandwidth_one(self):
        for n in (2, 3, 17, 100, 512):
            relabel = np.random.default_rng(n).permutation(n).tolist()
            g, edges = path_graph(n, relabel)
            order = cuthill_mckee(g, reverse=False)
            assert brute_bandwidth(n, edges, order) == 1
            assert matrix_bandwidth(g, order) == 1

    def test_star_leaf_first_center_second(self):
        # computed orderings: heuristic reaches bandwidth 3, the true
        # optimum (center in the middle) is 2
        g = SparseSimilarityGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        order = cuthill_mckee(g, reverse=False)
        np.testing.assert_array_equal(order, [1, 0, 2, 3, 4])
        assert matrix_bandwidth(g, order) == 3
        best, opt = exhaustive_min_bandwidth(g)
        assert opt == 2
        np.testing.assert_array_equal(best, [1, 2, 0, 3, 4])

    def test_output_always_bijective(self):
        for seed in range(30):
            n = int(np.random.default_rng(seed).integers(1, 30))
            g, _ = random_connected_graph(max(n, 2), seed)
            for reverse in (False, True):
                order = cuthill_mckee(g, reverse=reverse)
                np.testing.assert_array_equal(np.sort(order), np.arange(g.n))

    def test_disconnected_components_and_isolated_nodes(self):
        # two triangles and two isolated vertices
        g = SparseSimilarityGraph.from_edges(
            8, [(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)]
        )
        order = cuthill_mckee(g, reverse=False)
        # isolated vertices have degree 0 and seed the first two restarts
        np.testing.assert_array_equal(order[:2], [3, 4])
        np.testing.assert_array_equal(np.sort(order), np.arange(8))

    def test_isolated_vertices_lead_then_path(self):
        # path 5-7-2-10 among eight isolated vertices: the isolated ones come
        # first by index, then BFS from endpoint 5 (degree 1, lower index than 10)
        g = SparseSimilarityGraph.from_edges(12, [(2, 10), (2, 7), (5, 7)])
        plain = [0, 1, 3, 4, 6, 8, 9, 11, 5, 7, 2, 10]
        np.testing.assert_array_equal(cuthill_mckee(g, reverse=False), plain)
        np.testing.assert_array_equal(cuthill_mckee(g, reverse=True), plain[::-1])

    def test_reverse_is_exact_reversal_with_equal_bandwidth(self):
        for seed in range(10):
            g, _ = random_connected_graph(12, seed + 100)
            plain = cuthill_mckee(g, reverse=False)
            rev = cuthill_mckee(g, reverse=True)
            np.testing.assert_array_equal(rev, plain[::-1])
            assert matrix_bandwidth(g, plain) == matrix_bandwidth(g, rev)

    def test_determinism_vs_edge_insertion_order(self):
        edges = [(0, 3), (3, 5), (1, 5), (2, 4), (4, 0)]
        a = SparseSimilarityGraph.from_edges(6, edges)
        b = SparseSimilarityGraph.from_edges(6, edges[::-1])
        np.testing.assert_array_equal(cuthill_mckee(a), cuthill_mckee(b))

    def test_levels_non_decreasing_along_plain_output(self):
        for seed in range(10):
            g, _ = random_connected_graph(15, seed + 50)
            order = cuthill_mckee(g, reverse=False)
            # BFS distances from the chosen root
            root = int(order[0])
            dist = {root: 0}
            frontier = [root]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in g.neighbors(u):
                        if int(v) not in dist:
                            dist[int(v)] = dist[u] + 1
                            nxt.append(int(v))
                frontier = nxt
            levels = [dist[int(v)] for v in order]
            assert levels == sorted(levels)

    def test_asymmetric_adjacency_rejected(self):
        g = SparseSimilarityGraph(3, np.array([0, 1, 1, 1]), np.array([1]))
        with pytest.raises(GraphError):
            cuthill_mckee(g)

    @pytest.mark.parametrize("n, indptr, indices, message", [
        (3, [0, 1, 1, 1], [1], "not symmetric"),
        (2, [0, 2, 3], [0, 1, 0], "self-loop"),
        (3, [0, 2, 3, 4], [2, 1, 0, 0], "not strictly ascending"),
    ], ids=["asymmetric", "self-loop", "unsorted"])
    def test_hand_made_graphs_are_validated(self, n, indptr, indices, message):
        with pytest.raises(GraphError, match=message):
            cuthill_mckee(SparseSimilarityGraph(n, np.array(indptr), np.array(indices)))

    def test_a_built_graph_is_validated_only_once_changed(self, monkeypatch):
        pair = random_pair(64, 8, seed=9)
        built = build_sparse_graph(pair, estimate_quantile_threshold(pair, 0.8, 64))
        copy = SparseSimilarityGraph(built.n, built.indptr.copy(), built.indices.copy())
        validated = []
        validate = SparseSimilarityGraph.validate
        monkeypatch.setattr(SparseSimilarityGraph, "validate",
                            lambda graph: validated.append(graph) or validate(graph))
        np.testing.assert_array_equal(cuthill_mckee(built), cuthill_mckee(copy))
        assert validated == [copy]
        with pytest.raises(ValueError, match="read-only"):
            built.indices[0] = 0
        assert built.degrees[0] > 0
        built.indices = built.indices.copy()  # now a self-loop at node 0, on a new array
        built.indices[0] = 0
        with pytest.raises(GraphError, match="self-loop"):
            cuthill_mckee(built)
        built.indices.flags.writeable = False
        with pytest.raises(GraphError, match="self-loop"):
            cuthill_mckee(built)

    @pytest.mark.parametrize("seed", range(20))
    def test_level_runs_do_not_change_the_order(self, monkeypatch, seed):
        g, _ = random_connected_graph(40, seed + 70)
        isolated = SparseSimilarityGraph(45, np.concatenate([g.indptr, np.full(5, g.indptr[-1])]),
                                         g.indices)
        want = [cuthill_mckee(graph, reverse=False) for graph in (g, isolated)]
        monkeypatch.setattr(similarity, "_BLOCK_BYTES", 8)  # one int64 slot: one vertex per run
        got = [cuthill_mckee(graph, reverse=False) for graph in (g, isolated)]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestMatrixBandwidth:
    def test_edgeless_is_zero(self):
        g = SparseSimilarityGraph.from_edges(5, [])
        assert matrix_bandwidth(g, np.arange(5)) == 0

    def test_identity_path(self):
        g, _ = path_graph(3)
        assert matrix_bandwidth(g, np.arange(3)) == 1

    def test_complete_graph_forced(self):
        n = 6
        g = SparseSimilarityGraph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(n)
            assert matrix_bandwidth(g, order) == n - 1

    def test_size_mismatch(self):
        g, _ = path_graph(4)
        with pytest.raises(ParameterError):
            matrix_bandwidth(g, np.arange(3))

    def test_non_bijective_order(self):
        g, _ = path_graph(4)
        with pytest.raises(PermutationError):
            matrix_bandwidth(g, np.array([0, 0, 1, 2]))


class TestExhaustiveOracle:
    def test_path_four_nodes(self):
        g, _ = path_graph(4)
        order, bw = exhaustive_min_bandwidth(g)
        assert bw == 1
        np.testing.assert_array_equal(order, [0, 1, 2, 3])

    def test_cycle_five_nodes(self):
        g = SparseSimilarityGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert exhaustive_min_bandwidth(g)[1] == 2

    def test_edgeless(self):
        g = SparseSimilarityGraph.from_edges(3, [])
        order, bw = exhaustive_min_bandwidth(g)
        assert bw == 0
        np.testing.assert_array_equal(order, [0, 1, 2])

    def test_matches_slow_enumeration(self):
        g, edges = random_connected_graph(6, seed=77)
        _, fast = exhaustive_min_bandwidth(g)
        slow = min(
            brute_bandwidth(6, edges, perm) for perm in itertools.permutations(range(6))
        )
        assert fast == slow

    def test_capacity_guard(self):
        g = SparseSimilarityGraph.from_edges(11, [(0, 1)])
        with pytest.raises(CapacityError):
            exhaustive_min_bandwidth(g)

    def test_heuristic_never_below_optimum(self):
        for seed in range(40):
            n = 2 + seed % 7
            g, _ = random_connected_graph(n, seed)
            heuristic = matrix_bandwidth(g, cuthill_mckee(g))
            _, optimum = exhaustive_min_bandwidth(g)
            assert heuristic >= optimum
