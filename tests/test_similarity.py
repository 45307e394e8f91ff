"""Quantile cutoff estimation and sparse graph construction."""

import dataclasses
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contrabatch import bandwidth, batching, losses, similarity
from contrabatch import (
    CapacityError,
    DataError,
    EmbeddingPair,
    GraphError,
    ParameterError,
    SimilarityThreshold,
    SparseSimilarityGraph,
    build_sparse_graph,
    estimate_quantile_threshold,
    expected_retained_fraction,
    interpolated_quantile,
    nearest_cross_neighbors,
    ntxent_global,
    save_embeddings,
)
from contrabatch._parallel import ordered_map
from contrabatch.cli import main
from conftest import (
    cluster_sorted_pair,
    clustered_pair,
    count_products,
    half_clustered_pair,
    orthogonal_ties,
    random_pair,
)


def sort_oracle_quantile(matrix: np.ndarray, q: float) -> float:
    """Pure-Python reference: sort every entry, interpolate linearly."""
    flat = sorted(float(v) for v in np.asarray(matrix).ravel())
    h = (len(flat) - 1) * q
    lo = int(h)
    hi = min(lo + 1, len(flat) - 1)
    return flat[lo] + (h - lo) * (flat[hi] - flat[lo])


class TestQuantileEstimation:
    def test_constant_inner_products(self):
        # identical rows on both sides: every inner product equals 1
        x = np.tile([[1.0, 0.0]], (6, 1))
        pair = EmbeddingPair(x, x.copy())
        for q in (0.1, 0.5, 0.9):
            for chunk in (1, 2, 6):
                t = estimate_quantile_threshold(pair, q, chunk)
                assert t.value == pytest.approx(1.0, abs=1e-12)

    def test_exact_median_of_known_4x4(self):
        pair = random_pair(4, 3, seed=5)
        t = estimate_quantile_threshold(pair, 0.5, chunk_rows=4)
        assert t.estimator == "exact"
        assert t.value == sort_oracle_quantile(pair.x @ pair.y.T, 0.5)

    def test_exact_mode_matches_sort_oracle_bitwise(self):
        for n, d, q in [(16, 4, 0.25), (97, 8, 0.999), (256, 16, 0.99)]:
            pair = random_pair(n, d, seed=n)
            t = estimate_quantile_threshold(pair, q, chunk_rows=n)
            assert t.value == sort_oracle_quantile(pair.x @ pair.y.T, q)

    def test_chunked_estimate_near_exact_extreme_quantile(self):
        # measured error for this instance: 6.62e-05; tolerance frozen at
        # 2e-3 (spec-level requirement was 0.02)
        pair = random_pair(256, 16, seed=7)
        exact = sort_oracle_quantile(pair.x @ pair.y.T, 0.999)
        est = estimate_quantile_threshold(pair, 0.999, chunk_rows=32)
        assert est.estimator == "chunk_median"
        assert abs(est.value - exact) < 2e-3
        assert abs(est.value - exact) < 0.02

    def test_threads_do_not_change_estimate(self):
        pair = random_pair(128, 8, seed=3)
        base = estimate_quantile_threshold(pair, 0.9, 16, threads=1)
        multi = estimate_quantile_threshold(pair, 0.9, 16, threads=8)
        assert base.value == multi.value

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5])
    def test_quantile_domain(self, q):
        pair = random_pair(4, 2, seed=0)
        with pytest.raises(ParameterError):
            estimate_quantile_threshold(pair, q, 2)

    @pytest.mark.parametrize("chunk", [0, 5, -1])
    def test_chunk_rows_domain(self, chunk):
        pair = random_pair(4, 2, seed=0)
        with pytest.raises(ParameterError):
            estimate_quantile_threshold(pair, 0.5, chunk)

    def test_interpolated_quantile_rejects_bad_q(self):
        with pytest.raises(ParameterError):
            interpolated_quantile(np.arange(5.0), 0.0)

    @pytest.mark.parametrize("values", [
        np.array([]), np.empty((0, 3)), [1.0, np.nan, 3.0], [np.inf, 0.0], [-np.inf],
    ], ids=["empty", "empty-2d", "nan", "inf", "minus-inf"])
    def test_interpolated_quantile_rejects_empty_or_non_finite_values(self, values):
        with pytest.raises(DataError):
            interpolated_quantile(values, 0.5)


class TestGraphConstruction:
    def test_threshold_above_max_gives_empty_graph(self):
        pair = random_pair(12, 4, seed=1)
        t = SimilarityThreshold(0.5, 2.0, 12, "exact")
        g = build_sparse_graph(pair, t)
        assert g.edge_count == 0
        assert g.max_degree == 0

    def test_threshold_below_min_gives_complete_graph(self):
        pair = random_pair(10, 4, seed=2)
        t = SimilarityThreshold(0.5, -2.0, 10, "exact")
        g = build_sparse_graph(pair, t)
        assert g.edge_count == 10 * 9 // 2
        assert g.max_degree == 9

    def test_angle_triple_keeps_only_near_pair(self):
        # unit vectors at 0, 5, and 90 degrees; cos(5 deg) ~ 0.996 is the
        # only pair above 0.9
        angles = np.deg2rad([0.0, 5.0, 90.0])
        m = np.column_stack([np.cos(angles), np.sin(angles)])
        pair = EmbeddingPair(m, m.copy())
        g = build_sparse_graph(pair, SimilarityThreshold(0.5, 0.9, 3, "exact"))
        assert g == SparseSimilarityGraph.from_edges(3, [(0, 1)])

    def test_non_finite_threshold_rejected(self):
        pair = random_pair(4, 2, seed=0)
        with pytest.raises(ParameterError):
            build_sparse_graph(pair, SimilarityThreshold(0.5, float("nan"), 4, "exact"))

    def test_symmetry_and_no_self_loops(self):
        for seed in range(5):
            pair = random_pair(40, 6, seed=seed)
            t = estimate_quantile_threshold(pair, 0.8, 40)
            g = build_sparse_graph(pair, t)
            g.validate()  # raises on any structural violation
            for i in range(g.n):
                for j in g.neighbors(i):
                    assert i != j
                    assert i in g.neighbors(j)

    def test_raising_threshold_never_adds_edges(self):
        pair = random_pair(60, 8, seed=9)
        cuts = sorted(
            estimate_quantile_threshold(pair, q, 60).value for q in (0.5, 0.8, 0.95)
        )
        graphs = [
            build_sparse_graph(pair, SimilarityThreshold(0.5, c, 60, "exact"))
            for c in cuts
        ]
        for low, high in zip(graphs, graphs[1:]):
            for i in range(60):
                assert set(high.neighbors(i)) <= set(low.neighbors(i))

    def test_block_size_does_not_change_graph(self):
        pair = random_pair(300, 12, seed=4)
        t = estimate_quantile_threshold(pair, 0.9, 300)
        assert build_sparse_graph(pair, t, threads=8) == build_sparse_graph(pair, t)

    def test_or_symmetrization(self):
        # x1.y0 passes, x0.y1 does not: the undirected edge must still exist
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([[0.0, 1.0], [-1.0, 0.0]])
        pair = EmbeddingPair(x, y)
        g = build_sparse_graph(pair, SimilarityThreshold(0.5, 0.5, 2, "exact"))
        assert g == SparseSimilarityGraph.from_edges(2, [(0, 1)])
        assert g.directed_entry_count == 1

    def test_validate_flags_asymmetric_adjacency(self):
        g = SparseSimilarityGraph(2, np.array([0, 1, 1]), np.array([1]))
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_flags_self_loop(self):
        g = SparseSimilarityGraph(2, np.array([0, 1, 1]), np.array([0]))
        with pytest.raises(GraphError):
            g.validate()

    def test_tail_keys_past_two_to_the_31_are_exact(self, monkeypatch):
        # n > 46341 makes n² pass 2³¹: keys built from a tile's int32 offsets
        # need int64 once span[0]·n does
        n = 50000
        x = np.linspace(-1.0, 1.0, n).reshape(n, 1)
        pair = EmbeddingPair(x, x.copy())
        cut = 0.5
        grid = similarity._tiles((0, n), n)
        start, stop = grid[1400]
        assert start * n > 2**31
        empty = similarity._Tail(cut, np.empty(0, dtype=np.int32), np.empty(0))
        scan = similarity._Scan()
        scan.tails = dict.fromkeys(grid, empty)
        entries = {  # (row, col) -> value; the diagonal and values at the cutoff are dropped
            (start, 0): 0.9, (start, n - 1): 0.6, (start + 1, start + 1): 0.9,
            (start + 3, 17): 0.5, (stop - 1, 49998): 0.7, (stop - 1, start): 0.8,
        }
        offsets = np.array([(i - start) * n + j for i, j in entries], dtype=np.int32)
        scan.tails[(start, stop)] = similarity._Tail(cut, offsets, np.array(list(entries.values())))
        calls = count_products(monkeypatch)
        graph = build_sparse_graph(pair, SimilarityThreshold(0.999, cut, n, "exact"), _scan=scan)
        assert calls == []
        kept = [(i, j) for (i, j), value in entries.items() if value > cut and i != j]
        assert graph == SparseSimilarityGraph.from_edges(n, kept)
        assert graph.directed_entry_count == len(kept) == 4

    @pytest.mark.parametrize("reuse", [True, False], ids=["tails", "rescan"])
    def test_edge_cap_counts_the_entries_above_a_chunk_median(self, monkeypatch, reuse):
        # the median of 128-row chunk quantiles lets about 25x the predicted entries pass;
        # the graph counts them, from kept tails and rescanned tiles, before any key is built
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 128)
        pair = half_clustered_pair().normalized()
        scan = similarity._Scan()
        threshold = estimate_quantile_threshold(pair, 0.99, 128, _scan=scan)
        assert threshold.estimator == "chunk_median"
        with monkeypatch.context() as patch:
            patch.setattr(similarity, "_MAX_DIRECTED_ENTRIES", 10000)
            built = []
            patch.setattr(SparseSimilarityGraph, "_from_keys", lambda *args: built.append(args))
            calls = count_products(patch)
            with pytest.raises(CapacityError, match=r"^\d+ products of N = 512 rows exceed the "
                                                    r"cutoff at quantile 0\.99, above the cap "
                                                    r"of 10000 directed entries;"):
                build_sparse_graph(pair, threshold, _scan=scan if reuse else None)
            assert built == []
            assert len(calls) == (2 if reuse else 4)  # the cluster's two tails lie above the cutoff
        exact = build_sparse_graph(pair, estimate_quantile_threshold(pair, 0.99, 512))
        assert exact.directed_entry_count < 10000 < build_sparse_graph(
            pair, threshold).directed_entry_count

    def test_edge_cap_count_is_exact_across_workers(self, monkeypatch):
        # more workers than cores add their tiles to one count, which must stay exact
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 8)
        monkeypatch.setattr(similarity, "_MAX_DIRECTED_ENTRIES", 0)  # count every tile
        pair = random_pair(256, 8, seed=5)
        want = sum(int((similarity._products(pair, span) > 0.0).sum())
                   for span in similarity._tiles((0, pair.n), pair.n))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                with pytest.raises(CapacityError, match=f"^{want} products of N = 256 rows "):
                    build_sparse_graph(pair, SimilarityThreshold(0.5, 0.0, 256, "exact"),
                                       threads=4)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("edge", [(0, 5), (-1, 2)])
    def test_from_edges_rejects_an_index_outside_the_nodes(self, edge):
        with pytest.raises(GraphError, match=rf"edge \({edge[0]}, {edge[1]}\)"):
            SparseSimilarityGraph.from_edges(4, [(0, 1), edge])


class TestRetainedFraction:
    def test_complete_graph(self):
        pair = random_pair(10, 4, seed=2)
        g = build_sparse_graph(pair, SimilarityThreshold(0.5, -2.0, 10, "exact"))
        assert expected_retained_fraction(g) == pytest.approx(1 - 1 / 10)

    def test_empty_graph(self):
        pair = random_pair(10, 4, seed=2)
        g = build_sparse_graph(pair, SimilarityThreshold(0.5, 2.0, 10, "exact"))
        assert expected_retained_fraction(g) == 0.0

    def test_tracks_one_minus_q(self):
        pair = random_pair(512, 32, seed=42)
        t = estimate_quantile_threshold(pair, 0.99, 512)
        g = build_sparse_graph(pair, t)
        assert 0.008 <= expected_retained_fraction(g) <= 0.012


def test_from_edges_insertion_order_irrelevant():
    a = SparseSimilarityGraph.from_edges(5, [(0, 1), (3, 4), (1, 2)])
    b = SparseSimilarityGraph.from_edges(5, [(2, 1), (0, 1), (4, 3)])
    assert a == b


# Tail selection: every estimate must equal the full sort of each chunk, and
# a graph that reuses the estimate's tails must equal a full rescan.

def clustered_with_duplicates() -> EmbeddingPair:
    pair, _ = clustered_pair(256, 16, 8, noise=0.1, seed=21)
    x, y = pair.x.copy(), pair.y.copy()
    x[200:216] = x[0]  # exact duplicate rows on both sides
    y[200:216] = y[0]
    return EmbeddingPair(x, y)


def one_hot_tile(n: int = 384, tile: int = 128) -> EmbeddingPair:
    """N rows whose first tile matches a third of the columns closely, so that
    tile holds most of the chunk's top products."""
    rng = np.random.default_rng(22)
    x = rng.standard_normal((n, 16))
    y = rng.standard_normal((n, 16))
    centre = rng.standard_normal(16)
    x[:tile] = centre + 0.05 * rng.standard_normal((tile, 16))
    y[: n // 3] = centre + 0.05 * rng.standard_normal((n // 3, 16))
    return EmbeddingPair(x, y).normalized()


def assert_tails_hold_their_entries(pair: EmbeddingPair, scan) -> None:
    """Each tail kept in ``scan`` holds exactly its tile's entries >= its bound."""
    for span, tail in scan.tails.items():
        flat = (pair.x[span[0] : span[1]] @ pair.y.T).reshape(-1)
        hits = np.flatnonzero(flat >= tail.bound)
        assert np.array_equal(tail.offsets, hits) and np.array_equal(tail.values, flat[hits]), span


def chunk_oracle(pair: EmbeddingPair, q: float, chunk_rows: int) -> float:
    """Median over chunks of interpolated_quantile of each chunk's full product."""
    values = [
        interpolated_quantile(pair.x[s : s + chunk_rows] @ pair.y.T, q)
        for s in range(0, pair.n, chunk_rows)
    ]
    return float(np.median(values))


TAIL_CASES = {
    "ties": (orthogonal_ties, 32, 8),
    "clustered-duplicates": (clustered_with_duplicates, 256, 64),
    "several-chunks": (lambda: random_pair(256, 16, seed=31), 64, 32),
    "multi-tile-chunks": (lambda: random_pair(512, 16, seed=32), 256, 64),
    "one-hot-tile": (one_hot_tile, 384, 128),
}


class TestTailSelection:
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.999])
    @pytest.mark.parametrize("case", sorted(TAIL_CASES))
    def test_estimate_equals_full_sort_of_each_chunk(self, monkeypatch, case, q):
        make, chunk_rows, tile_rows = TAIL_CASES[case]
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", tile_rows)
        pair = make()
        want = chunk_oracle(pair, q, chunk_rows)
        for threads in (1, 2):
            scan = similarity._Scan()
            got = estimate_quantile_threshold(pair, q, chunk_rows, threads=threads, _scan=scan)
            assert got.value == want
        # above q = 15/16 tails pay; below it every chunk is sorted whole
        assert bool(scan.tails) == (q == 0.999)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_misjudged_chunk_walks_its_tiles_again_not_sorted(self, monkeypatch, threads):
        # a first bound above every product keeps nothing: each tile of the chunk
        # is multiplied again and walked at the second bound, and no chunk is sorted
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 128)
        bounds = similarity._chunk_bounds
        monkeypatch.setattr(similarity, "_chunk_bounds",
                            lambda *args: (2.0, bounds(*args)[1]))  # rows are unit-norm
        sorts = []
        monkeypatch.setattr(similarity, "_full_sort_quantile", lambda *args: sorts.append(args))
        pair = random_pair(256, 16, seed=33)
        calls = count_products(monkeypatch)
        scan = similarity._Scan()
        t = estimate_quantile_threshold(pair, 0.999, 256, threads=threads, _scan=scan)
        assert sorts == []
        assert sorted(calls) == [(0, 128), (0, 128), (128, 256), (128, 256)]
        assert t.value == chunk_oracle(pair, 0.999, 256)
        assert_tails_hold_their_entries(pair, scan)  # before the graph takes them
        calls.clear()
        graph = build_sparse_graph(pair, t, threads=threads, _scan=scan)
        assert calls == []  # every tail has the second bound, at or below the cutoff
        assert graph == build_sparse_graph(pair, SimilarityThreshold(0.999, t.value, 256, t.estimator))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_chunk_is_read_after_the_walk_that_completes_it(self, monkeypatch, threads):
        # only the second chunk's first bound misjudges: the first chunk is read
        # right after the first walk, and only the second chunk's tiles are walked
        # again, at its second bound, then read
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 64)
        bounds, select = similarity._chunk_bounds, similarity._select_quantile
        monkeypatch.setattr(similarity, "_chunk_bounds", lambda pair, chunk, share: (
            (2.0, bounds(pair, chunk, share)[1]) if chunk == (128, 256) else bounds(pair, chunk, share)))
        events = count_products(monkeypatch)
        monkeypatch.setattr(similarity, "_select_quantile",
                            lambda *args: events.append("read") or select(*args))
        sorts = []
        monkeypatch.setattr(similarity, "_full_sort_quantile", lambda *args: sorts.append(args))
        pair = random_pair(256, 16, seed=35)
        t = estimate_quantile_threshold(pair, 0.999, 128, threads=threads)
        tiles = [(0, 64), (64, 128), (128, 192), (192, 256)]
        assert sorts == []
        assert [i for i, event in enumerate(events) if event == "read"] == [4, 7]
        assert sorted(events[:4]) == tiles and sorted(events[5:7]) == tiles[2:]
        assert t.value == chunk_oracle(pair, 0.999, 128)

    def test_tail_over_its_share_sorts_the_chunk(self, monkeypatch):
        # at q = 0.95 the first tile holds the chunk's top 5% nearly alone: at
        # the chunk's bound its tail passes 1/8 of the tile and is dropped, so
        # the chunk is sorted after one walk
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 128)
        sorts = []
        full_sort = similarity._full_sort_quantile
        monkeypatch.setattr(similarity, "_full_sort_quantile",
                            lambda *args: sorts.append(args[1]) or full_sort(*args))
        pair = one_hot_tile()
        calls = count_products(monkeypatch)
        scan = similarity._Scan()
        t = estimate_quantile_threshold(pair, 0.95, 384, _scan=scan)
        assert sorts == [(0, 384)]
        tiles = [(0, 128), (128, 256), (256, 384)]
        assert calls == tiles + tiles  # the tiles, then the full sort's
        assert scan.tails[(0, 128)].bound == math.inf
        assert t.value == chunk_oracle(pair, 0.95, 384)

    def test_diagonal_of_an_aligned_sample_keeps_the_tail_path(self, monkeypatch):
        # X = Y: each x_i·y_i = 1 is the largest product, and the chunk's rows
        # and Y's columns are sampled at the same stride of 8, so the sample
        # holds 256 diagonal products; they must not set the bound
        sorts = []
        monkeypatch.setattr(similarity, "_full_sort_quantile", lambda *args: sorts.append(args))
        x = random_pair(2048, 16, seed=34).x
        pair = EmbeddingPair(x, x.copy())
        calls = count_products(monkeypatch)
        t = estimate_quantile_threshold(pair, 0.999, 2048)
        assert sorts == []
        assert calls == similarity._tiles((0, 2048), 2048)  # one walk
        assert t.value == chunk_oracle(pair, 0.999, 2048)

    def test_default_margin_takes_the_tail_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(similarity, "_full_sort_quantile",
                            lambda *args: calls.append(args))
        pair = random_pair(256, 16, seed=33)
        t = estimate_quantile_threshold(pair, 0.999, 128)
        assert calls == []
        assert t.value == chunk_oracle(pair, 0.999, 128)


class TestClusterSortedRows:
    """Rows sorted by cluster, as embeddings saved class by class arrive: a tile
    holds few clusters, so a bound sampled from one tile alone misjudges its
    chunk.  The chunk's one bound takes every tile in a single walk, and the
    chunk is not multiplied into one block and sorted."""

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_cutoff_in_the_tile_budget(self, monkeypatch, seed):
        sorts = []
        monkeypatch.setattr(similarity, "_full_sort_quantile", lambda *args: sorts.append(args))
        calls = count_products(monkeypatch)
        for n in (2048, 4096):
            pair = cluster_sorted_pair(n, seed)
            for q in (0.99, 0.999):
                want = chunk_oracle(pair, q, n)
                for threads in (1, 2):
                    scan = similarity._Scan()
                    calls.clear()
                    tracemalloc.start()
                    try:
                        t, peak = traced_peak(lambda: estimate_quantile_threshold(
                            pair, q, n, threads=threads, _scan=scan))
                    finally:
                        tracemalloc.stop()
                    kept = sum(tail.offsets.nbytes + tail.values.nbytes
                               for tail in scan.tails.values())
                    assert sorts == []
                    assert sorted(calls) == similarity._tiles((0, n), n), (n, q)  # one walk
                    assert t.value == want
                    assert peak <= threads * 1.25 * similarity._TILE_BYTES + kept
                    assert build_sparse_graph(pair, t, threads=threads, _scan=scan) == \
                        build_sparse_graph(pair, SimilarityThreshold(q, t.value, n, t.estimator))


    @pytest.mark.parametrize("seed", [18, 53, 185])
    def test_margin_covers_rows_of_one_cluster(self, monkeypatch, seed):
        # products of one row, or one column, are correlated: on these inputs a
        # margin of Poisson error alone, 5·√e, sets a bound that keeps too few
        calls = count_products(monkeypatch)
        pair = cluster_sorted_pair(2048, seed)
        t = estimate_quantile_threshold(pair, 0.99, 2048)
        assert calls == similarity._tiles((0, 2048), 2048)
        assert t.value == chunk_oracle(pair, 0.99, 2048)


@pytest.mark.parametrize("cls, names", [
    (EmbeddingPair, ["x", "y"]),
    (SimilarityThreshold, ["quantile_q", "value", "chunk_rows", "estimator"]),
])
def test_public_objects_hold_no_scan_state(cls, names):
    # what one scan keeps for the next call lives in the epoch's similarity._Scan
    assert [f.name for f in dataclasses.fields(cls)] == names


def scanned_estimate(pair, q, chunk_rows):
    """(threshold, the scan that kept its tails)"""
    scan = similarity._Scan()
    return estimate_quantile_threshold(pair, q, chunk_rows, _scan=scan), scan


class TestTailReuse:
    def assert_rescan_agrees(self, pair, t, reused):
        rescanned = build_sparse_graph(pair, t)
        assert reused == rescanned
        assert reused.directed_entry_count == rescanned.directed_entry_count

    def assert_same_graph(self, pair, t, scan):
        reused = build_sparse_graph(pair, t, _scan=scan)
        self.assert_rescan_agrees(pair, t, reused)
        return reused

    def test_exact_estimate_graph_needs_no_multiply(self, monkeypatch):
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 128)
        pair = random_pair(512, 16, seed=41)
        t, scan = scanned_estimate(pair, 0.999, 512)
        calls = count_products(monkeypatch)
        graph = self.assert_same_graph(pair, t, scan)
        assert graph.edge_count > 0
        assert calls == [(0, 128), (128, 256), (256, 384), (384, 512)]  # the rescan only
        t, scan = scanned_estimate(pair, 0.999, 512)  # the graph took the first scan's tails
        calls.clear()
        build_sparse_graph(pair, t, threads=2, _scan=scan)
        assert calls == []

    def test_chunk_median_rescans_tiles_above_the_cutoff(self, monkeypatch):
        # rows 0..127 form tight clusters, so chunk 0's tail bound sits far
        # above the median of the four chunk quantiles
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 64)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((512, 16))
        y = rng.standard_normal((512, 16))
        centres = rng.standard_normal((4, 16))
        x[:128] = np.repeat(centres, 32, axis=0) + 0.05 * rng.standard_normal((128, 16))
        y[:128] = np.repeat(centres, 32, axis=0) + 0.05 * rng.standard_normal((128, 16))
        pair = EmbeddingPair(x, y).normalized()
        t, scan = scanned_estimate(pair, 0.999, 128)
        assert t.estimator == "chunk_median"
        above = sorted(s for s, tail in scan.tails.items() if tail.bound > t.value)
        assert above == [(0, 64), (64, 128)]
        calls = count_products(monkeypatch)
        reused = build_sparse_graph(pair, t, _scan=scan)
        assert calls == above
        self.assert_rescan_agrees(pair, t, reused)

    @pytest.mark.parametrize("chunk_rows", [512, 100], ids=["grid", "off-grid"])
    def test_graph_takes_every_tail_out_of_the_scan(self, monkeypatch, chunk_rows):
        # reused or not (off-grid spans are multiplied again), no tail outlives the graph
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 128)
        pair = random_pair(512, 16, seed=41)
        t, scan = scanned_estimate(pair, 0.999, chunk_rows)
        assert scan.tails
        assert build_sparse_graph(pair, t, _scan=scan) == build_sparse_graph(pair, t)
        assert scan.tails == {}

    def test_graph_without_the_scan_multiplies_every_tile(self, monkeypatch):
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 32)
        pair = random_pair(128, 8, seed=43)
        t, scan = scanned_estimate(pair, 0.999, 128)
        calls = count_products(monkeypatch)
        reused = build_sparse_graph(pair, t, _scan=scan)
        assert calls == [] and reused.edge_count > 0
        assert build_sparse_graph(pair, t) == reused
        assert calls == [(0, 32), (32, 64), (64, 96), (96, 128)]

    def test_blocks_off_the_tile_grid_are_multiplied(self, monkeypatch):
        # products can differ in the last bit with block height, so a tail
        # stands in only for a tile with exactly its own span
        pair = random_pair(300, 12, seed=4)
        calls = count_products(monkeypatch)
        for chunk_rows, multiplied in ((300, []), (100, similarity._tiles((0, 300), 300))):
            t, scan = scanned_estimate(pair, 0.999, chunk_rows)
            assert scan.tails
            calls.clear()
            reused = build_sparse_graph(pair, t, _scan=scan)
            assert calls == multiplied
            assert reused.edge_count > 0
            self.assert_rescan_agrees(pair, t, reused)


class TestOneTileGrid:
    def test_loss_and_neighbor_scans_use_the_tile_grid(self, monkeypatch):
        pair = random_pair(150, 8, seed=45)
        want_loss = ntxent_global(pair, 0.1)
        m = pair.x @ pair.y.T
        np.fill_diagonal(m, -np.inf)
        want_nn = np.argmax(m, axis=1)
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 64)
        calls = count_products(monkeypatch)
        tiles = [(0, 64), (64, 128), (128, 150)]
        assert ntxent_global(pair, 0.1, threads=2) == pytest.approx(want_loss, abs=1e-12)
        assert sorted(calls) == tiles  # two workers may finish out of order
        calls.clear()
        np.testing.assert_array_equal(nearest_cross_neighbors(pair, threads=2), want_nn)
        assert sorted(calls) == tiles


def budget_tile_rows(n: int) -> int:
    """The tile height the 16 MiB budget sets, without the 256-row cap."""
    rows = max(1, (16 << 20) // (8 * n))
    return 1 << (rows.bit_length() - 1)


class TestTileGrid:
    """The tile height is a function of N alone: the tallest power of two,
    at most 256, whose products fit ``_TILE_BYTES``."""

    @pytest.mark.parametrize("n, rows", [
        (1, 256), (1024, 256), (1025, 256), (1536, 256), (4096, 256), (4100, 256),
        (8192, 256), (8193, 128), (16384, 128), (2**21 + 1, 1),
    ])
    def test_height_fits_the_budget_and_divides_the_chunk(self, n, rows):
        assert similarity._tile_rows(n) == rows
        assert rows & (rows - 1) == 0 and rows <= 256
        assert rows == 1 or rows * n * 8 <= similarity._TILE_BYTES
        assert rows == 256 or 2 * rows * n * 8 > similarity._TILE_BYTES
        assert similarity.CHUNK_ROWS % rows == 0
        spans = np.array(similarity._tiles((0, n), n))
        assert spans[0, 0] == 0 and spans[-1, 1] == n
        assert (spans[1:, 0] == spans[:-1, 1]).all() and (spans[:, 1] > spans[:, 0]).all()
        assert similarity._on_grid(tuple(spans[-1]), n)

    def test_large_n_keeps_the_budget_height(self):
        # from N = 8192 up the budget binds before the 256-row cap, so the
        # tiles are the budget's alone
        widths = [*range(8192, 1 << 17),
                  *np.unique(np.geomspace(1 << 17, 1 << 31, 4000).astype(int)).tolist()]
        for n in widths:
            assert similarity._tile_rows(n) == budget_tile_rows(n), n

    def test_estimate_multiplies_the_same_spans_at_any_thread_count(self, monkeypatch):
        monkeypatch.setattr(similarity, "_TILE_BYTES", 64 << 10)  # 8-row tiles
        pair = random_pair(600, 16, seed=55)
        grid = similarity._tiles((0, 600), 600)
        assert len(grid) == 75
        calls = count_products(monkeypatch)
        for threads in (1, 2, 8):
            calls.clear()
            estimate_quantile_threshold(pair, 0.999, 600, threads=threads)
            assert sorted(calls) == grid


def scan_outputs(pair: EmbeddingPair, threads: int = 1) -> tuple:
    """Every output of the tile scans at q = 0.999, comparable with ``==``:
    the cutoff, the tails, the global stats read during the estimate and
    computed anew, the nearest cross neighbours and the graph."""
    scan = similarity._Scan((losses._global_part, (0.05,)))
    chunk_rows = similarity.default_chunk_rows(pair.n)
    t = estimate_quantile_threshold(pair, 0.999, chunk_rows, threads=threads, _scan=scan)
    tails = [(span, tail.bound, tail.offsets.tobytes(), tail.values.tobytes())
             for span, tail in sorted(scan.tails.items())]
    stats = [np.concatenate([g.lse, g.row_max, g.positive]).tobytes()
             for g in (losses._global_stats(pair, 0.05, _scan=scan),
                       losses._global_stats(pair, 0.05, threads=threads))]
    return (t.value, tails, stats, nearest_cross_neighbors(pair, threads=threads).tobytes(),
            build_sparse_graph(pair, t, threads=threads))


class TestTileBuffers:
    """Each scan multiplies into one buffer per worker thread, and buffered
    products give the outputs of fresh ones."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_buffer_per_worker_and_scan(self, monkeypatch, threads):
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 64)
        pair = random_pair(512, 16, seed=53)
        outs = []
        count_products(monkeypatch, outs)
        scans = [
            lambda: estimate_quantile_threshold(pair, 0.999, 512, threads=threads),
            lambda: ntxent_global(pair, 0.05, threads=threads),
            lambda: nearest_cross_neighbors(pair, threads=threads),
            lambda: build_sparse_graph(pair, SimilarityThreshold(0.999, 0.5, 512, "exact"),
                                       threads=threads),
        ]
        for scan in scans:
            outs.clear()
            scan()
            assert len(outs) == 8 and all(out is not None for out in outs)
            buffers = {id(out.base) for out in outs}
            assert len(buffers) <= threads
            assert len(buffers) == 1 or threads > 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_buffered_outputs_equal_fresh_products(self, monkeypatch, threads):
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 64)
        pair = random_pair(512, 16, seed=54)
        buffered = scan_outputs(pair, threads)
        products = similarity._products  # every tile fresh; q = 0.999 runs no full sort into ``out``
        monkeypatch.setattr(similarity, "_products", lambda pair, span, out=None: products(pair, span))
        assert scan_outputs(pair, threads) == buffered


class TestWorkerCap:
    """A map starts at most one worker per usable core, whatever it is asked
    for, so the tile buffers follow the cores, not ``--threads``."""

    @staticmethod
    def record_pools(monkeypatch) -> list:
        """Record the ``max_workers`` of every pool a map starts from now on."""
        import concurrent.futures

        asked, pool = [], concurrent.futures.ThreadPoolExecutor

        class Recorded(pool):
            def __init__(self, max_workers=None, **options):
                asked.append(max_workers)
                super().__init__(max_workers, **options)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
        return asked

    @pytest.mark.parametrize("cores, threads, workers",
                             [(2, 8, 2), (2, 256, 2), (3, 2, 2), (1, 8, 1)])
    def test_a_map_gets_at_most_the_usable_cores(self, monkeypatch, cores, threads, workers):
        asked = self.record_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        assert ordered_map(lambda v: v * v, range(10), threads) == [v * v for v in range(10)]
        assert asked == [workers]

    def test_without_an_affinity_mask_the_core_count_caps(self, monkeypatch):
        asked = self.record_pools(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert ordered_map(abs, range(-5, 5), 8) == [abs(v) for v in range(-5, 5)]
        assert asked == [3]

    def test_a_cutoff_at_256_threads_holds_one_buffer_per_core(self, monkeypatch):
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        asked = self.record_pools(monkeypatch)
        outs = []
        count_products(monkeypatch, outs)
        estimate_quantile_threshold(random_pair(512, 16, seed=53), 0.999, 512, threads=256)
        assert asked and set(asked) == {2}
        assert len({id(out.base) for out in outs}) <= 2


class TestScanRead:
    """``_Scan.read`` joins a part's kept blocks once: every later read of the
    part returns the same read-only fields, with no multiply and no join."""

    def test_a_second_read_returns_the_same_read_only_fields(self, monkeypatch):
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 128)
        pair = random_pair(512, 16, seed=71)
        part = (losses._global_part, (0.05,))
        scan = similarity._Scan(part)
        estimate_quantile_threshold(pair, 0.999, 512, _scan=scan)
        calls = count_products(monkeypatch)
        first = scan.read(pair, part)
        assert calls == []  # the estimate walked every tile
        assert len(first) == 3 and all(field.shape == (512,) for field in first)
        assert not any(field.flags.writeable for field in first)
        with pytest.raises(ValueError):
            first[0][0] = 0.0
        assert scan.read(pair, part, threads=2) is first
        assert calls == []
        fresh = losses._global_stats(pair, 0.05)
        for got, want in zip(first, (fresh.lse, fresh.row_max, fresh.positive)):
            np.testing.assert_array_equal(got, want)

    def test_neighbours_read_twice_are_one_join(self, monkeypatch):
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 128)
        pair = random_pair(512, 16, seed=72)
        part = (batching._nearest_part, ())
        scan = similarity._Scan(part)
        nearest = nearest_cross_neighbors(pair, _scan=scan)
        assert scan.read(pair, part) is scan.read(pair, part)
        assert nearest.flags.writeable  # the public result is the caller's own copy
        np.testing.assert_array_equal(nearest, nearest_cross_neighbors(pair))


class TestCompactSorted:
    """The one compaction of sorted integer keys, in bounded runs, gives
    ``np.unique`` whatever the run length, also when a run ends inside a
    repeat."""

    ARRAYS = {
        "empty": np.empty(0, dtype=np.int64),
        "single": np.array([7], dtype=np.int64),
        "all-equal": np.full(50, -3, dtype=np.int64),
        "random": np.random.default_rng(73).integers(-20, 20, 500),
        "wide": np.random.default_rng(74).integers(0, 1 << 40, 300),
    }

    @pytest.mark.parametrize("block_bytes", [8, 24, 40, 1 << 20])
    @pytest.mark.parametrize("name", sorted(ARRAYS))
    def test_distinct_count_and_front_equal_np_unique(self, monkeypatch, name, block_bytes):
        monkeypatch.setattr(similarity, "_BLOCK_BYTES", block_bytes)  # runs of 1, 3, 5 keys
        keys = np.sort(self.ARRAYS[name])
        size = similarity._compact_sorted(keys, keys.size)
        np.testing.assert_array_equal(keys[:size], np.unique(self.ARRAYS[name]))
        np.testing.assert_array_equal(similarity._sorted_unique(self.ARRAYS[name]),
                                      np.unique(self.ARRAYS[name]))

    def test_only_the_first_size_keys_are_read(self, monkeypatch):
        monkeypatch.setattr(similarity, "_BLOCK_BYTES", 24)
        keys = np.array([1, 1, 1, 2, 2, 5, 5, 5, 0, 0], dtype=np.int64)  # room past size
        assert similarity._compact_sorted(keys, 8) == 3
        np.testing.assert_array_equal(keys[:3], [1, 2, 5])
        np.testing.assert_array_equal(keys[8:], [0, 0])


class TestBlockHeight:
    """The tile walk's row blocks split only element-wise and per-row work,
    so no block height changes a bit of any output."""

    def outputs(self, pair, files, capsys):
        assert main(["permute", "--x", files[0], "--y", files[1], "--batch-size", "64",
                     "--report", "--threads", "2"]) == 0
        return scan_outputs(pair), capsys.readouterr().out

    @pytest.mark.parametrize("n", [300, 2050, 4100])
    def test_one_row_and_whole_tile_blocks(self, tmp_path, monkeypatch, capsys, n):
        pair = random_pair(n, 16, seed=n)
        files = [str(tmp_path / "x"), str(tmp_path / "y")]
        save_embeddings(pair.x, files[0])
        save_embeddings(pair.y, files[1])
        want = self.outputs(pair, files, capsys)
        for block_bytes in (1, 1 << 40):
            monkeypatch.setattr(similarity, "_BLOCK_BYTES", block_bytes)
            assert self.outputs(pair, files, capsys) == want


class TestTileBudget:
    """For N a multiple of 8 no product depends on the tile height, so no
    output depends on the budget that sets it; and clustered inputs, with or
    without duplicate rows, keep to the tail path."""

    def outputs(self, files, tmp_path, capsys) -> tuple:
        perm, batches = tmp_path / "perm", tmp_path / "batches"
        pair_flags = ["--x", files[0], "--y", files[1], "--batch-size", "64"]
        assert main(["permute", *pair_flags, "--report", "--out-perm", str(perm),
                     "--out-batches", str(batches)]) == 0
        permuted = (capsys.readouterr().out, perm.read_bytes(), batches.read_bytes())
        assert main(["compare", *pair_flags, "--seeds", "2"]) == 0
        return permuted, capsys.readouterr().out

    @pytest.mark.parametrize("n", [2048, 4096])
    def test_outputs_equal_at_any_budget(self, tmp_path, monkeypatch, capsys, n):
        pair = random_pair(n, 32, seed=n + 1)
        files = [str(tmp_path / "x"), str(tmp_path / "y")]
        save_embeddings(pair.x, files[0])
        save_embeddings(pair.y, files[1])
        want = self.outputs(files, tmp_path, capsys)
        for budget, cap in ((1 << 40, 2048), (1 << 20, 256)):  # 2048-row tiles; 64 or 32 rows
            monkeypatch.setattr(similarity, "_TILE_BYTES", budget)
            monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", cap)
            assert self.outputs(files, tmp_path, capsys) == want

    @pytest.mark.parametrize("q", [0.99, 0.999])
    @pytest.mark.parametrize("duplicates", [False, True], ids=["clustered", "duplicate-rows"])
    def test_clustered_inputs_never_sort_in_full(self, monkeypatch, q, duplicates):
        pair, _ = clustered_pair(4096, 32, 16, noise=0.1, seed=57)
        if duplicates:  # 2% of rows exact copies of others, on both sides
            x, y = pair.x.copy(), pair.y.copy()
            copies, sources = np.split(np.random.default_rng(58).choice(4096, 164, replace=False), 2)
            x[copies], y[copies] = x[sources], y[sources]
            pair = EmbeddingPair(x, y)
        calls = []
        full_sort = similarity._full_sort_quantile

        def counted(pair, chunk, q):
            calls.append(chunk)
            return full_sort(pair, chunk, q)

        monkeypatch.setattr(similarity, "_full_sort_quantile", counted)
        estimate_quantile_threshold(pair, q, 4096)
        assert calls == []


# The memory budget's c (similarity.py): the graph stage peaks within this
# multiple of its CSR's bytes, the CSR included, and the ordering's own
# temporaries within the second.
GRAPH_CSR_MULTIPLE = 2.5
ORDERING_CSR_MULTIPLE = 1.5


def csr_bytes(graph: SparseSimilarityGraph) -> int:
    return graph.indptr.nbytes + graph.indices.nbytes


def traced_peak(fn) -> tuple:
    """``fn()`` and the most bytes it held at once beyond what was traced before
    it; tracemalloc must be running."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    return out, tracemalloc.get_traced_memory()[1] - start


class TestMemory:
    """Peak traced allocation at d = 64."""

    TILE_BYTES = 2048 * 2048 * 8  # all N x N products at N = 2048

    def peak(self, fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("threads, tiles", [(1, 1.25), (2, 2.5)])
    def test_estimate_and_graph_follow_the_tile_budget(self, threads, tiles):
        pair = random_pair(8192, 64, seed=56)

        def epoch():  # the CLI's path: the graph filters the cutoff's kept tails
            for _ in batching._stages(pair, 0.999, 4096, threads=threads):
                pass

        assert self.peak(epoch) < tiles * similarity._TILE_BYTES

    def test_high_quantile_estimate_and_graph_hold_one_tile(self):
        pair = random_pair(2048, 64, seed=51)

        def epoch():
            build_sparse_graph(pair, estimate_quantile_threshold(pair, 0.999, 2048))

        assert self.peak(epoch) < 1.25 * self.TILE_BYTES

    @pytest.mark.parametrize("threads", [1, 2])
    def test_estimate_holds_a_256_row_tile_per_worker(self, threads):
        # below N = 8192 the 256-row cap sets the tile, not the 16 MiB budget:
        # 8 MiB a worker at N = 4096, where the budget alone allows 512 rows
        n = 4096
        pair = random_pair(n, 16, seed=62)
        scan = similarity._Scan()
        tracemalloc.start()
        try:
            _, peak = traced_peak(lambda: estimate_quantile_threshold(
                pair, 0.999, n, threads=threads, _scan=scan))
        finally:
            tracemalloc.stop()
        kept = sum(tail.offsets.nbytes + tail.values.nbytes for tail in scan.tails.values())
        assert kept > 0
        assert peak <= threads * 1.25 * 256 * n * 8 + kept

    def test_epoch_peaks_within_the_larger_stage(self):
        # the graph takes each tail as it reads it, so its keys do not stack on the
        # cutoff's tails: the epoch holds the larger stage, not their sum.  On this
        # pair the tails hold 10.6 MiB and the bound is 25 MiB; the epoch peaked at
        # 28.1 MiB when the graph read the tails without taking them, 19.3 MiB after
        n = 4096
        pair = random_pair(n, 64, seed=63)
        scan = similarity._Scan()
        stages = batching._stages(pair, 0.95, threads=1, _scan=scan)
        tracemalloc.start()
        try:
            next(stages)
            kept = sum(tail.offsets.nbytes + tail.values.nbytes for tail in scan.tails.values())
            graph = next(stages)
            next(stages)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept > 0
        assert peak <= max(1.25 * 256 * n * 8 + kept, 2 * csr_bytes(graph))

    def test_fallback_sorts_one_chunk_at_a_time_at_any_worker_count(self, monkeypatch):
        # below q = 15/16 every chunk is sorted whole; the sorts run one after
        # another, so at most one chunk's products are held whatever --threads is
        live, most, lock = 0, 0, threading.Lock()
        full_sort = similarity._full_sort_quantile

        def counted(*args):
            nonlocal live, most
            with lock:
                live += 1
                most = max(most, live)
            time.sleep(0.05)
            try:
                return full_sort(*args)
            finally:
                with lock:
                    live -= 1

        monkeypatch.setattr(similarity, "_full_sort_quantile", counted)
        pair = random_pair(512, 16, seed=64)
        t = estimate_quantile_threshold(pair, 0.9, 128, threads=2)
        assert most == 1
        assert t.value == chunk_oracle(pair, 0.9, 128)

    def test_fallback_multiplies_a_chunk_on_the_workers(self, monkeypatch):
        # each fallback chunk's tiles go through one map at --threads, into the
        # chunk's one block: two tiles a chunk, two workers, the same cutoff
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        asked = TestWorkerCap.record_pools(monkeypatch)
        maps, real = [], similarity.ordered_map
        monkeypatch.setattr(similarity, "ordered_map", lambda fn, items, threads=1: (
            maps.append((list(items), threads)) or real(fn, items, threads)))
        pair = random_pair(512, 16, seed=64)
        t = estimate_quantile_threshold(pair, 0.9, 128, threads=2)
        chunks = similarity.chunk_spans(512, 128)
        assert [m for m in maps if m[0]] == [(similarity._tiles(chunk, 512), 2) for chunk in chunks]
        assert asked and max(asked) <= 2
        assert t.value == chunk_oracle(pair, 0.9, 128)

    def test_fallback_sort_holds_no_scan_buffer(self, monkeypatch):
        # at q = 0.95 the first tile's tail passes 1/8 of the tile and is
        # dropped, so the chunk is sorted after the scan, whose tile buffer
        # must be gone by then
        sorts = []
        full_sort = similarity._full_sort_quantile
        monkeypatch.setattr(similarity, "_full_sort_quantile",
                            lambda *args: sorts.append(args[1]) or full_sort(*args))
        pair = one_hot_tile(2048, 256)
        assert self.peak(lambda: estimate_quantile_threshold(pair, 0.95, 2048)) < 1.25 * self.TILE_BYTES
        assert sorts == [(0, 2048)]

    def test_ordering_holds_no_tail_and_a_fraction_of_the_csr(self, monkeypatch):
        pair = random_pair(8192, 64, seed=60)
        scan = similarity._Scan()
        seen = {}
        ordering = bandwidth.cuthill_mckee

        def traced(graph, reverse=True):
            seen["tails"] = dict(scan.tails)
            order, seen["peak"] = traced_peak(lambda: ordering(graph, reverse))
            return order

        monkeypatch.setattr(batching, "cuthill_mckee", traced)
        stages = batching._stages(pair, 0.99, threads=1, _scan=scan)
        tracemalloc.start()
        try:
            next(stages)
            assert scan.tails  # the cutoff kept tails for the graph to read
            graph = next(stages)
            next(stages)
        finally:
            tracemalloc.stop()
        assert seen["tails"] == {}
        assert seen["peak"] <= ORDERING_CSR_MULTIPLE * csr_bytes(graph)

    def test_graph_and_ordering_within_their_csr_multiples_at_q_one_half(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((4096, 64))
        pair = EmbeddingPair(x, x + 0.5 * rng.standard_normal(x.shape)).normalized()
        threshold = estimate_quantile_threshold(pair, 0.5, 4096)
        tracemalloc.start()
        try:
            graph, graph_peak = traced_peak(lambda: build_sparse_graph(pair, threshold))
            _, ordering_peak = traced_peak(lambda: bandwidth.cuthill_mckee(graph))
        finally:
            tracemalloc.stop()
        assert graph.edge_count > 4_000_000
        assert graph_peak <= GRAPH_CSR_MULTIPLE * csr_bytes(graph)
        assert ordering_peak <= ORDERING_CSR_MULTIPLE * csr_bytes(graph)

    def test_low_quantile_sort_holds_no_more_than_product_and_copy(self):
        pair = random_pair(2048, 64, seed=52)
        peak = self.peak(lambda: estimate_quantile_threshold(pair, 0.5, 2048))
        assert peak <= 2 * self.TILE_BYTES


# the values a cutoff median can meet: signed zeros, subnormals, duplicates, Gaussians
MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),  # a small pool repeats
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.integers(0, 2**32).map(lambda seed: float(np.random.default_rng(seed).standard_normal())),
)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(values=st.lists(MEDIAN_VALUES, min_size=1, max_size=9))
def test_cutoff_median_is_np_median_bit_for_bit(values):
    got = np.array(similarity._median(values))
    assert got.view(np.int64) == np.array(np.median(values)).view(np.int64)


# the values a tail can hold: signed zeros, ties, duplicates, Gaussians
TAIL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),  # a small pool repeats
    st.floats(-1e300, 1e300),
    st.integers(0, 2**32).map(lambda seed: float(np.random.default_rng(seed).standard_normal())),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(top=st.one_of(
           st.lists(TAIL_VALUES, min_size=1, max_size=40),
           st.tuples(st.integers(1, 3000), st.integers(0, 2**32)).map(
               lambda drawn: np.random.default_rng(drawn[1]).standard_normal(drawn[0]).tolist())),
       skip=st.integers(0, 1000),
       q=st.one_of(st.sampled_from([0.5, 0.9, 0.999, 0.9999999999999999]), st.floats(0.0, 1.0)))
@example(top=[-0.0, 0.0, -0.0], skip=0, q=0.5)
@example(top=[0.0, -0.0], skip=0, q=0.9999999999999999)
@example(top=[3.0], skip=0, q=0.5)  # one value: hi == lo, the last rank
@example(top=[2.0, 1.0, 2.0, 1.0], skip=96, q=0.99)  # top shorter than size
def test_select_quantile_reads_the_sorted_ranks_bit_for_bit(top, skip, q):
    size = len(top) + skip
    assume(0.0 < q < 1.0 and similarity._ranks(size, q)[0] >= skip)
    want = similarity._read_quantile(np.sort(top), size, q)
    got = similarity._select_quantile(np.array(top), size, q)
    assert np.array(got).view(np.int64) == np.array(want).view(np.int64)


@pytest.mark.parametrize("n, q, seed", [(5000, 0.95, 81), (2000, 0.9, 196), (1000, 0.5, 117)])
def test_select_quantile_places_the_upper_rank_too(n, q, seed):
    # NumPy's partition at the lower rank mostly leaves the upper rank next to
    # it, but not always: on these Gaussians NumPy 2.4 (x86-64, AVX-512) leaves
    # a larger value there, so the upper rank needs a partition of its own
    top = np.random.default_rng(seed).standard_normal(n)
    want = similarity._read_quantile(np.sort(top), n, q)
    assert similarity._select_quantile(top, n, q) == want
