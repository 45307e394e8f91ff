"""Quantile cutoff estimation and sparse graph construction."""

import tracemalloc

import numpy as np
import pytest

from contrabatch import losses, similarity
from contrabatch import (
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
from contrabatch.cli import main
from conftest import clustered_pair, count_products, orthogonal_ties, random_pair


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


def one_hot_tile() -> EmbeddingPair:
    """384 rows in 128-row tiles: the first tile's rows match a third of the
    columns closely, so its own tail bound sits above the chunk's quantile."""
    rng = np.random.default_rng(22)
    x = rng.standard_normal((384, 16))
    y = rng.standard_normal((384, 16))
    centre = rng.standard_normal(16)
    x[:128] = centre + 0.05 * rng.standard_normal((128, 16))
    y[:128] = centre + 0.05 * rng.standard_normal((128, 16))
    return EmbeddingPair(x, y).normalized()


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
        monkeypatch.setattr(similarity, "ROW_CHUNK", tile_rows)
        pair = make()
        want = chunk_oracle(pair, q, chunk_rows)
        for threads in (1, 2):
            got = estimate_quantile_threshold(pair, q, chunk_rows, threads=threads)
            assert got.value == want
        # above q = 15/16 tails pay; below it every chunk is sorted whole
        assert (got._tails is not None) == (q == 0.999)

    def test_count_check_failure_falls_back_to_full_sort(self, monkeypatch):
        # a margin below 1 puts every sampled bound above the needed rank
        monkeypatch.setattr(similarity, "_TAIL_MARGIN", 0.25)
        monkeypatch.setattr(similarity, "_MIN_SAMPLE_TAIL", 1)
        calls = []
        full_sort = similarity._full_sort_quantile

        def counted(pair, chunk, q):
            calls.append(chunk)
            return full_sort(pair, chunk, q)

        monkeypatch.setattr(similarity, "_full_sort_quantile", counted)
        pair = random_pair(256, 16, seed=33)
        t = estimate_quantile_threshold(pair, 0.999, 128)
        assert calls == [(0, 128), (128, 256)]
        assert t.value == chunk_oracle(pair, 0.999, 128)
        hand_made = SimilarityThreshold(0.999, t.value, 128, t.estimator)
        assert build_sparse_graph(pair, t) == build_sparse_graph(pair, hand_made)

    def test_default_margin_takes_the_tail_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(similarity, "_full_sort_quantile",
                            lambda *args: calls.append(args))
        pair = random_pair(256, 16, seed=33)
        t = estimate_quantile_threshold(pair, 0.999, 128)
        assert calls == []
        assert t.value == chunk_oracle(pair, 0.999, 128)


class TestTailReuse:
    def assert_same_graph(self, pair, t):
        hand_made = SimilarityThreshold(t.quantile_q, t.value, t.chunk_rows, t.estimator)
        assert hand_made._tails is None
        reused = build_sparse_graph(pair, t)
        rescanned = build_sparse_graph(pair, hand_made)
        assert reused == rescanned
        assert reused.directed_entry_count == rescanned.directed_entry_count
        return reused

    def test_exact_estimate_graph_needs_no_multiply(self, monkeypatch):
        monkeypatch.setattr(similarity, "ROW_CHUNK", 128)
        pair = random_pair(512, 16, seed=41)
        t = estimate_quantile_threshold(pair, 0.999, 512)
        calls = count_products(monkeypatch)
        graph = self.assert_same_graph(pair, t)
        assert graph.edge_count > 0
        assert calls == [(0, 128), (128, 256), (256, 384), (384, 512)]  # the rescan only
        calls.clear()
        build_sparse_graph(pair, t, threads=2)
        assert calls == []

    def test_chunk_median_rescans_tiles_above_the_cutoff(self, monkeypatch):
        # rows 0..127 form tight clusters, so chunk 0's tail bound sits far
        # above the median of the four chunk quantiles
        monkeypatch.setattr(similarity, "ROW_CHUNK", 64)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((512, 16))
        y = rng.standard_normal((512, 16))
        centres = rng.standard_normal((4, 16))
        x[:128] = np.repeat(centres, 32, axis=0) + 0.05 * rng.standard_normal((128, 16))
        y[:128] = np.repeat(centres, 32, axis=0) + 0.05 * rng.standard_normal((128, 16))
        pair = EmbeddingPair(x, y).normalized()
        t = estimate_quantile_threshold(pair, 0.999, 128)
        assert t.estimator == "chunk_median"
        above = sorted(s for s, tail in t._tails.by_span.items() if tail.bound > t.value)
        assert above == [(0, 64), (64, 128)]
        calls = count_products(monkeypatch)
        build_sparse_graph(pair, t)
        assert calls == above
        self.assert_same_graph(pair, t)

    def test_tails_of_another_pair_are_ignored(self):
        first, second = random_pair(128, 8, seed=43), random_pair(128, 8, seed=44)
        t = estimate_quantile_threshold(first, 0.999, 128)
        hand_made = SimilarityThreshold(0.999, t.value, 128, t.estimator)
        assert build_sparse_graph(second, t) == build_sparse_graph(second, hand_made)

    def test_blocks_off_the_tile_grid_are_multiplied(self, monkeypatch):
        # products can differ in the last bit with block height, so a tail
        # stands in only for a tile with exactly its own span
        pair = random_pair(300, 12, seed=4)
        calls = count_products(monkeypatch)
        for chunk_rows, multiplied in ((300, []), (100, [(0, 300)])):
            t = estimate_quantile_threshold(pair, 0.999, chunk_rows)
            assert t._tails is not None
            calls.clear()
            build_sparse_graph(pair, t)
            assert calls == multiplied
            assert self.assert_same_graph(pair, t).edge_count > 0


class TestOneTileGrid:
    def test_loss_and_neighbor_scans_use_the_tile_grid(self, monkeypatch):
        pair = random_pair(150, 8, seed=45)
        want_loss = ntxent_global(pair, 0.1)
        m = pair.x @ pair.y.T
        np.fill_diagonal(m, -np.inf)
        want_nn = np.argmax(m, axis=1)
        monkeypatch.setattr(similarity, "ROW_CHUNK", 64)
        calls = count_products(monkeypatch)
        tiles = [(0, 64), (64, 128), (128, 150)]
        assert ntxent_global(pair, 0.1, threads=2) == pytest.approx(want_loss, abs=1e-12)
        assert sorted(calls) == tiles  # two workers may finish out of order
        calls.clear()
        np.testing.assert_array_equal(nearest_cross_neighbors(pair, threads=2), want_nn)
        assert sorted(calls) == tiles


class TestTileGrid:
    """The tile height is a function of N alone: the tallest power of two,
    at most ``ROW_CHUNK``, whose products fit ``_TILE_BYTES``."""

    @pytest.mark.parametrize("n, rows", [
        (1, 2048), (1024, 2048), (1025, 1024), (1536, 1024), (4096, 512), (4100, 256),
        (2**21 + 1, 1),
    ])
    def test_height_fits_the_budget_and_divides_the_chunk(self, n, rows):
        assert similarity._tile_rows(n) == rows
        assert rows & (rows - 1) == 0 and rows <= similarity.ROW_CHUNK
        assert rows == 1 or rows * n * 8 <= similarity._TILE_BYTES
        assert rows == similarity.ROW_CHUNK or 2 * rows * n * 8 > similarity._TILE_BYTES
        assert similarity.CHUNK_ROWS % rows == 0
        spans = np.array(similarity._tiles((0, n), n))
        assert spans[0, 0] == 0 and spans[-1, 1] == n
        assert (spans[1:, 0] == spans[:-1, 1]).all() and (spans[:, 1] > spans[:, 0]).all()
        assert similarity._on_grid(tuple(spans[-1]), n)

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
    reading = similarity._reading(pair, (losses._global_part, (0.05,)))
    chunk_rows = similarity.default_chunk_rows(pair.n)
    t = estimate_quantile_threshold(reading, 0.999, chunk_rows, threads=threads)
    tails = [(span, tail.bound, tail.offsets.tobytes(), tail.values.tobytes())
             for span, tail in sorted(t._tails.by_span.items())]
    stats = [np.concatenate([g.lse, g.row_max, g.positive]).tobytes()
             for g in (losses._global_stats(reading, 0.05),
                       losses._global_stats(pair, 0.05, threads=threads))]
    return (t.value, tails, stats, nearest_cross_neighbors(pair, threads=threads).tobytes(),
            build_sparse_graph(pair, t, threads=threads))


class TestTileBuffers:
    """Each scan multiplies into one buffer per worker thread, and buffered
    products give the outputs of fresh ones."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_buffer_per_worker_and_scan(self, monkeypatch, threads):
        monkeypatch.setattr(similarity, "ROW_CHUNK", 64)
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
        monkeypatch.setattr(similarity, "ROW_CHUNK", 64)
        pair = random_pair(512, 16, seed=54)
        buffered = scan_outputs(pair, threads)
        monkeypatch.setattr(similarity, "_buffered_products",
                            lambda pair, spans: lambda span: similarity._products(pair, span))
        assert scan_outputs(pair, threads) == buffered


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
        for budget in (1 << 40, 1 << 20):  # 2048-row tiles; 64 or 32 rows
            monkeypatch.setattr(similarity, "_TILE_BYTES", budget)
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

        def epoch():
            t = estimate_quantile_threshold(pair, 0.999, 4096, threads=threads)
            build_sparse_graph(pair, t, threads=threads)

        assert self.peak(epoch) < tiles * similarity._TILE_BYTES

    def test_high_quantile_estimate_and_graph_hold_one_tile(self):
        pair = random_pair(2048, 64, seed=51)

        def epoch():
            build_sparse_graph(pair, estimate_quantile_threshold(pair, 0.999, 2048))

        assert self.peak(epoch) < 1.25 * self.TILE_BYTES

    def test_fallback_sort_holds_no_scan_buffer(self, monkeypatch):
        # every tail fails its count check: the chunk is sorted after the
        # scan, whose tile buffer must be gone by then
        monkeypatch.setattr(similarity, "_TAIL_MARGIN", 0.25)
        monkeypatch.setattr(similarity, "_MIN_SAMPLE_TAIL", 1)
        pair = random_pair(2048, 64, seed=52)
        assert self.peak(lambda: estimate_quantile_threshold(pair, 0.999, 2048)) < 1.25 * self.TILE_BYTES

    def test_low_quantile_sort_holds_no_more_than_product_and_copy(self):
        pair = random_pair(2048, 64, seed=52)
        peak = self.peak(lambda: estimate_quantile_threshold(pair, 0.5, 2048))
        assert peak <= 2 * self.TILE_BYTES
