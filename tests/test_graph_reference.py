"""The sparse graph against its plain definition: ``(z > cut) | (z > cut)ᵀ``
without the diagonal, ``z`` the products of the tile grid.  Both of the
graph's paths are checked: tiles filtered from the tails the cutoff's scan
kept, and tiles multiplied again by a graph built without that scan."""

import numpy as np
import pytest

from contrabatch import EmbeddingPair, build_sparse_graph, estimate_quantile_threshold, similarity
from conftest import count_products, orthogonal_ties, random_pair


def duplicated_pair() -> EmbeddingPair:
    """203 Gaussian rows, every third row on both sides a copy of x_0: about
    a ninth of the products tie at the top, so tails hold values equal to
    the cutoff."""
    pair = random_pair(203, 8, seed=2)
    x, y = pair.x.copy(), pair.y.copy()
    x[::3] = y[::3] = x[0]
    return EmbeddingPair(x, y)


PAIRS = {
    "gaussian": lambda: random_pair(203, 8, seed=1),
    "duplicates": duplicated_pair,
    "ties": orthogonal_ties,
}


def reference(pair: EmbeddingPair, cut: float) -> tuple:
    """(indptr, indices, directed entries) of the graph, from the whole product."""
    n = pair.n
    z = np.concatenate([similarity._products(pair, span) for span in similarity._tiles((0, n), n)])
    above = z > cut
    np.fill_diagonal(above, False)
    edges = above | above.T
    indptr = np.concatenate(([0], np.cumsum(edges.sum(axis=1))))
    return indptr.tolist(), np.nonzero(edges)[1].tolist(), int(above.sum())


def cutoff_and_scan(monkeypatch, kind: str, chunk: str, q: float):
    """The pair, its cutoff and the scan that estimated it, on 16-row tiles;
    ``chunk`` is one chunk of every row, one tile per chunk, or chunks that
    start off the tile grid."""
    monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 16)
    pair = PAIRS[kind]()
    chunk_rows = {"whole": pair.n, "on-grid": 16, "off-grid": 19}[chunk]
    scan = similarity._Scan()
    return pair, estimate_quantile_threshold(pair, q, chunk_rows, _scan=scan), scan


@pytest.mark.parametrize("q", [0.5, 0.9, 0.999])
@pytest.mark.parametrize("chunk", ["whole", "on-grid", "off-grid"])
@pytest.mark.parametrize("kind", PAIRS)
def test_graph_equals_the_plain_definition(monkeypatch, kind, chunk, q):
    pair, threshold, scan = cutoff_and_scan(monkeypatch, kind, chunk, q)
    want = reference(pair, threshold.value)
    for graph in (build_sparse_graph(pair, threshold, _scan=scan),
                  build_sparse_graph(pair, threshold)):
        assert (graph.indptr.tolist(), graph.indices.tolist(), graph.directed_entry_count) == want
        graph.validate()  # the ordering skips this on a built graph: it must hold
        assert not (graph.indptr.flags.writeable or graph.indices.flags.writeable)


@pytest.mark.parametrize("kind, chunk", [("gaussian", "off-grid"), ("duplicates", "whole")])
def test_the_cases_reach_both_paths(monkeypatch, kind, chunk):
    """At q = 0.999 the scan's graph filters the kept tails of grid tiles and
    multiplies the others again; with duplicates, values equal to the cutoff
    reach the tail filter."""
    pair, threshold, scan = cutoff_and_scan(monkeypatch, kind, chunk, 0.999)
    cut = threshold.value
    grid = similarity._tiles((0, pair.n), pair.n)
    kept = [tail for span, tail in scan.tails.items() if span in grid and tail.bound <= cut]
    calls = count_products(monkeypatch)
    build_sparse_graph(pair, threshold, _scan=scan)
    assert len(calls) + len(kept) == len(grid) and kept
    assert calls or chunk == "whole"
    assert kind == "gaussian" or any((tail.values == cut).any() for tail in kept)
