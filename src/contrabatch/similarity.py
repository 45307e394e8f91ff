"""Quantile cutoff estimation and sparse similarity-graph construction.

The N x N cross inner-product matrix is streamed in row chunks so peak
memory stays at O(chunk_rows * N).  Each chunk contributes one interpolated
quantile of its own entries; the returned cutoff is the median of the
per-chunk values.  A single chunk spanning every row gives the exact
empirical quantile of all N^2 entries.

An undirected, unweighted graph is then built by keeping the node pairs
whose inner product exceeds the cutoff in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import ROW_CHUNK, chunk_spans, ordered_map
from .errors import GraphError, ParameterError
from .io import EmbeddingPair

# Row blocks below this height can change last-bit matmul results under
# BLAS kernel switching; clamping keeps graph construction reproducible
# for any requested block size.
_MIN_BLOCK_ROWS = 64


def interpolated_quantile(values: np.ndarray, q: float) -> float:
    """Empirical q-quantile with linear interpolation between order statistics."""
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile must lie strictly inside (0,1), got {q}")
    flat = np.sort(np.asarray(values, dtype=np.float64), axis=None)
    h = (flat.size - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, flat.size - 1)
    t = h - lo
    return float(flat[lo] + t * (flat[hi] - flat[lo]))


@dataclass(frozen=True)
class SimilarityThreshold:
    """Inner-product cutoff estimated at quantile ``quantile_q``.

    ``estimator`` records how the value was obtained: ``"exact"`` when one
    chunk covered the whole matrix, ``"chunk_median"`` otherwise.
    """

    quantile_q: float
    value: float
    chunk_rows: int
    estimator: str


def estimate_quantile_threshold(
    pair: EmbeddingPair, q: float, chunk_rows: int, threads: int = 1
) -> SimilarityThreshold:
    """Estimate the q-quantile of all cross inner products of ``pair``.

    Rows of ``pair.x`` are processed in ``chunk_rows``-high chunks against
    all of ``pair.y``; the median of the per-chunk quantiles is returned.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile must lie strictly inside (0,1), got {q}")
    n = pair.n
    if not 1 <= chunk_rows <= n:
        raise ParameterError(f"chunk_rows must lie in [1, {n}], got {chunk_rows}")

    y_t = pair.y.T

    def chunk_quantile(span: tuple[int, int]) -> float:
        start, stop = span
        return interpolated_quantile(pair.x[start:stop] @ y_t, q)

    per_chunk = ordered_map(chunk_quantile, chunk_spans(n, chunk_rows), threads)
    estimator = "exact" if len(per_chunk) == 1 else "chunk_median"
    return SimilarityThreshold(
        quantile_q=q,
        value=float(np.median(per_chunk)),
        chunk_rows=chunk_rows,
        estimator=estimator,
    )


class SparseSimilarityGraph:
    """Undirected unweighted graph in compressed sparse row form.

    ``indptr``/``indices`` follow the usual CSR convention with neighbor
    lists sorted ascending.  ``directed_entry_count`` preserves how many
    off-diagonal inner products exceeded the cutoff before the edge set was
    symmetrized; it feeds the retained-fraction diagnostic.

    The constructor trusts its inputs; :meth:`validate` checks the
    structural invariants and is invoked by the ordering routines.
    """

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        directed_entry_count: int | None = None,
    ):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.directed_entry_count = (
            int(self.indices.size) if directed_entry_count is None else int(directed_entry_count)
        )

    @classmethod
    def from_edges(cls, n: int, edges, directed_entry_count: int | None = None):
        """Build from an iterable of undirected (i, j) pairs."""
        pairs = [(int(i), int(j)) for i, j in edges]
        if not pairs:
            return cls(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64), directed_entry_count or 0)
        src = np.array([p[0] for p in pairs] + [p[1] for p in pairs], dtype=np.int64)
        dst = np.array([p[1] for p in pairs] + [p[0] for p in pairs], dtype=np.int64)
        return cls._from_directed(n, src, dst, directed_entry_count)

    @classmethod
    def _from_directed(
        cls, n: int, src: np.ndarray, dst: np.ndarray, directed_entry_count: int | None = None
    ):
        """Build from directed pairs already containing both orientations."""
        if src.size:
            keys = np.unique(src * np.int64(n) + dst)
            src = keys // n
            dst = keys % n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n, indptr, dst, directed_entry_count)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def validate(self) -> None:
        """Raise GraphError unless the adjacency is symmetric, loop-free, and sorted."""
        if self.indptr.shape != (self.n + 1,) or self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise GraphError("malformed CSR index pointers")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("malformed CSR index pointers")
        if self.indices.size == 0:
            return
        if self.indices.min() < 0 or self.indices.max() >= self.n:
            raise GraphError("neighbor index out of range")
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        if np.any(rows == self.indices):
            raise GraphError("self-loop present")
        ascending = (self.indices[1:] > self.indices[:-1]) | (rows[1:] != rows[:-1])
        if not np.all(ascending):
            raise GraphError("neighbor lists not strictly ascending")
        forward = np.sort(rows * np.int64(self.n) + self.indices)
        backward = np.sort(self.indices * np.int64(self.n) + rows)
        if not np.array_equal(forward, backward):
            raise GraphError("adjacency is not symmetric")

    def dump_edges(self) -> str:
        """Debug listing: one ``i j`` line per undirected edge, i < j, sorted."""
        lines = []
        for i in range(self.n):
            for j in self.neighbors(i):
                if i < j:
                    lines.append(f"{i} {int(j)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseSimilarityGraph)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"SparseSimilarityGraph(n={self.n}, edges={self.edge_count}, max_degree={self.max_degree})"


def build_sparse_graph(
    pair: EmbeddingPair,
    threshold: SimilarityThreshold,
    block_rows: int | None = None,
    threads: int = 1,
) -> SparseSimilarityGraph:
    """Keep node pairs whose inner product beats the cutoff in either direction.

    An undirected edge (i, j), i != j, exists iff x_i.y_j > value or
    x_j.y_i > value (strict inequality; ties at the cutoff are dropped).
    The OR-symmetrization makes the structure usable by the bandwidth
    ordering, which needs symmetric adjacency.
    """
    if not np.isfinite(threshold.value):
        raise ParameterError(f"threshold value must be finite, got {threshold.value}")
    n = pair.n
    block = min(n, max(_MIN_BLOCK_ROWS, block_rows or ROW_CHUNK))
    y_t = pair.y.T
    cut = threshold.value

    def scan(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        start, stop = span
        hits = pair.x[start:stop] @ y_t > cut
        rr, cc = np.nonzero(hits)
        rr = rr + start
        off = rr != cc
        return rr[off].astype(np.int64), cc[off].astype(np.int64)

    parts = ordered_map(scan, chunk_spans(n, block), threads)
    rows = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, dtype=np.int64)
    cols = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, dtype=np.int64)
    directed = int(rows.size)
    src = np.concatenate([rows, cols])
    dst = np.concatenate([cols, rows])
    return SparseSimilarityGraph._from_directed(n, src, dst, directed)


def expected_retained_fraction(graph: SparseSimilarityGraph, q: float) -> float:
    """Fraction of the N^2 inner products that exceeded the cutoff.

    For a cutoff computed with the exact estimator at quantile ``q`` this
    tracks 1 - q up to O(1/N) slack; reported for diagnostics only.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile must lie strictly inside (0,1), got {q}")
    return graph.directed_entry_count / float(graph.n) ** 2
