"""Quantile cutoff estimation and sparse similarity-graph construction.

This module owns the tiling of the N x N cross inner-product matrix X·Yᵀ:
every product, here and in the loss and baseline scans, is a row tile from
``_tiles`` multiplied by one call, ``_products``.  BLAS results can differ in
the last bit with block height, so one tile grid keeps every stage's
products bit-identical.  The tile height is a function of N alone
(``_tile_rows``): the tallest power of two, at most ``ROW_CHUNK``, whose
products fit a per-worker budget of ``_TILE_BYTES``.  So at a high quantile
the products held at once are at most the budget times the worker threads,
plus the kept tails and the inputs.  The exception is the full sort of a
low quantile, which holds a whole chunk of products (``chunk_rows`` x N).

Cutoff.  Rows are grouped into logical chunks of ``chunk_rows`` rows (default
``default_chunk_rows``: min(N, 4096)).  Each chunk contributes the
interpolated quantile of its own entries, and the cutoff is the median of
the per-chunk values; a single chunk spanning every row gives the exact
empirical quantile of all N^2 entries.  The chunk is a logical unit only:
it sets the cutoff value, while the tile sets the memory.

A high quantile reads two order statistics near the top, so tiles are not
sorted (expected-time selection, Floyd & Rivest 1975).  Each tile takes a
deterministic strided sample of its products, picks from it a lower bound
``lb`` with about twice the needed tail share above it, and keeps its
entries >= ``lb`` as (offset, value) pairs: its tail.  A chunk whose tails
hold at least the needed count of values >= L, the largest ``lb`` among
its tiles, sorts only those values and reads the two ranks from them.
Order statistics are rank-exact, so the value equals a full sort's.
Otherwise (the sample misjudged the tail, a tail would exceed 1/8 of its
tile, or q is too low for a tail to pay) the chunk's products are sorted in
full, in place.

Graph.  An undirected, unweighted graph keeps the node pairs whose inner
product exceeds the cutoff in either direction.  It scans the tiles of all
N rows; a tile filters a kept tail with exactly its span with ``> cut``
instead of multiplying again, and is multiplied a second time when q is
below about 15/16 (no tails are kept), its tail was dropped for holding over
1/8 of the tile, its tail's ``lb`` lies above the cutoff (possible under
``chunk_median``), ``chunk_rows`` is off the tile grid (the estimate's tiles
have other spans), or the threshold was made by hand or estimated
from another pair.  Reusing a tail only on an identical span keeps the
graph built from the same products, bit for bit, as a rescan.

Tile walk.  Once BLAS has written a tile, every later read of it goes row
block by row block (``_row_blocks``, about ``_BLOCK_BYTES`` each), so a
block is still in cache for each pass after its first.  A block only splits
element-wise work and per-row maxima, argmaxima and sums, whose bits do not
depend on how many rows share a call, so the block height changes no output.
Each scan (the estimator's tile jobs, ``_row_parts``, the graph's rescans)
multiplies into one buffer per worker thread (``_buffered_products``), reused
tile after tile and freed when the scan returns: a function given a buffered
product keeps no view of it.

Tile readers.  Every per-row reduction of X·Yᵀ outside this module (the
global-loss terms, the mined baseline's argmax) is a part ``fn(rows, block,
*args)`` read by ``_row_parts``, block by block, on the ``_tiles((0, N),
N)`` grid.  A pair made by ``_reading(pair, *parts)`` carries a
``_TileReader``: the estimator hands it each block of each grid tile it
scans, after copying out the block's tail, and it keeps each part of each
block, in the order given, so a part that overwrites the block (the global
terms scale it in place) comes last.  ``_row_parts`` then takes the kept
blocks of its ``(fn, args)`` and multiplies only the tiles the estimator
did not scan (q below about 15/16, whose full sort works in place) or
scanned with other spans (``chunk_rows`` off the grid).  A part is the
same function of the same product bits either way.  So ``permute --report``
and ``compare`` multiply X·Yᵀ once.  The reader records nothing from a
pair with other arrays, and ``_row_parts`` reads it only for its own pair.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from ._parallel import chunk_spans, ordered_map
from .errors import GraphError, ParameterError
from .io import EmbeddingPair

# Tallest row tile multiplied against all of Y.  BLAS results can change in
# the last bit with block height, so changing this value can change output
# bits.
ROW_CHUNK = 2048

# Default height of the estimator's logical chunk.  It sets the cutoff value
# (a median of per-chunk quantiles), so changing it changes outputs.
CHUNK_ROWS = 4096

# Tail selection per tile: sample about _SAMPLE_SIZE products, set the bound
# where the sample holds _TAIL_MARGIN times the needed tail share (and at
# least _MIN_SAMPLE_TAIL sampled entries), and keep a tail only while it is
# at most _MAX_TAIL_SHARE of the tile; a larger one is dropped and its chunk
# sorted in place.  Kept pairs cost 16 bytes each, so the cap holds all tails
# to a quarter of the bytes of the full product.
_SAMPLE_SIZE = 1 << 16
_TAIL_MARGIN = 2.0
_MIN_SAMPLE_TAIL = 64
_MAX_TAIL_SHARE = 1 / 8

# Bytes per row block of the tile walk: small enough that a block stays in
# a core's cache across the passes over it.  Outputs do not depend on it.
_BLOCK_BYTES = 1 << 20

# Bytes of one tile product, per worker thread: a tile is the tallest power
# of two rows, at most ROW_CHUNK, whose products fit (``_tile_rows``).
# A fresh buffer is page-faulted in, so a smaller one also saves time: in
# ``permute --report`` (one OpenBLAS 0.3.31 thread, Haswell kernels) 16 MiB
# was the fastest budget at N = 4096 and within 5% of the fastest (32-64
# MiB) at N = 8192 and 16384, and 4 MiB was 8-20% slower.
# With N not a multiple of 8 the height can change products in the last bit.
_TILE_BYTES = 16 << 20


def default_chunk_rows(n: int) -> int:
    """Default estimator chunk for N rows: min(N, CHUNK_ROWS)."""
    return min(n, CHUNK_ROWS)


def _ranks(size: int, q: float) -> tuple[int, int, float]:
    """Order statistics (lo, hi) and weight t of the q-quantile of ``size`` values."""
    h = (size - 1) * q
    lo = int(np.floor(h))
    return lo, min(lo + 1, size - 1), h - lo


def _read_quantile(top: np.ndarray, size: int, q: float) -> float:
    """q-quantile of ``size`` values whose largest ``top.size`` are ``top``, ascending."""
    lo, hi, t = _ranks(size, q)
    skip = size - top.size
    return float(top[lo - skip] + t * (top[hi - skip] - top[lo - skip]))


def interpolated_quantile(values: np.ndarray, q: float) -> float:
    """Empirical q-quantile with linear interpolation between order statistics."""
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile must lie strictly inside (0,1), got {q}")
    flat = np.sort(np.asarray(values, dtype=np.float64), axis=None)
    return _read_quantile(flat, flat.size, q)


@dataclass(frozen=True, eq=False)
class _Tail:
    """Entries >= ``bound`` of one row tile: flat offsets into the tile, values.

    ``bound`` is inf when the tile kept nothing.
    """

    span: tuple[int, int]
    bound: float
    offsets: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class _Tails:
    """The tails of one estimate, valid only for the pair they were scanned from."""

    pair: EmbeddingPair
    by_span: dict


@dataclass(frozen=True)
class SimilarityThreshold:
    """Inner-product cutoff estimated at quantile ``quantile_q``.

    ``estimator`` records how the value was obtained: ``"exact"`` when one
    chunk covered the whole matrix, ``"chunk_median"`` otherwise.  An
    estimated threshold also carries the tiles' kept tails, so that
    :func:`build_sparse_graph` need not multiply X·Yᵀ again; they take no
    part in equality or repr.
    """

    quantile_q: float
    value: float
    chunk_rows: int
    estimator: str
    _tails: _Tails | None = field(default=None, compare=False, repr=False)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array by sort and compare.

    The same result as ``np.unique``; NumPy 2's hash-based unique is an order
    of magnitude slower on the integer keys of graph construction.
    """
    values = np.sort(values)
    if values.size:
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return values


def _products(pair: EmbeddingPair, span: tuple[int, int], out: np.ndarray | None = None) -> np.ndarray:
    """The tile x[start:stop] · Yᵀ: every similarity product is computed here."""
    start, stop = span
    return np.matmul(pair.x[start:stop], pair.y.T, out=out)


def _tile_rows(n: int) -> int:
    """Tile height for an N-row pair: the tallest power of two, at most
    ``ROW_CHUNK``, whose tile of ``height x n`` float64 products fits in
    ``_TILE_BYTES``; 1 when none does.  A power of two divides ``CHUNK_ROWS``."""
    rows = min(ROW_CHUNK, max(1, _TILE_BYTES // (8 * n)))
    return 1 << (rows.bit_length() - 1)


def _tiles(span: tuple[int, int], n: int) -> list[tuple[int, int]]:
    """Split a row span of an N-row pair into tiles of ``_tile_rows(n)`` rows."""
    start, stop = span
    return [(start + a, start + b) for a, b in chunk_spans(stop - start, _tile_rows(n))]


def _on_grid(span: tuple[int, int], n: int) -> bool:
    """Whether ``span`` is one of the tiles ``_tiles((0, n), n)``."""
    start, stop = span
    rows = _tile_rows(n)
    return start % rows == 0 and stop == min(start + rows, n)


def _buffered_products(pair: EmbeddingPair, spans: list[tuple[int, int]]):
    """``span -> _products(pair, span)`` into one buffer per calling thread.

    The buffer holds the tallest of ``spans``, is allocated on a thread's
    first product and is reused for each later one, so a product is valid
    only until its thread multiplies the next tile.  It is freed with the
    returned function.
    """
    local = threading.local()
    rows = max((stop - start for start, stop in spans), default=0)

    def product(span: tuple[int, int]) -> np.ndarray:
        if not hasattr(local, "buffer"):
            local.buffer = np.empty((rows, pair.n))
        return _products(pair, span, out=local.buffer[: span[1] - span[0]])

    return product


def _row_blocks(span: tuple[int, int], z: np.ndarray) -> list:
    """(rows, block) pairs walking the product ``z`` of row span ``span`` in
    blocks of about ``_BLOCK_BYTES``; ``rows`` is the block's row span."""
    start = span[0]
    height = max(1, _BLOCK_BYTES // z[0].nbytes)
    return [((start + a, start + b), z[a:b]) for a, b in chunk_spans(len(z), height)]


class _TileReader:
    """Tile reader built for one pair: keeps ``fn(rows, block, *args)`` of
    each ``(fn, args)`` in ``parts``, in that order, for every row block the
    cutoff's scan hands it, by tile.  Called with a pair whose ``x`` or
    ``y`` is another array, it records nothing."""

    def __init__(self, pair: EmbeddingPair, parts: tuple):
        self.x, self.y = pair.x, pair.y
        self.wanted = parts
        self.parts: dict = {}  # span -> one list of block results per part

    def __call__(self, pair: EmbeddingPair, span: tuple[int, int], rows: tuple[int, int],
                 block: np.ndarray) -> None:
        if pair.x is not self.x or pair.y is not self.y:
            return
        if rows[0] == span[0]:  # a tile's blocks come in row order, from one thread
            self.parts[span] = tuple([] for _ in self.wanted)
        for (fn, args), kept in zip(self.wanted, self.parts[span]):
            kept.append(fn(rows, block, *args))


def _reading(pair: EmbeddingPair, *parts) -> EmbeddingPair:
    """``pair`` whose cutoff scan also keeps each ``(fn, args)`` of ``parts``
    per row block, in order: a part that overwrites the block comes last."""
    return replace(pair, _tile_reader=_TileReader(pair, parts))


def _row_parts(pair: EmbeddingPair, fn, args: tuple, threads: int = 1) -> list:
    """``fn(rows, block, *args)`` of every row block of every tile of all N
    rows, in row order.

    A tile whose blocks the pair's own tile reader kept for this ``(fn,
    args)`` takes them; only the other tiles are multiplied, into buffered
    products, so ``fn`` keeps no view of its block.
    """
    reader = pair._tile_reader
    done = {}
    if (reader is not None and reader.x is pair.x and reader.y is pair.y
            and (fn, args) in reader.wanted):
        at = reader.wanted.index((fn, args))
        done = {span: kept[at] for span, kept in reader.parts.items()}
    tiles = _tiles((0, pair.n), pair.n)
    product = _buffered_products(pair, [span for span in tiles if span not in done])

    def run(span: tuple[int, int]) -> list:
        if span in done:
            return done[span]
        return [fn(rows, block, *args) for rows, block in _row_blocks(span, product(span))]

    return [part for parts in ordered_map(run, tiles, threads) for part in parts]


def _sample_stride(entries: int, width: int) -> int:
    """Stride for about _SAMPLE_SIZE samples, coprime to the row width so the
    sample walks through every column instead of repeating a few."""
    stride = max(1, entries // _SAMPLE_SIZE)
    while math.gcd(stride, width) != 1:
        stride += 1
    return stride


def _scan_tail(pair: EmbeddingPair, span: tuple[int, int], z: np.ndarray, share: float) -> _Tail:
    """Keep the entries of tile product ``z`` at or above a sampled bound.

    After the sample, the tile is walked once in row blocks: each block's
    tail is copied out, then a grid tile's block goes to the pair's tile
    reader, which may overwrite it.
    """
    flat = z.reshape(-1)
    sample = flat[:: _sample_stride(flat.size, pair.n)].copy()
    keep = min(sample.size, max(_MIN_SAMPLE_TAIL, math.ceil(_TAIL_MARGIN * share * sample.size)))
    kth = sample.size - keep
    sample.partition(kth)
    bound = float(sample[kth])
    reader = pair._tile_reader if _on_grid(span, pair.n) else None
    limit = _MAX_TAIL_SHARE * flat.size
    offsets, values, count = [], [], 0
    for rows, block in _row_blocks(span, z):
        if count <= limit:  # past the limit the tail is dropped: stop collecting
            hits = np.flatnonzero(block >= bound)
            count += hits.size
            offsets.append(hits + (rows[0] - span[0]) * pair.n)
            values.append(block.reshape(-1)[hits])
        if reader is not None:
            reader(pair, span, rows, block)
    if count > limit:
        return _Tail(span, math.inf, np.empty(0, dtype=np.int64), np.empty(0))
    return _Tail(span, bound, np.concatenate(offsets), np.concatenate(values))


def _scan_tails(pair: EmbeddingPair, jobs: list, threads: int) -> dict:
    """The tails of the (tile, share) ``jobs``, by span.

    The products' buffers are freed on return, before any full sort.
    """
    product = _buffered_products(pair, [tile for tile, _ in jobs])
    tails = ordered_map(lambda job: _scan_tail(pair, job[0], product(job[0]), job[1]), jobs, threads)
    return {tail.span: tail for tail in tails}


def _full_sort_quantile(pair: EmbeddingPair, chunk: tuple[int, int], q: float) -> float:
    """Interpolated quantile of a whole chunk, its tiles sorted together in place."""
    start, stop = chunk
    block = np.empty((stop - start, pair.n))
    for tile in _tiles(chunk, pair.n):
        _products(pair, tile, out=block[tile[0] - start : tile[1] - start])
    flat = block.reshape(-1)
    flat.sort()
    return _read_quantile(flat, flat.size, q)


def estimate_quantile_threshold(
    pair: EmbeddingPair, q: float, chunk_rows: int, threads: int = 1
) -> SimilarityThreshold:
    """Estimate the q-quantile of all cross inner products of ``pair``.

    Rows of ``pair.x`` are processed in ``chunk_rows``-high chunks against
    all of ``pair.y``; the median of the per-chunk quantiles is returned.
    Each chunk's value equals :func:`interpolated_quantile` of its entries.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile must lie strictly inside (0,1), got {q}")
    n = pair.n
    if not 1 <= chunk_rows <= n:
        raise ParameterError(f"chunk_rows must lie in [1, {n}], got {chunk_rows}")

    chunks = chunk_spans(n, chunk_rows)

    def tail_need(chunk: tuple[int, int]) -> tuple[int, int]:
        """(entries, how many of the largest hold both order statistics)"""
        size = (chunk[1] - chunk[0]) * n
        return size, size - _ranks(size, q)[0]

    jobs = []
    for chunk in chunks:
        size, need = tail_need(chunk)
        if _TAIL_MARGIN * need <= _MAX_TAIL_SHARE * size:
            jobs += [(tile, need / size) for tile in _tiles(chunk, n)]
    by_span = _scan_tails(pair, jobs, threads)

    def chunk_quantile(chunk: tuple[int, int]) -> float:
        size, need = tail_need(chunk)
        parts = [by_span.get(tile) for tile in _tiles(chunk, n)]
        if all(part is not None for part in parts):
            bound = max(part.bound for part in parts)
            top = np.concatenate([part.values[part.values >= bound] for part in parts])
            if top.size >= need:
                top.sort()
                return _read_quantile(top, size, q)
        return _full_sort_quantile(pair, chunk, q)

    per_chunk = ordered_map(chunk_quantile, chunks, threads)
    estimator = "exact" if len(per_chunk) == 1 else "chunk_median"
    return SimilarityThreshold(
        quantile_q=q,
        value=float(np.median(per_chunk)),
        chunk_rows=chunk_rows,
        estimator=estimator,
        _tails=_Tails(pair, by_span) if by_span else None,
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
        """Build from an iterable of undirected (i, j) pairs.

        Raises GraphError when a pair has an index outside 0..n-1.
        """
        pairs = [(int(i), int(j)) for i, j in edges]
        bad = next((p for p in pairs if min(p) < 0 or max(p) >= n), None)
        if bad is not None:
            raise GraphError(f"edge {bad} has an index outside 0..{n - 1}")
        src = np.array([p[0] for p in pairs] + [p[1] for p in pairs], dtype=np.int64)
        dst = np.array([p[1] for p in pairs] + [p[0] for p in pairs], dtype=np.int64)
        return cls._from_directed(n, src, dst, directed_entry_count)

    @classmethod
    def _from_directed(
        cls, n: int, src: np.ndarray, dst: np.ndarray, directed_entry_count: int | None = None
    ):
        """Build from directed pairs already containing both orientations."""
        if src.size:
            keys = _sorted_unique(src * np.int64(n) + dst)
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
        forward = rows * np.int64(self.n) + self.indices  # sorted, as the lists ascend
        backward = np.sort(self.indices * np.int64(self.n) + rows)
        if not np.array_equal(forward, backward):
            raise GraphError("adjacency is not symmetric")

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
    threads: int = 1,
) -> SparseSimilarityGraph:
    """Keep node pairs whose inner product beats the cutoff in either direction.

    An undirected edge (i, j), i != j, exists iff x_i.y_j > value or
    x_j.y_i > value (strict inequality; ties at the cutoff are dropped).
    The OR-symmetrization makes the structure usable by the bandwidth
    ordering, which needs symmetric adjacency.  With a threshold estimated
    from this same ``pair``, row tiles reuse the estimate's kept tails where
    they cover the tile; every other tile is multiplied.
    """
    if not np.isfinite(threshold.value):
        raise ParameterError(f"threshold value must be finite, got {threshold.value}")
    n = pair.n
    cut = threshold.value
    tails = threshold._tails
    by_span = tails.by_span if tails is not None and tails.pair is pair else {}
    kept = {span: tail for span, tail in by_span.items() if tail.bound <= cut}
    tiles = _tiles((0, n), n)
    product = _buffered_products(pair, [span for span in tiles if span not in kept])

    def scan(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        tail = kept.get(span)
        if tail is not None:
            offsets = tail.offsets[tail.values > cut]
        else:
            offsets = np.flatnonzero(product(span) > cut)
        rows = offsets // n + span[0]
        cols = offsets % n
        off = rows != cols
        return rows[off], cols[off]

    rows, cols = map(np.concatenate, zip(*ordered_map(scan, tiles, threads)))
    src = np.concatenate([rows, cols])
    dst = np.concatenate([cols, rows])
    return SparseSimilarityGraph._from_directed(n, src, dst, rows.size)


def expected_retained_fraction(graph: SparseSimilarityGraph) -> float:
    """Fraction of the N^2 inner products that exceeded the cutoff.

    For a cutoff computed with the exact estimator at quantile q this
    tracks 1 - q up to O(1/N) slack; reported for diagnostics only.
    """
    return graph.directed_entry_count / float(graph.n) ** 2
