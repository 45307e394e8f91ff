"""Quantile cutoff estimation and sparse similarity-graph construction.

This module owns the tiling of the N x N cross inner-product matrix X·Yᵀ:
every product that reaches an output, here and in the loss and baseline
scans, is a row tile from ``_tiles`` multiplied by one call, ``_products``.  BLAS results can differ in
the last bit with block height, so one tile grid keeps every stage's
products bit-identical.  The tile height is a function of N alone
(``_tile_rows``): the tallest power of two, at most ``_MAX_TILE_ROWS`` (256),
whose products fit a per-worker budget of ``_TILE_BYTES`` (16 MiB).  The
multiply's cost per product depends on the rows per BLAS call, not on the
tile's bytes: OpenBLAS packs all of Yᵀ on every call (Goto & van de Geijn,
"Anatomy of high-performance matrix multiplication", ACM TOMS 2008), so the
cost is flat from about 256 rows up.  Cost per product against 256 rows,
whole X·Yᵀ, d = 64, OpenBLAS 0.3.31 (Haswell kernels, one thread), warm
buffers, heights interleaved, best of 15, two runs (256 rows: 2.50-2.77 ns
per product at N = 4096):

    rows per call     1024       512     256     128        64
    N = 4096        0.98-1.03  0.98-1.01   1   1.05-1.16  1.11-1.19
    N = 8192        1.12-1.13  1.01-1.06   1   1.05-1.06  1.17-1.29

So a taller tile buys nothing but bytes, and a fresh buffer has that many
more pages to fault; a shorter one costs 5-16% more.  The budget binds from
N = 8192 up (256 rows there, 128 at N = 16384), the cap below it (256 rows,
8 MiB at N = 4096).

Memory budget.  An epoch (``batching._stages``) at a high quantile peaks
within its inputs plus the larger of its two stages:

    cutoff: workers x min(``_TILE_BYTES``, 256 x N x 8 bytes)
            + 12 bytes x kept tail entries,
    graph:  c x CSR bytes,

where workers is the smaller of ``threads`` and the cores the process may
run on (``_parallel.usable_cores``: a map starts no more, so ``--threads
256`` on two cores holds two tiles), the CSR is the graph's ``indptr`` and
``indices``, and c = 2.5: the graph stage peaks within 2.5x its CSR, the
CSR included (1.3-2.2x measured with tracemalloc at N = 4096-16384,
q = 0.5-0.99), and the ordering holds
at most 1.5x beyond it (0.01-0.22x measured).  A graph that rescans tiles
holds a tile per worker, as the cutoff does.  The stages do not add up:
the graph takes each tail out of the scan as it reads it, whether it
reuses the tail or multiplies that tile again, so no tail is held with the
graph's keys.  This bounds the traced peak; a process's max RSS need not
follow it, as the allocator may keep the freed tail pages.  The
exception is the fallback (``_full_sort_quantile``), which holds a whole
chunk of products (``chunk_rows`` x N): it runs only below q = 15/16, or
for a chunk with a tail over 1/8 of its tile, and it reads one chunk after
another, so it holds one chunk whatever the worker count.

Edge cap.  ``_MAX_DIRECTED_ENTRIES`` caps the graph twice, and both checks
live here, reading the cap when they run.  Before the cutoff,
``_check_graph_fits`` (called by ``batching._stages``) predicts (1 - q)·N²
directed entries and refuses an epoch above the cap.  A median of
per-chunk quantiles can sit below the global quantile, so
``build_sparse_graph`` also counts the entries above the cutoff as it
takes them, the kept tails first and then each rescanned tile, and keeps
no more once the count passes the cap; it then raises CapacityError,
before any key is built.  The count includes the diagonal's entries,
which are dropped only after they are counted.

Cutoff.  Rows are grouped into logical chunks of ``chunk_rows`` rows (default
``default_chunk_rows``: min(N, 4096)).  Each chunk contributes the
interpolated quantile of its own entries, and the cutoff is the median of
the per-chunk values; a single chunk spanning every row gives the exact
empirical quantile of all N^2 entries.  The chunk is a logical unit only:
it sets the cutoff value, while the tile sets the memory.

A high quantile reads two order statistics near the top, so tiles are not
sorted (expected-time selection, Floyd & Rivest 1975).  Each chunk draws
one deterministic sample of its products (``_chunk_bounds``): its rows and
Y's columns, each at a stride of about 1/``_SAMPLE_SIDE``, multiplied as one
small product that sets bounds and nothing else.  In it e entries are
expected above the chunk's quantile.  The chunk's lower bound ``lb`` leaves
e + Z·σ sampled entries above it (Z = ``_TAIL_Z``), where σ is the count's
standard error with the design effect of sampling whole rows and columns
(Kish, *Survey Sampling*, 1965): products of one row are correlated, as
when rows arrive sorted by cluster.  Every tile of the chunk keeps its
entries >= ``lb`` as (offset, value) pairs: its tail.  The tiles share
``lb``, so their tails hold every entry of the chunk >= ``lb``.  Each chunk
is decided right after the walk that completes its tiles: once its tails
hold the needed count, it selects the two ranks among their values
(``_select_quantile``: two partitions, not a sort).  Order statistics are
rank-exact, so the value equals a full sort's.  A chunk whose tails hold
fewer (its sample misjudged it) has every tile multiplied again and walked
at a second bound, with e + 2Z·σ sampled entries above it; the short
chunks are walked again in one map.  A chunk with a dropped tail leaves
the walks.  The two ranks are selected among all the chunk's products, in
place, only when q is too low for a tail to pay (below 15/16), when a tail
would exceed 1/8 of its tile, or when the tails at the second bound still
hold fewer values than the ranks need.

Graph.  An undirected, unweighted graph keeps the node pairs whose inner
product exceeds the cutoff in either direction.  A grid tile whose kept tail
has exactly its span and an ``lb`` at or below the cutoff is filtered with
``> cut``; any other tile is multiplied again (q below about 15/16 keeps no
tails, a tail over 1/8 of its tile is dropped, ``chunk_median`` can put an
``lb`` above the cutoff, off-grid chunks have other spans).  Reusing a tail
only on an identical span keeps the graph bit for bit that of a rescan.
The graph works in keys ``row·N + col``: a tile's flat offsets plus
``start·N``, which come out ascending.  The diagonal's keys are the
multiples of N + 1: a tile's entries are counted against the edge cap,
the diagonal's included, and its diagonal offsets dropped as they are
taken.  The transposed key is ``key % N · N + key // N``, and the sorted
distinct keys of both directions give the CSR rows and columns.
Both directions go into one array, sorted, deduplicated and turned into
the columns in place, so the graph holds its tiles' int32 offsets and that
array, twice the directed count, at most.

Tile walk.  Every multiplied tile is walked once, by ``_Scan.walk``, row
block by row block (``_row_blocks``, about ``_BLOCK_BYTES`` each), so a block
is still in cache for each pass after its first.  A block only splits
element-wise work and per-row maxima, argmaxima and sums, whose bits do not
depend on how many rows share a call, so the block height changes no output.
Each scan (each of the estimator's walks, ``_Scan.read``, the graph's
rescans) is one call of ``_map_products``, which multiplies into one
buffer per worker thread, reused tile after tile and freed when the scan
returns: a function given a buffered product keeps no view of it.  Only it
and the fallback call ``_products``.

The epoch scan.  Every per-row reduction of X·Yᵀ outside this module (the
global-loss terms, the mined baseline's argmax) is a part ``fn(rows, block,
*args)`` listed in an epoch's one ``_Scan``, which each stage takes as
``_scan=``.  One rule: a grid tile feeds each listed part once, in order,
when the first stage multiplies it, after that stage took what it needs from
each block (the estimator its tail, the graph its entries above the cutoff).
``_Scan.read`` returns the kept blocks and multiplies only the grid tiles no
stage has walked.  So ``permute --report`` and ``compare`` multiply a tile
at most once beyond the estimator, whose second walks, fallback and
off-grid tiles feed no part.  A call without ``_scan=`` walks a fresh scan.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._parallel import chunk_spans, ordered_map
from .errors import CapacityError, DataError, GraphError, ParameterError
from .io import EmbeddingPair

# Default height of the estimator's logical chunk.  It sets the cutoff value
# (a median of per-chunk quantiles), so changing it changes outputs.
CHUNK_ROWS = 4096

# Tail selection per chunk (``_chunk_bounds``): sample the chunk's rows and
# Y's columns at strides of about 1/_SAMPLE_SIDE, whatever the tile's shape,
# and set two bounds, _TAIL_Z and 2·_TAIL_Z standard errors of the sampled
# count past the needed share.  A 256-side sample costs 1.2-1.7 ms at
# N = 1536 and 4096 (d = 64, one BLAS thread), a 512-side one 5.5-8 ms.  Keep
# a tail only while it is at most _MAX_TAIL_SHARE of the tile, else it is
# dropped and its chunk's ranks are selected among all its products, in
# place, one chunk at a time.  Kept pairs cost 12 bytes each
# (``_Tail``), so the cap holds all tails to 3/16 of the bytes of the full
# product.
_SAMPLE_SIDE = 256
_TAIL_Z = 5.0
_MAX_TAIL_SHARE = 1 / 8

# Bytes of every bounded temporary: a row block of the tile walk
# (``_row_blocks``), small enough to stay in a core's cache across the passes
# over it; a run of the graph's keys; a BFS level's int64 neighbour slots
# (``bandwidth.cuthill_mckee``); one matmul stack of a report's slot products,
# or of its gathered operands where d outweighs the batch
# (``losses._batch_runs``; a report reads each stack and drops it before the
# next, so this bounds its in-batch pass).  Each reads it through this module
# when it runs.  Outputs do not depend on it.
_BLOCK_BYTES = 1 << 20

# Bytes of one tile product, per worker thread, and the most rows of one
# tile: a tile is the tallest power of two rows, at most _MAX_TILE_ROWS, whose
# products fit (``_tile_rows``).  The multiply's cost per product is flat
# from about 256 rows up, as OpenBLAS packs all of Yᵀ on every call (module
# docstring), so a taller tile only adds bytes to fault in; the budget binds
# from N = 8192 up.  With N not a multiple of 8 the height can change
# products in the last bit.
_TILE_BYTES = 16 << 20
_MAX_TILE_ROWS = 256

# Most directed entries an epoch's graph may hold: predicted as (1 - q)·N²
# before the cutoff (``_check_graph_fits``), and counted, the diagonal's
# included, while the graph is built.  Each entry and its transpose take 16
# CSR bytes, so the cap holds the CSR to 1 GiB and the graph stage, at c ×
# the CSR (module docstring), to about 2.5 GiB on any host.
_MAX_DIRECTED_ENTRIES = 1 << 26


def default_chunk_rows(n: int) -> int:
    """Default estimator chunk for N rows: min(N, CHUNK_ROWS)."""
    return min(n, CHUNK_ROWS)


def _ranks(size: int, q: float) -> tuple[int, int, float]:
    """Order statistics (lo, hi) and weight t of the q-quantile of ``size`` values."""
    h = (size - 1) * q
    lo = int(np.floor(h))
    return lo, min(lo + 1, size - 1), h - lo


def _read_quantile(top: np.ndarray, size: int, q: float) -> float:
    """q-quantile of ``size`` values whose largest ``top.size`` are ``top``,
    ascending, or with its two ranks in place (``_select_quantile``)."""
    lo, hi, t = _ranks(size, q)
    skip = size - top.size
    return float(top[lo - skip] + t * (top[hi - skip] - top[lo - skip]))


def _median(values: list[float]) -> float:
    """``np.median`` of finite ``values``, bit for bit: the same partition and
    mean, without the NaN check whose first call imports ``numpy.ma``."""
    size = len(values)
    mid = size // 2
    part = np.partition(values, [mid - 1, mid, -1] if size % 2 == 0 else [mid, -1])
    return float(np.mean(part[mid - 1 + size % 2 : mid + 1]))


def interpolated_quantile(values: np.ndarray, q: float) -> float:
    """Empirical q-quantile with linear interpolation between order statistics
    of ``values``, which must be non-empty and finite (else DataError)."""
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile must lie strictly inside (0,1), got {q}")
    flat = np.sort(np.asarray(values, dtype=np.float64), axis=None)
    if not (flat.size and np.isfinite(flat).all()):
        raise DataError("a quantile needs a non-empty array of finite values")
    return _read_quantile(flat, flat.size, q)


class _Tail:
    """Entries >= ``bound`` of one row tile: flat offsets into the tile, values.

    ``bound`` is inf when the tail was dropped.  Offsets are int32, so an
    entry costs 12 bytes: a tile holds at most ``_TILE_BYTES / 8`` = 2²¹
    products, or N when ``_tile_rows`` returns 1, and ``io.MAX_ELEMENTS``
    bounds N·d at 2³¹, so every offset fits.  Values stay float64, because
    the selection is rank-exact.
    """

    __slots__ = ("bound", "offsets", "values")

    def __init__(self, bound: float, offsets: np.ndarray, values: np.ndarray):
        self.bound, self.offsets, self.values = bound, offsets, values


@dataclass(frozen=True)
class SimilarityThreshold:
    """Inner-product cutoff estimated at quantile ``quantile_q``.

    ``estimator`` records how the value was obtained: ``"exact"`` when one
    chunk covered the whole matrix, ``"chunk_median"`` otherwise.  It holds
    nothing of the scan that made it: :func:`build_sparse_graph` gives the
    same graph from any threshold with the same value.
    """

    quantile_q: float
    value: float
    chunk_rows: int
    estimator: str


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
    """The tile x[start:stop] · Yᵀ: every product that reaches an output is
    computed here."""
    start, stop = span
    return np.matmul(pair.x[start:stop], pair.y.T, out=out)


def _tile_rows(n: int) -> int:
    """Tile height for an N-row pair: the tallest power of two, at most
    ``_MAX_TILE_ROWS``, whose tile of ``height x n`` float64 products fits in
    ``_TILE_BYTES``; 1 when none does.  A power of two divides
    ``CHUNK_ROWS``."""
    rows = min(_MAX_TILE_ROWS, max(1, _TILE_BYTES // (8 * n)))
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


def _map_products(pair: EmbeddingPair, spans: list[tuple[int, int]], fn, threads: int = 1) -> list:
    """``fn(span, z)`` of each of ``spans``, in order, ``z`` the span's product.

    Each worker thread multiplies into one buffer that holds the tallest of
    ``spans``, allocated on its first product and reused for each later one,
    so ``fn`` keeps no view of ``z``.  The buffers are freed on return.
    """
    local = threading.local()
    rows = max((stop - start for start, stop in spans), default=0)

    def job(span: tuple[int, int]):
        if not hasattr(local, "buffer"):
            local.buffer = np.empty((rows, pair.n))
        return fn(span, _products(pair, span, out=local.buffer[: span[1] - span[0]]))

    return ordered_map(job, spans, threads)


def _row_blocks(span: tuple[int, int], z: np.ndarray) -> list:
    """(rows, block) pairs walking the product ``z`` of row span ``span`` in
    blocks of about ``_BLOCK_BYTES``; ``rows`` is the block's row span."""
    start = span[0]
    height = max(1, _BLOCK_BYTES // z[0].nbytes)
    return [((start + a, start + b), z[a:b]) for a, b in chunk_spans(len(z), height)]


class _Scan:
    """One epoch's pass over X·Yᵀ of one pair, handed to its calls as ``_scan=``.

    Every multiplied tile is walked by :meth:`walk`, so each grid tile feeds
    each listed ``(fn, args)`` part once, whichever stage multiplied it; the
    estimator's tails are kept by span until the graph takes them.  Use it
    only on the pair it read.
    """

    def __init__(self, *parts):
        self.tails: dict = {}  # span -> _Tail
        self.parts = {part: {} for part in parts}  # (fn, args) -> span -> one result per block

    def walk(self, n: int, span: tuple[int, int], z: np.ndarray, select=None) -> list:
        """``select(rows, block)`` of each row block of the product ``z`` of
        ``span``, in row order; each block of a grid tile not walked before then
        feeds each listed part in order (one that overwrites it is listed last)."""
        outs = [(fn, args, kept.setdefault(span, [])) for (fn, args), kept in self.parts.items()
                if _on_grid(span, n) and span not in kept]
        picked = []
        for rows, block in _row_blocks(span, z):
            if select is not None:
                picked.append(select(rows, block))
            for fn, args, out in outs:
                out.append(fn(rows, block, *args))
        return picked

    def read(self, pair: EmbeddingPair, part: tuple, threads: int = 1) -> list:
        """The kept ``fn(rows, block, *args)`` of every row block, ``part = (fn,
        args)``; the grid tiles not yet walked are multiplied and walked now.
        A part the scan does not list is read through a fresh ``_Scan(part)``."""
        if part not in self.parts:
            return _Scan(part).read(pair, part, threads)
        tiles = _tiles((0, pair.n), pair.n)
        todo = [span for span in tiles if span not in self.parts[part]]
        _map_products(pair, todo, lambda span, z: self.walk(pair.n, span, z), threads)
        return [block for span in tiles for block in self.parts[part][span]]


def _chunk_bounds(pair: EmbeddingPair, chunk: tuple[int, int], share: float) -> tuple[float, float]:
    """Two lower bounds, the second lower, for the top ``share`` of the
    products of ``chunk``, read from one sample of them: the chunk's rows and
    Y's columns, each at a stride of about 1/_SAMPLE_SIDE.

    With e = share × sample size and c the sampled entries >= the sample's
    e-th largest, the bounds leave e + _TAIL_Z·σ and e + 2·_TAIL_Z·σ sampled
    entries at or above them, σ² = max(e, R·var(c per row) + C·var(c per
    column) - e) over R rows and C columns: products of one row, or of one
    column, are correlated, so the count varies more than a Poisson count
    (Kish's design effect).  The sample sets bounds only, never an output
    value, so it is not a tile product.  Its diagonal products are -inf:
    aligned strides would over-weight them, and they are the largest when
    y ≈ x; that can only lower the bounds.
    """
    start, stop = chunk
    rows = np.arange(start, stop, max(1, (stop - start) // _SAMPLE_SIDE))
    cols = np.arange(0, pair.n, max(1, pair.n // _SAMPLE_SIDE))
    sample = pair.x[rows] @ pair.y[cols].T
    _, on_row, on_col = np.intersect1d(rows, cols, assume_unique=True, return_indices=True)
    sample[on_row, on_col] = -np.inf
    size = sample.size
    expected = share * size
    kth = size - max(1, math.ceil(expected))
    part = np.partition(sample.reshape(-1), kth)
    hit_rows, hit_cols = np.divmod(np.flatnonzero(sample >= part[kth]), len(cols))
    variance = (len(rows) * np.bincount(hit_rows, minlength=len(rows)).var()
                + len(cols) * np.bincount(hit_cols, minlength=len(cols)).var() - expected)
    sigma = math.sqrt(max(expected, variance))
    first, second = (size - min(size, math.ceil(expected + z * sigma)) for z in (_TAIL_Z, 2 * _TAIL_Z))
    # one kth per partition call: NumPy's partition at two kth costs as much as a sort
    part[: kth + 1].partition(second)
    part[second : kth + 1].partition(first - second)
    return float(part[first]), float(part[second])


def _scan_tail(pair: EmbeddingPair, span: tuple[int, int], z: np.ndarray, bound: float,
               scan: _Scan) -> _Tail:
    """Keep the entries of tile product ``z`` at or above ``bound``.

    ``scan`` walks the tile once: each block's tail is copied out before the
    scan's parts may overwrite the block.  A tail over _MAX_TAIL_SHARE of the
    tile is dropped: its bound is inf.
    """
    limit = _MAX_TAIL_SHARE * z.size
    count = 0

    def select(rows: tuple[int, int], block: np.ndarray):
        nonlocal count
        if count <= limit:  # past the limit the tail is dropped: stop collecting
            hits = np.flatnonzero(block >= bound)
            count += hits.size
            offsets = (hits + (rows[0] - span[0]) * pair.n).astype(np.int32)
            return offsets, block.reshape(-1)[hits]

    picked = scan.walk(pair.n, span, z, select)
    if count > limit:
        return _Tail(math.inf, np.empty(0, dtype=np.int32), np.empty(0))
    return _Tail(bound, *map(np.concatenate, zip(*picked)))


def _select_quantile(top: np.ndarray, size: int, q: float) -> float:
    """``_read_quantile`` of ``top`` with its two ranks selected in place, not
    sorted: one kth per partition call, as NumPy's partition at two kth costs
    as much as a sort.  ``top`` is reordered."""
    lo, hi, _ = _ranks(size, q)
    skip = size - top.size
    top.partition(lo - skip)
    top[hi - skip :].partition(0)
    return _read_quantile(top, size, q)


def _full_sort_quantile(pair: EmbeddingPair, chunk: tuple[int, int], q: float) -> float:
    """Interpolated quantile of a whole chunk, its tiles multiplied into one
    block and its two ranks selected in place."""
    start, stop = chunk
    block = np.empty((stop - start, pair.n))
    for tile in _tiles(chunk, pair.n):
        _products(pair, tile, out=block[tile[0] - start : tile[1] - start])
    return _select_quantile(block.reshape(-1), block.size, q)


def estimate_quantile_threshold(
    pair: EmbeddingPair, q: float, chunk_rows: int, threads: int = 1, *, _scan: _Scan | None = None
) -> SimilarityThreshold:
    """Estimate the q-quantile of all cross inner products of ``pair``.

    Rows of ``pair.x`` are processed in ``chunk_rows``-high chunks against
    all of ``pair.y``; the median of the per-chunk quantiles is returned.
    Each chunk's value equals :func:`interpolated_quantile` of its entries.
    ``_scan`` (else a fresh scan) walks the tiles and keeps the tails.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"quantile must lie strictly inside (0,1), got {q}")
    n = pair.n
    if not 1 <= chunk_rows <= n:
        raise ParameterError(f"chunk_rows must lie in [1, {n}], got {chunk_rows}")

    chunks = chunk_spans(n, chunk_rows)
    scan = _scan or _Scan()
    todo = {}  # chunk -> (two tail bounds, entries, how many of the largest hold both ranks)
    for chunk in chunks:
        size = (chunk[1] - chunk[0]) * n
        need = size - _ranks(size, q)[0]
        if 2 * need <= _MAX_TAIL_SHARE * size:  # q >= 15/16: twice the share fits a tail
            todo[chunk] = (*_chunk_bounds(pair, chunk, need / size), size, need)
    read = {}  # chunk -> its quantile, read from its tails
    tails = scan.tails = {}
    for level in (0, 1):  # a chunk whose tails hold too few is walked again at its second bound
        at = {tile: todo[chunk][level] for chunk in todo for tile in _tiles(chunk, n)}
        # one map over the tiles of every such chunk; its buffers are freed before any fallback
        tails.update(zip(at, _map_products(pair, list(at), lambda span, z: _scan_tail(
            pair, span, z, at[span], scan), threads)))
        for chunk, (_, _, size, need) in list(todo.items()):
            parts = [tails[tile] for tile in _tiles(chunk, n)]
            if any(part.bound == math.inf for part in parts):  # a dropped tail: the fallback reads it
                del todo[chunk]
            elif sum(part.values.size for part in parts) >= need:  # each holds its entries >= the bound
                read[chunk] = _select_quantile(np.concatenate([part.values for part in parts]), size, q)
                del todo[chunk]
    # the fallback reads the chunks left unread one after another: one chunk is held at a time
    per_chunk = [read[chunk] if chunk in read else _full_sort_quantile(pair, chunk, q) for chunk in chunks]
    estimator = "exact" if len(per_chunk) == 1 else "chunk_median"
    return SimilarityThreshold(
        quantile_q=q,
        value=_median(per_chunk),
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
    structural invariants and is invoked by the ordering routines, except on
    a graph :func:`build_sparse_graph` made, which is valid by construction:
    its arrays are read-only.
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
        self._sealed = None  # (n, indptr, indices) as built, once sealed

    @classmethod
    def from_edges(cls, n: int, edges, directed_entry_count: int | None = None):
        """Build from an iterable of undirected (i, j) pairs.

        Raises GraphError when a pair has an index outside 0..n-1.
        """
        pairs = [(int(i), int(j)) for i, j in edges]
        bad = next((p for p in pairs if min(p) < 0 or max(p) >= n), None)
        if bad is not None:
            raise GraphError(f"edge {bad} has an index outside 0..{n - 1}")
        keys = np.empty(2 * len(pairs), dtype=np.int64)
        keys[: len(pairs)] = [i * n + j for i, j in pairs]
        return cls._from_keys(n, keys, len(pairs), directed_entry_count)

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray, count: int, directed_entry_count: int | None = None):
        """Build from the keys ``i·n + j`` of directed pairs (i, j) in
        ``keys[:count]``, an int64 array with room for twice as many; each pair
        is also added as (j, i), whose key is ``key % n · n + key // n``.

        The caller hands ``keys`` over: it is sorted, compacted to the distinct
        keys of both directions and shrunk in place, in runs of ``_BLOCK_BYTES``,
        so it becomes the CSR's columns.  No view of it may be kept.
        """
        run = max(1, _BLOCK_BYTES // 8)
        for a, b in chunk_spans(count, run):
            rows, cols = np.divmod(keys[a:b], n)
            cols *= n
            np.add(cols, rows, out=keys[count + a : count + b])
        keys[: 2 * count].sort()
        size, last = 0, None
        for a, b in chunk_spans(2 * count, run):  # a run is read before any write reaches it
            new = np.concatenate(([a == 0 or keys[a] != last], keys[a + 1 : b] != keys[a : b - 1]))
            fresh = keys[a:b][new]
            last = keys[b - 1]
            keys[size : size + fresh.size] = fresh
            size += fresh.size
        indptr = np.searchsorted(keys[:size], np.arange(n + 1, dtype=np.int64) * n)
        np.remainder(keys[:size], n, out=keys[:size])
        keys.resize(size, refcheck=False)
        return cls(n, indptr, keys, directed_entry_count)

    def _seal(self) -> SparseSimilarityGraph:
        """Vouch for a graph valid by construction: its arrays become read-only,
        and :meth:`_check` skips :meth:`validate` while it holds these arrays."""
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self._sealed = (self.n, self.indptr, self.indices)
        return self

    def _check(self) -> None:
        """:meth:`validate`, unless the graph is as :meth:`_seal` left it."""
        sealed = self._sealed
        if (sealed is None or sealed[0] != self.n or sealed[1] is not self.indptr
                or sealed[2] is not self.indices or self.indptr.flags.writeable
                or self.indices.flags.writeable):
            self.validate()

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


def _check_graph_fits(n: int, q: float) -> None:
    """Reject an epoch whose graph would hold more than ``_MAX_DIRECTED_ENTRIES``
    directed entries, predicted as (1 - q)·N², before any product is taken."""
    predicted = (1.0 - q) * n * n
    if predicted > _MAX_DIRECTED_ENTRIES:
        raise CapacityError(
            f"a graph of N = {n} rows at quantile {q} would hold about {predicted:.3g} directed "
            f"entries, above the cap of {_MAX_DIRECTED_ENTRIES} (2**26); raise the quantile "
            "or use fewer rows")


def build_sparse_graph(
    pair: EmbeddingPair,
    threshold: SimilarityThreshold,
    threads: int = 1,
    *, _scan: _Scan | None = None,
) -> SparseSimilarityGraph:
    """Keep node pairs whose inner product beats the cutoff in either direction.

    An undirected edge (i, j), i != j, exists iff x_i.y_j > value or
    x_j.y_i > value (strict inequality; ties at the cutoff are dropped).
    The OR-symmetrization makes the structure usable by the bandwidth
    ordering, which needs symmetric adjacency.  A tile whose tail the
    epoch's ``_scan`` kept (same span, bound at or below the cutoff) is
    filtered instead of multiplied, with the same result; every other tile
    is multiplied and walked by the scan.  Every tail is taken out of the
    scan as it is read, so the scan holds none on return.  Raises
    CapacityError when more than ``_MAX_DIRECTED_ENTRIES`` products beat
    the cutoff.
    """
    if not np.isfinite(threshold.value):
        raise ParameterError(f"threshold value must be finite, got {threshold.value}")
    n = pair.n
    cut = threshold.value
    scan = _scan or _Scan()
    tiles = _tiles((0, n), n)
    taken, lock = 0, threading.Lock()

    def take(span: tuple[int, int], offsets: np.ndarray) -> np.ndarray | None:
        """Count a tile's ``offsets``, the diagonal's included, and return those
        off the diagonal; None once the count passes the cap."""
        nonlocal taken
        with lock:
            taken += offsets.size
            keep = taken <= _MAX_DIRECTED_ENTRIES
        # a diagonal key i·(n + 1) is an offset ≡ span[0] mod n + 1; in int64, as span[0]·n is
        return offsets[(offsets - np.int64(span[0])) % (n + 1) != 0] if keep else None

    def rescan(span: tuple[int, int], z: np.ndarray) -> np.ndarray | None:
        return take(span, np.concatenate(scan.walk(n, span, z, lambda rows, block: (
            np.flatnonzero(block > cut) + (rows[0] - span[0]) * n).astype(np.int32))))

    # each tile's int32 offsets above the cutoff, filtered from its kept tail or rescanned;
    # each tail leaves the scan as it is read, so none is held past its tile
    popped = (scan.tails.popitem() for _ in range(len(scan.tails)))
    by_span = {span: take(span, tail.offsets[tail.values > cut])
               for span, tail in popped if _on_grid(span, n) and tail.bound <= cut}
    todo = [span for span in tiles if span not in by_span]
    by_span.update(zip(todo, _map_products(pair, todo, rescan, threads)))
    if taken > _MAX_DIRECTED_ENTRIES:
        raise CapacityError(
            f"{taken} products of N = {n} rows exceed the cutoff at quantile "
            f"{threshold.quantile_q}, above the cap of {_MAX_DIRECTED_ENTRIES} directed entries; "
            "raise the quantile or the chunk rows, or use fewer rows")
    # the keys row·n + col, in row order, with room for the transposed ones: one call a
    # tile, in int64, as span[0]·n can pass 2³¹
    keys = np.empty(2 * sum(offsets.size for offsets in by_span.values()), dtype=np.int64)
    count = 0
    for span in tiles:
        offsets = by_span.pop(span)
        np.add(offsets, np.int64(span[0] * n), out=keys[count : count + offsets.size])
        count += offsets.size
    return SparseSimilarityGraph._from_keys(n, keys, count, count)._seal()


def expected_retained_fraction(graph: SparseSimilarityGraph) -> float:
    """Fraction of the N^2 inner products that exceeded the cutoff.

    For a cutoff computed with the exact estimator at quantile q this
    tracks 1 - q up to O(1/N) slack; reported for diagnostics only.
    """
    return graph.directed_entry_count / float(graph.n) ** 2
