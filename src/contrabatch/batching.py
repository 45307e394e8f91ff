"""Batch assignments: sequential blocks under a permutation, plus baselines.

A batch assignment partitions row indices into consecutive blocks of size k
taken along a permutation; two samples share a batch exactly when their
positions fall in the same block.  When k does not divide N the final block
is short rather than dropping samples, since dropped rows would corrupt any
loss comparison.

The mined-negative baseline is different in kind: it oversamples.  Each
sample is paired with its strongest cross-side neighbor and an epoch holds
2N slots, so its assignment records explicit per-batch index lists and is
flagged ``oversampled``.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from ._parallel import chunk_spans
from .errors import ParameterError
from .io import EmbeddingPair, validate_permutation
from .bandwidth import cuthill_mckee
from .similarity import (
    _Scan,
    _check_graph_fits,
    build_sparse_graph,
    default_chunk_rows,
    estimate_quantile_threshold,
)


@dataclass(frozen=True, eq=False)
class BatchAssignment:
    """Grouping of sample indices into training batches.

    ``batches`` holds the per-batch index lists in epoch order.  For
    partition assignments each index appears exactly once and ``perm`` is
    the underlying permutation; for oversampled assignments (mined
    negatives) indices may repeat across batches and ``perm`` is None.  It
    compares and hashes by identity, as arrays have no single truth value.
    It holds one batch at least, and every batch one sample at least.
    """

    n: int
    k: int
    batches: tuple[np.ndarray, ...]
    perm: np.ndarray | None = None
    oversampled: bool = False

    def __post_init__(self):
        if not self.batches:
            raise ParameterError("an assignment needs at least one batch")
        if not all(b.size for b in self.batches):
            raise ParameterError("every batch needs at least one sample")
        flat = np.concatenate(self.batches)  # one pass checks every index
        if int(flat.min()) < 0 or int(flat.max()) >= self.n:
            raise ParameterError("batch references an index outside 0..N-1")
        for b in self.batches:
            b.setflags(write=False)


def _check_batch_size(n: int, k: int) -> None:
    """Reject a batch size k that cannot cut N samples into blocks."""
    if not 1 <= k <= n:
        raise ParameterError(f"batch size must lie in [1, {n}], got {k}")


def _check_two_samples(n: int) -> None:
    """Reject fewer than two samples, which leave no negative to mine."""
    if n < 2:
        raise ParameterError("mining a negative needs at least two samples")


def _check_mined_batch_size(n: int, k: int) -> None:
    """Reject a batch size k the mined-negative baseline cannot fill from N samples."""
    if k % 2 != 0:
        raise ParameterError(f"mined-negative batches need an even batch size, got {k}")
    _check_two_samples(n)
    if not 2 <= k <= 2 * n:
        raise ParameterError(f"batch size must lie in [2, {2 * n}], got {k}")


def sequential_batches(order: np.ndarray, k: int) -> BatchAssignment:
    """Cut a permutation into consecutive blocks of size k (last may be short)."""
    order = validate_permutation(order)
    n = order.size
    _check_batch_size(n, k)
    batches = tuple(order[s:e].copy() for s, e in chunk_spans(n, k))
    return BatchAssignment(n=n, k=k, batches=batches, perm=order)


def random_batches(n: int, k: int, seed: int) -> BatchAssignment:
    """Sequential batches over a uniformly random permutation.

    The permutation is a Fisher-Yates shuffle driven by NumPy's seeded
    PCG64 generator, so the same seed reproduces the same assignment on
    every platform.
    """
    if n < 1:
        raise ParameterError(f"need at least one sample, got {n}")
    order = np.random.default_rng(seed).permutation(n).astype(np.int64)
    return sequential_batches(order, k)


def _nearest_part(rows: tuple[int, int], z: np.ndarray) -> np.ndarray:
    """Row argmax over j != i of the products ``z`` of rows ``rows`` (ties:
    lowest j); ``z`` is left as it was."""
    cols = np.arange(*rows)
    at = (cols - rows[0], cols)
    diagonal = z[at]
    z[at] = -np.inf
    nearest = np.argmax(z, axis=1)
    z[at] = diagonal
    return nearest


def nearest_cross_neighbors(pair: EmbeddingPair, threads: int = 1, *,
                            _scan: _Scan | None = None) -> np.ndarray:
    """For each row i, the j != i maximizing x_i . y_j (ties: lowest j).

    Read through the epoch's ``_scan``, if given, so the blocks it kept for
    :func:`_nearest_part` are not multiplied again.  Raises ParameterError
    below two rows, where no j != i exists.
    """
    _check_two_samples(pair.n)
    parts = (_scan or _Scan()).read(pair, (_nearest_part, ()), threads)
    return np.concatenate(parts).astype(np.int64)


def hard_negative_batches(
    pair: EmbeddingPair, k: int, seed: int = 0, threads: int = 1, *, _scan: _Scan | None = None
) -> BatchAssignment:
    """Mined-negative baseline: each batch pairs k/2 samples with their neighbors.

    Samples are visited in a seeded random order; each batch records k/2
    reference indices followed by their mined partners.  An epoch therefore
    spans 2N slots and a popular neighbor may appear in several batches.
    """
    n = pair.n
    _check_mined_batch_size(n, k)
    nn = nearest_cross_neighbors(pair, threads=threads, _scan=_scan)
    refs = np.random.default_rng(seed).permutation(n).astype(np.int64)
    half = k // 2
    batches = tuple(
        np.concatenate([refs[s:e], nn[refs[s:e]]]) for s, e in chunk_spans(n, half)
    )
    return BatchAssignment(n=n, k=k, batches=batches, perm=None, oversampled=True)


def _stages(pair: EmbeddingPair, q: float, chunk_rows: int | None = None,
            reverse: bool = True, threads: int = 1, _scan: _Scan | None = None):
    """The pipeline's one composition: yield the cutoff, the graph, then the order.

    ``chunk_rows`` defaults to ``default_chunk_rows``.  Raises CapacityError
    first when the graph is predicted to pass the edge cap, and the graph
    raises it when the entries it counts do; both checks are
    ``similarity``'s.  The graph takes the tails the cutoff kept in
    ``_scan``, or in a fresh scan, out of it as it reads them.  Warns, naming
    the caller of :func:`bandwidth_pipeline`, when no inner product beats
    the cutoff (ties at it are dropped), because the order of an edgeless
    graph only follows the row index; every such run warns, not only the
    first.
    """
    if chunk_rows is None:
        chunk_rows = default_chunk_rows(pair.n)
    if 0.0 < q < 1.0:  # else the estimator names the bad quantile
        _check_graph_fits(pair.n, q)
    scan = _Scan() if _scan is None else _scan
    threshold = estimate_quantile_threshold(pair, q, chunk_rows, threads=threads, _scan=scan)
    yield threshold
    graph = build_sparse_graph(pair, threshold, threads=threads, _scan=scan)
    if graph.edge_count == 0:
        # as warn(stacklevel=3), but with no registry: warn keeps one in the module it
        # names, so a message repeated from one line would show once per process
        caller = sys._getframe(2)
        warnings.warn_explicit(f"no inner product exceeds the cutoff {threshold.value!r}: the "
                               "graph has no edges and the order only follows the row index",
                               UserWarning, caller.f_code.co_filename, caller.f_lineno,
                               caller.f_globals.get("__name__"), module_globals=caller.f_globals)
    yield graph
    yield cuthill_mckee(graph, reverse=reverse)


def bandwidth_pipeline(
    pair: EmbeddingPair,
    q: float,
    k: int,
    chunk_rows: int | None = None,
    reverse: bool = True,
    threads: int = 1,
    *, _scan: _Scan | None = None,
) -> tuple[np.ndarray, BatchAssignment]:
    """Full reordering pipeline: threshold, sparsify, order, batch.

    Runs on the pair as given, so the caller decides normalization (the CLI
    normalizes on load): cutoff estimation at quantile ``q``, sparse graph
    construction, BFS bandwidth ordering (reversed by default), all in
    :func:`_stages`, then sequential batching.  Pure function of its
    inputs: repeated runs are bit-identical.  The CLI hands in its epoch's
    ``_scan``.
    """
    _check_batch_size(pair.n, k)
    *_, order = _stages(pair, q, chunk_rows, reverse, threads, _scan)
    return order, sequential_batches(order, k)


def format_batches(assignment: BatchAssignment) -> str:
    """Dump format: one ``batch_index: i1 i2 ... ik`` line per batch."""
    lines = [
        f"{ordinal}: " + " ".join(str(int(i)) for i in batch)
        for ordinal, batch in enumerate(assignment.batches)
    ]
    return "\n".join(lines) + "\n"
