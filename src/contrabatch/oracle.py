"""Exhaustive solvers over all fixed-block-size partitions at toy scale.

Each solver enumerates every way to split {0..N-1} into unordered blocks of
size k (one short block of size N mod k when k does not divide N) and picks
the partition optimizing its objective.  Enumeration is canonical -- the
smallest unassigned index opens each new block -- so every partition is
produced exactly once, in lexicographic order; ties therefore resolve to
the lexicographically smallest optimum.

These exist to validate the heuristics and objective definitions, not to
solve anything at production size: factorial growth is capped hard.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import factorial

import numpy as np

from .bandwidth import _MAX_EXHAUSTIVE_NODES
from .batching import BatchAssignment
from .errors import CapacityError, ObjectiveUndefined, ParameterError
from .io import EmbeddingPair
from .losses import _check_tau, _logsumexp_rows, ntxent_global

_MAX_PARTITIONS = 10**6


@dataclass(frozen=True)
class OracleResult:
    best_value: float
    best_assignment: BatchAssignment
    enumerated_count: int


def partition_count(n: int, k: int) -> int:
    """Number of unordered partitions into blocks of size k (last short)."""
    full, rest = divmod(n, k)
    count = factorial(n) // (factorial(k) ** full * factorial(full))
    if rest:
        count //= factorial(rest)
    return count


def iter_block_partitions(n: int, k: int):
    """Yield each partition once as a tuple of sorted index tuples.

    Blocks appear ordered by their smallest element.  With a short block
    present, the opener of every block chooses between the two remaining
    block sizes, which covers partitions where the short block is any of
    the blocks.
    """
    if not 1 <= k <= n:
        raise ParameterError(f"block size must lie in [1, {n}], got {k}")
    full, rest = divmod(n, k)

    def recurse(remaining: tuple[int, ...], fulls_left: int, shorts_left: int):
        if not remaining:
            yield ()
            return
        opener, rest_items = remaining[0], remaining[1:]
        sizes = set()
        if fulls_left:
            sizes.add(k)
        if shorts_left:
            sizes.add(rest)
        for size in sorted(sizes):
            for companions in combinations(rest_items, size - 1):
                block = (opener,) + companions
                leftover = tuple(i for i in rest_items if i not in companions)
                consumed_full = size == k
                for tail in recurse(
                    leftover,
                    fulls_left - consumed_full,
                    shorts_left - (not consumed_full),
                ):
                    yield (block,) + tail

    yield from recurse(tuple(range(n)), full, 1 if rest else 0)


def _assignment_from_partition(partition, n: int, k: int) -> BatchAssignment:
    # Sequential batching puts the short block last; reorder to match.
    blocks = sorted(partition, key=lambda b: (len(b) != k, b))
    order = np.array([i for block in blocks for i in block], dtype=np.int64)
    batches = tuple(np.array(block, dtype=np.int64) for block in blocks)
    return BatchAssignment(n=n, k=k, batches=batches, perm=order)


def _guard(pair: EmbeddingPair, k: int) -> None:
    n = pair.n
    if n > _MAX_EXHAUSTIVE_NODES:
        raise CapacityError(f"exhaustive enumeration limited to {_MAX_EXHAUSTIVE_NODES} "
                            f"samples, got {n}")
    if not 1 <= k <= n:
        raise ParameterError(f"block size must lie in [1, {n}], got {k}")
    if partition_count(n, k) > _MAX_PARTITIONS:
        raise CapacityError("too many partitions to enumerate")


def exhaustive_qbap(pair: EmbeddingPair, k: int) -> OracleResult:
    """Partition maximizing the smallest in-batch symmetric similarity."""
    _guard(pair, k)
    if k < 2:
        raise ObjectiveUndefined("bottleneck objective needs blocks of size >= 2")
    m = pair.x @ pair.y.T
    z = np.minimum(m, m.T)

    def value(partition) -> float:
        worst = np.inf
        for block in partition:
            if len(block) < 2:
                continue
            sub = z[np.ix_(block, block)]
            worst = min(worst, float(np.min(sub[~np.eye(len(block), dtype=bool)])))
        return worst

    return _maximize(pair, k, value)


def exhaustive_qap(pair: EmbeddingPair, k: int) -> OracleResult:
    """Partition maximizing total in-batch cross similarity (both directions)."""
    _guard(pair, k)
    m = pair.x @ pair.y.T

    def value(partition) -> float:
        total = 0.0
        for block in partition:
            sub = m[np.ix_(block, block)]
            total += 2.0 * float(sub.sum() - np.trace(sub))
        return total

    return _maximize(pair, k, value)


def exhaustive_min_gap(pair: EmbeddingPair, k: int, tau: float) -> OracleResult:
    """Partition minimizing the gap between global and in-batch losses.

    Maximizes the negated gap; negation is exact, so ties still resolve
    to the first canonical partition.
    """
    _guard(pair, k)
    tau = _check_tau(tau)
    global_loss = ntxent_global(pair, tau)
    with np.errstate(all="ignore"):  # overflowed logits: a NaN gap, which _maximize rejects
        z = pair.x @ pair.y.T / tau

    def negated_gap(partition) -> float:
        total = 0.0
        for block in partition:
            sub = z[np.ix_(block, block)]
            positive = sub.diagonal().copy()
            with np.errstate(all="ignore"):  # as above
                total += float(np.sum(_logsumexp_rows(sub)[0] - positive))
        return -(global_loss - total / pair.n)

    result = _maximize(pair, k, negated_gap)
    return replace(result, best_value=-result.best_value)


def _maximize(pair: EmbeddingPair, k: int, value) -> OracleResult:
    best = -np.inf
    best_partition = None
    count = 0
    for partition in iter_block_partitions(pair.n, k):
        count += 1
        v = value(partition)
        if v > best:
            best = v
            best_partition = partition
    if best_partition is None:
        raise ParameterError("objective is NaN or -inf on every partition")
    return OracleResult(
        best_value=float(best),
        best_assignment=_assignment_from_partition(best_partition, pair.n, k),
        enumerated_count=count,
    )
