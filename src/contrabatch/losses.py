"""Temperature-scaled contrastive losses, their log-sum-exp envelopes, and
the batch objectives they induce.

Row i of ``x`` is scored against candidate rows of ``y`` through scaled
logits z_ij = <x_i, y_j> / tau, with the aligned row as the positive.  The
full-candidate ("global") loss lets every row see all N candidates; the
in-batch ("training") loss restricts each row to the candidates sharing its
batch.  All log-sum-exp terms subtract the row maximum first, so losses
stay finite at temperatures where the naive exponentials overflow.

Per-row envelope identities (count = number of candidates in the sum):

    max_j z_j <= logsumexp_j z_j <= max_j z_j + log(count)
    logsumexp_j z_j >= min_j z_j + log(count)

Chaining them bounds the training loss from below, the global loss from
above, and their gap from both sides.  The gap bounds use log(N/count) per
row with the row's actual candidate count, which reduces to the familiar
log(N/k) when every batch is full.

Every loss and bound derives from two scans: one over all N candidates
per sample, one over the in-batch candidates per slot.  The first reads
row blocks through ``similarity._Scan.read``, so it multiplies no tile that
an earlier stage of the epoch walked, and each report of an epoch given the
epoch's scan reads the blocks it kept.  The second stacks
the batches of one shape (rows and candidates per batch) into runs of at
most ``similarity._BLOCK_BYTES`` of products, or of the gathered operands
where d outweighs the batch, and multiplies each run with
one ``np.matmul``, which still makes one BLAS call per batch, so every
batch's products have the bits of its own ``x[batch] @ y[candidates].T``.

A run's rows are short (k entries), and NumPy reduces short rows slowly,
so each run copies its raw products once with the candidates first, (c, g,
m), and reduces element-wise across that copy: each row's maximum, then,
with the copy's diagonal masked, each row's off-diagonal minimum.  For a
partition a slot's minimum is the smaller of that and its positive, read
off the diagonal, and each batch's bottleneck value is the least of its
rows' off-diagonal minima; each batch's total is summed from the raw
products.  Maxima, minima and positives are then divided by tau (monotone,
so they equal the reads of the scaled products bit for bit), and only the
exp-sums scale the products in place, summing along their contiguous rows
as before.  That copy replaces the one ``_batch_minima`` made, so a run
still holds its products and one copy of them, each within the budget,
and drops both before the next run is multiplied.  For a partition the
objectives' candidate products are the slot products themselves; an
oversampled run multiplies its distinct candidates once more and reads
their minima the same way.

Two scalar objectives summarize how hard a batch assignment is:

* bottleneck objective -- the smallest symmetric in-batch cross similarity
  min(<x_i,y_j>, <x_j,y_i>) over co-batched pairs i != j (larger is better);
* total objective -- the sum of <x_i,y_j> + <x_j,y_i> over ordered
  co-batched pairs i != j (larger is better).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from math import inf, isfinite, log
from typing import NamedTuple

import numpy as np

from . import similarity
from ._parallel import chunk_spans, ordered_map
from .batching import BatchAssignment
from .errors import ObjectiveUndefined, ParameterError
from .io import EmbeddingPair
from .similarity import _Scan, _sorted_unique


def _check_tau(tau: float) -> float:
    if not 0 < tau < inf:
        raise ParameterError(f"temperature must be positive and finite, got {tau}")
    return float(tau)


def _logsumexp_rows(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row (along the last axis) of ``z``, ``m`` its maxima.

    Exponentiates in place, so ``z`` is overwritten: read anything else
    from it before calling.
    """
    np.subtract(z, m[..., None], out=z)
    np.exp(z, out=z)
    return m + np.log(z.sum(axis=-1))


class _GlobalStats:
    """Per-sample logit summaries over the full candidate set."""

    __slots__ = ("lse", "row_max", "positive")

    def __init__(self, lse: np.ndarray, row_max: np.ndarray, positive: np.ndarray):
        self.lse, self.row_max, self.positive = lse, row_max, positive


def _joined(parts) -> tuple[np.ndarray, ...]:
    """Concatenate per-row parts, field by field, in the order given."""
    return tuple(map(np.concatenate, zip(*parts)))


def _global_part(rows: tuple[int, int], z: np.ndarray, tau: float) -> tuple[np.ndarray, ...]:
    """(lse, row_max, positive) of the product rows ``rows`` in ``z``; overwrites ``z``.

    Logits that overflow give non-finite parts, which the report rejects,
    without floating-point warnings (pool threads do not inherit errstate).
    """
    with np.errstate(all="ignore"):
        z /= tau
        positive = z.diagonal(rows[0]).copy()
        m = z.max(axis=-1)
        return _logsumexp_rows(z, m), m, positive


def _global_stats(pair: EmbeddingPair, tau: float, threads: int = 1,
                  _scan: _Scan | None = None) -> _GlobalStats:
    """Global stats of every row, in row order; blocks the epoch's ``_scan``
    kept for :func:`_global_part` at this tau are not multiplied again."""
    tau = _check_tau(tau)
    return _GlobalStats(*_joined((_scan or _Scan()).read(pair, (_global_part, (tau,)), threads)))


class _SlotStats:
    """Per-slot logit summaries over each slot's in-batch candidate set.

    For partition assignments slots coincide with samples.  Oversampled
    assignments contribute one slot per recorded batch entry; their
    candidate sets are de-duplicated so no inner product is double-counted
    inside one batch.  ``sample`` is the original row index of each slot.
    """

    __slots__ = ("sample", "lse", "positive", "cand_min", "cand_max", "cand_count")

    def __init__(self, sample: np.ndarray, lse: np.ndarray, positive: np.ndarray,
                 cand_min: np.ndarray, cand_max: np.ndarray, cand_count: np.ndarray):
        self.sample, self.lse, self.positive = sample, lse, positive
        self.cand_min, self.cand_max, self.cand_count = cand_min, cand_max, cand_count


class _Stack(NamedTuple):
    """Batches of one shape, in batch order: one run of the in-batch pass.

    ``candidates`` is ``rows`` itself for a partition and each batch's
    sorted distinct rows for an oversampled assignment.
    """

    positions: np.ndarray  # (g,) the batches' ordinals in the assignment
    rows: np.ndarray  # (g, m) their rows
    candidates: np.ndarray  # (g, c)
    slot_index: np.ndarray  # (g, m) each row's slot, counted over the epoch


def _stacked_products(pair: EmbeddingPair, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """x[rows[b]] · y[cols[b]]ᵀ for every b.

    The operands are fresh contiguous stacks, so matmul makes for each b the
    call ``pair.x[rows[b]] @ pair.y[cols[b]].T`` makes, with its bits.
    """
    return np.matmul(pair.x.take(rows, axis=0), pair.y.take(cols, axis=0).transpose(0, 2, 1))


def _batch_runs(pair: EmbeddingPair, assignment: BatchAssignment) -> list[_Stack]:
    """The assignment's batches in runs of one shape.

    Batches with the same row and candidate counts form a group, in batch
    order, cut into runs of at most ``similarity._BLOCK_BYTES`` of slot
    products, or of gathered operands where d outweighs the batch (one batch
    at least).  ``np.matmul`` makes one BLAS call per batch of a stack, so a
    run's size sets its bytes, never its bits.  Runs depend on sizes only,
    never on the worker count.
    """
    # BatchAssignment itself keeps every index inside 0..assignment.n-1
    if assignment.n != pair.n:
        raise ParameterError(
            f"assignment covers {assignment.n} samples, embeddings have {pair.n}"
        )
    batches = assignment.batches
    # an oversampled batch counts each sample once among its candidates; np.unique
    # would import numpy.ma
    candidates = [_sorted_unique(b) for b in batches] if assignment.oversampled else batches
    sizes = np.array([b.size for b in batches], dtype=np.int64)
    first_slot = np.cumsum(sizes) - sizes
    sample = np.concatenate(batches)  # each slot's row
    groups: dict = {}
    for position, (b, c) in enumerate(zip(batches, candidates)):
        groups.setdefault((b.size, c.size), []).append(position)
    runs = []
    for (m, c), positions in groups.items():
        per_run = max(1, similarity._BLOCK_BYTES // (8 * max(m * c, (m + c) * pair.dim)))
        for start, stop in chunk_spans(len(positions), per_run):
            chosen = np.array(positions[start:stop])
            slot_index = first_slot[chosen, None] + np.arange(m)
            rows = sample[slot_index]
            cands = np.stack([candidates[p] for p in chosen]) if assignment.oversampled else rows
            runs.append(_Stack(chosen, rows, cands, slot_index))
    return runs


def _positive_columns(run: _Stack, n: int) -> np.ndarray:
    """(g, m): the column of each slot's own row among an oversampled run's
    candidates."""
    g, m = run.rows.shape
    shift = np.arange(g)[:, None] * n  # one sorted sequence, batch after batch
    found = np.searchsorted((run.candidates + shift).ravel(), (run.rows + shift).ravel())
    return found.reshape(g, m) - np.arange(g)[:, None] * run.candidates.shape[1]


def _columns_first(z: np.ndarray) -> np.ndarray:
    """A copy of ``z`` (g, m, c) laid out (c, g, m), so each row's reduction
    runs element-wise over contiguous (g, m) planes: NumPy reduces short rows
    slowly."""
    return z.transpose(2, 0, 1).copy()


def _off_diagonal_minima(t: np.ndarray) -> np.ndarray:
    """Per row i of a columns-first copy ``t`` of square batches, the smallest
    entry j != i; masks ``t``'s diagonal in place."""
    diagonal = np.arange(len(t))
    t[diagonal, :, diagonal] = np.inf
    return t.min(axis=0)


def _run_pass(pair: EmbeddingPair, run: _Stack, tau: float | None, objectives: bool) -> tuple:
    """(slot stats, per-batch values) of one run; its products die with the call.

    The slot stats are one (4, g, m) array, lse, positive, cand_min and
    cand_max, or None when ``tau`` is None.  With ``objectives``, and two
    candidates or more a batch, the per-batch values are (minima, totals),
    (g,) each.  Every maximum, minimum and positive is read from the raw
    products, then divided by tau: division by tau > 0 is monotone, so
    min/max(z)/tau is min/max(z/tau) bit for bit.  Only then are the products
    scaled in place, for the exp-sums.
    """
    partition = run.candidates is run.rows
    per_batch = ()
    pairs = objectives and run.candidates.shape[1] >= 2
    if pairs and not partition:
        cross = _stacked_products(pair, run.candidates, run.candidates)
        per_batch = _batch_minima(cross), _batch_totals(cross)
    if tau is None and not partition:
        return None, per_batch
    z = _stacked_products(pair, run.rows, run.candidates)
    t = _columns_first(z)
    top = t.max(axis=0)
    if partition:  # the slot products are the cross products; positives on the diagonal
        low = _off_diagonal_minima(t)
        positive = z.diagonal(0, 1, 2)
        bottom = np.minimum(low, positive)
        if pairs:
            per_batch = low.min(axis=1), _batch_totals(z)
    else:
        positive = np.take_along_axis(z, _positive_columns(run, pair.n)[..., None], axis=2)[..., 0]
        bottom = t.min(axis=0)
    if tau is None:
        return None, per_batch
    stats = np.empty((4, *run.rows.shape))  # lse, positive, cand_min, cand_max
    with np.errstate(all="ignore"):  # as in _global_part
        np.divide((positive, bottom, top), tau, out=stats[1:])
        z /= tau
        stats[0] = _logsumexp_rows(z, stats[3])
    return stats, per_batch


def _in_batch(pair: EmbeddingPair, assignment: BatchAssignment, tau: float | None,
              threads: int = 1, objectives: bool = False) -> tuple:
    """The in-batch pass: one :func:`_run_pass` per run, at ``threads``.

    Returns the slot stats in slot order, which is batch order (None when
    ``tau`` is None), and each batch's minimum and total in batch order:
    +inf and 0.0 for a batch of fewer than two candidates or without
    ``objectives``, which change neither objective.
    """
    runs = _batch_runs(pair, assignment)
    parts = ordered_map(lambda run: _run_pass(pair, run, tau, objectives), runs, threads)
    batches = assignment.batches
    minima, totals = np.full(len(batches), inf), np.zeros(len(batches))
    sample = np.concatenate(batches)
    stats, count = np.empty((4, sample.size)), np.empty(sample.size, dtype=np.int64)
    for run, (slot_values, per_batch) in zip(runs, parts):
        if slot_values is not None:
            stats[:, run.slot_index] = slot_values
            count[run.slot_index] = run.candidates.shape[1]
        if per_batch:
            minima[run.positions], totals[run.positions] = per_batch
    slots = None if tau is None else _SlotStats(sample, *stats, count)
    return slots, minima, totals


def _slot_stats(pair: EmbeddingPair, assignment: BatchAssignment, tau: float,
                threads: int = 1) -> _SlotStats:
    """Slot stats in slot order; no batch's objectives are read."""
    return _in_batch(pair, assignment, _check_tau(tau), threads)[0]


def _loss(stats: _GlobalStats | _SlotStats) -> float:
    """Mean contrast loss, lse - positive, over the rows of a scan."""
    with np.errstate(all="ignore"):  # overflowed logits: a non-finite loss, no warning
        return float(np.sum(stats.lse - stats.positive) / stats.lse.size)


def _gap_bounds(g: _GlobalStats, s: _SlotStats) -> tuple[float, float]:
    n, slots = g.lse.size, s.lse.size
    row_max = g.row_max[s.sample]
    with np.errstate(all="ignore"):  # as in _loss
        translation = np.sum(row_max - s.cand_min + np.log(n / s.cand_count)) / slots
        standard = np.sum(row_max - s.cand_max) / slots + log(n)
    return float(translation), float(standard)


def ntxent_global(pair: EmbeddingPair, tau: float, threads: int = 1) -> float:
    """Contrast loss with every sample scored against all N candidates."""
    return _loss(_global_stats(pair, tau, threads))


def ntxent_train(
    pair: EmbeddingPair, assignment: BatchAssignment, tau: float, threads: int = 1
) -> float:
    """Contrast loss with each sample restricted to its in-batch candidates.

    Partition assignments average over the N samples; oversampled ones
    average over all recorded slots (2N for the mined-negative baseline).
    """
    return _loss(_slot_stats(pair, assignment, tau, threads))


def lse_component_bounds(
    pair: EmbeddingPair, assignment: BatchAssignment, tau: float
) -> tuple[float, float, float]:
    """Envelope values (ub_global, lb_train_standard, lb_train_translation).

    Guarantees lb_train_* <= training loss <= global loss <= ub_global for
    partition assignments, up to accumulation noise well under 1e-9.
    """
    g = _global_stats(pair, tau)
    s = _slot_stats(pair, assignment, tau)
    slots = s.lse.size
    with np.errstate(all="ignore"):  # as in _loss
        ub_global = float(np.sum(g.row_max - g.positive) / pair.n + log(pair.n))
        lb_standard = float(np.sum(s.cand_max - s.positive) / slots)
        lb_translation = float(np.sum(s.cand_min - s.positive + np.log(s.cand_count)) / slots)
    return ub_global, lb_standard, lb_translation


def gap_upper_bounds(
    pair: EmbeddingPair, assignment: BatchAssignment, tau: float
) -> tuple[float, float]:
    """Upper bounds on (global - training) loss: (translation, standard).

    Per slot with candidate set U and row maximum taken over all N columns:

        translation branch: max_j z - min_U z + log(N / |U|)
        standard branch:    max_j z - max_U z + log N

    Both average over slots; the true gap never exceeds either bound for
    partition assignments.
    """
    return _gap_bounds(_global_stats(pair, tau), _slot_stats(pair, assignment, tau))


def _batch_minima(z: np.ndarray) -> np.ndarray:
    """Per batch of ``z`` (g, c, c), the smallest min(z_ij, z_ji) over i != j:
    the smallest off-diagonal z_ij, read from one columns-first copy."""
    return _off_diagonal_minima(_columns_first(z)).min(axis=1)


def _batch_totals(z: np.ndarray) -> np.ndarray:
    """Per batch of ``z`` (g, c, c), the sum of z_ij over i != j."""
    return z.reshape(len(z), -1).sum(axis=1) - np.trace(z, axis1=1, axis2=2)


def qbap_objective(pair: EmbeddingPair, assignment: BatchAssignment, *,
                   _minima: np.ndarray | None = None) -> float:
    """Smallest symmetric cross similarity over co-batched negative pairs.

    Raises ObjectiveUndefined when no batch holds two distinct samples.
    ``_minima`` are the per-batch values of :func:`_in_batch`, if read.
    """
    if _minima is None:
        _minima = _in_batch(pair, assignment, None, objectives=True)[1]
    worst = min([inf, *_minima.tolist()])  # the first of equal minima
    if not isfinite(worst):
        raise ObjectiveUndefined("no batch contains a negative pair")
    return worst


def qap_objective(pair: EmbeddingPair, assignment: BatchAssignment, *,
                  _totals: np.ndarray | None = None) -> float:
    """Total in-batch cross similarity, both directions, over negative pairs.

    Equals sum_i sum_{j in batch(i), j != i} (<x_i,y_j> + <x_j,y_i>); zero
    when every batch is a singleton.  ``_totals`` are the per-batch values
    of :func:`_in_batch`, if read.
    """
    if _totals is None:
        _totals = _in_batch(pair, assignment, None, objectives=True)[2]
    total = 0.0
    for value in _totals.tolist():  # summed in batch order
        total += 2.0 * value
    return total


def _json_value(v) -> str:
    """JSON text for None, strings, dicts, sequences, integers and floats.

    Floats keep 17 significant digits, so float64 values round-trip.
    Non-finite floats have no JSON form; they raise ParameterError.
    """
    if v is None or isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_value(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(map(_json_value, v)) + "]"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if not isfinite(v):
        raise ParameterError(f"non-finite value {v} cannot be written as JSON")
    return format(float(v), ".17g")


@dataclass(frozen=True)
class GapReport:
    """Losses, gap, gap bounds, and batch objectives for one assignment."""

    n: int
    k: int
    tau: float
    global_loss: float
    train_loss: float
    gap: float
    ub_gap_translation: float
    ub_gap_standard: float
    qbap_value: float | None
    qap_value: float
    strategy: str | None = None
    quantile: float | None = None

    def to_json(self) -> str:
        """Serialize in field order with 17 significant digits on every float.

        Raises ParameterError when a value is NaN or infinite.
        """
        return _json_value({f.name: getattr(self, f.name) for f in fields(self)})


def gap_report(
    pair: EmbeddingPair,
    assignment: BatchAssignment,
    tau: float,
    strategy: str | None = None,
    quantile: float | None = None,
    threads: int = 1,
    *, _scan: _Scan | None = None,
) -> GapReport:
    """Assemble losses, bounds, and objectives for one batch assignment.

    ``qbap_value`` is null when every batch is a singleton (k = 1), where
    the bottleneck objective has no pairs to range over.  The global loss
    reads what the epoch's ``_scan`` kept of it, if given.
    """
    g = _global_stats(pair, tau, threads, _scan)
    s, minima, totals = _in_batch(pair, assignment, _check_tau(tau), threads, objectives=True)
    global_loss, train_loss = _loss(g), _loss(s)
    ub_translation, ub_standard = _gap_bounds(g, s)
    try:
        qbap = qbap_objective(pair, assignment, _minima=minima)
    except ObjectiveUndefined:
        qbap = None
    return GapReport(
        n=pair.n,
        k=assignment.k,
        tau=float(tau),
        global_loss=global_loss,
        train_loss=train_loss,
        gap=global_loss - train_loss,
        ub_gap_translation=ub_translation,
        ub_gap_standard=ub_standard,
        qbap_value=qbap,
        qap_value=qap_objective(pair, assignment, _totals=totals),
        strategy=strategy,
        quantile=quantile,
    )
