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
per sample, one over the in-batch candidates per slot.  The first can ride
the cutoff estimator's tile scan (a pair's tile reader, see
``similarity``), which leaves it no tile to multiply.

Two scalar objectives summarize how hard a batch assignment is:

* bottleneck objective -- the smallest symmetric in-batch cross similarity
  min(<x_i,y_j>, <x_j,y_i>) over co-batched pairs i != j (larger is better);
* total objective -- the sum of <x_i,y_j> + <x_j,y_i> over ordered
  co-batched pairs i != j (larger is better).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from math import inf, isfinite, log

import numpy as np

from ._parallel import ordered_map
from .batching import BatchAssignment
from .errors import ObjectiveUndefined, ParameterError
from .io import EmbeddingPair
from .similarity import _map_tiles, _row_blocks


def _check_tau(tau: float) -> float:
    if not 0 < tau < inf:
        raise ParameterError(f"temperature must be positive and finite, got {tau}")
    return float(tau)


def _batch_candidates(
    pair: EmbeddingPair, assignment: BatchAssignment
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(batch, candidate rows) per batch; an oversampled batch counts each sample once."""
    # BatchAssignment itself keeps every index inside 0..assignment.n-1
    if assignment.n != pair.n:
        raise ParameterError(
            f"assignment covers {assignment.n} samples, embeddings have {pair.n}"
        )
    return [(b, np.unique(b) if assignment.oversampled else b) for b in assignment.batches]


def _logsumexp_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row log-sum-exp and row maximum of ``z``.

    Exponentiates in place, so ``z`` is overwritten: read anything else
    from it before calling.
    """
    m = z.max(axis=1)
    np.subtract(z, m[:, None], out=z)
    np.exp(z, out=z)
    return m + np.log(z.sum(axis=1)), m


@dataclass(frozen=True)
class _GlobalStats:
    """Per-sample logit summaries over the full candidate set."""

    lse: np.ndarray
    row_max: np.ndarray
    positive: np.ndarray


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
        return (*_logsumexp_rows(z), positive)


def _global_tile(span: tuple[int, int], z: np.ndarray, tau: float) -> tuple[np.ndarray, ...]:
    """:func:`_global_part` of a whole tile product, a row block at a time."""
    return _joined(_global_part(rows, block, tau) for rows, block in _row_blocks(span, z))


class _GlobalReader:
    """Tile reader that keeps the global-stats parts of the blocks it is given.

    Set on a pair by :func:`_reading_global_stats`; :func:`_global_stats`
    at the same tau then takes these parts instead of multiplying the tiles
    again.  A part is the same function of the same product bits either
    way, so the stats are bit-identical.
    """

    def __init__(self, tau: float):
        self.tau = tau
        self.parts: dict = {}  # span -> (x, y, block parts): the arrays they were read from

    def __call__(self, pair: EmbeddingPair, span: tuple[int, int], rows: tuple[int, int],
                 block: np.ndarray) -> None:
        if rows[0] == span[0]:  # a tile's blocks come in row order, from one thread
            self.parts[span] = (pair.x, pair.y, [])
        self.parts[span][2].append(_global_part(rows, block, self.tau))

    def parts_for(self, pair: EmbeddingPair, tau: float) -> dict:
        """The tile parts read from ``pair`` at ``tau``, by span."""
        if tau != self.tau:
            return {}
        return {span: _joined(blocks) for span, (x, y, blocks) in self.parts.items()
                if x is pair.x and y is pair.y}


def _reading_global_stats(pair: EmbeddingPair, tau: float) -> EmbeddingPair:
    """``pair`` with a :class:`_GlobalReader` at ``tau`` as its tile reader."""
    return replace(pair, _tile_reader=_GlobalReader(_check_tau(tau)))


def _global_stats(pair: EmbeddingPair, tau: float, threads: int = 1) -> _GlobalStats:
    """Global stats over the row tiles, in row order; a tile the pair's reader
    already read at this tau is not multiplied again."""
    tau = _check_tau(tau)
    reader = pair._tile_reader
    done = reader.parts_for(pair, tau) if isinstance(reader, _GlobalReader) else None
    parts = _map_tiles(pair, lambda span, z: _global_tile(span, z, tau), threads, done)
    return _GlobalStats(*_joined(parts))


@dataclass(frozen=True)
class _SlotStats:
    """Per-slot logit summaries over each slot's in-batch candidate set.

    For partition assignments slots coincide with samples.  Oversampled
    assignments contribute one slot per recorded batch entry; their
    candidate sets are de-duplicated so no inner product is double-counted
    inside one batch.
    """

    sample: np.ndarray  # original row index of each slot
    lse: np.ndarray
    positive: np.ndarray
    cand_min: np.ndarray
    cand_max: np.ndarray
    cand_count: np.ndarray


def _slot_stats(
    pair: EmbeddingPair, assignment: BatchAssignment, tau: float, threads: int = 1
) -> _SlotStats:
    tau = _check_tau(tau)

    def scan(item: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
        batch, candidates = item
        z = pair.x[batch] @ pair.y[candidates].T
        rows = np.arange(batch.size)
        cols = np.searchsorted(candidates, batch) if assignment.oversampled else rows
        with np.errstate(all="ignore"):  # as in _global_part
            z /= tau
            positive, cand_min = z[rows, cols], z.min(axis=1)
            lse, cand_max = _logsumexp_rows(z)
        count = np.full(batch.size, candidates.size, dtype=np.int64)
        return batch, lse, positive, cand_min, cand_max, count

    parts = ordered_map(scan, _batch_candidates(pair, assignment), threads)
    return _SlotStats(*map(np.concatenate, zip(*parts)))


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


def _cross_blocks(pair: EmbeddingPair, assignment: BatchAssignment):
    """Yield <x_i,y_j> over the candidates of each batch with two or more."""
    for _, candidates in _batch_candidates(pair, assignment):
        if candidates.size >= 2:
            yield pair.x[candidates] @ pair.y[candidates].T


def qbap_objective(pair: EmbeddingPair, assignment: BatchAssignment) -> float:
    """Smallest symmetric cross similarity over co-batched negative pairs.

    Raises ObjectiveUndefined when no batch holds two distinct samples.
    """
    worst = np.inf
    for m in _cross_blocks(pair, assignment):
        z = np.minimum(m, m.T)
        np.fill_diagonal(z, np.inf)
        worst = min(worst, float(z.min()))
    if not np.isfinite(worst):
        raise ObjectiveUndefined("no batch contains a negative pair")
    return worst


def qap_objective(pair: EmbeddingPair, assignment: BatchAssignment) -> float:
    """Total in-batch cross similarity, both directions, over negative pairs.

    Equals sum_i sum_{j in batch(i), j != i} (<x_i,y_j> + <x_j,y_i>); zero
    when every batch is a singleton.
    """
    total = 0.0
    for m in _cross_blocks(pair, assignment):
        total += 2.0 * float(m.sum() - np.trace(m))
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
) -> GapReport:
    """Assemble losses, bounds, and objectives for one batch assignment.

    ``qbap_value`` is null when every batch is a singleton (k = 1), where
    the bottleneck objective has no pairs to range over.
    """
    g = _global_stats(pair, tau, threads)
    return _report(pair, g, assignment, tau, strategy, quantile, threads)


def _report(pair: EmbeddingPair, g: _GlobalStats, assignment: BatchAssignment, tau: float,
            strategy: str | None, quantile: float | None, threads: int) -> GapReport:
    """``gap_report`` with the assignment-free global stats ``g`` given."""
    s = _slot_stats(pair, assignment, tau, threads)
    global_loss, train_loss = _loss(g), _loss(s)
    ub_translation, ub_standard = _gap_bounds(g, s)
    try:
        qbap = qbap_objective(pair, assignment)
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
        qap_value=qap_objective(pair, assignment),
        strategy=strategy,
        quantile=quantile,
    )
