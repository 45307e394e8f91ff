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
row blocks through ``similarity._row_parts``, so it can ride the cutoff
estimator's tile scan and then has no tile to multiply.  The second stacks
the batches of one shape (rows and candidates per batch) and multiplies
each stack with one ``np.matmul``, which still makes one BLAS call per
batch, so every batch's products have the bits of its own
``x[batch] @ y[candidates].T``.  A report reads the slot statistics and
both objectives from that one read-only stack; for a partition the
objectives' candidate products are the slot products themselves.

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

import numpy as np

from . import similarity
from ._parallel import chunk_spans, ordered_map
from .batching import BatchAssignment
from .errors import ObjectiveUndefined, ParameterError
from .io import EmbeddingPair
from .similarity import _row_parts


def _check_tau(tau: float) -> float:
    if not 0 < tau < inf:
        raise ParameterError(f"temperature must be positive and finite, got {tau}")
    return float(tau)


def _logsumexp_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp and maximum of each row (along the last axis) of ``z``.

    Exponentiates in place, so ``z`` is overwritten: read anything else
    from it before calling.
    """
    m = z.max(axis=-1)
    np.subtract(z, m[..., None], out=z)
    np.exp(z, out=z)
    return m + np.log(z.sum(axis=-1)), m


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


def _global_stats(pair: EmbeddingPair, tau: float, threads: int = 1) -> _GlobalStats:
    """Global stats of every row, in row order; blocks the pair's tile reader
    kept for :func:`_global_part` at this tau are not multiplied again."""
    tau = _check_tau(tau)
    return _GlobalStats(*_joined(_row_parts(pair, _global_part, (tau,), threads)))


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


@dataclass(eq=False)
class _Run:
    """Batches of one shape, stacked in batch order, and their products.

    ``candidates`` is ``batches`` itself for a partition and each batch's
    sorted distinct rows for an oversampled assignment.  Each product is
    multiplied on first use and is read-only.  (Not ``cached_property``:
    before Python 3.12 its lock spans all runs and queues the workers.)
    """

    pair: EmbeddingPair
    positions: np.ndarray  # (g,) the batches' ordinals in the assignment
    batches: np.ndarray  # (g, m) their rows
    candidates: np.ndarray  # (g, c)
    slot_index: np.ndarray  # (g, m) each row's slot, counted over the epoch
    _slots: np.ndarray | None = None
    _cross: np.ndarray | None = None

    def slots(self) -> np.ndarray:
        """(g, m, c): <x_i, y_j> for each slot i over its batch's candidates j."""
        if self._slots is None:
            self._slots = _stacked_products(self.pair, self.batches, self.candidates)
        return self._slots

    def cross(self) -> np.ndarray:
        """(g, c, c): <x_i, y_j> over pairs of one batch's candidates."""
        if self.candidates is self.batches:
            return self.slots()
        if self._cross is None:
            self._cross = _stacked_products(self.pair, self.candidates, self.candidates)
        return self._cross

    def positive_columns(self) -> np.ndarray:
        """(g, m): the column of each slot's own row among its candidates."""
        g, m = self.batches.shape
        if self.candidates is self.batches:
            return np.broadcast_to(np.arange(m), (g, m))
        shift = np.arange(g)[:, None] * self.pair.n  # one sorted sequence, batch after batch
        found = np.searchsorted((self.candidates + shift).ravel(), (self.batches + shift).ravel())
        return found.reshape(g, m) - np.arange(g)[:, None] * self.candidates.shape[1]


def _stacked_products(pair: EmbeddingPair, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """x[rows[b]] · y[cols[b]]ᵀ for every b, read-only.

    The operands are fresh contiguous stacks, so matmul makes for each b the
    call ``pair.x[rows[b]] @ pair.y[cols[b]].T`` makes, with its bits.
    """
    z = np.matmul(pair.x[rows], pair.y[cols].transpose(0, 2, 1))
    z.setflags(write=False)
    return z


def _batch_runs(pair: EmbeddingPair, assignment: BatchAssignment) -> list[_Run]:
    """The assignment's batches in runs of one shape.

    Batches with the same row and candidate counts form a group, in batch
    order, cut into runs of at most ``ROW_CHUNK`` slot rows (one batch at
    least).  Runs depend on sizes only, never on the worker count.
    """
    # BatchAssignment itself keeps every index inside 0..assignment.n-1
    if assignment.n != pair.n:
        raise ParameterError(
            f"assignment covers {assignment.n} samples, embeddings have {pair.n}"
        )
    batches = assignment.batches
    # an oversampled batch counts each sample once among its candidates
    candidates = [np.unique(b) for b in batches] if assignment.oversampled else batches
    sizes = np.array([b.size for b in batches], dtype=np.int64)
    first_slot = np.cumsum(sizes) - sizes
    groups: dict = {}
    for position, (b, c) in enumerate(zip(batches, candidates)):
        groups.setdefault((b.size, c.size), []).append(position)
    runs = []
    for (m, _), positions in groups.items():
        for start, stop in chunk_spans(len(positions), max(1, similarity.ROW_CHUNK // max(m, 1))):
            chosen = np.array(positions[start:stop])
            rows = np.stack([batches[p] for p in chosen])
            cands = np.stack([candidates[p] for p in chosen]) if assignment.oversampled else rows
            runs.append(_Run(pair, chosen, rows, cands, first_slot[chosen, None] + np.arange(m)))
    return runs


def _run_slot_stats(run: _Run, tau: float) -> tuple[np.ndarray, ...]:
    """(lse, positive, cand_min, cand_max) of each slot of ``run``, (g, m) each."""
    with np.errstate(all="ignore"):  # as in _global_part
        z = run.slots() / tau  # out of place: the objectives read the raw products
        positive = np.take_along_axis(z, run.positive_columns()[..., None], axis=2)[..., 0]
        cand_min = z.min(axis=2)
        lse, cand_max = _logsumexp_rows(z)
    return lse, positive, cand_min, cand_max


def _slot_stats(pair: EmbeddingPair, assignment: BatchAssignment, tau: float, threads: int = 1,
                runs: list[_Run] | None = None) -> _SlotStats:
    """Slot stats in slot order, from ``runs`` (default: the assignment's own)."""
    tau = _check_tau(tau)
    runs = _batch_runs(pair, assignment) if runs is None else runs
    parts = ordered_map(lambda run: _run_slot_stats(run, tau), runs, threads)
    where = np.concatenate([run.slot_index.ravel() for run in runs])

    def in_slot_order(values) -> np.ndarray:
        out = np.empty(where.size, dtype=values[0].dtype)
        out[where] = np.concatenate([v.ravel() for v in values])
        return out

    sample = in_slot_order([run.batches for run in runs])
    count = in_slot_order([np.full(run.batches.shape, run.candidates.shape[1]) for run in runs])
    lse, positive, cand_min, cand_max = map(in_slot_order, zip(*parts))
    return _SlotStats(sample, lse, positive, cand_min, cand_max, count)


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


def _per_batch(runs: list[_Run], fn) -> list[float]:
    """``fn`` of the candidate products of each run, one value per batch with
    two or more candidates, in batch order."""
    runs = [run for run in runs if run.candidates.shape[1] >= 2]
    if not runs:
        return []
    positions = np.concatenate([run.positions for run in runs])
    values = np.concatenate([fn(run.cross()) for run in runs])
    return values[np.argsort(positions)].tolist()


def _batch_minima(z: np.ndarray) -> np.ndarray:
    """Per batch of ``z`` (g, c, c), the smallest min(z_ij, z_ji) over i != j."""
    z = np.minimum(z, z.transpose(0, 2, 1))
    diagonal = np.arange(z.shape[1])
    z[:, diagonal, diagonal] = np.inf
    return z.reshape(len(z), -1).min(axis=1)


def _batch_totals(z: np.ndarray) -> np.ndarray:
    """Per batch of ``z`` (g, c, c), the sum of z_ij over i != j."""
    return z.reshape(len(z), -1).sum(axis=1) - np.trace(z, axis1=1, axis2=2)


def qbap_objective(pair: EmbeddingPair, assignment: BatchAssignment, *,
                   _runs: list[_Run] | None = None) -> float:
    """Smallest symmetric cross similarity over co-batched negative pairs.

    Raises ObjectiveUndefined when no batch holds two distinct samples.
    """
    runs = _batch_runs(pair, assignment) if _runs is None else _runs
    worst = min([inf, *_per_batch(runs, _batch_minima)])  # the first of equal minima
    if not isfinite(worst):
        raise ObjectiveUndefined("no batch contains a negative pair")
    return worst


def qap_objective(pair: EmbeddingPair, assignment: BatchAssignment, *,
                  _runs: list[_Run] | None = None) -> float:
    """Total in-batch cross similarity, both directions, over negative pairs.

    Equals sum_i sum_{j in batch(i), j != i} (<x_i,y_j> + <x_j,y_i>); zero
    when every batch is a singleton.
    """
    runs = _batch_runs(pair, assignment) if _runs is None else _runs
    total = 0.0
    for value in _per_batch(runs, _batch_totals):  # summed in batch order
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
    runs = _batch_runs(pair, assignment)  # one stack of products for the stats and objectives
    s = _slot_stats(pair, assignment, tau, threads, runs)
    global_loss, train_loss = _loss(g), _loss(s)
    ub_translation, ub_standard = _gap_bounds(g, s)
    try:
        qbap = qbap_objective(pair, assignment, _runs=runs)
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
        qap_value=qap_objective(pair, assignment, _runs=runs),
        strategy=strategy,
        quantile=quantile,
    )
