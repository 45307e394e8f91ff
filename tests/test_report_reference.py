"""A gap report's in-batch scans against the per-batch reference.

The reference is the report as first written: every batch multiplied on its
own, once for its slot statistics and once more for each objective, and the
results joined in batch order.  The library stacks the batches of one shape
and reads all three from one product per batch; every slot statistic, both
objectives and the report bytes must come out the same.
"""

import numpy as np
import pytest

from contrabatch import (
    BatchAssignment,
    EmbeddingPair,
    ParameterError,
    gap_report,
    hard_negative_batches,
    random_batches,
)
from contrabatch import losses, similarity
from contrabatch.losses import GapReport, _SlotStats
from conftest import clustered_pair, random_pair


def reference_slot_stats(pair, assignment, tau) -> _SlotStats:
    parts = []
    for batch in assignment.batches:
        candidates = np.unique(batch) if assignment.oversampled else batch
        z = pair.x[batch] @ pair.y[candidates].T
        rows = np.arange(batch.size)
        cols = np.searchsorted(candidates, batch) if assignment.oversampled else rows
        with np.errstate(all="ignore"):
            z /= tau
            positive, cand_min = z[rows, cols], z.min(axis=1)
            cand_max = z.max(axis=1)
            np.subtract(z, cand_max[:, None], out=z)
            np.exp(z, out=z)
            lse = cand_max + np.log(z.sum(axis=1))
        count = np.full(batch.size, candidates.size, dtype=np.int64)
        parts.append((batch, lse, positive, cand_min, cand_max, count))
    return _SlotStats(*map(np.concatenate, zip(*parts)))


def reference_cross_blocks(pair, assignment):
    for batch in assignment.batches:
        candidates = np.unique(batch) if assignment.oversampled else batch
        if candidates.size >= 2:
            yield pair.x[candidates] @ pair.y[candidates].T


def reference_qbap(pair, assignment) -> float | None:
    worst = np.inf
    for m in reference_cross_blocks(pair, assignment):
        z = np.minimum(m, m.T)
        np.fill_diagonal(z, np.inf)
        worst = min(worst, float(z.min()))
    return worst if np.isfinite(worst) else None


def reference_qap(pair, assignment) -> float:
    total = 0.0
    for m in reference_cross_blocks(pair, assignment):
        total += 2.0 * float(m.sum() - np.trace(m))
    return total


def reference_report(pair, assignment, tau) -> GapReport:
    g = losses._global_stats(pair, tau)
    s = reference_slot_stats(pair, assignment, tau)
    global_loss, train_loss = losses._loss(g), losses._loss(s)
    ub_translation, ub_standard = losses._gap_bounds(g, s)
    return GapReport(n=pair.n, k=assignment.k, tau=tau, global_loss=global_loss,
                     train_loss=train_loss, gap=global_loss - train_loss,
                     ub_gap_translation=ub_translation, ub_gap_standard=ub_standard,
                     qbap_value=reference_qbap(pair, assignment),
                     qap_value=reference_qap(pair, assignment))


def hand_cut(n: int, sizes: list[int], seed: int) -> BatchAssignment:
    """A partition of a random order into batches of ``sizes``, short ones
    between full ones."""
    order = np.random.default_rng(seed).permutation(n).astype(np.int64)
    assert sum(sizes) == n
    bounds = np.cumsum([0] + sizes)
    return BatchAssignment(n=n, k=max(sizes), batches=tuple(
        order[a:b].copy() for a, b in zip(bounds[:-1], bounds[1:])), perm=order)


def duplicated_pair():
    """Clustered rows, one in eight a copy of row 0: mined batches repeat samples."""
    pair, _ = clustered_pair(1536, 16, 24, noise=0.1, seed=61)
    x, y = pair.x.copy(), pair.y.copy()
    x[::8] = x[0]
    y[::8] = y[0]
    return EmbeddingPair(x, y)


def anti_aligned_pair():
    """y = -x: each row's own product, -1, is the smallest in its batch."""
    x = random_pair(300, 8, seed=67).x
    return EmbeddingPair(x, -x)


def duplicated_rows_pair():
    """One row in three a copy of x's row 0, on both sides: in a copy's row of
    a batch every copy's column ties for the maximum."""
    pair = random_pair(300, 8, seed=68)
    x, y = pair.x.copy(), pair.y.copy()
    x[::3] = y[::3] = x[0]
    return EmbeddingPair(x, y)


def orthogonal_pair():
    """x = y = the identity: every product but the positives is exactly 0."""
    return EmbeddingPair(np.eye(96), np.eye(96))


CASES = {
    "n1536-k60": lambda: (random_pair(1536, 16, seed=60), lambda p: random_batches(1536, 60, 1)),
    "n2050-k64": lambda: (random_pair(2050, 16, seed=61), lambda p: random_batches(2050, 64, 2)),
    "n300-k7": lambda: (random_pair(300, 8, seed=62), lambda p: random_batches(300, 7, 3)),
    "k1": lambda: (random_pair(300, 8, seed=63), lambda p: random_batches(300, 1, 4)),
    "k-n": lambda: (random_pair(1536, 16, seed=64), lambda p: random_batches(1536, 1536, 5)),
    "hand-cut": lambda: (random_pair(301, 8, seed=65),
                         lambda p: hand_cut(301, [5, 64, 64, 3, 64, 1, 64, 36], 6)),
    "y-minus-x": lambda: (anti_aligned_pair(), lambda p: random_batches(300, 8, 9)),
    "mined-k10": lambda: (duplicated_pair(), lambda p: hard_negative_batches(p, 10, seed=7)),
    "mined-k64": lambda: (duplicated_pair(), lambda p: hard_negative_batches(p, 64, seed=8)),
    "singletons-n2050": lambda: (random_pair(2050, 8, seed=69), lambda p: random_batches(2050, 1, 10)),
    "short-last-batch": lambda: (random_pair(1000, 16, seed=70), lambda p: random_batches(1000, 64, 11)),
    "duplicate-rows": lambda: (duplicated_rows_pair(), lambda p: random_batches(300, 30, 12)),
    "orthogonal-rows": lambda: (orthogonal_pair(), lambda p: random_batches(96, 8, 13)),
    "hardneg1-k16": lambda: (random_pair(512, 8, seed=71), lambda p: hard_negative_batches(p, 16, seed=14)),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("tau", [0.05, 1e-308])
@pytest.mark.parametrize("case", CASES)
def test_stacked_scans_equal_the_per_batch_reference(monkeypatch, case, tau, threads):
    if threads == 2:  # many runs on the pool: two 64 x 64 batches a run
        monkeypatch.setattr(similarity, "_BLOCK_BYTES", 1 << 16)
    pair, assign = CASES[case]()
    assignment = assign(pair)
    got = losses._slot_stats(pair, assignment, tau, threads)
    want = reference_slot_stats(pair, assignment, tau)
    for name in _SlotStats.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name, strict=True)

    qbap = reference_qbap(pair, assignment)
    if qbap is None:
        with pytest.raises(losses.ObjectiveUndefined):
            losses.qbap_objective(pair, assignment)
    else:
        assert losses.qbap_objective(pair, assignment) == qbap
    assert losses.qap_objective(pair, assignment) == reference_qap(pair, assignment)

    report = gap_report(pair, assignment, tau, threads=threads)
    reference = reference_report(pair, assignment, tau)
    assert repr(report) == repr(reference)
    if tau == 0.05:
        assert report.to_json() == reference.to_json()
    else:  # overflowed logits: neither report has a JSON form
        for r in (report, reference):
            with pytest.raises(ParameterError):
                r.to_json()


@pytest.mark.parametrize("case, extreme", [("duplicate-rows", np.max), ("orthogonal-rows", np.min)])
def test_tie_cases_tie_at_a_row_extreme(case, extreme):
    # the premise of the tie cases: rows of a batch that reach their extreme twice
    pair, assign = CASES[case]()
    for batch in assign(pair).batches:
        z = pair.x[batch] @ pair.y[batch].T
        assert ((z == extreme(z, axis=1, keepdims=True)).sum(axis=1) > 1).any()


def test_mined_cases_repeat_samples_within_a_batch():
    # the premise of the mined cases: some batch has fewer candidates than rows
    pair = duplicated_pair()
    for k in (10, 64):
        batches = hard_negative_batches(pair, k).batches
        assert any(np.unique(b).size < b.size for b in batches)

