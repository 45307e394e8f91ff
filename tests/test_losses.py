"""Contrast losses, log-sum-exp envelopes, and batch objectives."""

import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from contrabatch import losses, similarity
from contrabatch import (
    EmbeddingPair,
    ObjectiveUndefined,
    ParameterError,
    bandwidth_pipeline,
    gap_report,
    gap_upper_bounds,
    hard_negative_batches,
    lse_component_bounds,
    ntxent_global,
    ntxent_train,
    qap_objective,
    qbap_objective,
    random_batches,
    sequential_batches,
)
from conftest import count_products, random_pair, two_cluster_pair


def naive_global(pair, tau):
    """Direct double-loop evaluation, no max subtraction."""
    n = pair.n
    total = 0.0
    for i in range(n):
        denom = sum(
            math.exp(float(pair.x[i] @ pair.y[j]) / tau) for j in range(n)
        )
        total += -math.log(math.exp(float(pair.x[i] @ pair.y[i]) / tau) / denom)
    return total / n


def constant_logit_pair(n, d=3):
    """Identical rows on both sides: every inner product equals 1."""
    row = np.zeros(d)
    row[0] = 1.0
    m = np.tile(row, (n, 1))
    return EmbeddingPair(m, m.copy())


class TestGlobalLoss:
    def test_single_sample_is_exactly_zero(self):
        pair = random_pair(1, 4, seed=0)
        assert ntxent_global(pair, 0.7) == 0.0

    def test_constant_logits_give_log_n(self):
        for n in (2, 5, 16):
            pair = constant_logit_pair(n)
            assert ntxent_global(pair, 0.3) == pytest.approx(math.log(n), abs=1e-12)

    def test_matches_double_loop_on_three_angles(self):
        angles = np.deg2rad([0.0, 90.0, 180.0])
        m = np.column_stack([np.cos(angles), np.sin(angles)])
        pair = EmbeddingPair(m, m.copy())
        assert ntxent_global(pair, 1.0) == pytest.approx(
            naive_global(pair, 1.0), abs=1e-12
        )

    def test_matches_double_loop_on_random_input(self):
        pair = random_pair(9, 5, seed=21)
        for tau in (0.5, 1.0, 3.0):
            assert ntxent_global(pair, tau) == pytest.approx(
                naive_global(pair, tau), abs=1e-10
            )

    def test_finite_at_small_temperature_where_naive_overflows(self):
        pair = random_pair(32, 8, seed=2)
        assert math.isfinite(ntxent_global(pair, 0.01))
        assert math.isfinite(ntxent_global(pair, 0.001))
        z = pair.x @ pair.y.T / 0.001
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.exp(z).sum())

    def test_temperature_domain(self):
        pair = random_pair(4, 3, seed=0)
        for tau in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ParameterError):
                ntxent_global(pair, tau)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_logits_are_non_finite_without_warnings(self, threads):
        pair = random_pair(300, 16, seed=1)
        assignment = random_batches(300, 8, seed=0)
        tau = 1e-308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [ntxent_global(pair, tau, threads), ntxent_train(pair, assignment, tau, threads),
                      *gap_upper_bounds(pair, assignment, tau),
                      *lse_component_bounds(pair, assignment, tau)]
        assert not any(map(math.isfinite, values))


class TestGlobalStatsFromTheCutoffTiles:
    """Global stats read from the cutoff's scan give the global loss of a
    plain scan, bit for bit, and multiply only what the scan lacks."""

    TILES = [(0, 128), (128, 256), (256, 384), (384, 512)]

    def scanned(self, monkeypatch, tau):
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 128)
        pair = random_pair(512, 16, seed=48)
        scan = similarity._Scan((losses._global_part, (tau,)))
        similarity.estimate_quantile_threshold(pair, 0.999, 512, threads=2, _scan=scan)
        return pair, scan, count_products(monkeypatch)

    @staticmethod
    def read(pair, tau, scan, threads=1):
        """The global loss at ``tau``, given the epoch's ``scan``."""
        return losses._loss(losses._global_stats(pair, tau, threads, _scan=scan))

    def test_same_tau_needs_no_multiply(self, monkeypatch):
        pair, scan, calls = self.scanned(monkeypatch, 0.05)
        assert self.read(pair, 0.05, scan) == ntxent_global(pair, 0.05)
        assert sorted(calls) == self.TILES  # the plain pass only

    def test_another_tau_multiplies_every_tile(self, monkeypatch):
        pair, scan, calls = self.scanned(monkeypatch, 0.05)
        assert self.read(pair, 0.5, scan) == ntxent_global(pair, 0.5)
        assert sorted(calls) == sorted(self.TILES * 2)

    def test_many_workers_record_every_tile(self, monkeypatch):
        # 32 tiles on 8 workers, switching threads as often as the
        # interpreter allows: a lost part would show as a multiply
        monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 16)
        pair = random_pair(512, 16, seed=50)
        scan = similarity._Scan((losses._global_part, (0.05,)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            similarity.estimate_quantile_threshold(pair, 0.999, 512, threads=8, _scan=scan)
        finally:
            sys.setswitchinterval(interval)
        assert len(scan.parts[(losses._global_part, (0.05,))]) == 32
        calls = count_products(monkeypatch)
        assert self.read(pair, 0.05, scan, threads=8) == ntxent_global(pair, 0.05)
        assert len(calls) == 32  # the plain pass only

    def test_without_the_scan_every_tile_is_multiplied(self, monkeypatch):
        pair, scan, calls = self.scanned(monkeypatch, 0.05)
        read = self.read(pair, 0.05, scan)
        assert calls == []
        assert ntxent_global(pair, 0.05) == read
        assert sorted(calls) == self.TILES


class TestTrainLoss:
    def test_full_batch_equals_global(self):
        pair = random_pair(14, 6, seed=3)
        asg = random_batches(14, 14, seed=0)
        assert ntxent_train(pair, asg, 0.05) == pytest.approx(
            ntxent_global(pair, 0.05), abs=1e-12
        )

    def test_singleton_batches_are_exactly_zero(self):
        pair = random_pair(7, 4, seed=4)
        asg = sequential_batches(np.arange(7), 1)
        assert ntxent_train(pair, asg, 0.2) == 0.0

    def test_never_exceeds_global(self):
        pair = random_pair(32, 6, seed=5)
        g = ntxent_global(pair, 0.1)
        for seed in range(100):
            k = int(np.random.default_rng(seed).integers(1, 33))
            asg = random_batches(32, k, seed)
            assert ntxent_train(pair, asg, 0.1) <= g + 1e-12

    def test_out_of_range_batch_index(self):
        from contrabatch import BatchAssignment

        with pytest.raises(ParameterError):
            BatchAssignment(n=4, k=2, batches=(np.array([0, 5]), np.array([1, 2, 3])))

    @pytest.mark.parametrize("batches", [(np.arange(3), np.array([3, 8]), np.arange(4, 8)),
                                         (np.arange(4), np.arange(4, 7), np.array([7, -1]))],
                             ids=["middle-batch", "last-batch"])
    def test_an_index_outside_any_batch_is_refused(self, batches):
        from contrabatch import BatchAssignment

        with pytest.raises(ParameterError, match="outside"):
            BatchAssignment(n=8, k=4, batches=batches)

    @pytest.mark.parametrize("batches", [(np.arange(8), np.array([], dtype=np.int64)), ()],
                             ids=["empty-batch", "no-batch"])
    def test_an_empty_batch_or_no_batch_is_refused(self, batches):
        from contrabatch import BatchAssignment

        with pytest.raises(ParameterError):
            BatchAssignment(n=8, k=4, batches=batches)


class TestGapBounds:
    def test_full_batch_bound_nonnegative_and_gap_zero(self):
        pair = random_pair(10, 4, seed=6)
        asg = random_batches(10, 10, seed=0)
        ub_t, ub_s = gap_upper_bounds(pair, asg, 0.5)
        gap = ntxent_global(pair, 0.5) - ntxent_train(pair, asg, 0.5)
        assert abs(gap) < 1e-12
        assert ub_t >= -1e-12
        assert ub_s >= gap - 1e-9

    def test_constant_logits_make_translation_bound_tight(self):
        n, k = 12, 3
        pair = constant_logit_pair(n)
        asg = sequential_batches(np.arange(n), k)
        ub_t, ub_s = gap_upper_bounds(pair, asg, 0.7)
        gap = ntxent_global(pair, 0.7) - ntxent_train(pair, asg, 0.7)
        assert gap == pytest.approx(math.log(n / k), abs=1e-9)
        assert ub_t == pytest.approx(math.log(n / k), abs=1e-9)
        assert ub_s == pytest.approx(math.log(n), abs=1e-9)

    def test_random_sweep_never_violated(self):
        for trial in range(200):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(2, 25))
            k = int(rng.integers(1, n + 1))
            tau = [0.05, 1.0, 20.0][trial % 3]
            pair = random_pair(n, int(rng.integers(2, 9)), seed=trial + 500)
            asg = random_batches(n, k, trial)
            gap = ntxent_global(pair, tau) - ntxent_train(pair, asg, tau)
            ub_t, ub_s = gap_upper_bounds(pair, asg, tau)
            assert gap <= ub_t + 1e-9
            assert gap <= ub_s + 1e-9


class TestComponentBounds:
    def test_constant_logits_upper_bound_tight(self):
        pair = constant_logit_pair(8)
        asg = sequential_batches(np.arange(8), 4)
        ub_global, _, _ = lse_component_bounds(pair, asg, 0.4)
        assert ub_global == pytest.approx(math.log(8), abs=1e-12)
        assert ntxent_global(pair, 0.4) == pytest.approx(ub_global, abs=1e-12)

    def test_singleton_batches_translation_bound_exact_zero(self):
        pair = random_pair(6, 4, seed=7)
        asg = sequential_batches(np.arange(6), 1)
        _, _, lb_translation = lse_component_bounds(pair, asg, 0.3)
        assert lb_translation == 0.0
        assert ntxent_train(pair, asg, 0.3) == 0.0

    def test_ordering_chain_on_random_sweep(self):
        for trial in range(200):
            rng = np.random.default_rng(trial + 900)
            n = int(rng.integers(2, 25))
            k = int(rng.integers(1, n + 1))
            tau = [0.05, 1.0, 20.0][trial % 3]
            pair = random_pair(n, 4, seed=trial)
            asg = random_batches(n, k, trial)
            train = ntxent_train(pair, asg, tau)
            glob = ntxent_global(pair, tau)
            ub_global, lb_std, lb_trans = lse_component_bounds(pair, asg, tau)
            assert lb_std <= train + 1e-9
            assert lb_trans <= train + 1e-9
            assert train <= glob + 1e-9
            assert glob <= ub_global + 1e-9


class TestBottleneckObjective:
    def test_two_samples_single_pair(self):
        pair = random_pair(2, 5, seed=8)
        asg = sequential_batches(np.arange(2), 2)
        m = pair.x @ pair.y.T
        assert qbap_objective(pair, asg) == pytest.approx(
            min(m[0, 1], m[1, 0]), abs=1e-15
        )

    def test_cluster_batching_beats_cross_cluster(self):
        pair = two_cluster_pair()
        _, clustered = bandwidth_pipeline(pair, 0.5, 4)
        interleaved = sequential_batches(np.array([0, 4, 1, 5, 2, 6, 3, 7]), 4)
        assert qbap_objective(pair, clustered) > qbap_objective(pair, interleaved)

    def test_matching_oracle_dominates_heuristic(self):
        from contrabatch import exhaustive_qbap

        ratios = []
        for seed in range(10):
            pair = random_pair(6, 4, seed=seed + 40)
            oracle = exhaustive_qbap(pair, 2)
            _, asg = bandwidth_pipeline(pair, 0.6, 2)
            heuristic = qbap_objective(pair, asg)
            assert heuristic <= oracle.best_value + 1e-12
            ratios.append(heuristic / oracle.best_value)
        # sanity: the heuristic is in the game, not adversarially bad
        assert np.isfinite(ratios).all()

    def test_all_singletons_undefined(self):
        pair = random_pair(3, 4, seed=9)
        asg = sequential_batches(np.arange(3), 1)
        with pytest.raises(ObjectiveUndefined):
            qbap_objective(pair, asg)


def pairwise_minima(z: np.ndarray) -> np.ndarray:
    """Per batch of ``z`` (g, c, c), the smallest min(z_ij, z_ji) over i != j, as
    the formula reads: the reference for ``losses._batch_minima``."""
    z = np.minimum(z, z.transpose(0, 2, 1))
    diagonal = np.arange(z.shape[1])
    z[:, diagonal, diagonal] = np.inf
    return z.reshape(len(z), -1).min(axis=1)


class TestBatchMinima:
    """The smallest off-diagonal entry is the smallest symmetric pair minimum."""

    @pytest.mark.parametrize("k", [2, 3, 64, 100])
    def test_random_runs_equal_the_pairwise_formula_bit_for_bit(self, k):
        pair = random_pair(250, 8, seed=k)
        mined = hard_negative_batches(pair, k - k % 2, seed=1)  # oversampled: 2N slots
        for assignment in (random_batches(250, k, seed=1), mined):
            for run in losses._batch_runs(pair, assignment):
                z = losses._stacked_products(pair, run.candidates, run.candidates)
                assert losses._batch_minima(z).tobytes() == pairwise_minima(z).tobytes()

    def test_nan_propagates_and_minus_infinity_wins(self):
        z = np.random.default_rng(7).standard_normal((4, 5, 5))
        z[0, 1, 3] = np.nan  # off the diagonal: the batch's minimum is NaN
        z[1, 2, 2] = np.nan  # on it: ignored
        z[2, 4, 0] = -np.inf
        z[3, 1, 1] = -np.inf  # on the diagonal: ignored
        got, want = losses._batch_minima(z), pairwise_minima(z)
        assert np.isnan(got[0]) and np.isnan(want[0])
        assert got[1:].tobytes() == want[1:].tobytes()
        assert got[2] == -np.inf and np.isfinite(got[3])


class TestTotalObjective:
    def test_singleton_batches_zero(self):
        pair = random_pair(5, 4, seed=10)
        asg = sequential_batches(np.arange(5), 1)
        assert qap_objective(pair, asg) == 0.0

    def test_hand_summed_four_samples(self):
        pair = random_pair(4, 3, seed=11)
        asg = sequential_batches(np.arange(4), 2)
        m = pair.x @ pair.y.T
        expected = 0.0  # direct loop over ordered in-batch pairs
        for batch in ([0, 1], [2, 3]):
            for i in batch:
                for j in batch:
                    if i != j:
                        expected += m[i, j] + m[j, i]
        assert qap_objective(pair, asg) == pytest.approx(expected, abs=1e-12)

    def test_depends_only_on_membership(self):
        pair = random_pair(8, 4, seed=12)
        a = sequential_batches(np.array([3, 1, 6, 0, 7, 5, 2, 4]), 4)
        b = sequential_batches(np.array([0, 1, 3, 6, 2, 4, 5, 7]), 4)
        assert qap_objective(pair, a) == pytest.approx(qap_objective(pair, b), abs=1e-12)

    def test_matches_dense_mask_oracle(self):
        # same-batch indicator matrix contracted against M + M^T
        for n, k in [(16, 4), (64, 8), (15, 4)]:
            pair = random_pair(n, 6, seed=n + k)
            asg = random_batches(n, k, seed=1)
            m = pair.x @ pair.y.T
            mask = np.zeros((n, n))
            for batch in asg.batches:
                mask[np.ix_(batch, batch)] = 1.0
            np.fill_diagonal(mask, 0.0)
            expected = float((mask * (m + m.T)).sum())
            assert qap_objective(pair, asg) == pytest.approx(expected, abs=1e-9)


class TestGapReport:
    def test_full_batch_gap_zero(self):
        pair = random_pair(9, 4, seed=13)
        asg = random_batches(9, 9, seed=0)
        report = gap_report(pair, asg, 0.05)
        assert abs(report.gap) < 1e-9

    def test_constant_logits_gap_value(self):
        pair = constant_logit_pair(12)
        asg = sequential_batches(np.arange(12), 4)
        report = gap_report(pair, asg, 0.05)
        assert report.gap == pytest.approx(math.log(3), abs=1e-9)
        assert report.global_loss == pytest.approx(math.log(12), abs=1e-9)

    def test_json_schema_and_precision(self):
        pair = random_pair(6, 4, seed=14)
        asg = random_batches(6, 3, seed=2)
        report = gap_report(pair, asg, 0.05, strategy="random", quantile=None)
        payload = json.loads(report.to_json())
        assert list(payload) == [
            "n", "k", "tau", "global_loss", "train_loss", "gap",
            "ub_gap_translation", "ub_gap_standard", "qbap_value",
            "qap_value", "strategy", "quantile",
        ]
        assert payload["n"] == 6 and payload["k"] == 3
        assert payload["strategy"] == "random"
        assert payload["quantile"] is None
        # 17 significant digits round-trip float64 exactly
        assert payload["global_loss"] == report.global_loss
        assert payload["gap"] == report.gap

    def test_singleton_batches_null_bottleneck(self):
        pair = random_pair(5, 4, seed=15)
        asg = sequential_batches(np.arange(5), 1)
        report = gap_report(pair, asg, 0.5)
        assert report.qbap_value is None
        assert json.loads(report.to_json())["qbap_value"] is None

    def test_assignment_size_mismatch(self):
        pair = random_pair(5, 4, seed=16)
        asg = random_batches(6, 2, seed=0)
        with pytest.raises(ParameterError):
            gap_report(pair, asg, 0.5)


class TestRunBudget:
    """A report run stacks at most ``similarity._BLOCK_BYTES`` of slot products,
    one batch at least; the budget sets a run's bytes, never its bits."""

    @pytest.mark.parametrize("k, per_run", [(64, 32), (256, 2)])
    def test_runs_hold_at_most_the_block_budget(self, k, per_run):
        pair = random_pair(4096, 8, seed=17)
        for assignment in (random_batches(4096, k, seed=1), hard_negative_batches(pair, k, seed=1)):
            runs = losses._batch_runs(pair, assignment)
            for run in runs:
                z = losses._stacked_products(pair, run.rows, run.candidates)
                assert len(run.positions) == 1 or z.nbytes <= similarity._BLOCK_BYTES
            if not assignment.oversampled:
                assert max(len(run.positions) for run in runs) == per_run

    def test_a_batch_over_the_budget_is_a_run_of_its_own(self, monkeypatch):
        monkeypatch.setattr(similarity, "_BLOCK_BYTES", 1)
        pair = random_pair(300, 8, seed=18)
        assignment = random_batches(300, 8, seed=2)
        runs = losses._batch_runs(pair, assignment)
        assert [len(run.positions) for run in runs] == [1] * len(assignment.batches)

    def test_the_in_batch_pass_peaks_within_five_blocks(self):
        """Each run's products die with its pass, so the report's in-batch pass
        holds one run at a time, not N·k products (2N·k mined)."""
        pair = random_pair(4096, 64, seed=19)
        assignment = hard_negative_batches(pair, 256, seed=1)
        tracemalloc.start()
        try:
            losses._in_batch(pair, assignment, 0.05, 1, objectives=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * similarity._BLOCK_BYTES

    @pytest.mark.parametrize("mined", [False, True])
    def test_a_wide_pair_sizes_runs_by_their_gathered_operands(self, mined):
        """At d = 768 a batch of 64 gathers 24 times its products' bytes in
        operands, so a run sized by the products alone holds about 24 MiB."""
        pair = random_pair(4096, 768, seed=22)
        assignment = hard_negative_batches(pair, 64, seed=1) if mined else random_batches(4096, 64, seed=1)
        tracemalloc.start()
        try:
            losses._in_batch(pair, assignment, 0.05, 1, objectives=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * similarity._BLOCK_BYTES


class TestProductCalls:
    """Each run's slot products are multiplied once; an oversampled run's
    candidates are multiplied once more, and only for the objectives."""

    @staticmethod
    def spy(monkeypatch) -> list:
        """Record, per ``_stacked_products`` call, whether it multiplies a run's
        candidates against themselves: an oversampled run's cross products."""
        calls, products = [], losses._stacked_products

        def counted(pair, rows, cols):
            calls.append(rows is cols)
            return products(pair, rows, cols)

        monkeypatch.setattr(losses, "_stacked_products", counted)
        return calls

    def test_the_loss_and_bounds_make_no_cross_product(self, monkeypatch):
        pair = random_pair(600, 8, seed=20)
        mined = hard_negative_batches(pair, 10, seed=1)
        runs = len(losses._batch_runs(pair, mined))
        calls = self.spy(monkeypatch)
        for call in (ntxent_train, gap_upper_bounds, lse_component_bounds):
            calls.clear()
            call(pair, mined, 0.05)
            assert calls == [False] * runs, call.__name__

    def test_a_report_multiplies_each_run_once_and_mined_candidates_once_more(self, monkeypatch):
        pair = random_pair(600, 8, seed=21)
        calls = self.spy(monkeypatch)
        for assignment in (random_batches(600, 10, seed=1), hard_negative_batches(pair, 10, seed=1)):
            runs = losses._batch_runs(pair, assignment)
            calls.clear()
            gap_report(pair, assignment, 0.05, threads=2)
            if assignment.oversampled:
                cross = sum(run.candidates.shape[1] >= 2 for run in runs)
                assert cross and len(calls) == len(runs) + cross and sum(calls) == cross
            else:  # a partition's slot products are its cross products
                assert calls == [True] * len(runs)


@pytest.mark.parametrize("n", [136, 200, 1000, 1030, 4100, 8193, 16389, 20000, 65536, 65541,
                               100003])
def test_row_sums_split_along_numpys_summation_tree(n):
    """NumPy sums a contiguous float64 row pairwise, and above 128 entries splits
    a row of n at n2 = n/2 - (n/2 mod 8): the two halves' sums add to the row's
    sum bit for bit, so exp-sums may be split by column along that tree and keep
    report bytes.  A plain n/2 split gives other bits at 136, 1030 and 4100 here."""
    z = np.exp(np.random.default_rng(n).standard_normal((4, n)))
    n2 = n // 2 - (n // 2) % 8
    split = z[:, :n2].sum(axis=-1) + z[:, n2:].sum(axis=-1)
    assert z.sum(axis=-1).tobytes() == split.tobytes()
