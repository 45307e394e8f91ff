"""Contrast losses, log-sum-exp envelopes, and batch objectives."""

import json
import math
import sys
import warnings
from dataclasses import replace

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
    """A pair reading global stats during the cutoff's scan gives the global
    loss of a plain pair, bit for bit, and multiplies only what it lacks."""

    TILES = [(0, 128), (128, 256), (256, 384), (384, 512)]

    def scanned(self, monkeypatch, tau):
        monkeypatch.setattr(similarity, "ROW_CHUNK", 128)
        plain = random_pair(512, 16, seed=48)
        pair = similarity._reading(plain, (losses._global_part, (tau,)))
        similarity.estimate_quantile_threshold(pair, 0.999, 512, threads=2)
        return plain, pair, count_products(monkeypatch)

    def test_same_tau_needs_no_multiply(self, monkeypatch):
        plain, pair, calls = self.scanned(monkeypatch, 0.05)
        assert ntxent_global(pair, 0.05) == ntxent_global(plain, 0.05)
        assert sorted(calls) == self.TILES  # the plain pair's pass only

    def test_another_tau_multiplies_every_tile(self, monkeypatch):
        plain, pair, calls = self.scanned(monkeypatch, 0.05)
        assert ntxent_global(pair, 0.5) == ntxent_global(plain, 0.5)
        assert sorted(calls) == sorted(self.TILES * 2)

    def test_many_workers_record_every_tile(self, monkeypatch):
        # 32 tiles on 8 workers, switching threads as often as the
        # interpreter allows: a lost part would show as a multiply
        monkeypatch.setattr(similarity, "ROW_CHUNK", 16)
        plain = random_pair(512, 16, seed=50)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pair = similarity._reading(plain, (losses._global_part, (0.05,)))
            similarity.estimate_quantile_threshold(pair, 0.999, 512, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(pair._tile_reader.parts) == 32
        calls = count_products(monkeypatch)
        assert ntxent_global(pair, 0.05, threads=8) == ntxent_global(plain, 0.05)
        assert len(calls) == 32  # the plain pair's pass only

    def test_parts_of_another_pair_are_ignored(self, monkeypatch):
        plain, pair, calls = self.scanned(monkeypatch, 0.05)
        other = random_pair(512, 16, seed=49)
        copied = replace(pair, x=other.x, y=other.y)  # carries the reader along
        assert copied._tile_reader is pair._tile_reader
        assert ntxent_global(copied, 0.05) == ntxent_global(other, 0.05)
        assert sorted(calls) == sorted(self.TILES * 2)
        # the other way round: a scan of the copy leaves the pair nothing to read
        fresh = similarity._reading(plain, (losses._global_part, (0.05,)))
        similarity.estimate_quantile_threshold(replace(fresh, x=other.x, y=other.y), 0.999, 512)
        calls.clear()
        assert ntxent_global(fresh, 0.05) == ntxent_global(plain, 0.05)
        assert sorted(calls) == sorted(self.TILES * 2)  # every tile, for each pair


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
