"""Exhaustive partition solvers and their enumeration machinery."""

import math

import numpy as np
import pytest

import contrabatch
from contrabatch import (
    CapacityError,
    EmbeddingPair,
    ObjectiveUndefined,
    ParameterError,
    bandwidth_pipeline,
    exhaustive_min_gap,
    exhaustive_qap,
    exhaustive_qbap,
    iter_block_partitions,
    ntxent_global,
    ntxent_train,
    partition_count,
    qap_objective,
    qbap_objective,
    random_batches,
)
from contrabatch import oracle
from conftest import random_pair, two_cluster_pair


def test_star_import_binds_every_public_name():
    # the solvers load on first access; a star import reaches them too
    namespace = {}
    exec("from contrabatch import *", namespace)
    assert set(contrabatch.__all__) <= namespace.keys()
    for name in ("OracleResult", "exhaustive_min_gap", "exhaustive_qap", "exhaustive_qbap",
                 "iter_block_partitions", "partition_count"):
        assert namespace[name] is getattr(oracle, name)
    with pytest.raises(AttributeError, match="no attribute 'exhaustive_qp'"):
        contrabatch.exhaustive_qp


class TestPartitionEnumeration:
    def test_four_choose_pairs(self):
        parts = list(iter_block_partitions(4, 2))
        assert parts == [
            ((0, 1), (2, 3)),
            ((0, 2), (1, 3)),
            ((0, 3), (1, 2)),
        ]

    def test_counts_match_formula_when_divisible(self):
        for n, k in [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3)]:
            blocks = n // k
            expected = math.factorial(n) // (math.factorial(k) ** blocks * math.factorial(blocks))
            assert partition_count(n, k) == expected
            assert len(list(iter_block_partitions(n, k))) == expected

    def test_counts_with_short_block(self):
        for n, k in [(5, 2), (7, 3), (9, 4)]:
            parts = list(iter_block_partitions(n, k))
            assert len(parts) == partition_count(n, k)
            assert len(parts) == len(set(parts))  # no duplicates
            for p in parts:
                sizes = sorted(len(b) for b in p)
                assert sizes == sorted([k] * (n // k) + [n % k])

    def test_single_partition_cases(self):
        assert list(iter_block_partitions(3, 3)) == [((0, 1, 2),)]
        assert list(iter_block_partitions(3, 1)) == [((0,), (1,), (2,))]


class TestBottleneckOracle:
    def test_two_samples_single_partition(self):
        pair = random_pair(2, 4, seed=0)
        res = exhaustive_qbap(pair, 2)
        m = pair.x @ pair.y.T
        assert res.enumerated_count == 1
        assert res.best_value == pytest.approx(min(m[0, 1], m[1, 0]), abs=1e-15)

    def test_hand_built_preference(self):
        # symmetric similarities make pairing (0,1),(2,3) the clear winner
        m = np.array([
            [1.0, 0.9, 0.1, 0.1],
            [0.9, 1.0, 0.1, 0.1],
            [0.1, 0.1, 1.0, 0.8],
            [0.1, 0.1, 0.8, 1.0],
        ])
        # realize m as inner products via its symmetric square root
        vals, vecs = np.linalg.eigh(m)
        root = vecs @ np.diag(np.sqrt(np.clip(vals, 0, None)))
        pair = EmbeddingPair(root, root.copy())
        res = exhaustive_qbap(pair, 2)
        assert tuple(sorted(tuple(sorted(b)) for b in res.best_assignment.batches)) == (
            (0, 1),
            (2, 3),
        )
        assert res.enumerated_count == 3

    def test_two_clusters_recovered(self):
        pair = two_cluster_pair()
        res = exhaustive_qbap(pair, 4)
        blocks = sorted(sorted(b.tolist()) for b in res.best_assignment.batches)
        assert blocks == [[0, 1, 2, 3], [4, 5, 6, 7]]
        _, pipeline_asg = bandwidth_pipeline(pair, 0.5, 4)
        assert qbap_objective(pair, pipeline_asg) == pytest.approx(res.best_value)

    def test_singleton_blocks_undefined(self):
        pair = random_pair(3, 4, seed=1)
        with pytest.raises(ObjectiveUndefined):
            exhaustive_qbap(pair, 1)


class TestTotalOracle:
    def test_singleton_blocks_all_zero(self):
        pair = random_pair(4, 3, seed=2)
        res = exhaustive_qap(pair, 1)
        assert res.best_value == 0.0
        assert res.enumerated_count == 1

    def test_single_full_block(self):
        pair = random_pair(4, 3, seed=3)
        res = exhaustive_qap(pair, 4)
        m = pair.x @ pair.y.T
        assert res.enumerated_count == 1
        assert res.best_value == pytest.approx(
            2 * (m.sum() - np.trace(m)), abs=1e-12
        )

    def test_dominates_pipeline_and_random(self):
        for seed in range(10):
            pair = random_pair(6, 4, seed=seed + 60)
            res = exhaustive_qap(pair, 2)
            _, asg = bandwidth_pipeline(pair, 0.6, 2)
            assert qap_objective(pair, asg) <= res.best_value + 1e-12
            rnd = random_batches(6, 2, seed)
            assert qap_objective(pair, rnd) <= res.best_value + 1e-12


class TestMinGapOracle:
    def test_full_block_trivially_optimal(self):
        pair = random_pair(6, 4, seed=4)
        res = exhaustive_min_gap(pair, 6, tau=0.1)
        assert res.enumerated_count == 1
        assert abs(res.best_value) < 1e-12

    def test_constant_logits_all_partitions_tie(self):
        row = np.zeros(3)
        row[0] = 1.0
        m = np.tile(row, (6, 1))
        pair = EmbeddingPair(m, m.copy())
        res = exhaustive_min_gap(pair, 2, tau=0.5)
        assert res.best_value == pytest.approx(math.log(3), abs=1e-12)
        # first canonical partition wins the tie
        assert [b.tolist() for b in res.best_assignment.batches] == [[0, 1], [2, 3], [4, 5]]

    def test_dominates_heuristics(self):
        for seed in range(10):
            pair = random_pair(6, 4, seed=seed + 80)
            res = exhaustive_min_gap(pair, 2, tau=0.05)
            glob = ntxent_global(pair, 0.05)
            for asg in (
                bandwidth_pipeline(pair, 0.6, 2)[1],
                random_batches(6, 2, seed),
            ):
                gap = glob - ntxent_train(pair, asg, 0.05)
                assert res.best_value <= gap + 1e-12


class TestGuards:
    def test_too_many_samples(self):
        pair = random_pair(11, 3, seed=5)
        with pytest.raises(CapacityError):
            exhaustive_qap(pair, 2)

    def test_block_size_domain(self):
        pair = random_pair(4, 3, seed=6)
        with pytest.raises(ParameterError):
            exhaustive_qap(pair, 5)
        with pytest.raises(ParameterError):
            exhaustive_qap(pair, 0)

    def test_short_block_assignment_layout(self):
        pair = random_pair(5, 3, seed=7)
        res = exhaustive_qap(pair, 2)
        sizes = [b.size for b in res.best_assignment.batches]
        assert sizes == [2, 2, 1]  # short block moved to the tail
        assert res.enumerated_count == partition_count(5, 2)
