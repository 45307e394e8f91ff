"""Sequential batching, baselines, and the end-to-end reordering pipeline."""

import warnings

import numpy as np
import pytest

from contrabatch import (
    EmbeddingPair,
    GapReport,
    ParameterError,
    SimilarityThreshold,
    bandwidth_pipeline,
    format_batches,
    hard_negative_batches,
    nearest_cross_neighbors,
    ntxent_global,
    ntxent_train,
    random_batches,
    sequential_batches,
)
from contrabatch import batching
from conftest import clustered_pair, orthogonal_ties, random_pair, two_cluster_pair


class TestSequentialBatches:
    def test_identity_even_split(self):
        asg = sequential_batches(np.arange(6), 2)
        assert [b.tolist() for b in asg.batches] == [[0, 1], [2, 3], [4, 5]]

    def test_full_batch(self):
        asg = sequential_batches(np.array([2, 0, 1]), 3)
        assert [sorted(b.tolist()) for b in asg.batches] == [[0, 1, 2]]

    def test_short_final_batch(self):
        asg = sequential_batches(np.arange(5), 2)
        assert [b.tolist() for b in asg.batches] == [[0, 1], [2, 3], [4]]

    def test_membership_follows_position_blocks(self):
        order = np.array([4, 2, 0, 5, 1, 3])
        asg = sequential_batches(order, 2)
        position = {int(s): t for t, s in enumerate(order)}
        for i in range(6):
            holding = [t for t, batch in enumerate(asg.batches) if i in batch]
            assert holding == [position[i] // 2]

    def test_every_sample_in_exactly_one_batch(self):
        asg = sequential_batches(np.random.default_rng(0).permutation(11), 4)
        seen = np.concatenate(asg.batches)
        np.testing.assert_array_equal(np.sort(seen), np.arange(11))
        assert [b.size for b in asg.batches] == [4, 4, 3]

    @pytest.mark.parametrize("k", [0, 7, -1])
    def test_batch_size_domain(self, k):
        with pytest.raises(ParameterError):
            sequential_batches(np.arange(6), k)


class TestRandomBatches:
    def test_same_seed_same_assignment(self):
        a = random_batches(20, 4, seed=9)
        b = random_batches(20, 4, seed=9)
        assert [x.tolist() for x in a.batches] == [x.tolist() for x in b.batches]

    def test_single_batch_when_k_equals_n(self):
        asg = random_batches(4, 4, seed=1)
        assert sorted(asg.batches[0].tolist()) == [0, 1, 2, 3]

    def test_pair_cooccurrence_frequency(self):
        # two samples land in the same batch with probability 1/(n-1);
        # for n=6, k=2 that is 0.2
        n, k, trials = 6, 2, 10000
        together = np.zeros((n, n))
        for seed in range(trials):
            for batch in random_batches(n, k, seed).batches:
                for a in batch:
                    for b in batch:
                        together[a, b] += 1
        off = ~np.eye(n, dtype=bool)
        freq = together[off] / trials
        assert np.all(np.abs(freq - 0.2) < 0.02)


class TestHardNegativeBatches:
    def test_two_samples_forced_pairing(self):
        pair = random_pair(2, 4, seed=0)
        asg = hard_negative_batches(pair, 2)
        assert asg.oversampled
        assert sum(b.size for b in asg.batches) == 4
        assert all(sorted(set(b.tolist())) == [0, 1] for b in asg.batches)

    def test_one_row_has_no_neighbour(self):
        # the only j is i itself: no j != i to return
        with pytest.raises(ParameterError, match="mining a negative needs at least two samples"):
            nearest_cross_neighbors(EmbeddingPair(np.ones((1, 3)), np.ones((1, 3))))

    def test_dominant_inner_product_wins(self):
        x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        y = np.array([[0.1, 0.2, 0.0], [0.9, 0.1, 0.0], [0.0, 0.1, 0.3]])
        nn = nearest_cross_neighbors(EmbeddingPair(x, y))
        assert nn[0] == 1  # x0.y1 = 0.9 dominates x0.y2 = 0

    def test_mined_partner_tops_its_row(self):
        pair, _ = clustered_pair(64, 8, 8, noise=0.2, seed=3)
        nn = nearest_cross_neighbors(pair)
        m = pair.x @ pair.y.T
        for i in range(64):
            row = np.delete(m[i], i)  # full scan over off-diagonal candidates
            assert m[i, nn[i]] >= np.quantile(row, 1 - 1 / 64)
            assert nn[i] != i
            assert m[i, nn[i]] == row.max()

    def test_layout_references_then_partners(self):
        pair = random_pair(8, 4, seed=5)
        nn = nearest_cross_neighbors(pair)
        asg = hard_negative_batches(pair, 4, seed=2)
        refs_seen = []
        for batch in asg.batches:
            assert batch.size == 4
            refs, partners = batch[:2], batch[2:]
            np.testing.assert_array_equal(partners, nn[refs])
            refs_seen.extend(refs.tolist())
        assert sorted(refs_seen) == list(range(8))
        assert sum(b.size for b in asg.batches) == 16

    def test_short_final_batch(self):
        pair = random_pair(5, 4, seed=6)
        asg = hard_negative_batches(pair, 4, seed=0)
        assert [b.size for b in asg.batches] == [4, 4, 2]

    def test_odd_batch_size_rejected(self):
        pair = random_pair(4, 2, seed=0)
        with pytest.raises(ParameterError):
            hard_negative_batches(pair, 3)

    def test_determinism_and_threads(self):
        pair = random_pair(32, 8, seed=1)
        a = hard_negative_batches(pair, 8, seed=4, threads=1)
        b = hard_negative_batches(pair, 8, seed=4, threads=8)
        assert [x.tolist() for x in a.batches] == [x.tolist() for x in b.batches]


class TestPipeline:
    def test_single_batch_train_equals_global(self):
        pair = random_pair(12, 6, seed=8)
        _, asg = bandwidth_pipeline(pair, 0.9, k=12)
        assert len(asg.batches) == 1
        assert ntxent_train(pair, asg, 0.5) == pytest.approx(
            ntxent_global(pair, 0.5), abs=1e-12
        )

    def test_two_clusters_recovered_exactly(self):
        pair = two_cluster_pair()
        order, asg = bandwidth_pipeline(pair, 0.5, k=4)
        groups = sorted(sorted(b.tolist()) for b in asg.batches)
        assert groups == [[0, 1, 2, 3], [4, 5, 6, 7]]
        np.testing.assert_array_equal(order, [7, 6, 5, 4, 3, 2, 1, 0])

    def test_empty_graph_still_yields_valid_batching(self):
        pair = random_pair(9, 16, seed=10)
        with pytest.warns(UserWarning, match="no inner product exceeds"):
            order, asg = bandwidth_pipeline(pair, 0.9999, k=4)
        np.testing.assert_array_equal(np.sort(order), np.arange(9))
        assert [b.size for b in asg.batches] == [4, 4, 1]

    def test_edgeless_graph_warns(self):
        # every product is 0 or 1 and the cutoff lands on 1: the strict > keeps nothing
        with pytest.warns(UserWarning, match="no edges") as record:
            order, _ = bandwidth_pipeline(orthogonal_ties(), 0.999, k=4)
        assert record[0].filename == __file__  # it names the pipeline's caller
        np.testing.assert_array_equal(order, np.arange(32)[::-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bandwidth_pipeline(two_cluster_pair(), 0.5, k=4)

    def test_orders_the_pair_it_is_given(self, monkeypatch):
        # normalization is the caller's: the stages read the caller's pair itself
        seen = []
        for name in ("estimate_quantile_threshold", "build_sparse_graph"):
            real = getattr(batching, name)

            def recorded(pair, *args, _real=real, **kwargs):
                seen.append(pair)
                return _real(pair, *args, **kwargs)

            monkeypatch.setattr(batching, name, recorded)
        pair = random_pair(30, 6, seed=9)
        bandwidth_pipeline(pair, 0.9, k=5)
        assert len(seen) == 2
        assert all(p is pair for p in seen)

    def test_repeated_runs_identical(self):
        pair = random_pair(50, 8, seed=11)
        o1, a1 = bandwidth_pipeline(pair, 0.95, 10, chunk_rows=13, reverse=True)
        o2, a2 = bandwidth_pipeline(pair, 0.95, 10, chunk_rows=13, reverse=True, threads=8)
        np.testing.assert_array_equal(o1, o2)
        assert format_batches(a1) == format_batches(a2)

    def test_train_never_exceeds_global(self):
        # adding candidates to a contrast set can only raise the loss
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 33))
            k = int(rng.integers(1, n + 1))
            pair = random_pair(n, 5, seed=seed + 1000)
            asg = random_batches(n, k, seed)
            assert ntxent_train(pair, asg, 0.2) <= ntxent_global(pair, 0.2) + 1e-12


def test_records_that_hold_arrays_compare_and_hash_by_identity():
    # arrays have no single truth value, so value equality would raise
    a, b = sequential_batches(np.arange(4), 2), sequential_batches(np.arange(4), 2)
    pair = random_pair(4, 2, seed=1)
    assert a == a and a != b and pair == pair and pair != pair.normalized()
    assert len({a, b, pair}) == 3 and hash(a) == hash(a)
    # records of scalars keep value equality
    assert SimilarityThreshold(0.9, 0.5, 4, "exact") == SimilarityThreshold(0.9, 0.5, 4, "exact")
    report = dict(n=4, k=2, tau=0.1, global_loss=1.0, train_loss=0.5, gap=0.5,
                  ub_gap_translation=1.0, ub_gap_standard=2.0, qbap_value=None, qap_value=0.0)
    assert GapReport(**report) == GapReport(**report)


def test_format_batches_layout():
    asg = sequential_batches(np.array([3, 1, 0, 2]), 2)
    assert format_batches(asg) == "0: 3 1\n1: 0 2\n"
