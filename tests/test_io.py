"""Embedding/permutation file formats and row normalization."""

import argparse
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrabatch import cli, similarity
from contrabatch import (
    CapacityError,
    DataError,
    DegenerateRowError,
    EmbeddingPair,
    FormatError,
    PermutationError,
    detect_format,
    load_embeddings,
    load_pair,
    load_permutation,
    normalize_rows,
    save_embeddings,
    save_permutation,
    validate_permutation,
)


class TestEmb1Format:
    def test_identity_payload(self, tmp_path):
        path = tmp_path / "id.emb1"
        path.write_bytes(b"EMB1" + struct.pack("<II", 2, 2) + struct.pack("<4f", 1, 0, 0, 1))
        np.testing.assert_array_equal(load_embeddings(path, "emb1"), np.eye(2))

    def test_round_trip_bytes_exact(self, tmp_path, rng):
        # 97x13 pseudo-random binary32 values must survive save -> load -> save
        original = rng.standard_normal((97, 13)).astype(np.float32).astype(np.float64)
        p1, p2 = tmp_path / "a.emb1", tmp_path / "b.emb1"
        save_embeddings(original, p1)
        loaded = load_embeddings(p1, "emb1")
        np.testing.assert_array_equal(loaded, original)
        save_embeddings(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 20),
        cols=st.integers(1, 8),
        seed=st.integers(0, 2**31),
    )
    def test_round_trip_property(self, tmp_path_factory, rows, cols, seed):
        data = np.random.default_rng(seed).standard_normal((rows, cols))
        data = data.astype(np.float32).astype(np.float64)
        path = tmp_path_factory.mktemp("rt") / "m.emb1"
        save_embeddings(data, path)
        np.testing.assert_array_equal(load_embeddings(path), data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.emb1"
        path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + struct.pack("<f", 0.0))
        with pytest.raises(FormatError):
            load_embeddings(path, "emb1")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.emb1"
        path.write_bytes(b"EMB1\x01")
        with pytest.raises(FormatError):
            load_embeddings(path, "emb1")

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "trail.emb1"
        path.write_bytes(b"EMB1" + struct.pack("<II", 1, 1) + struct.pack("<2f", 0.0, 1.0))
        with pytest.raises(FormatError):
            load_embeddings(path, "emb1")

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.emb1"
        path.write_bytes(b"EMB1" + struct.pack("<II", 1, 2) + struct.pack("<2f", 1.0, float("nan")))
        with pytest.raises(DataError):
            load_embeddings(path, "emb1")

    def test_capacity_guard(self, tmp_path):
        path = tmp_path / "huge.emb1"
        path.write_bytes(b"EMB1" + struct.pack("<II", 2**31 - 1, 2**31 - 1))
        with pytest.raises(CapacityError):
            load_embeddings(path, "emb1")

    def test_empty_shape_rejected(self, tmp_path):
        path = tmp_path / "zero.emb1"
        path.write_bytes(b"EMB1" + struct.pack("<II", 0, 3))
        with pytest.raises(FormatError):
            load_embeddings(path, "emb1")


class TestTsvFormat:
    def test_direct_transcription(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("0.5\t0.5\n1.0\t0.0\n")
        np.testing.assert_array_equal(
            load_embeddings(path, "tsv"), [[0.5, 0.5], [1.0, 0.0]]
        )

    def test_trailing_blank_line_ok(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("1.0\t2.0\n\n")
        assert load_embeddings(path, "tsv").shape == (1, 2)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("1.0\t2.0\n3.0\n")
        with pytest.raises(FormatError):
            load_embeddings(path, "tsv")

    def test_unparseable_cell(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("1.0\tpotato\n")
        with pytest.raises(FormatError):
            load_embeddings(path, "tsv")

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("1.0\tinf\n")
        with pytest.raises(DataError):
            load_embeddings(path, "tsv")

    def test_save_round_trip(self, tmp_path, rng):
        data = rng.standard_normal((5, 3))
        path = tmp_path / "m.tsv"
        save_embeddings(data, path, "tsv")
        np.testing.assert_array_equal(load_embeddings(path, "tsv"), data)


def test_detect_format(tmp_path, rng):
    e = tmp_path / "a.emb1"
    t = tmp_path / "a.tsv"
    save_embeddings(rng.standard_normal((2, 2)), e, "emb1")
    save_embeddings(rng.standard_normal((2, 2)), t, "tsv")
    assert detect_format(e) == "emb1"
    assert detect_format(t) == "tsv"


class TestNormalizeRows:
    def test_three_four_five(self):
        np.testing.assert_allclose(normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], atol=1e-15)

    def test_axis_rows(self):
        np.testing.assert_allclose(
            normalize_rows([[1.0, 0.0], [0.0, 2.0]]), np.eye(2), atol=1e-15
        )

    def test_random_matrix_unit_norms(self, rng):
        out = normalize_rows(rng.standard_normal((50, 8)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    def test_idempotent(self, rng):
        once = normalize_rows(rng.standard_normal((20, 5)))
        twice = normalize_rows(once)
        np.testing.assert_allclose(once, twice, atol=1e-6)

    def test_degenerate_rows_reported(self):
        bad = np.array([[1.0, 0.0], [0.0, 0.0], [1e-13, 0.0]])
        with pytest.raises(DegenerateRowError) as err:
            normalize_rows(bad)
        assert err.value.rows == [1, 2]


class TestEmbeddingPair:
    def test_shape_mismatch(self, rng):
        with pytest.raises(DataError):
            EmbeddingPair(rng.standard_normal((3, 2)), rng.standard_normal((4, 2)))

    def test_matrices_read_only(self, rng):
        pair = EmbeddingPair(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
        with pytest.raises(ValueError):
            pair.x[0, 0] = 1.0

    def test_load_pair_mixed_formats(self, tmp_path, rng):
        data = rng.standard_normal((4, 3)).astype(np.float32).astype(np.float64)
        save_embeddings(data, tmp_path / "x.emb1", "emb1")
        save_embeddings(data, tmp_path / "y.tsv", "tsv")
        pair = load_pair(tmp_path / "x.emb1", tmp_path / "y.tsv")
        np.testing.assert_array_equal(pair.x, pair.y)


class TestLoadNormalized:
    """The CLI rescales the rows of the pair it loads in place."""

    @staticmethod
    def load(x, y) -> EmbeddingPair:
        return cli._load_normalized(argparse.Namespace(x=str(x), y=str(y)))

    @pytest.mark.parametrize("block_bytes", [1 << 20, 1000], ids=["one-block", "many-blocks"])
    @pytest.mark.parametrize("fmt", ["emb1", "tsv"])
    def test_the_cli_pair_equals_the_normalized_copy_byte_for_byte(self, tmp_path, rng,
                                                                    monkeypatch, fmt, block_bytes):
        monkeypatch.setattr(similarity, "_BLOCK_BYTES", block_bytes)  # the norms' row blocks
        x, y = tmp_path / f"x.{fmt}", tmp_path / f"y.{fmt}"
        save_embeddings(rng.standard_normal((300, 7)), x, fmt)
        save_embeddings(3 * rng.standard_normal((300, 7)), y, fmt)
        raw, got = load_pair(x, y), self.load(x, y)
        for m, a, b in ((raw.x, got.x, raw.normalized().x), (raw.y, got.y, raw.normalized().y)):
            formula = m / np.linalg.norm(m, axis=1)[:, None]
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.tobytes() == formula.tobytes()
            assert not a.flags.writeable

    def test_the_checks_run_in_the_same_order(self, tmp_path, rng):
        m = rng.standard_normal((6, 3))
        m[4] = 0.0
        for name, rows in (("x", m), ("y", m[:5]), ("z", rng.standard_normal((6, 3)))):
            save_embeddings(rows, tmp_path / f"{name}.emb1")
        with pytest.raises(DataError, match="share a shape"):  # before any row is rescaled
            self.load(tmp_path / "x.emb1", tmp_path / "y.emb1")
        with pytest.raises(DegenerateRowError) as err:
            self.load(tmp_path / "z.emb1", tmp_path / "x.emb1")
        assert err.value.rows == [4]

    def test_the_load_holds_no_second_copy(self, tmp_path, rng):
        """X and Y are 2 MiB each: rescaled copies would hold four of them at
        once; rescaling in place holds both, and loading Y adds its file's
        float32 bytes."""
        x, y = tmp_path / "x.emb1", tmp_path / "y.emb1"
        save_embeddings(rng.standard_normal((4096, 64)), x)
        save_embeddings(rng.standard_normal((4096, 64)), y)
        tracemalloc.start()
        try:
            pair = self.load(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * pair.x.nbytes


class TestPermutationFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.txt"
        save_permutation(np.array([2, 0, 1]), path)
        assert path.read_text() == "2\n0\n1\n"
        np.testing.assert_array_equal(load_permutation(path), [2, 0, 1])

    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "p.txt"
        save_permutation(np.arange(5), path)
        np.testing.assert_array_equal(load_permutation(path), np.arange(5))

    def test_duplicate_index(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\n0\n1\n")
        with pytest.raises(PermutationError):
            load_permutation(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\n3\n")
        with pytest.raises(PermutationError):
            load_permutation(path)

    def test_non_integer_line(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0\nx\n")
        with pytest.raises(PermutationError):
            load_permutation(path)

    @pytest.mark.parametrize("line, index", [
        ("\u0661", 1), ("+3", 3), (" 2 ", 2), ("1_0", 10), ("-0", 0), ("1\r", 1),
    ], ids=["arabic-indic-one", "plus-sign", "spaces", "underscore", "minus-zero", "cr-ended"])
    def test_only_ascii_digit_lines(self, tmp_path, line, index):
        # Python's int reads each of these lines as ``index``; the format is ASCII digits, LF-ended
        lines = [str(i) for i in range(index + 1)]
        lines[index] = line
        path = tmp_path / "p.txt"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        with pytest.raises(PermutationError, match=f"p.txt:{index + 1}: not a decimal index"):
            load_permutation(path)

    def test_leading_zeros_and_blank_lines(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("\n002\n0\n\n00000000000000000000001\n")
        np.testing.assert_array_equal(load_permutation(path), [2, 0, 1])

    def test_index_past_int64(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("99999999999999999999\n0\n")
        with pytest.raises(PermutationError, match="p.txt:1: index out of range"):
            load_permutation(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("")
        with pytest.raises(PermutationError):
            load_permutation(path)

    def test_binary_file(self, tmp_path):
        path = tmp_path / "p.emb1"
        save_embeddings(np.eye(3), path)
        with pytest.raises(PermutationError, match="p.emb1: not a text file"):
            load_permutation(path)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 64))
    def test_accepts_exactly_bijections(self, seed, n):
        order = np.random.default_rng(seed).permutation(n)
        np.testing.assert_array_equal(validate_permutation(order, n), order)
        broken = order.copy()
        broken[0] = n  # out of range
        with pytest.raises(PermutationError):
            validate_permutation(broken, n)
