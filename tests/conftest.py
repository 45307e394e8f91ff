"""Shared synthetic-data helpers for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from contrabatch import EmbeddingPair, normalize_rows, similarity


ROOT = Path(__file__).resolve().parents[1]


def src_env(**extra) -> dict:
    """The current environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def random_pair(n: int, d: int, seed: int) -> EmbeddingPair:
    """Unit-norm rows drawn from a seeded standard normal."""
    rng = np.random.default_rng(seed)
    return EmbeddingPair(
        normalize_rows(rng.standard_normal((n, d))),
        normalize_rows(rng.standard_normal((n, d))),
    )


def clustered_pair(n: int, d: int, clusters: int, noise: float, seed: int):
    """Tight clusters around random unit centers; returns (pair, labels)."""
    rng = np.random.default_rng(seed)
    centers = normalize_rows(rng.standard_normal((clusters, d)))
    labels = np.repeat(np.arange(clusters), n // clusters)
    x = centers[labels] + noise * rng.standard_normal((n, d))
    y = centers[labels] + noise * rng.standard_normal((n, d))
    return EmbeddingPair(normalize_rows(x), normalize_rows(y)), labels


def cluster_sorted_pair(n: int, seed: int, d: int = 64) -> EmbeddingPair:
    """Normalized rows drawn as perfbench's clustered generator draws them (n/256
    centres, x = centre + 0.5·noise, y = x + 0.2·noise, 2% of the rows exact
    copies of others), then sorted by centre, as embeddings saved class by class
    arrive.  A tile then holds few clusters, and the products of one row are
    correlated, which a bound sampled from the chunk must allow for."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((n // 256, d))
    labels = rng.integers(len(centres), size=n)
    x = centres[labels] + 0.5 * rng.standard_normal((n, d))
    copies, sources = np.split(rng.choice(n, size=2 * (n // 50), replace=False), 2)
    y = x + 0.2 * rng.standard_normal((n, d))
    x[copies], y[copies] = x[sources], y[sources]
    order = np.argsort(labels, kind="stable")
    return EmbeddingPair(x[order], y[order]).normalized()


def orthogonal_ties() -> EmbeddingPair:
    """32 rows: 4 orthogonal unit vectors repeated 8x, X == Y; products are 0 or 1."""
    m = np.tile(np.eye(4), (8, 1))
    return EmbeddingPair(m, m.copy())


def two_cluster_pair() -> EmbeddingPair:
    """Eight 2-D rows: four on the x-axis, four on the y-axis, X == Y."""
    m = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4)
    return EmbeddingPair(m, m.copy())


def half_clustered_pair() -> EmbeddingPair:
    """512 Gaussian rows of width 8, not normalized, except that rows 0-255 form
    one tight cluster on both sides: x = e₁ + 0.01·noise, y = x + 0.01·noise.

    At q = 0.99 a median of 128-row chunk quantiles falls below the cluster's
    products: about 65,000 directed entries pass it, against the 2,621 that
    (1 - q)·N² predicts, and about 2,500 pass the exact quantile.
    """
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((512, 8)), rng.standard_normal((512, 8))
    x[:256] = np.eye(8)[0] + 0.01 * rng.standard_normal((256, 8))
    y[:256] = x[:256] + 0.01 * rng.standard_normal((256, 8))
    return EmbeddingPair(x, y)


def count_products(monkeypatch, outs: list | None = None) -> list:
    """Record the span of every X·Yᵀ tile multiplied from now on and, given
    ``outs``, the ``out`` array each product was written to (None: fresh)."""
    calls = []
    products = similarity._products

    def counted(pair, span, out=None):
        calls.append(span)
        if outs is not None:
            outs.append(out)
        return products(pair, span, out)

    monkeypatch.setattr(similarity, "_products", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
