"""Seeded epoch inputs: one embedding pair per epoch, drifting between epochs.

The same (kind, n, seed) always yields the same sequence of pairs, so
a run is reproducible from its seed.  The pairs are written as EMB1 files
through the library's own ``save_embeddings``; the CLI child sees only
those files.

Kinds:

* ``gaussian`` -- isotropic Gaussian x and y, drawn independently.
* ``clustered`` -- rows around n/256 centres, y = x + noise, with 2% of the
  rows exact copies of other rows, as real embedding sets have.

Each epoch after the first moves every row a step towards fresh Gaussian
noise, the way a model's embeddings move between training epochs.  The
step is mean-reverting (v <- a*v + sqrt(1-a^2)*noise), so the inputs'
statistics, and with them the cost of an epoch, stay the same however many
epochs a run makes, while a few epochs apart the pairs are no longer alike.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from contrabatch import save_embeddings

DIM = 64  # embedding width
KEEP = 0.8  # a above: the share of each value carried into the next epoch
CLUSTER_SIZE = 256
CLUSTER_SPREAD = 0.5
PAIR_NOISE = 0.2
DUPLICATE_SHARE = 0.02


class DriftingPairs:
    """Iterator over (x, y) float64 arrays, one pair per epoch."""

    def __init__(self, kind: str, n: int, seed: int):
        if kind not in ("gaussian", "clustered"):
            raise ValueError(f"unknown input kind: {kind!r}")
        self.kind = kind
        self.rng = np.random.default_rng(seed)
        rng = self.rng
        if kind == "gaussian":
            self.x = rng.standard_normal((n, DIM))
            self.y = rng.standard_normal((n, DIM))
        else:
            self.centres = rng.standard_normal((max(1, n // CLUSTER_SIZE), DIM))
            self.label = rng.integers(self.centres.shape[0], size=n)
            self.offset = CLUSTER_SPREAD * rng.standard_normal((n, DIM))
            # copies and their sources are disjoint, so every copy is exact
            picked = rng.choice(n, size=2 * int(DUPLICATE_SHARE * n), replace=False)
            self.dup_rows, self.dup_source = np.split(picked, 2)
        self.started = False

    def __iter__(self):
        return self

    def __next__(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "gaussian":
            if self.started:
                self.x = self._drift(self.x, 1.0)
                self.y = self._drift(self.y, 1.0)
            self.started = True
            return self.x, self.y
        if self.started:
            self.centres = self._drift(self.centres, 1.0)
            self.offset = self._drift(self.offset, CLUSTER_SPREAD)
        self.started = True
        x = self.centres[self.label] + self.offset
        y = x + PAIR_NOISE * self.rng.standard_normal(x.shape)
        x[self.dup_rows] = x[self.dup_source]
        y[self.dup_rows] = y[self.dup_source]
        return x, y

    def _drift(self, values: np.ndarray, scale: float) -> np.ndarray:
        """One mean-reverting step that keeps N(0, scale^2) entries N(0, scale^2)."""
        noise = self.rng.standard_normal(values.shape)
        return KEEP * values + np.sqrt(1.0 - KEEP**2) * scale * noise


def write_pair(x: np.ndarray, y: np.ndarray, directory: Path) -> tuple[Path, Path]:
    """Save one epoch's pair as ``x.emb1`` and ``y.emb1`` in ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    x_path, y_path = directory / "x.emb1", directory / "y.emb1"
    save_embeddings(x, x_path)
    save_embeddings(y, y_path)
    return x_path, y_path
