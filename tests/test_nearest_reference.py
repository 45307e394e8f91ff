"""The mined baseline's argmax against its plain definition: for each row i,
the j != i with the largest x_i·y_j, ties going to the lowest j, over the
products of the tile grid.  ``nearest_cross_neighbors`` is checked on a
fresh scan and on the scan the CLI's epoch builds, where the argmax is a
part fed by the cutoff's walk, beside the report's global terms."""

import warnings

import numpy as np
import pytest

from contrabatch import EmbeddingPair, cli, nearest_cross_neighbors, save_embeddings, similarity
from contrabatch.cli import main
from conftest import count_products, orthogonal_ties, random_pair


def duplicated_pair() -> EmbeddingPair:
    """203 Gaussian rows, every third row on both sides a copy of x_0: row 0's
    largest product ties with its own diagonal entry."""
    pair = random_pair(203, 8, seed=5)
    x, y = pair.x.copy(), pair.y.copy()
    x[::3] = y[::3] = x[0]
    return EmbeddingPair(x, y)


PAIRS = {"duplicates": duplicated_pair, "ties": orthogonal_ties}


def reference(pair: EmbeddingPair) -> list[int]:
    """The plain masked argmax, one row and one column at a time."""
    n = pair.n
    z = np.concatenate([similarity._products(pair, span) for span in similarity._tiles((0, n), n)])
    nearest = []
    for i, row in enumerate(z.tolist()):
        best = None
        for j, value in enumerate(row):
            if j != i and (best is None or value > row[best]):
                best = j
        nearest.append(best)
    return nearest


@pytest.fixture(autouse=True)
def small_tiles(monkeypatch):
    # several tiles, each split into row blocks, so block and tile offsets both count
    monkeypatch.setattr(similarity, "_MAX_TILE_ROWS", 64)
    monkeypatch.setattr(similarity, "_BLOCK_BYTES", 16 * 8 * 203)


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("threads", [1, 2])
def test_fresh_scan_equals_the_masked_argmax(name, threads):
    pair = PAIRS[name]()
    assert nearest_cross_neighbors(pair, threads=threads).tolist() == reference(pair)


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("command", [
    ["analyze", "--strategy", "hardneg1"],
    ["compare", "--seeds", "1"],
], ids=["analyze-hardneg1", "compare"])
def test_cli_epoch_scan_equals_the_masked_argmax(tmp_path, monkeypatch, capsys, name, command):
    pair = PAIRS[name]()
    paths = [str(tmp_path / "x.emb1"), str(tmp_path / "y.emb1")]
    save_embeddings(pair.x, paths[0])
    save_embeddings(pair.y, paths[1])
    seen = {}
    mined = cli.hard_negative_batches

    def recording(pair, k, seed=0, threads=1, *, _scan=None):
        seen["pair"], seen["scan"] = pair, _scan
        return mined(pair, k, seed=seed, threads=threads, _scan=_scan)

    monkeypatch.setattr(cli, "hard_negative_batches", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the ties' cutoff is their top value: no edge
        assert main([*command, "--x", paths[0], "--y", paths[1], "--batch-size", "4",
                     "--quantile", "0.999"]) == 0
    capsys.readouterr()
    calls = count_products(monkeypatch)
    nearest = nearest_cross_neighbors(seen["pair"], _scan=seen["scan"])
    assert calls == []  # read from the blocks the epoch kept
    assert nearest.tolist() == reference(seen["pair"])
