"""One walk per multiplied tile, as a property: the CLI's epoch scan gives the
bytes of the public functions, each run on a fresh scan, and multiplies no
more than the estimator's own tiles plus one pass over the tile grid, in
``permute``, ``compare`` and each ``analyze`` strategy."""

import contextlib
import io
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contrabatch import (
    bandwidth_pipeline,
    estimate_quantile_threshold,
    format_batches,
    gap_report,
    hard_negative_batches,
    load_pair,
    random_batches,
    save_embeddings,
    save_permutation,
    similarity,
)
from contrabatch.cli import main
from contrabatch.losses import _json_value


def write_pair(tmp: Path, n: int, kind: str, seed: int) -> tuple[str, str]:
    """A Gaussian pair of N rows; "duplicates" makes every third row on both
    sides a copy of x_0, so a tile's tail can tie past its cap."""
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((n, 8)), rng.standard_normal((n, 8))
    if kind == "duplicates":
        x[::3] = y[::3] = x[0]
    paths = str(tmp / "x.emb1"), str(tmp / "y.emb1")
    save_embeddings(x, paths[0])
    save_embeddings(y, paths[1])
    return paths


def run(argv: list) -> tuple[str, list]:
    """(stdout, warning messages) of one in-process CLI run that exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert err.getvalue() == ""
    return out.getvalue(), [str(w.message) for w in record]


def public_outputs(tmp: Path, x: str, y: str, q: float, k: int, tau: float,
                   chunk_rows: int | None, threads: int) -> tuple:
    """What ``permute --report --out-perm --out-batches``, ``compare --seeds 1``
    and ``analyze`` print and write, built by the public functions, each on a
    fresh scan; ``analyze`` by strategy, with the warnings of ``gcbs`` only."""
    pair = load_pair(x, y).normalized()
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        order, assignment = bandwidth_pipeline(pair, q, k, chunk_rows=chunk_rows,
                                               threads=threads)
    warned = [str(w.message) for w in record]
    save_permutation(order, tmp / "want.perm")
    mined = hard_negative_batches(pair, k, threads=threads)
    runs = [(assignment, "gcbs", q), (mined, "hardneg1", None),
            (random_batches(pair.n, k, 0), "random", None)]
    reports = [gap_report(pair, a, tau, strategy=strategy, quantile=quantile, threads=threads)
               for a, strategy, quantile in runs]
    summary = {field: {"mean": np.array([getattr(reports[2], field)]).mean(), "stddev": 0.0}
               for field in ("train_loss", "gap")}
    compared = (f'{{"reports": [{", ".join(r.to_json() for r in reports)}], '
                f'"random_summary": {_json_value(summary)}}}\n')
    analyzed = {strategy: (r.to_json() + "\n", warned if strategy == "gcbs" else [])
                for r, (_, strategy, _) in zip(reports, runs)}
    return (reports[0].to_json() + "\n", (tmp / "want.perm").read_bytes(),
            format_batches(assignment), compared, warned, analyzed)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 300))
    tile_rows = draw(st.sampled_from([8, 16, 64, 256]))
    tile = min(tile_rows, n)
    if draw(st.booleans()):  # on the tile grid: the default, or a multiple of the tile height
        chunk_rows = draw(st.one_of(st.none(), st.integers(1, -(-n // tile)).map(
            lambda m: min(n, m * tile))))
    else:
        chunk_rows = draw(st.integers(1, n))
    return dict(
        n=n, tile_rows=tile_rows, chunk_rows=chunk_rows,
        kind=draw(st.sampled_from(["gaussian", "duplicates"])),
        seed=draw(st.integers(0, 2**16)),
        q=draw(st.sampled_from([0.5, 0.9, 0.95, 0.999])),
        k=2 * draw(st.integers(1, n // 2)),
        tau=draw(st.sampled_from([0.05, 0.5])),
        threads=draw(st.sampled_from([1, 2])),
        block_bytes=draw(st.sampled_from([64, 1000, 1 << 12, 1 << 20])),  # also the report's runs
    )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=cases())
def test_epoch_scan_gives_the_public_bytes_and_multiplies_each_tile_once_more(case):
    n, q, k, threads = case["n"], case["q"], case["k"], case["threads"]
    with tempfile.TemporaryDirectory() as tmp_dir, \
            mock.patch.object(similarity, "_MAX_TILE_ROWS", case["tile_rows"]), \
            mock.patch.object(similarity, "_BLOCK_BYTES", case["block_bytes"]):
        tmp = Path(tmp_dir)
        x, y = write_pair(tmp, n, case["kind"], case["seed"])
        flags = ["--x", x, "--y", y, "--batch-size", str(k), "--quantile", str(q),
                 "--tau", str(case["tau"]), "--threads", str(threads)]
        if case["chunk_rows"] is not None:
            flags += ["--chunk-rows", str(case["chunk_rows"])]
        want = public_outputs(tmp, x, y, q, k, case["tau"], case["chunk_rows"], threads)

        calls = []
        products = similarity._products

        def counted(pair, span, out=None):
            calls.append(span)
            return products(pair, span, out)

        with mock.patch.object(similarity, "_products", counted):
            chunk_rows = case["chunk_rows"] or similarity.default_chunk_rows(n)
            estimate_quantile_threshold(load_pair(x, y).normalized(), q, chunk_rows, threads)
            bound = Counter(calls) + Counter(similarity._tiles((0, n), n))
            perm, batches = tmp / "got.perm", tmp / "got.batches"
            for command in (["permute", "--report", "--out-perm", str(perm),
                             "--out-batches", str(batches)], ["compare", "--seeds", "1"],
                            *(["analyze", "--strategy", s] for s in want[5])):
                calls.clear()
                out, warned = run(command + flags)
                assert not Counter(calls) - bound  # the estimator's tiles and one grid pass
                if command[0] == "permute":
                    assert (out, perm.read_bytes(), batches.read_text()) == want[:3]
                    assert warned == want[4]
                elif command[0] == "compare":
                    assert (out, warned) == want[3:5]
                else:
                    assert (out, warned) == want[5][command[2]]
