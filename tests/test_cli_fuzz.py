"""Fuzzed CLI runs on degenerate embedding files, temperatures and numeric extremes.

Whatever the input, a run ends in exit 0, 1 or 2, lets no exception but
SystemExit escape, on exit 0 prints JSON without NaN or infinity, and on
any other exit leaves no output file behind.  A run on two worker threads
prints the same bytes as the same run on one.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contrabatch import save_embeddings
from contrabatch.cli import main

KINDS = ["one_row", "duplicate_rows", "huge_values", "tiny_norms",
         "wrong_magic", "truncated", "empty_tsv"]
COMMANDS = [
    ["permute", "--report"],
    ["analyze", "--strategy", "gcbs"],
    ["analyze", "--strategy", "random"],
    ["analyze", "--strategy", "hardneg1"],
    ["compare", "--seeds", "2"],
    ["compare", "--seeds", "0"],
    ["oracle"],
]
# numeric extremes of the pipeline flags, which every command but oracle takes
PIPELINE_EXTREMES = [
    [],
    ["--quantile", "1e400"], ["--quantile", "-0"], ["--quantile", "nan"],
    ["--quantile", "5e-324"], ["--quantile", "0.9999999999999999"],
    ["--chunk-rows", "0"], ["--chunk-rows", "1"], ["--chunk-rows", str(10**30)],
]


def matrix_bytes(kind, n, d, seed, fmt):
    """Bytes of one embedding file: a seeded Gaussian matrix, made degenerate by ``kind``."""
    if kind == "empty_tsv":
        return b""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((1 if kind == "one_row" else n, d))
    if kind == "duplicate_rows":
        m[1::2] = m[0]
    elif kind == "huge_values":
        m = np.clip(m, -1.0, 1.0) * 3e38
    elif kind == "tiny_norms":
        m[rng.random(m.shape[0]) < 0.5] *= 1e-30
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m"
        save_embeddings(m, path, "emb1" if kind in ("wrong_magic", "truncated") else fmt)
        blob = path.read_bytes()
    if kind == "wrong_magic":
        return b"EMB0" + blob[4:]
    if kind == "truncated":
        return blob[:-1 - seed % (len(blob) - 1)]
    return blob


def finite_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    def parse_float(token):
        value = float(token)
        if not math.isfinite(value):
            reject(token)
        return value

    return json.loads(text, parse_constant=reject, parse_float=parse_float)


def run_cli(argv):
    """(exit code, stdout) of one in-process run; warnings are diagnostics, not checked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    fmt=st.sampled_from(["emb1", "tsv"]),
    both_sides=st.booleans(),
    n=st.integers(1, 12),
    d=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    command=st.sampled_from(COMMANDS),
    extreme=st.sampled_from(PIPELINE_EXTREMES),
    k=st.sampled_from([1, 2, 4, 10**30]),
    # the last four are invalid, or make every logit overflow
    tau=st.sampled_from(["0.05", "1e-3", "inf", "0", "-1", "1e-310"]),
    # above the ceiling, rejected before any file is read
    threads=st.sampled_from(["1", "2", "100000"]),
)
def test_degenerate_inputs_exit_cleanly(kind, fmt, both_sides, n, d, seed, command, extreme, k,
                                        tau, threads):
    with tempfile.TemporaryDirectory() as tmp:
        x, y, perm = Path(tmp) / "x", Path(tmp) / "y", Path(tmp) / "perm"
        x.write_bytes(matrix_bytes(kind, n, d, seed, fmt))
        y.write_bytes(matrix_bytes(kind if both_sides else "gaussian", n, d, seed + 1, fmt))
        out_flags = ["--out-perm", str(perm)] if command[0] == "permute" else []
        argv = command + ["--x", str(x), "--y", str(y), "--batch-size", str(k), "--tau", tau]
        argv += extreme if command[0] != "oracle" else []
        code, stdout = run_cli(argv + ["--threads", threads] + out_flags)
        written = perm.exists()
        if code == 0 and threads != "1":
            assert run_cli(argv + ["--threads", "1"]) == (code, stdout)
    assert code in (0, 1, 2)
    if code == 0:
        finite_json(stdout)
    else:
        assert not written
