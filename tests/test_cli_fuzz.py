"""Fuzzed CLI runs on degenerate embedding files, temperatures and numeric
extremes, and on random subsets of each command's flags.

Whatever the input, a run ends in exit 0, 1 or 2, lets no exception but
SystemExit escape, on exit 0 prints JSON without NaN or infinity, and on
any other exit leaves no output file behind.  A run on two worker threads
prints the same bytes as the same run on one.
"""

import contextlib
import io
import json
import math
import random
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
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


# Values each flag may take in a flag-subset run: (valid values, values the
# command rejects).  "@name" stands for a file of the run's temporary
# directory; None marks a switch.
FLAG_VALUES = {
    "--x": (["@x"], ["@missing"]),
    "--y": (["@y", "@x"], ["@missing"]),
    "--batch-size": (["2", "4", "1", "3"], ["0", "-2", "1e3", "13"]),
    "--tau": (["0.05", "0.5"], ["0", "inf"]),
    "--threads": (["1", "2"], []),
    "--quantile": (["0.5", "0.9", "0.999"], ["1", "nan"]),
    "--chunk-rows": (["1", "2"], ["0", "100"]),
    "--reverse-cm": ([None], []),
    "--no-reverse-cm": ([None], []),
    "--seed": (["0", "5"], ["-1"]),
    "--seeds": (["1", "2"], ["0", "-1"]),
    "--strategy": (["gcbs", "random", "hardneg1"], ["other"]),
    "--perm": (["@perm"], ["@short_perm", "@missing"]),
    "--out-perm": (["@out/perm"], []),
    "--out-batches": (["@out/batches"], ["@out/perm", ""]),
    "--report": ([None], []),
    "--sizes": (["8", "8,12"], ["1", "x"]),
    "--dim": (["2"], ["0"]),
}
PAIR_FLAGS = ["--tau", "--threads"]
PIPELINE_FLAGS = ["--quantile", "--chunk-rows", "--reverse-cm", "--no-reverse-cm"]
# each command's required flags, then the optional ones it declares
COMMAND_FLAGS = {
    "permute": (["--x", "--y", "--batch-size"],
                PAIR_FLAGS + PIPELINE_FLAGS + ["--out-perm", "--out-batches", "--report"]),
    "analyze": (["--x", "--y", "--batch-size"],
                PAIR_FLAGS + PIPELINE_FLAGS + ["--seed", "--strategy", "--perm"]),
    "compare": (["--x", "--y", "--batch-size"],
                PAIR_FLAGS + PIPELINE_FLAGS + ["--seed", "--seeds"]),
    "bench": (["--sizes"], PIPELINE_FLAGS + ["--seed", "--threads", "--dim"]),
    "oracle": (["--x", "--y", "--batch-size"], PAIR_FLAGS),
}


def flag_subset(rng: random.Random) -> list:
    """argv of one command: its required flags (each dropped one time in eight),
    a random half of its optional ones, now and then a flag it does not
    declare, in random order, each with a valid value nine times in ten."""
    command = rng.choice(sorted(COMMAND_FLAGS))
    required, optional = COMMAND_FLAGS[command]
    names = [name for name in required if rng.random() >= 1 / 8]
    names += [name for name in optional if rng.random() < 1 / 2]
    if rng.random() < 1 / 10:
        names.append(rng.choice(sorted(set(FLAG_VALUES) - set(required + optional))))
    rng.shuffle(names)
    argv = [command]
    for name in names:
        valid, invalid = FLAG_VALUES[name]
        value = rng.choice(invalid if invalid and rng.random() < 1 / 10 else valid)
        argv += [name] if value is None else [name, value]
    return argv


def resolved(argv, tmp):
    """``argv`` with each "@name" replaced by the path of that file under ``tmp``."""
    return [str(tmp / arg[1:]) if arg.startswith("@") else arg for arg in argv]


def outputs(tmp):
    """name -> bytes of every file the run wrote"""
    return {path.name: path.read_bytes() for path in sorted((tmp / "out").iterdir())}


@pytest.mark.parametrize("seed", range(240))
def test_random_flag_subsets_exit_cleanly(seed):
    rng = random.Random(seed)
    argv = flag_subset(rng)
    n, d = rng.randint(4, 12), rng.randint(1, 4)
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        (tmp / "out").mkdir()
        for i, name in enumerate(["x", "y"]):
            (tmp / name).write_bytes(matrix_bytes("gaussian", n, d, seed + i, "emb1"))
        order = np.random.default_rng(seed).permutation(n)
        (tmp / "perm").write_text("".join(f"{i}\n" for i in order))
        (tmp / "short_perm").write_text("".join(f"{i}\n" for i in range(n - 1)))
        code, stdout = run_cli(resolved(argv, tmp))
        written = outputs(tmp)
        at = argv.index("--threads") + 1 if "--threads" in argv else None
        if code == 0 and argv[0] != "bench" and at and argv[at] == "2":
            for path in (tmp / "out").iterdir():
                path.unlink()
            single = argv[:at] + ["1"] + argv[at + 1:]
            assert run_cli(resolved(single, tmp)) == (code, stdout), argv
            assert outputs(tmp) == written, argv
    assert code in (0, 1, 2), argv
    if code != 0:
        assert written == {}, argv
    elif argv[0] == "bench":
        assert stdout.startswith("n,stage,seconds\n"), argv
    elif argv[0] != "permute" or "--report" in argv:
        finite_json(stdout)
    else:
        assert stdout == "", argv
