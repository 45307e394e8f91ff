"""Bit-identity manifest of the CLI: one line per case, its name and a SHA-256
of what it produced (exit code, stdout, stderr, permutation file, batch file).

Usage: python3 tools/manifest.py [--smallest K] [--out FILE]

The cases run the CLI of the tree this script sits in (its ``src``), each
in a fresh child with one BLAS thread.  The matrix has 172 cases.  160 of
them cross:

* five commands: ``permute --report --out-perm --out-batches``, ``analyze``
  with ``--strategy`` gcbs, random and hardneg1, and ``compare --seeds 3``;
* four inputs, d = 32, k = 64: Gaussian N = 1030, 2048 and 4100, and a
  clustered N = 2048 (N/256 centres, y = x + noise) with 2% of its rows
  exact copies of others;
* ``--quantile`` 0.9 and 0.999, ``--chunk-rows`` default and 700,
  ``--threads`` 1 and 2.

The other 8 run ``permute`` and ``compare`` at ``--quantile`` 0.99 and 0.999
and ``--threads`` 1 and 2 on a clustered N = 4096 whose rows are sorted by
centre, as embeddings saved class by class arrive: there a tail bound
sampled from one tile alone sat above its chunk's quantile, and a bound
sampled from the whole chunk must cover how one cluster's rows correlate.

The last 4 run ``compare --seeds 3 --batch-size 256`` at the default
``--quantile`` on the Gaussian and the clustered N = 2048, at ``--threads``
1 and 2: at k = 256 a report's runs hold two batches each.

Cases are listed smallest input first; ``--smallest K`` runs the first K.
To check that a change moves no output bit, run this script in the parent
tree and in the changed one, on one machine, and compare the two manifests:
BLAS results can differ in the last bit between machines, so a manifest is
not a golden value for another host.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = {
    "permute": ["permute", "--report", "--out-perm", "perm.txt", "--out-batches", "batches.txt"],
    "gcbs": ["analyze", "--strategy", "gcbs"],
    "random": ["analyze", "--strategy", "random"],
    "hardneg1": ["analyze", "--strategy", "hardneg1"],
    "compare": ["compare", "--seeds", "3"],
}
INPUTS = {  # name -> (kind, N), smallest first
    "gaussian-1030": ("gaussian", 1030),
    "gaussian-2048": ("gaussian", 2048),
    "clustered-2048": ("clustered", 2048),
    "cluster-sorted-4096": ("cluster-sorted", 4096),
    "gaussian-4100": ("gaussian", 4100),
}
QUANTILES = ("0.9", "0.999")
CHUNK_ROWS = (None, "700")
THREADS = ("1", "2")
# (commands, quantiles, chunk rows, threads) of each input
MATRIX = (tuple(COMMANDS), QUANTILES, CHUNK_ROWS, THREADS)
SORTED_MATRIX = (("permute", "compare"), ("0.99", "0.999"), (None,), THREADS)
DIM = 32
BATCH_SIZE = "64"
WIDE_BATCH_INPUTS = ("gaussian-2048", "clustered-2048")  # also run compare at k = 256


def cases() -> list[tuple[str, str, list[str]]]:
    """(name, input name, CLI arguments after the pair) of every case, smallest input first."""
    out = []
    for data in INPUTS:
        axes = SORTED_MATRIX if INPUTS[data][0] == "cluster-sorted" else MATRIX
        for command, q, chunk, threads in itertools.product(*axes):
            argv = [*COMMANDS[command], "--batch-size", BATCH_SIZE, "--quantile", q,
                    "--threads", threads, *(["--chunk-rows", chunk] if chunk else [])]
            name = f"{data}/{command}/q{q}/chunk-{chunk or 'default'}/threads-{threads}"
            out.append((name, data, argv))
        for threads in THREADS if data in WIDE_BATCH_INPUTS else ():
            argv = [*COMMANDS["compare"], "--batch-size", "256", "--threads", threads]
            out.append((f"{data}/compare/k256/threads-{threads}", data, argv))
    return out


def pair(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeded (x, y) of one input."""
    rng = np.random.default_rng(n)
    if kind == "gaussian":
        return rng.standard_normal((n, DIM)), rng.standard_normal((n, DIM))
    centres = rng.standard_normal((n // 256, DIM))
    labels = rng.integers(len(centres), size=n)
    x = centres[labels] + 0.5 * rng.standard_normal((n, DIM))
    y = x + 0.2 * rng.standard_normal((n, DIM))
    copies, sources = np.split(rng.choice(n, size=2 * (n // 50), replace=False), 2)
    x[copies], y[copies] = x[sources], y[sources]
    if kind == "cluster-sorted":
        order = np.argsort(labels, kind="stable")
        return x[order], y[order]
    return x, y


def write_input(name: str, directory: Path) -> tuple[str, str]:
    """Write one input's pair as EMB1 files (little-endian float32) in ``directory``."""
    paths = []
    for side, matrix in zip("xy", pair(*INPUTS[name])):
        path = directory / f"{name}.{side}.emb1"
        header = b"EMB1" + np.array(matrix.shape, dtype="<u4").tobytes()
        path.write_bytes(header + matrix.astype("<f4").tobytes())
        paths.append(str(path))
    return paths[0], paths[1]


def run_case(argv: list[str], x: str, y: str, workdir: Path) -> str:
    """SHA-256 of one case's exit code, stdout, stderr and output files."""
    workdir.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-c", "from contrabatch.cli import entrypoint; entrypoint()",
         *argv, "--x", x, "--y", y],
        capture_output=True, env=env, cwd=workdir, timeout=600)
    digest = hashlib.sha256()
    outputs = [str(child.returncode).encode(), child.stdout, child.stderr]
    for name in ("perm.txt", "batches.txt"):
        path = workdir / name
        outputs.append(path.read_bytes() if path.exists() else b"<absent>")
    for part in outputs:  # length-prefixed, so no two cases' parts run together
        digest.update(len(part).to_bytes(8, "little") + part)
    return digest.hexdigest()


def manifest(count: int | None = None) -> list[str]:
    """``name sha256`` lines of the first ``count`` cases (every case by default)."""
    selected = cases()[:count]
    with tempfile.TemporaryDirectory(prefix="contrabatch-manifest-") as tmp:
        tmp = Path(tmp)
        files = {data: write_input(data, tmp) for data in dict.fromkeys(d for _, d, _ in selected)}
        return [f"{name} {run_case(argv, *files[data], tmp / str(i))}"
                for i, (name, data, argv) in enumerate(selected)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smallest", type=int, default=None, metavar="K",
                        help="run only the first K cases, smallest input first")
    parser.add_argument("--out", help="write the manifest here instead of stdout")
    args = parser.parse_args(argv)
    text = "\n".join(manifest(args.smallest)) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
