"""File formats and the command-line workflow.

A training loop integrates the reordering like this: export the epoch's
embeddings to the binary format, run `contrabatch permute`, read the
permutation back, and feed the dataset through a sequential sampler in
that order.  This script performs that round trip in a temp directory,
which it removes when done.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import contrabatch as cb

rng = np.random.default_rng(5)
with tempfile.TemporaryDirectory(prefix="contrabatch-demo-") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir}\n")

    # Export a pair of embedding matrices the way a training loop would.
    x = cb.normalize_rows(rng.standard_normal((64, 8)))
    y = cb.normalize_rows(rng.standard_normal((64, 8)))
    cb.save_embeddings(x, workdir / "x.emb1")
    cb.save_embeddings(y, workdir / "y.emb1")
    print(f"x.emb1: {(workdir / 'x.emb1').stat().st_size} bytes "
          f"(12-byte header + 64*8 binary32 values)")

    # The installed console script `contrabatch` runs this same entry point.
    run = [sys.executable, "-c", "from contrabatch.cli import entrypoint; entrypoint()"]
    cmd = [
        "permute",
        "--x", str(workdir / "x.emb1"),
        "--y", str(workdir / "y.emb1"),
        "--quantile", "0.95",
        "--batch-size", "16",
        "--out-perm", str(workdir / "perm.txt"),
        "--out-batches", str(workdir / "batches.txt"),
        "--report",
    ]
    result = subprocess.run(run + cmd, capture_output=True, text=True, check=True)
    print(f"\n$ contrabatch {' '.join(cmd)}")
    print(f"exit code {result.returncode}")

    report = json.loads(result.stdout)
    print(f"gap report: global {report['global_loss']:.4f}, "
          f"in-batch {report['train_loss']:.4f}, gap {report['gap']:.4f}")

    # The permutation file is plain decimal indices, one per line.
    order = cb.load_permutation(workdir / "perm.txt")
    print(f"\npermutation head: {order[:8].tolist()} ...")
    print("batch dump head:")
    print("\n".join((workdir / "batches.txt").read_text().splitlines()[:2]))

    # Reordering the rows and batching sequentially reproduces the dump.
    assignment = cb.sequential_batches(order, 16)
    pair = cb.EmbeddingPair(x, y)
    print(f"\nin-batch loss from the reloaded permutation: "
          f"{cb.ntxent_train(pair, assignment, 0.05):.4f}")

    # Baselines and seed sweeps live behind `compare`; exhaustive toy-scale
    # optima behind `oracle`; stage timings behind `bench`.
    result = subprocess.run(
        run + ["bench", "--sizes", "512,1024", "--dim", "16"],
        capture_output=True, text=True, check=True,
    )
    print("\n$ contrabatch bench --sizes 512,1024 --dim 16")
    print(result.stdout.strip())
    print(result.stderr.strip())
