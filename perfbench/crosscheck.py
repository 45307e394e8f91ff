"""Re-measure two figures of ROADMAP.md's baseline table with this harness.

Usage (from the repository root): python3 perfbench/crosscheck.py

* ``compare --seeds 20`` at N = 4096, as a CLI child (spawn to exit) and
  in-process (pipeline plus the 22 gap reports, no process start-up);
* ``estimate_quantile_threshold`` at N = 8192, q = 0.999, default chunking.

Gaussian inputs from the benchmark's generator, seed 0, one BLAS thread.
Prints one JSON object; perfbench/baseline.json records its output.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time

from run import WORK, cli_cmd, environment, spawn  # pins BLAS threads first

from contrabatch import (
    bandwidth_pipeline,
    estimate_quantile_threshold,
    gap_report,
    hard_negative_batches,
    load_pair,
    random_batches,
)

from inputs import DriftingPairs, write_pair
from workloads import TAU

REPS = 2


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def compare_in_process(pair, k: int, seeds: int) -> None:
    _, assignment = bandwidth_pipeline(pair, 0.999, k)
    gap_report(pair, assignment, TAU)
    gap_report(pair, hard_negative_batches(pair, k), TAU)
    for seed in range(seeds):
        gap_report(pair, random_batches(pair.n, k, seed), TAU)


def main() -> None:
    work = WORK / "crosscheck"
    try:
        x4, y4 = write_pair(*next(DriftingPairs("gaussian", 4096, 0)), work / "n4096")
        x8, y8 = write_pair(*next(DriftingPairs("gaussian", 8192, 0)), work / "n8192")
        argv = ["compare", "--x", str(x4), "--y", str(y4), "--batch-size", "64", "--seeds", "20"]
        cli_walls = []
        for i in range(REPS):
            child, wall, _ = spawn(cli_cmd(argv), work / f"cli{i}")
            if child.returncode != 0:
                raise SystemExit(f"compare exited {child.returncode}: {child.stderr}")
            cli_walls.append(wall)
        pair4 = load_pair(x4, y4).normalized()
        pair8 = load_pair(x8, y8).normalized()
        result = {
            "environment": environment(),
            "compare_n4096_seeds20_cli_s": statistics.median(cli_walls),
            "compare_n4096_seeds20_in_process_s": statistics.median(
                timed(lambda: compare_in_process(pair4, 64, 20)) for _ in range(REPS)),
            "quantile_n8192_s": statistics.median(
                timed(lambda: estimate_quantile_threshold(pair8, 0.999, 4096))
                for _ in range(REPS)),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
