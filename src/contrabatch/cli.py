"""Command-line surface: reorder embedding pairs into contrast-friendly
batches, report loss gaps, compare strategies, and benchmark the pipeline.

Reports go to stdout, diagnostics to stderr; files are written only when
output paths are given.  Exit codes: 0 success, 1 I/O or format problems,
2 parameter validation.  Every command is deterministic for fixed inputs,
flags, and seed (bench timings excepted: the measured seconds vary, the
row structure does not).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bandwidth import cuthill_mckee
from .batching import (
    bandwidth_pipeline,
    format_batches,
    hard_negative_batches,
    random_batches,
    sequential_batches,
)
from .errors import CapacityError, ContrabatchError, ObjectiveUndefined, ParameterError
from .io import (
    EmbeddingPair,
    load_pair,
    load_permutation,
    normalize_rows,
    save_permutation,
)
from .losses import _global_stats, _json_value, _report, gap_report
from .oracle import exhaustive_min_gap, exhaustive_qap, exhaustive_qbap
from .similarity import (
    CHUNK_ROWS,
    build_sparse_graph,
    default_chunk_rows,
    estimate_quantile_threshold,
)

_PARAM_EXIT = 2
_IO_EXIT = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contrabatch",
        description="Batch construction for contrastive learning via "
        "similarity-graph bandwidth minimization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, batch_required: bool = True):
        p.add_argument("--x", required=True, help="path to the first embedding matrix")
        p.add_argument("--y", required=True, help="path to the second embedding matrix")
        p.add_argument("--quantile", type=float, default=0.999,
                       help="sparsification quantile (default 0.999)")
        p.add_argument("--batch-size", type=int, required=batch_required, help="batch size k")
        p.add_argument("--tau", type=float, default=0.05, help="temperature (default 0.05)")
        p.add_argument("--chunk-rows", type=int, default=None,
                       help=f"rows per quantile chunk (default min(N, {CHUNK_ROWS}))")
        p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
        p.add_argument("--reverse-cm", action=argparse.BooleanOptionalAction, default=True,
                       help="reverse the bandwidth ordering (default on)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads; outputs do not depend on this")

    permute = sub.add_parser("permute", help="compute and save a batch-friendly reordering")
    add_common(permute)
    permute.add_argument("--strategy", choices=["gcbs", "random", "hardneg1"], default="gcbs")
    permute.add_argument("--out-perm", help="write the permutation here")
    permute.add_argument("--out-batches", help="write the batch dump here")
    permute.add_argument("--report", action="store_true", help="print the gap report JSON")

    analyze = sub.add_parser("analyze", help="report losses and gap bounds for an assignment")
    add_common(analyze)
    analyze.add_argument("--strategy", choices=["gcbs", "random", "hardneg1"], default="gcbs")
    analyze.add_argument("--perm", help="use this permutation file instead of a strategy")

    compare = sub.add_parser("compare", help="pipeline vs baselines over random seeds")
    add_common(compare)
    compare.add_argument("--seeds", type=int, default=20,
                         help="number of random baseline seeds (default 20)")

    bench = sub.add_parser("bench", help="time the pipeline stages across sizes")
    bench.add_argument("--sizes", required=True,
                       help="comma-separated sample counts, e.g. 1024,2048")
    bench.add_argument("--dim", type=int, default=64, help="embedding width (default 64)")
    bench.add_argument("--quantile", type=float, default=0.999)
    bench.add_argument("--batch-size", type=int, default=32)
    bench.add_argument("--chunk-rows", type=int, default=None)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--reverse-cm", action=argparse.BooleanOptionalAction, default=True)
    bench.add_argument("--threads", type=int, default=1)

    oracle = sub.add_parser("oracle", help="exhaustive optima at toy sizes (debugging)")
    add_common(oracle)

    return parser


def _load_normalized(args) -> EmbeddingPair:
    return load_pair(args.x, args.y).normalized()


def _make_assignment(pair: EmbeddingPair, args):
    """(order-or-None, assignment, strategy-tag, quantile-or-None)"""
    k = args.batch_size
    if args.strategy == "gcbs":
        order, assignment = bandwidth_pipeline(
            pair, args.quantile, k, chunk_rows=args.chunk_rows,
            reverse=args.reverse_cm, threads=args.threads,
        )
        return order, assignment, "gcbs", args.quantile
    if args.strategy == "random":
        assignment = random_batches(pair.n, k, args.seed)
        return assignment.perm, assignment, "random", None
    assignment = hard_negative_batches(pair, k, seed=args.seed, threads=args.threads)
    return None, assignment, "hardneg1", None


def cmd_permute(args) -> int:
    if args.strategy != "gcbs":
        raise ParameterError("permute only supports --strategy gcbs")
    pair = _load_normalized(args)
    order, assignment, strategy, quantile = _make_assignment(pair, args)
    if args.out_perm:
        save_permutation(order, args.out_perm)
    if args.out_batches:
        Path(args.out_batches).write_text(format_batches(assignment))
    if args.report:
        print(gap_report(pair, assignment, args.tau, strategy=strategy,
                         quantile=quantile, threads=args.threads).to_json())
    return 0


def cmd_analyze(args) -> int:
    pair = _load_normalized(args)
    if args.perm:
        order = load_permutation(args.perm)
        assignment = sequential_batches(order, args.batch_size)
        strategy, quantile = "file", None
    else:
        _, assignment, strategy, quantile = _make_assignment(pair, args)
    print(gap_report(pair, assignment, args.tau, strategy=strategy,
                     quantile=quantile, threads=args.threads).to_json())
    return 0


def cmd_compare(args) -> int:
    """Emit [pipeline, mined-negative, random...] reports plus random-seed stats."""
    if args.seeds < 1:
        raise ParameterError(f"need at least one random seed, got {args.seeds}")
    pair = _load_normalized(args)
    k = args.batch_size
    _, pipeline = bandwidth_pipeline(
        pair, args.quantile, k, chunk_rows=args.chunk_rows,
        reverse=args.reverse_cm, threads=args.threads,
    )
    mined = hard_negative_batches(pair, k, seed=args.seed, threads=args.threads)
    runs = [(pipeline, "gcbs", args.quantile), (mined, "hardneg1", None)]
    runs += [(random_batches(pair.n, k, seed), "random", None)
             for seed in range(args.seed, args.seed + args.seeds)]
    g = _global_stats(pair, args.tau, args.threads)  # assignment-free: shared by every report
    reports = [_report(pair, g, assignment, args.tau, strategy, quantile, args.threads)
               for assignment, strategy, quantile in runs]
    summary = {}
    for field in ("train_loss", "gap"):
        values = np.array([getattr(r, field) for r in reports if r.strategy == "random"])
        summary[field] = {"mean": values.mean(), "stddev": values.std(ddof=0)}
    body = ", ".join(r.to_json() for r in reports)
    print(f'{{"reports": [{body}], "random_summary": {_json_value(summary)}}}')
    return 0


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or any(n < 2 for n in sizes):
        raise ParameterError(f"--sizes needs positive sample counts, got {args.sizes!r}")
    if args.dim < 1:
        raise ParameterError(f"--dim must be at least 1, got {args.dim}")
    if not 0.0 < args.quantile < 1.0:
        raise ParameterError(f"quantile must lie strictly inside (0,1), got {args.quantile}")
    if args.batch_size < 1:
        raise ParameterError(f"--batch-size must be at least 1, got {args.batch_size}")
    if args.chunk_rows is not None and not 1 <= args.chunk_rows <= min(sizes):
        raise ParameterError(f"--chunk-rows must lie in [1, {min(sizes)}], got {args.chunk_rows}")
    rng = np.random.default_rng(args.seed)
    print("n,stage,seconds")
    totals = []
    for n in sizes:
        x = normalize_rows(rng.standard_normal((n, args.dim)))
        y = normalize_rows(rng.standard_normal((n, args.dim)))
        pair = EmbeddingPair(x, y)
        chunk = args.chunk_rows or default_chunk_rows(n)
        # the first size runs twice; its untimed first pass absorbs start-up cost
        for _ in range(1 if totals else 2):
            t0 = time.perf_counter()
            threshold = estimate_quantile_threshold(pair, args.quantile, chunk, threads=args.threads)
            t1 = time.perf_counter()
            graph = build_sparse_graph(pair, threshold, threads=args.threads)
            t2 = time.perf_counter()
            order = cuthill_mckee(graph, reverse=args.reverse_cm)
            t3 = time.perf_counter()
            sequential_batches(order, min(args.batch_size, n))
        stage_rows = [
            ("quantile", t1 - t0),
            ("graph", t2 - t1),
            ("ordering", t3 - t2),
            ("total", t3 - t0),
        ]
        for stage, seconds in stage_rows:
            print(f"{n},{stage},{_json_value(seconds)}")
        totals.append((n, t3 - t0))
    if len(totals) >= 2:
        logs_n = np.log([t[0] for t in totals])
        logs_t = np.log([t[1] for t in totals])
        slope = float(np.polyfit(logs_n, logs_t, 1)[0])
        print(f"log-log slope of total time vs N: {slope:.3f}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    pair = _load_normalized(args)
    k = args.batch_size
    results = {
        "qbap": exhaustive_qbap(pair, k),
        "qap": exhaustive_qap(pair, k),
        "min_gap": exhaustive_min_gap(pair, k, args.tau),
    }
    print(_json_value({
        name: {
            "best_value": res.best_value,
            "batches": res.best_assignment.batches,
            "enumerated_count": res.enumerated_count,
        }
        for name, res in results.items()
    }))
    return 0


_COMMANDS = {
    "permute": cmd_permute,
    "analyze": cmd_analyze,
    "compare": cmd_compare,
    "bench": cmd_bench,
    "oracle": cmd_oracle,
}


def _check_shared_flags(args) -> None:
    """Reject a seed or thread count outside its domain before any work."""
    if args.seed < 0:
        raise ParameterError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.threads < 1:
        raise ParameterError(f"--threads must be at least 1, got {args.threads}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_shared_flags(args)
        return _COMMANDS[args.command](args)
    except (ParameterError, CapacityError, ObjectiveUndefined) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _PARAM_EXIT
    except (ContrabatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _IO_EXIT


def entrypoint() -> None:
    raise SystemExit(main())
