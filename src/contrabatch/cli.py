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
import errno
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .batching import (
    _check_mined_batch_size,
    _nearest_part,
    _stages,
    bandwidth_pipeline,
    format_batches,
    hard_negative_batches,
    random_batches,
    sequential_batches,
)
from .errors import CapacityError, ContrabatchError, ObjectiveUndefined, ParameterError
from .io import MAX_ELEMENTS, EmbeddingPair, load_pair, load_permutation, save_permutation
from .losses import (
    _check_tau,
    _global_part,
    _global_stats,
    _json_value,
    _report,
    gap_report,
)
from .oracle import exhaustive_min_gap, exhaustive_qap, exhaustive_qbap
from .similarity import CHUNK_ROWS, _reading

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

    flags = {
        "--x": dict(required=True, help="path to the first embedding matrix"),
        "--y": dict(required=True, help="path to the second embedding matrix"),
        "--batch-size": dict(type=int, required=True, help="batch size k"),
        "--tau": dict(type=float, default=0.05, help="temperature (default 0.05)"),
        "--quantile": dict(type=float, default=0.999, help="sparsification quantile (default 0.999)"),
        "--chunk-rows": dict(type=int, default=None,
                             help=f"rows per quantile chunk (default min(N, {CHUNK_ROWS}))"),
        "--reverse-cm": dict(action=argparse.BooleanOptionalAction, default=True,
                             help="reverse the bandwidth ordering (default on)"),
        "--seed": dict(type=int, default=0, help="PRNG seed (default 0)"),
        "--threads": dict(type=int, default=1, help="worker threads; outputs do not depend on this"),
    }

    def add(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            p.add_argument(name, **flags[name])

    pair_flags = ("--x", "--y", "--batch-size", "--tau", "--threads")
    pipeline_flags = ("--quantile", "--chunk-rows", "--reverse-cm")

    permute = sub.add_parser("permute", help="compute and save a batch-friendly reordering")
    add(permute, *pair_flags, *pipeline_flags)
    permute.add_argument("--out-perm", help="write the permutation here")
    permute.add_argument("--out-batches", help="write the batch dump here")
    permute.add_argument("--report", action="store_true", help="print the gap report JSON")

    analyze = sub.add_parser("analyze", help="report losses and gap bounds for an assignment")
    add(analyze, *pair_flags, *pipeline_flags, "--seed")
    analyze.add_argument("--strategy", choices=["gcbs", "random", "hardneg1"], default="gcbs")
    analyze.add_argument("--perm", help="use this permutation file instead of a strategy")

    compare = sub.add_parser("compare", help="pipeline vs baselines over random seeds")
    add(compare, *pair_flags, *pipeline_flags, "--seed")
    compare.add_argument("--seeds", type=int, default=20,
                         help="number of random baseline seeds (default 20)")

    bench = sub.add_parser("bench", help="time the pipeline stages across sizes")
    bench.add_argument("--sizes", required=True,
                       help="comma-separated sample counts, e.g. 1024,2048")
    bench.add_argument("--dim", type=int, default=64, help="embedding width (default 64)")
    add(bench, *pipeline_flags, "--seed", "--threads")

    oracle = sub.add_parser("oracle", help="exhaustive optima at toy sizes (debugging)")
    add(oracle, *pair_flags)

    return parser


def _load_normalized(args, *parts) -> EmbeddingPair:
    """The one place the CLI normalizes: every row of X and Y, on load.

    The cutoff's tile scan also keeps each ``(fn, args)`` of ``parts``
    (``similarity._reading``), so the scans that read them later need not
    multiply X·Yᵀ again.
    """
    pair = load_pair(args.x, args.y).normalized()
    return _reading(pair, *parts) if parts else pair


def _global_terms(args, wanted: bool = True) -> list:
    """The report's global-loss part at ``--tau`` if ``wanted``; it scales
    each block in place, so it is the last part read."""
    return [(_global_part, (args.tau,))] if wanted else []


def _pipeline(pair: EmbeddingPair, args):
    return bandwidth_pipeline(pair, args.quantile, args.batch_size, chunk_rows=args.chunk_rows,
                              reverse=args.reverse_cm, threads=args.threads)


def _write_all(writes) -> None:
    """Run each ``(path, write)`` on a sibling temporary file, then move every
    file into place: a failed write leaves no output and no existing file
    changed."""
    temps = [Path(path).with_name(f".{Path(path).name}.{os.getpid()}.{i}.tmp")
             for i, (path, _) in enumerate(writes)]
    try:
        for (path, write), temp in zip(writes, temps):
            try:
                write(temp)
            except OSError as exc:  # name the output asked for, not its temporary file
                raise OSError(exc.errno, exc.strerror, path) from exc
        for path, _ in writes:  # a move onto a directory would fail after an earlier move
            if Path(path).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for (path, _), temp in zip(writes, temps):
            os.replace(temp, path)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def cmd_permute(args) -> int:
    # a move replaces the name itself, not what a link there points to: resolve the directories
    targets = [(os.path.realpath(Path(path).parent), Path(path).name)
               for path in (args.out_perm, args.out_batches) if path]
    if len(set(targets)) < len(targets):
        raise ParameterError(f"--out-perm and --out-batches name the same file: {args.out_perm}")
    pair = _load_normalized(args, *_global_terms(args, args.report))
    order, assignment = _pipeline(pair, args)
    report = None
    if args.report:  # encoded before any file is written, so a failing report writes none
        report = gap_report(pair, assignment, args.tau, strategy="gcbs",
                            quantile=args.quantile, threads=args.threads).to_json()
    writes = []
    if args.out_perm:
        writes.append((args.out_perm, lambda path: save_permutation(order, path)))
    if args.out_batches:
        writes.append((args.out_batches, lambda path: Path(path).write_text(format_batches(assignment))))
    _write_all(writes)
    if report is not None:
        print(report)
    return 0


def cmd_analyze(args) -> int:
    pair = _load_normalized(args, *_global_terms(args, args.strategy == "gcbs" and not args.perm))
    k, strategy, quantile = args.batch_size, args.strategy, None
    if args.perm:
        assignment, strategy = sequential_batches(load_permutation(args.perm), k), "file"
    elif strategy == "gcbs":
        assignment, quantile = _pipeline(pair, args)[1], args.quantile
    elif strategy == "random":
        assignment = random_batches(pair.n, k, args.seed)
    else:
        assignment = hard_negative_batches(pair, k, seed=args.seed, threads=args.threads)
    print(gap_report(pair, assignment, args.tau, strategy=strategy,
                     quantile=quantile, threads=args.threads).to_json())
    return 0


def cmd_compare(args) -> int:
    """Emit [pipeline, mined-negative, random...] reports plus random-seed stats."""
    if args.seeds < 1:
        raise ParameterError(f"need at least one random seed, got {args.seeds}")
    # the cutoff's tile scan also reads the mined baseline's argmax, from the raw products
    pair = _load_normalized(args, (_nearest_part, ()), *_global_terms(args))
    k = args.batch_size
    _check_mined_batch_size(pair.n, k)  # an odd k fails before the pipeline's work
    _, pipeline = _pipeline(pair, args)
    mined = hard_negative_batches(pair, k, seed=args.seed, threads=args.threads)
    runs = [(pipeline, "gcbs", args.quantile), (mined, "hardneg1", None)]
    runs += [(random_batches(pair.n, k, seed), "random", None)
             for seed in range(args.seed, args.seed + args.seeds)]
    # assignment-free, so shared by every report; read from the cutoff's tiles
    g = _global_stats(pair, args.tau, args.threads)
    reports = [_report(pair, g, assignment, args.tau, strategy, quantile, args.threads)
               for assignment, strategy, quantile in runs]
    summary = {}
    for field in ("train_loss", "gap"):
        values = np.array([getattr(r, field) for r in reports if r.strategy == "random"])
        with np.errstate(all="ignore"):  # a non-finite summary fails as JSON, without warnings
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
    if max(sizes) * args.dim > MAX_ELEMENTS:
        raise CapacityError(f"{max(sizes)}x{args.dim} exceeds element limit")
    rng = np.random.default_rng(args.seed)
    rows, totals = ["n,stage,seconds"], []
    for n in sizes:
        pair = EmbeddingPair(rng.standard_normal((n, args.dim)),
                             rng.standard_normal((n, args.dim))).normalized()
        # the first size runs twice; its untimed first pass absorbs start-up cost
        for _ in range(1 if totals else 2):
            stamps = [time.perf_counter()]
            stamps += [time.perf_counter() for _ in _stages(
                pair, args.quantile, args.chunk_rows, args.reverse_cm, args.threads)]
        t0, t1, t2, t3 = stamps
        for stage, seconds in [("quantile", t1 - t0), ("graph", t2 - t1),
                               ("ordering", t3 - t2), ("total", t3 - t0)]:
            rows.append(f"{n},{stage},{_json_value(seconds)}")
        totals.append((n, t3 - t0))
    print("\n".join(rows))  # printed only once every size ran, so a failure prints no row
    if len({n for n, _ in totals}) >= 2:  # a slope needs two distinct sizes
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
    """Reject a seed, thread count or temperature outside its domain before any work."""
    if getattr(args, "seed", 0) < 0:
        raise ParameterError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.threads < 1:
        raise ParameterError(f"--threads must be at least 1, got {args.threads}")
    if "tau" in args and getattr(args, "report", True):  # permute reads --tau only with --report
        _check_tau(args.tau)


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
