"""Command-line surface: reorder embedding pairs into contrast-friendly
batches, report loss gaps, compare strategies, and benchmark the pipeline.

Reports go to stdout, diagnostics to stderr; files are written only when
output paths are given.  Exit codes: 0 success, 1 I/O or format problems,
2 parameter validation, an epoch whose graph would pass the edge cap, or
running out of memory.  Every command is
deterministic for fixed inputs, flags, and seed (bench timings excepted:
the measured seconds vary, the row structure does not).

At interpreter exit the objects still alive are frozen (``gc.freeze``), so
the exit-time collections skip what import left behind; ``main`` itself
leaves the collector as it found it.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import gc
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
from .similarity import CHUNK_ROWS, _Scan

_PARAM_EXIT = 2
_IO_EXIT = 1
# atexit runs before the interpreter's exit-time collections, so those skip every frozen
# object; every output is closed before main returns, so no byte moves
atexit.register(gc.freeze)

# Most worker threads a run may ask for; more exits 2.  A map starts at most
# one worker per usable core, whatever it is asked (``_parallel.ordered_map``),
# so the ceiling bounds neither threads nor memory: it keeps the accepted range
# the same on every host, so an argv valid on one host is valid on all.
_MAX_THREADS = 256

# The names taken from ``losses``, bound on first use (``_load_losses``):
# ``permute`` without ``--report`` computes no loss, so it imports neither
# ``losses`` nor the ``json`` it pulls in.
_LOSS_NAMES = ("_check_tau", "_global_part", "_json_value", "gap_report")


def _load_losses() -> None:
    """Bind the ``_LOSS_NAMES`` here, importing ``losses``; a name already
    bound, such as a wrapper set on ``cli.gap_report``, is kept."""
    from . import losses

    for name in _LOSS_NAMES:
        globals().setdefault(name, getattr(losses, name))


def __getattr__(name: str):
    if name in _LOSS_NAMES:
        _load_losses()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _load_normalized(args) -> EmbeddingPair:
    """The one place the CLI normalizes: every row of X and Y, in place on load."""
    return load_pair(args.x, args.y, normalize=True)


def _epoch(args, strategies, report: bool = True):
    """The epoch of ``permute``, ``analyze`` and ``compare``: load and normalize
    the pair, assign each ``(strategy, seed)`` in turn (``gcbs`` runs the
    pipeline, ``file`` cuts ``--perm``) and, if ``report``, report on each, all
    from one scan.  Returns the pipeline's order or None, the assignments and
    the reports."""
    pair, k = _load_normalized(args), args.batch_size
    parts = []
    # the mined baseline's argmax reads the raw products, so it goes first; the report's
    # global terms scale each block in place, so they go last
    if any(strategy == "hardneg1" for strategy, _ in strategies):
        _check_mined_batch_size(pair.n, k)  # an odd k fails before the pipeline's work
        parts.append((_nearest_part, ()))
    if report:
        parts.append((_global_part, (args.tau,)))
    scan = _Scan(*parts)
    order, assignments = None, []
    for strategy, seed in strategies:
        if strategy == "gcbs":
            order, assignment = bandwidth_pipeline(
                pair, args.quantile, k, chunk_rows=args.chunk_rows, reverse=args.reverse_cm,
                threads=args.threads, _scan=scan)
        elif strategy == "hardneg1":
            assignment = hard_negative_batches(pair, k, seed=seed, threads=args.threads, _scan=scan)
        elif strategy == "random":
            assignment = random_batches(pair.n, k, seed)
        else:
            assignment = sequential_batches(load_permutation(args.perm), k)
        assignments.append(assignment)
    reports = [gap_report(pair, assignment, args.tau, strategy=strategy,
                          quantile=args.quantile if strategy == "gcbs" else None,
                          threads=args.threads, _scan=scan)
               for assignment, (strategy, _) in zip(assignments, strategies)] if report else []
    return order, assignments, reports


def _write_all(writes) -> None:
    """Run each ``(path, write)`` on a sibling temporary file, then move every
    file into place: a failed write leaves no output and no existing file
    changed."""
    # named apart from the output, so a name at the length limit still has a temporary file
    temps = [Path(path).parent / f".contrabatch.{os.getpid()}.{i}.tmp"
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
    paths = [path for path in (args.out_perm, args.out_batches) if path is not None]
    if "" in paths:
        raise ParameterError("--out-perm and --out-batches need a non-empty path")
    # a move replaces the name itself, not what a link there points to: resolve the directories
    targets = [(os.path.realpath(Path(path).parent), Path(path).name) for path in paths]
    if len(set(targets)) < len(targets):
        raise ParameterError(f"--out-perm and --out-batches name the same file: {args.out_perm}")
    order, (assignment,), reports = _epoch(args, [("gcbs", None)], args.report)
    # encoded before any file is written, so a failing report writes none
    reports = [report.to_json() for report in reports]
    writes = []
    if args.out_perm:
        writes.append((args.out_perm, lambda path: save_permutation(order, path)))
    if args.out_batches:
        writes.append((args.out_batches, lambda path: Path(path).write_text(format_batches(assignment))))
    _write_all(writes)
    for report in reports:
        print(report)
    return 0


def cmd_analyze(args) -> int:
    strategy = "file" if args.perm else args.strategy
    *_, (report,) = _epoch(args, [(strategy, args.seed)])
    print(report.to_json())
    return 0


def cmd_compare(args) -> int:
    """Emit [pipeline, mined-negative, random...] reports plus random-seed stats."""
    if args.seeds < 1:
        raise ParameterError(f"need at least one random seed, got {args.seeds}")
    seeds = range(args.seed, args.seed + args.seeds)
    *_, reports = _epoch(args, [("gcbs", None), ("hardneg1", args.seed),
                                *(("random", seed) for seed in seeds)])
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
    from .oracle import exhaustive_min_gap, exhaustive_qap, exhaustive_qbap  # debugging only

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
    if not 1 <= args.threads <= _MAX_THREADS:
        raise ParameterError(f"--threads must lie in [1, {_MAX_THREADS}], got {args.threads}")
    if "tau" in args and getattr(args, "report", True):  # permute reads --tau only with --report
        _check_tau(args.tau)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "report", True):  # every command but a bare permute reads the losses
        _load_losses()
    try:
        _check_shared_flags(args)
        return _COMMANDS[args.command](args)
    except (ParameterError, CapacityError, ObjectiveUndefined) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _PARAM_EXIT
    except (ContrabatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _IO_EXIT
    except MemoryError as exc:  # a quantile too low or an N too large for this host
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return _PARAM_EXIT


def entrypoint() -> None:
    raise SystemExit(main())
