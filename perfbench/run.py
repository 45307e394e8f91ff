"""Epoch benchmark for contrabatch: what one epoch of the CLI costs, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

Each epoch is a fresh CLI child (``contrabatch.cli.main`` with ``src`` on
the path) on drifted seeded inputs, timed from spawn to exit.  Epochs run
back to back for ``--seconds`` and at least MIN_EPOCHS times; afterwards,
outside any timing, every epoch's outputs are checked against the library
run in-process, and the first epochs of GOLDEN_SEED are recomputed and
compared with the digests in baseline.json.  With ``--trace 1`` each epoch
runs twice, once under traced_cli.py and once plain, and the per-layer
metrics come from the traced spans; epoch 0 runs a third time with
tracemalloc on, for the allocation peaks.  A human summary goes to
stderr; the last stdout line is the JSON result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread here and in every child, set before NumPy loads.  With
# OpenBLAS's default of one thread per core, an epoch child keeps both cores
# of a 2-core machine busy and its wall time varies more from epoch to epoch;
# the in-process reference runs on the same BLAS setting as the child.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "contrabatch" / "cli.py").is_file():
    sys.exit(f"perfbench: {SRC / 'contrabatch'} not found; run from a full checkout")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import contrabatch  # noqa: E402
from contrabatch import (  # noqa: E402
    estimate_quantile_threshold,
    gap_upper_bounds,
    ntxent_global,
    ntxent_train,
)

import checker  # noqa: E402
import spans  # noqa: E402
from inputs import DriftingPairs, write_pair  # noqa: E402
from stats import MIN_BEYOND, tail_percentile  # noqa: E402
from workloads import TAU, WORKLOADS, Workload  # noqa: E402

WORK = ROOT / ".perfbench"
LAUNCH = "import sys; from contrabatch.cli import main; sys.exit(main(sys.argv[1:]))"
# Entries the probe of probe_code() multiplies, sorts and exponentiates.
PROBE_ENTRIES = 2**23
# The stand-in for a CLI start-up: Python and NumPy, nothing of contrabatch.
START_PROBE = "import numpy"
# setup_s is the CLI's start-up time at the host speed where START_PROBE takes
# this long: the median of CLI start / START_PROBE start, times this constant.
# It is START_PROBE's median wall over thirty runs (0.158 s; 0.113-0.204 s per
# run) on the 2-core machine of baseline.json.
START_PROBE_REF_S = 0.16
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

# Output digests of the first epochs of GOLDEN_SEED, recorded in
# baseline.json.  The per-epoch checks compare the CLI with the library of the
# same commit; these digests pin the library's outputs across commits, since
# a change that claims only speed must leave every permutation bit-identical.
GOLDEN_SEED = 0
GOLDEN = json.loads((HERE / "baseline.json").read_text())["golden_digests"]

MIN_EPOCHS = MIN_BEYOND + 1  # the fewest that support a tail percentile
TRACE_MIN_EPOCHS = 3
QUALITY_EPOCHS = MIN_EPOCHS  # loss_gap and in_batch_edge_frac: mean over this fixed prefix
DIRECT_REPS = 3
CHILD_TIMEOUT_S = 60.0
LOOP_DEADLINE_S = 75.0  # no new epoch after this, so checks still end within 180 s

# Metric names and units are declared once, in BENCHMARK.json.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


@dataclass
class Epoch:
    index: int
    x: Path
    y: Path
    out_dir: Path
    child: checker.Child
    wall_s: float
    rss_mb: float


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(PINNED_ENV["OPENBLAS_NUM_THREADS"]),
    }


def spawn(cmd: list[str], out_dir: Path) -> tuple[checker.Child, float, float]:
    """Run one child to its end; (outputs, wall seconds, peak RSS in MB).

    The peak RSS is the child's own unless this process was larger when it
    spawned the child: Linux carries the spawner's peak into the figure.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stdout", "wb") as out, open(out_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = checker.Child(
        returncode=proc.returncode,
        stdout=(out_dir / "stdout").read_text(errors="replace"),
        stderr=(out_dir / "stderr").read_text(errors="replace"),
        out_dir=out_dir,
    )
    return child, wall, usage.ru_maxrss / 1024.0


def cli_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-c", LAUNCH, *args]


def spawn_probe(code: str, directory: Path, result: Result) -> float:
    """Wall time of a child that runs ``code``, which uses nothing of contrabatch."""
    child, wall, _ = spawn([sys.executable, "-c", code], directory)
    if child.returncode != 0:
        result.correct = False
        result.notes.append(f"probe exited {child.returncode}")
    return wall


def probe_code(n: int) -> str:
    """A fixed stand-in for an epoch of a workload with ``n`` samples.

    It starts Python, imports NumPy, then multiplies, sorts and exponentiates
    blocks of the n-by-n similarity matrix, PROBE_ENTRIES entries in all, as
    the similarity and loss layers do; about 0.3 s.  A longer probe tracks
    the host's speed better.  Its blocks are as wide as the workload's
    matrices, and as tall as PROBE_ENTRIES allows, so that they meet the same
    cache and memory pressure: with one 2048-by-4096 block for every
    workload, a slow stretch of the host slowed the probe by 30% and the
    N = 1536 epochs by 13%.
    """
    rows = min(n, PROBE_ENTRIES // n)
    reps = max(1, PROBE_ENTRIES // (rows * n))
    return (f"import numpy as np; a = np.random.default_rng(0).standard_normal(({n}, 64))\n"
            f"for _ in range({reps}):\n"
            f"    m = a[:{rows}] @ a.T; np.sort(m, axis=None); np.exp(m).sum()")


def spawn_setup(directory: Path, result: Result) -> float:
    """Wall time of one CLI child that only starts up: ``--version``."""
    child, wall, _ = spawn(cli_cmd(["--version"]), directory)
    if child.returncode != 0 or child.stdout.strip() != contrabatch.__version__:
        result.correct = False
        result.notes.append(f"--version exited {child.returncode} printing {child.stdout!r}")
    return wall


def run_epochs(wl: Workload, seed: int, seconds: float, work: Path, launch, min_epochs: int):
    """Launch epochs back to back; ``launch(epoch, x, y, dir)`` spawns its children."""
    pairs = DriftingPairs(wl.inputs, wl.n, seed)
    start = time.perf_counter()
    done = []
    while len(done) < min_epochs or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > LOOP_DEADLINE_S:
            break
        d = work / f"epoch{len(done)}"
        x, y = write_pair(*next(pairs), d)
        done.append(launch(len(done), x, y, d))
    return done


def check(wl: Workload, epoch: Epoch, children: list[checker.Child], result: Result):
    """Check each child of one epoch against one reference; count the epoch once."""
    ref = checker.reference(wl, epoch.x, epoch.y, epoch.out_dir)
    checks = [checker.check_epoch(wl, c, ref) for c in children]
    result.attempted += 1
    problems = [p for c in checks for p in c.problems]
    if problems:
        result.failed += 1
        result.notes.append(f"epoch {epoch.index} failed: {'; '.join(problems)}")
    return ref, checks[0]


def check_golden(wl: Workload, work: Path, result: Result) -> None:
    """Recompute the golden epochs in-process; each mismatch is a failed epoch."""
    pairs = DriftingPairs(wl.inputs, wl.n, GOLDEN_SEED)
    for e, expected in enumerate(GOLDEN[wl.name]):
        d = work / f"golden{e}"
        x, y = write_pair(*next(pairs), d)
        digest = checker.output_digest(checker.reference(wl, x, y, d))
        result.attempted += 1
        if digest != expected:
            result.failed += 1
            result.notes.append(f"golden epoch {e} of seed {GOLDEN_SEED} failed: outputs hash "
                                f"to {digest}, baseline.json records {expected}")


def measure_plain(wl: Workload, seed: int, seconds: float, work: Path, result: Result):
    spawn_setup(work / "warmup", result)  # fills the page and bytecode caches
    setups, start_probes, probes = [], [], []
    probe = probe_code(wl.n)

    def launch(e, x, y, d):
        # A start-up sample and the probes next to every epoch, so all see
        # the same machine as the epoch.  This host runs faster and slower
        # for minutes at a time; a probe's wall moves with it while no change
        # to contrabatch can move the probe, so CLI start / START_PROBE and
        # epoch / probe are steadier than the raw walls.
        setups.append(spawn_setup(d / "setup", result))
        start_probes.append(spawn_probe(START_PROBE, d / "start-probe", result))
        probes.append(spawn_probe(probe, d / "probe", result))
        child, wall, rss = spawn(cli_cmd(wl.argv(x, y, d / "plain")), d / "plain")
        return Epoch(e, x, y, d, child, wall, rss)

    epochs = run_epochs(wl, seed, seconds, work, launch, MIN_EPOCHS)
    # Linux carries the spawning process's peak RSS into a child's ru_maxrss,
    # so peak_rss_mb is the child's own only while this process stays smaller.
    own_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gaps, fracs = [], []
    for epoch in epochs:
        ref, checked = check(wl, epoch, [epoch.child], result)
        if epoch.index < QUALITY_EPOCHS:
            gap, frac = checker.quality(wl, ref, checked)
            gaps.append(gap)
            fracs.append(frac)
    walls = [e.wall_s for e in epochs]
    p50 = statistics.median(walls)
    tail, pct, beyond = tail_percentile(walls)
    result.metrics.update({
        "setup_s": START_PROBE_REF_S * statistics.median(
            s / p for s, p in zip(setups, start_probes)),
        "epoch_probe_ratio_p50": statistics.median(e.wall_s / p for e, p in zip(epochs, probes)),
        "peak_rss_mb": max(e.rss_mb for e in epochs),
        "loss_gap": float(np.mean(gaps)),
        "in_batch_edge_frac": float(np.mean(fracs)),
    })
    # Raw wall times move with the host's speed by more than any useful bound,
    # so they are reported here rather than gated.
    result.notes.append(
        f"epoch_s_p50 = {p50:.6g} s, samples_per_s = {wl.n / p50:.6g} 1/s, "
        f"epoch_s_tail = {tail:.6g} s: p{pct:.1f} of {len(walls)} epochs ({beyond} beyond it)"
        + ("" if beyond >= MIN_BEYOND else "; too few epochs for a supported tail: maximum shown"))
    result.notes.append(f"benchmark process peak RSS while epochs ran: {own_peak_mb:.1f} MB")
    result.notes.append("epoch walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    result.notes.append("probe walls (s): " + " ".join(f"{w:.3f}" for w in probes))
    result.notes.append(f"raw CLI start-up: median {statistics.median(setups):.4f} s; "
                        f"{START_PROBE!r} start-up: median {statistics.median(start_probes):.4f} s")
    result.notes.append(f"failed_frac {result.failed / result.attempted:.4f} "
                        f"({result.failed}/{result.attempted} epochs)")


def direct_layer_times(wl: Workload, ref: checker.Reference) -> tuple[list[dict], dict]:
    """Time, from outside, the loss calls the CLI does not make and the 2-thread quantile."""
    recorder = spans.Recorder(epoch=0)
    pair, assignment = ref.pair, ref.assignment
    chunk = max(1, wl.n // 2)  # two chunks, so a second thread has work
    calls = {
        "losses.global": lambda: ntxent_global(pair, TAU),
        "losses.train": lambda: ntxent_train(pair, assignment, TAU),
        "losses.bounds": lambda: gap_upper_bounds(pair, assignment, TAU),
        "parallel.quantile_1t": lambda: estimate_quantile_threshold(pair, wl.q, chunk, threads=1),
        "parallel.quantile_2t": lambda: estimate_quantile_threshold(pair, wl.q, chunk, threads=2),
    }
    times = {}
    for name, call in calls.items():
        reps = []
        for _ in range(DIRECT_REPS):
            with recorder.span(name):
                call()
            reps.append(spans.duration(recorder.spans[-1]))
        times[name] = statistics.median(reps)
    return recorder.spans, times


def peak_alloc(recorded: list[dict], *names: str) -> float:
    """Highest tracemalloc peak of the named spans, in MB."""
    return max((s["peak_alloc_mb"] for s in recorded if s["name"] in names), default=0.0)


def epoch_layer_figures(doc: dict, traced_wall: float, plain_wall: float) -> dict[str, float]:
    """Per-layer figures of one traced epoch, from its spans."""
    recorded = doc["spans"]
    totals = spans.totals(recorded)
    own = spans.layer_self(recorded)

    def total(*names):
        return sum(totals.get(n, 0.0) for n in names)

    # what the layer spans leave of the wall: spawn, imports, argparse, formatting
    top = [s for s in recorded if s["parent"] == 0 or s["name"] == "trace.epilogue"]
    figures = {
        "io.load_s": total("io.load"),
        "io.normalize_s": total("io.normalize"),
        "io.write_s": total("io.write_perm", "io.format_batches"),
        "similarity.quantile_s": total("similarity.quantile"),
        "similarity.graph_s": total("similarity.graph"),
        "bandwidth.ordering_s": total("bandwidth.ordering"),
        "batching.cut_s": total("batching.cut"),
        "batching.random_s": total("batching.random"),
        "batching.hardneg_s": total("batching.hardneg"),
        "losses.objectives_s": total("losses.qbap", "losses.qap"),
        "losses.report_s": total("losses.report"),
        "cli.self_s": traced_wall - sum(spans.duration(s) for s in top),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    for layer in ("io", "similarity", "bandwidth", "batching", "losses"):
        figures[f"{layer}.self_s"] = own.get(layer, 0.0)
    return figures


def measure_traced(wl: Workload, seed: int, seconds: float, work: Path, result: Result,
                   trace_file: Path):
    def launch(e, x, y, d):
        def traced_cmd(kind, memory):
            return [sys.executable, str(HERE / "traced_cli.py"), str(d / f"{kind}.json"), str(e),
                    memory, *wl.argv(x, y, d / kind)]

        launches = [("traced", traced_cmd("traced", "0")),
                    ("plain", cli_cmd(wl.argv(x, y, d / "plain")))]
        if e % 2:  # alternate which runs first, so drift in machine load cancels
            launches.reverse()
        if e == 0:  # allocation peaks come from a child whose times are not used
            launches.append(("memory", traced_cmd("memory", "1")))
        children, walls = {}, {}
        for kind, cmd in launches:
            children[kind], walls[kind], _ = spawn(cmd, d / kind)
        return Epoch(e, x, y, d, children.pop("plain"), walls["plain"], 0.0), children, walls

    traced_epochs = run_epochs(wl, seed, seconds, work, launch, TRACE_MIN_EPOCHS)
    per_epoch = []
    memory_spans = None
    ref0 = None
    for epoch, children, walls in traced_epochs:
        ref, _ = check(wl, epoch, [epoch.child, *children.values()], result)
        ref0 = ref0 or ref
        if (epoch.out_dir / "traced.json").is_file():
            doc = json.loads((epoch.out_dir / "traced.json").read_text())
            per_epoch.append((doc, walls["traced"], epoch.wall_s))
        if (epoch.out_dir / "memory.json").is_file():
            memory_spans = json.loads((epoch.out_dir / "memory.json").read_text())["spans"]
    if not per_epoch or memory_spans is None:
        result.correct = False
        result.notes.append("traced epochs left no spans")
        return
    direct_spans, direct = direct_layer_times(wl, ref0)
    figures = [epoch_layer_figures(doc, tw, pw) for doc, tw, pw in per_epoch]
    m = {k: statistics.median(f[k] for f in figures) for k in figures[0]}
    m.update({
        "similarity.peak_alloc_mb": peak_alloc(
            memory_spans, "similarity.quantile", "similarity.graph"),
        "losses.peak_alloc_mb": peak_alloc(
            memory_spans, "losses.report", "losses.qbap", "losses.qap"),
        "losses.global_s": direct["losses.global"],
        "losses.train_s": direct["losses.train"],
        "losses.bounds_s": direct["losses.bounds"],
        "parallel.quantile_speedup_2t": direct["parallel.quantile_1t"] / direct["parallel.quantile_2t"],
    })
    m["similarity.quantile_ns_per_entry"] = m["similarity.quantile_s"] / wl.n**2 * 1e9
    m.update({k: float(v) for k, v in per_epoch[0][0]["counters"].items()})
    result.metrics.update(m)
    result.notes.append(
        f"traced {len(per_epoch)} epochs; counters and allocation peaks from epoch 0")
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "workload": wl.name, "seed": seed, "environment": environment(),
        "epochs": [{"spans": doc, "traced_wall_s": tw, "plain_wall_s": pw}
                   for doc, tw, pw in per_epoch],
        "memory_spans": memory_spans,
        "direct_spans": direct_spans,
    }, indent=1))


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    work = WORK / f"work-{wl.name}-{seed}-{os.getpid()}"
    try:
        if trace:
            measure_traced(wl, seed, seconds, work, result,
                           WORK / f"trace-{wl.name}-seed{seed}.json")
        else:
            measure_plain(wl, seed, seconds, work, result)
        check_golden(wl, work, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = [k for k in units if k not in result.metrics]
    if missing:
        result.correct = False
        result.notes.append(f"metrics not produced: {', '.join(missing)}")
    result.correct = result.correct and result.failed == 0 and result.attempted > 0
    return result


def summary(name: str, result: Result, units: dict[str, str]) -> list[str]:
    lines = [f"{name}: {'correct' if result.correct else 'INCORRECT'}, "
             f"{result.failed} failed of {result.attempted} epochs"]
    lines += [f"  {k} = {result.metrics[k]:.6g} {units[k]}" for k in units if k in result.metrics]
    lines += [f"  note: {n}" for n in result.notes]
    return lines


def result_json(result: Result, units: dict[str, str]) -> dict:
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": result.metrics[k], "unit": u}
                    for k, u in units.items() if k in result.metrics},
    }


def run_all(args) -> int:
    """Every workload in a process of its own, exactly as a single run measures it."""
    docs = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        docs[name] = (json.loads(lines[-1]) if proc.returncode == 0 and lines
                      else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}})
    for name, doc in docs.items():
        for k, m in doc["metrics"].items():
            print(f"{name} {k} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(d["correct"] for d in docs.values()),
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "metrics": {f"{name}/{k}": m for name, d in docs.items() for k, m in d["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"environment: {json.dumps(environment())}", file=sys.stderr)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary(args.workload, result, units)), file=sys.stderr)
    print(json.dumps(result_json(result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
