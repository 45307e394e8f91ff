"""Per-epoch output checks, the in-process reference, and batch-quality figures.

An epoch passes when the CLI child exited 0 without a traceback and every
file and line it wrote is valid and byte-identical to what the library
produces in-process for the same inputs.  A failed check is returned as a
problem string, never raised, so a run counts failed epochs instead of
stopping at the first.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from contrabatch import (
    BatchAssignment,
    ContrabatchError,
    EmbeddingPair,
    SparseSimilarityGraph,
    bandwidth_pipeline,
    build_sparse_graph,
    estimate_quantile_threshold,
    format_batches,
    gap_report,
    hard_negative_batches,
    load_pair,
    load_permutation,
    matrix_bandwidth,
    ntxent_global,
    ntxent_train,
    random_batches,
    save_permutation,
    sequential_batches,
    validate_permutation,
)

from workloads import K, TAU, Workload

#: Slack on the gap bounds, as in the library's own acceptance tests.
BOUND_SLACK = 1e-9

#: Row chunk of the checker's own similarity graph; the CLI's default.
GRAPH_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class Child:
    """What one CLI child left behind: exit code, streams, and its output dir."""

    returncode: int
    stdout: str
    stderr: str
    out_dir: Path


@dataclass(frozen=True)
class Reference:
    """The library's in-process result for one epoch's inputs."""

    pair: EmbeddingPair
    assignment: BatchAssignment
    perm_path: Path | None
    stdout: str


@dataclass(frozen=True)
class Checked:
    problems: list[str]
    perm: np.ndarray | None  # the child's permutation, when it wrote a valid one
    gcbs_gap: float | None  # the child's reported pipeline gap, when it printed one


def _num(v: float) -> str:
    return format(float(v), ".17g")


def _compare_stdout(pair: EmbeddingPair, assignment: BatchAssignment, wl: Workload) -> str:
    """The ``compare`` line, assembled from in-process reports."""
    reports = [gap_report(pair, assignment, TAU, strategy="gcbs", quantile=wl.q)]
    mined = hard_negative_batches(pair, K, seed=0)
    reports.append(gap_report(pair, mined, TAU, strategy="hardneg1"))
    for seed in range(wl.seeds):
        reports.append(gap_report(pair, random_batches(pair.n, K, seed), TAU, strategy="random"))
    train = np.array([r.train_loss for r in reports[2:]])
    gap = np.array([r.gap for r in reports[2:]])

    def stats(v: np.ndarray) -> str:
        return f'{{"mean": {_num(v.mean())}, "stddev": {_num(v.std(ddof=0))}}}'

    body = ", ".join(r.to_json() for r in reports)
    return (f'{{"reports": [{body}], "random_summary": '
            f'{{"train_loss": {stats(train)}, "gap": {stats(gap)}}}}}\n')


def reference(wl: Workload, x: Path, y: Path, out_dir: Path) -> Reference:
    """Compute in-process what the CLI child should have written."""
    pair = load_pair(x, y).normalized()
    order, assignment = bandwidth_pipeline(pair, wl.q, K)
    perm_path = None
    if wl.writes_perm:
        perm_path = out_dir / "reference-perm.txt"
        save_permutation(order, perm_path)
    if wl.command == "compare":
        stdout = _compare_stdout(pair, assignment, wl)
    elif wl.report:
        stdout = gap_report(pair, assignment, TAU, strategy="gcbs", quantile=wl.q).to_json() + "\n"
    else:
        stdout = ""
    return Reference(pair, assignment, perm_path, stdout)


def output_digest(ref: Reference) -> str:
    """SHA-256 of what an epoch writes: the permutation file, then stdout.

    The batch dump is not hashed: it is a function of the permutation.
    """
    digest = hashlib.sha256()
    if ref.perm_path is not None:
        digest.update(ref.perm_path.read_bytes())
    digest.update(ref.stdout.encode())
    return digest.hexdigest()


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def parse_json(text: str):
    """json.loads that refuses NaN, Infinity and overflowing literals."""
    return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)


def _check_report(report: dict) -> list[str]:
    """Gap bounds hold for partition assignments (the mined baseline is not one)."""
    if report["strategy"] == "hardneg1":
        return []
    gap = report["gap"]
    problems = []
    if not -BOUND_SLACK <= gap <= report["ub_gap_translation"] + BOUND_SLACK:
        problems.append(f"{report['strategy']} gap {gap} outside [0, ub_gap_translation]")
    if gap > report["ub_gap_standard"] + BOUND_SLACK:
        problems.append(f"{report['strategy']} gap {gap} above ub_gap_standard")
    return problems


def check_epoch(wl: Workload, child: Child, ref: Reference) -> Checked:
    """Every check on one epoch's outputs; problems are collected, not raised."""
    problems = []
    if child.returncode != 0:
        problems.append(f"exit code {child.returncode}")
    if "Traceback" in child.stderr:
        problems.append("traceback on stderr")

    perm = None
    if wl.writes_perm:
        perm_path = child.out_dir / "perm.txt"
        try:
            perm = validate_permutation(load_permutation(perm_path), wl.n)
        except (ContrabatchError, OSError) as exc:
            problems.append(f"permutation rejected: {exc}")
        else:
            if perm_path.read_bytes() != ref.perm_path.read_bytes():
                problems.append("permutation differs from the in-process reference")
    if wl.out_batches and perm is not None:
        try:
            dump = (child.out_dir / "batches.txt").read_text()
        except OSError as exc:
            problems.append(f"batch dump unreadable: {exc}")
        else:
            if dump != format_batches(sequential_batches(perm, K)):
                problems.append("batch dump does not match sequential_batches(perm, k)")

    gcbs_gap = None
    if ref.stdout:
        try:
            doc = parse_json(child.stdout)
            reports = doc["reports"] if wl.command == "compare" else [doc]
            for report in reports:
                problems.extend(_check_report(report))
            gcbs_gap = float(reports[0]["gap"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"report rejected: {exc!r}")
    if child.stdout != ref.stdout:
        problems.append("stdout differs from the in-process reference")
    return Checked(problems, perm, gcbs_gap)


def in_batch_edge_fraction(graph: SparseSimilarityGraph, assignment: BatchAssignment) -> float:
    """Share of the graph's edges whose two endpoints share a batch."""
    if graph.indices.size == 0:
        return 0.0
    batch_of = np.empty(assignment.n, dtype=np.int64)
    for ordinal, batch in enumerate(assignment.batches):
        batch_of[batch] = ordinal
    rows = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    return float(np.mean(batch_of[rows] == batch_of[graph.indices]))


def quality(wl: Workload, ref: Reference, checked: Checked) -> tuple[float, float]:
    """(loss_gap, in_batch_edge_frac) of the child's batches, outside any timing.

    Falls back to the reference's batches when the child left none usable;
    such an epoch has already failed its checks.
    """
    pair = ref.pair
    assignment = ref.assignment
    if checked.perm is not None:
        assignment = sequential_batches(checked.perm, K)
    gap = checked.gcbs_gap
    if gap is None:
        gap = ntxent_global(pair, TAU) - ntxent_train(pair, assignment, TAU)
    threshold = estimate_quantile_threshold(pair, wl.q, min(pair.n, GRAPH_CHUNK_ROWS))
    graph = build_sparse_graph(pair, threshold)
    return gap, in_batch_edge_fraction(graph, assignment)


def component_count(graph: SparseSimilarityGraph) -> int:
    """Connected components (isolated vertices included), by min-label hooking."""
    rows = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    label = np.arange(graph.n, dtype=np.int64)
    while True:
        before = label.copy()
        np.minimum.at(label, rows, label[graph.indices])
        label = label[label]
        if np.array_equal(label, before):
            return int(np.unique(label).size)


def graph_counters(graph: SparseSimilarityGraph, q: float, order: np.ndarray) -> dict:
    """Graph and order counts taken from the public objects, after the fact."""
    n = graph.n
    return {
        "similarity.directed_entries": graph.directed_entry_count,
        "similarity.retained_ratio": graph.directed_entry_count / (n * n * (1.0 - q)),
        "similarity.edges": graph.edge_count,
        "similarity.max_degree": graph.max_degree,
        "bandwidth.components": component_count(graph),
        "bandwidth.isolated": int(np.count_nonzero(graph.degrees == 0)),
        "bandwidth.bandwidth_frac": matrix_bandwidth(graph, order) / n,
    }
