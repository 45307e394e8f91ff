"""Tests of the benchmark's own helpers: tail percentile, checker, generator.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from contrabatch import SparseSimilarityGraph, cli

import checker
from inputs import DriftingPairs, write_pair
from stats import tail_percentile
from workloads import WORKLOADS


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(v) for v in range(100, 0, -1)]
    assert tail_percentile(samples) == (90.0, 90.0, 10)
    assert tail_percentile(samples[:20]) == (90.0, 50.0, 10)
    assert tail_percentile([3.0] + [1.0] * 10) == (1.0, 100.0 / 11, 10)


def test_tail_percentile_without_enough_samples_is_the_maximum():
    assert tail_percentile([2.0, 5.0, 1.0]) == (5.0, 100.0, 0)
    with pytest.raises(ValueError):
        tail_percentile([])


@pytest.mark.parametrize("kind", ["gaussian", "clustered"])
def test_generator_is_deterministic_per_seed(kind, tmp_path):
    a = DriftingPairs(kind, 512, seed=7)
    b = DriftingPairs(kind, 512, seed=7)
    c = DriftingPairs(kind, 512, seed=8)
    for epoch in range(3):
        (xa, ya), (xb, yb), (xc, _) = next(a), next(b), next(c)
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
        assert not np.array_equal(xa, xc)
        pa = write_pair(xa, ya, tmp_path / f"a{epoch}")
        pb = write_pair(xb, yb, tmp_path / f"b{epoch}")
        assert all(p.read_bytes() == q.read_bytes() for p, q in zip(pa, pb))
    first, second = DriftingPairs(kind, 512, seed=7), DriftingPairs(kind, 512, seed=7)
    next(second)
    assert not np.array_equal(next(first)[0], next(second)[0])  # epochs drift


def test_clustered_inputs_hold_exact_duplicate_rows():
    pairs = DriftingPairs("clustered", 512, seed=3)
    x, y = next(pairs)
    assert np.array_equal(x[pairs.dup_rows], x[pairs.dup_source])
    assert np.array_equal(y[pairs.dup_rows], y[pairs.dup_source])
    assert not set(pairs.dup_rows) & set(pairs.dup_source)


def run_epoch(wl, tmp_path):
    """One epoch of ``wl`` through the CLI in-process, plus its reference."""
    x, y = write_pair(*next(DriftingPairs(wl.inputs, wl.n, seed=1)), tmp_path)
    out = tmp_path / "child"
    out.mkdir()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(wl.argv(x, y, out))
    child = checker.Child(code, stdout.getvalue(), "", out)
    return child, checker.reference(wl, x, y, tmp_path)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checker_accepts_the_cli_output(name, tmp_path):
    wl = replace(WORKLOADS[name], n=256)
    child, ref = run_epoch(wl, tmp_path)
    assert checker.check_epoch(wl, child, ref).problems == []


def test_checker_rejects_a_corrupted_permutation(tmp_path):
    wl = replace(WORKLOADS["dense-permute"], n=256)
    child, ref = run_epoch(wl, tmp_path)
    perm = child.out_dir / "perm.txt"
    lines = perm.read_text().splitlines()
    lines[1] = lines[0]
    perm.write_text("\n".join(lines) + "\n")
    problems = checker.check_epoch(wl, child, ref).problems
    assert any("permutation rejected" in p for p in problems)


def test_checker_rejects_a_reordered_but_valid_permutation(tmp_path):
    wl = replace(WORKLOADS["dense-permute"], n=256)
    child, ref = run_epoch(wl, tmp_path)
    perm = child.out_dir / "perm.txt"
    lines = perm.read_text().splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    perm.write_text("\n".join(lines) + "\n")
    problems = checker.check_epoch(wl, child, ref).problems
    assert "permutation differs from the in-process reference" in problems
    assert "batch dump does not match sequential_batches(perm, k)" in problems


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "1e999"])
def test_checker_rejects_a_non_finite_report(bad, tmp_path):
    wl = replace(WORKLOADS["epoch-report"], n=256)
    child, ref = run_epoch(wl, tmp_path)
    corrupted = re.sub(r'"gap": [^,]+', f'"gap": {bad}', child.stdout)
    assert corrupted != child.stdout
    problems = checker.check_epoch(wl, replace(child, stdout=corrupted), ref).problems
    assert any(p.startswith("report rejected") for p in problems)


def test_checker_rejects_a_gap_above_its_bound(tmp_path):
    wl = replace(WORKLOADS["epoch-report"], n=256)
    child, ref = run_epoch(wl, tmp_path)
    doc = checker.parse_json(child.stdout)
    corrupted = re.sub(r'"gap": [^,]+', f'"gap": {doc["ub_gap_standard"] + 1.0!r}',
                       child.stdout)
    problems = checker.check_epoch(wl, replace(child, stdout=corrupted), ref).problems
    assert any("above ub_gap_standard" in p for p in problems)


def test_checker_counts_a_failed_exit_and_traceback(tmp_path):
    wl = replace(WORKLOADS["epoch-report"], n=256)
    child, ref = run_epoch(wl, tmp_path)
    crashed = replace(child, returncode=1, stderr="Traceback (most recent call last):\n")
    problems = checker.check_epoch(wl, crashed, ref).problems
    assert "exit code 1" in problems and "traceback on stderr" in problems


def test_component_count_includes_isolated_vertices():
    edges = [(0, 1), (1, 2), (4, 5), (6, 7), (7, 8), (8, 6)]
    graph = SparseSimilarityGraph.from_edges(10, edges)
    assert checker.component_count(graph) == 5  # {0,1,2} {3} {4,5} {6,7,8} {9}


def test_a_golden_mismatch_is_a_failed_epoch(tmp_path):
    import run

    wl = replace(WORKLOADS["dense-permute"], n=256)  # not the size the digests were recorded at
    result = run.Result()
    run.check_golden(wl, tmp_path, result)
    assert result.attempted == result.failed == len(run.GOLDEN[wl.name]) > 0
    assert "golden epoch 0 of seed 0 failed" in result.notes[0]


@pytest.mark.parametrize("memory", ["0", "1"])
def test_traced_cli_records_nested_spans_and_counters(memory, tmp_path):
    wl = replace(WORKLOADS["epoch-report"], n=256)
    x, y = write_pair(*next(DriftingPairs(wl.inputs, wl.n, seed=1)), tmp_path)
    out = tmp_path / "child"
    out.mkdir()
    spans_path = tmp_path / "spans.json"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans_path), "4",
         memory, *wl.argv(x, y, out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    child = checker.Child(proc.returncode, proc.stdout, proc.stderr, out)
    assert checker.check_epoch(wl, child, checker.reference(wl, x, y, tmp_path)).problems == []
    doc = json.loads(spans_path.read_text())
    names = [s["name"] for s in doc["spans"]]
    assert names[0] == "cli.main" and names[-1] == "trace.epilogue"
    assert {"similarity.quantile", "similarity.graph", "bandwidth.ordering",
            "losses.report", "losses.qbap"} <= set(names)
    by_name = {s["name"]: s for s in doc["spans"]}
    pipeline = doc["spans"].index(by_name["batching.pipeline"])
    assert by_name["similarity.graph"]["parent"] == pipeline
    assert all(s["epoch"] == 4 for s in doc["spans"])
    if memory == "1":
        assert by_name["similarity.quantile"]["peak_alloc_mb"] > 0
    else:
        assert not any("peak_alloc_mb" in s for s in doc["spans"])
    assert doc["counters"]["similarity.edges"] > 0
    assert doc["counters"]["losses.reports_per_epoch"] == 1
