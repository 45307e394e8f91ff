"""Mutation check of the test suite: named text substitutions in ``src``, each
with the tests that must fail once it is applied.

Usage: python3 tools/mutants.py [NAME ...]

Each mutant (all of them by default) is applied to a fresh copy of this
tree's ``src``, ``tests`` and ``pyproject.toml`` in a temporary directory,
and its tests run there with pytest, one BLAS thread, stopping at the first
failure.  A mutant whose tests all pass survived.  The unmutated copy must
pass every named test first (else the script exits 2).  The script prints
one line per mutant and exits 1 if any survived; a survivor calls for a new
test or a recorded finding.  A whole run takes about two minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str  # the mutated file, under src/contrabatch
    subs: tuple  # (old, new) text pairs, applied in order; each old occurs once
    tests: tuple  # pytest node ids, one of which must fail
    why: str


MUTANTS = {
    "parts-before-select": Mutant(
        "similarity.py",
        (("""            if select is not None:
                picked.append(select(rows, block))
            for fn, args, out in outs:
                out.append(fn(rows, block, *args))
""", """            for fn, args, out in outs:
                out.append(fn(rows, block, *args))
            if select is not None:
                picked.append(select(rows, block))
"""),),
        ("tests/test_one_walk.py", "tests/test_cli.py::TestOneSweep"),
        "a walk feeds the parts, which scale blocks in place, before its select reads them"),
    "no-part-on-a-select-walk": Mutant(
        "similarity.py",
        (("if _on_grid(span, n) and span not in kept]",
          "if _on_grid(span, n) and span not in kept and select is None]"),),
        ("tests/test_cli.py::TestOneSweep", "tests/test_one_walk.py"),
        "the estimator's and the graph's walks keep no part, so a report multiplies again"),
    "diagonal-mod-n": Mutant(
        "similarity.py",
        (("(offsets - np.int64(span[0])) % (n + 1) != 0", "(offsets - np.int64(span[0])) % n != 0"),),
        ("tests/test_graph_reference.py",),
        "the graph drops each tile's column at its first row instead of the diagonal"),
    "transposed-keys-dropped": Mutant(
        "similarity.py",
        (("np.add(cols, rows, out=keys[count + a : count + b])",
          "keys[count + a : count + b] = keys[a:b]"),),
        ("tests/test_graph_reference.py",),
        "the graph keeps one direction of each entry: not symmetric"),
    "tail-filter-ge": Mutant(
        "similarity.py",
        (("take(span, tail.offsets[tail.values > cut])", "take(span, tail.offsets[tail.values >= cut])"),),
        ("tests/test_graph_reference.py",),
        "a kept tail's entries equal to the cutoff become edges"),
    "rescan-ge": Mutant(
        "similarity.py",
        (("np.flatnonzero(block > cut)", "np.flatnonzero(block >= cut)"),),
        ("tests/test_graph_reference.py",),
        "a rescanned tile's entries equal to the cutoff become edges"),
    "keys-without-the-tile-start": Mutant(
        "similarity.py",
        (("np.add(offsets, np.int64(span[0] * n), out=", "np.add(offsets, np.int64(0), out="),),
        ("tests/test_graph_reference.py",),
        "every tile's keys miss span[0]·n, as if each tile began at row 0"),
    "rescan-without-the-block-start": Mutant(
        "similarity.py",
        (("np.flatnonzero(block > cut) + (rows[0] - span[0]) * n)",
          "np.flatnonzero(block > cut))"),),
        ("tests/test_similarity.py", "tests/test_one_walk.py"),
        "a rescan takes block offsets for tile offsets, past a tile's first row block"),
    "tail-select-gt": Mutant(
        "similarity.py",
        (("hits = np.flatnonzero(block >= bound)", "hits = np.flatnonzero(block > bound)"),),
        ("tests/test_similarity.py::TestTailSelection",),
        "a tail, first or second walk, loses its entries equal to its bound"),
    "chunk-sample-keeps-the-diagonal": Mutant(
        "similarity.py",
        (("    sample[on_row, on_col] = -np.inf\n", ""),),
        ("tests/test_similarity.py::TestTailSelection",),
        "with y ≈ x and aligned strides the sampled diagonal sets the bound above the cutoff"),
    "poisson-margin": Mutant(
        "similarity.py",
        (("sigma = math.sqrt(max(expected, variance))", "sigma = math.sqrt(expected)"),),
        ("tests/test_similarity.py::TestClusterSortedRows",),
        "the margin ignores that products of one row are correlated, so clustered chunks misjudge"),
    "rescan-at-the-first-bound": Mutant(
        "similarity.py",
        (("at = {tile: todo[chunk][level] for chunk",
          "at = {tile: todo[chunk][0] for chunk"),),
        ("tests/test_similarity.py::TestTailSelection",),
        "a chunk whose tails came up short is walked again at the same bound, then sorted"),
    "no-tile-row-cap": Mutant(
        "similarity.py",
        (("rows = min(_MAX_TILE_ROWS, max(1, _TILE_BYTES // (8 * n)))",
          "rows = max(1, _TILE_BYTES // (8 * n))"),),
        ("tests/test_similarity.py::TestMemory::test_estimate_holds_a_256_row_tile_per_worker",),
        "below N = 8192 a tile fills the 16 MiB budget: 512 rows, twice the bytes, at N = 4096"),
    "nearest-diagonal-unmasked": Mutant(
        "batching.py",
        (("    z[at] = -np.inf\n", ""),),
        ("tests/test_nearest_reference.py",),
        "the mined argmax may pick a row's own column"),
    "levels-by-index": Mutant(
        "bandwidth.py",
        (("frontier = frontier[np.lexsort((frontier, degrees[frontier]))]",
          "frontier = np.sort(frontier)"),),
        ("tests/test_bandwidth.py::TestReferenceOrdering",),
        "a BFS level is sorted by index only, not by (degree, index)"),
    "root-by-index": Mutant(
        "bandwidth.py",
        (("""        while visited[by_degree[cursor]]:
            cursor += 1
        root = int(by_degree[cursor])
""", """        root = int(np.flatnonzero(~visited)[0])
"""),),
        ("tests/test_bandwidth.py::TestReferenceOrdering",),
        "each component's root is its lowest unvisited index, not the lowest (degree, index)"),
    "isolated-last": Mutant(
        "bandwidth.py",
        (("""    filled = cursor = int(np.count_nonzero(degrees == 0))
    order[:filled] = by_degree[:filled]
    visited[order[:filled]] = True
    while filled < n:
""", """    isolated = cursor = int(np.count_nonzero(degrees == 0))
    order[n - isolated :] = by_degree[:isolated]
    visited[by_degree[:isolated]] = True
    filled = 0
    while filled < n - isolated:
"""),),
        ("tests/test_bandwidth.py::TestReferenceOrdering",),
        "the isolated vertices are placed last instead of first"),
    "edge-cap-uncounted": Mutant(
        "similarity.py",
        (("keep = taken <= _MAX_DIRECTED_ENTRIES", "keep = True"),
         ("if taken > _MAX_DIRECTED_ENTRIES:", "if False:")),
        ("tests/test_similarity.py::TestGraphConstruction",
         "tests/test_cli.py::TestPermute::test_edge_cap_holds_on_the_entries_the_graph_finds"),
        "the graph holds every entry above a chunk-median cutoff, whatever the cap"),
    "fallback-in-the-chunk-map": Mutant(
        "similarity.py",
        (("""    per_chunk = [read[chunk] if chunk in read else _full_sort_quantile(pair, chunk, q, threads)
                 for chunk in chunks]""",
          """    per_chunk = ordered_map(lambda chunk: read[chunk] if chunk in read else
                            _full_sort_quantile(pair, chunk, q, threads), chunks, threads)"""),),
        ("tests/test_similarity.py::TestMemory::test_fallback_sorts_one_chunk_at_a_time_at_any_worker_count",),
        "the unread chunks are sorted in a map over the workers, each holding a whole chunk"),
    "fallback-ignores-threads": Mutant(
        "similarity.py",
        (("_tiles(chunk, pair.n), threads)", "_tiles(chunk, pair.n), 1)"),),
        ("tests/test_similarity.py::TestMemory::test_fallback_multiplies_a_chunk_on_the_workers",),
        "a fallback chunk's tiles are multiplied on one thread, whatever --threads"),
    "read-joins-every-call": Mutant(
        "similarity.py",
        (("        if part not in self.joined:\n", "        if True:\n"),),
        ("tests/test_similarity.py::TestScanRead",),
        "every read of a part joins its kept blocks again: 22 joins for one compare epoch"),
    "compact-loses-run-boundary": Mutant(
        "similarity.py",
        (("if a and keys[a] != keys[count - 1]:", "if a:"),),
        ("tests/test_similarity.py::TestCompactSorted",),
        "a run's first key is kept even when it repeats the previous run's last"),
    "select-one-rank": Mutant(
        "similarity.py",
        (("    top[hi - skip :].partition(0)\n", ""),),
        ("tests/test_similarity.py::test_select_quantile_reads_the_sorted_ranks_bit_for_bit",
         "tests/test_similarity.py::test_select_quantile_places_the_upper_rank_too"),
        "the selection places the lower rank only, so the upper one is any larger value"),
    "graph-keeps-the-tails": Mutant(
        "similarity.py",
        (("popped = (scan.tails.popitem() for _ in range(len(scan.tails)))",
          "popped = iter(scan.tails.items())"),),
        ("tests/test_similarity.py::TestTailReuse::test_graph_takes_every_tail_out_of_the_scan",
         "tests/test_similarity.py::TestMemory::test_epoch_peaks_within_the_larger_stage"),
        "the graph reads the tails without taking them, so they stay through its keys"),
    "prediction-with-a-fixed-cap": Mutant(
        "similarity.py",
        (("if predicted > _MAX_DIRECTED_ENTRIES:", "if predicted > 1 << 26:"),),
        ("tests/test_cli.py::TestPermute::test_edge_cap_prediction_reads_the_one_cap",),
        "the prediction binds its own cap, so a lower cap is found only after the tiles"),
    "run-budget-ignores-batch-rows": Mutant(
        "losses.py",
        (("8 * max(m * c, ", "8 * max(c, "),),
        ("tests/test_losses.py::TestRunBudget",),
        "a report run is sized for one row a batch: m times the budget's bytes"),
    "run-budget-ignores-operands": Mutant(
        "losses.py",
        (("max(m * c, (m + c) * pair.dim)", "m * c"),),
        ("tests/test_losses.py::TestRunBudget::test_a_wide_pair_sizes_runs_by_their_gathered_operands",),
        "a report run is sized by its products alone, so at d = 768 its operands hold 24 times the budget"),
    "report-keeps-its-products": Mutant(
        "losses.py",
        (("    return np.matmul(pair.x.take(rows, axis=0), pair.y.take(cols, axis=0).transpose(0, 2, 1))\n",
          "    z = np.matmul(pair.x.take(rows, axis=0), pair.y.take(cols, axis=0).transpose(0, 2, 1))\n"
          "    _stacked_products.__dict__.setdefault(\"kept\", []).append(z)\n"
          "    return z\n"),),
        ("tests/test_losses.py::TestRunBudget::test_the_in_batch_pass_peaks_within_five_blocks",),
        "every run's products outlive its pass, so a report holds N·k of them (2N·k mined)"),
    "objectives-read-scaled-products": Mutant(
        "losses.py",
        (("    t = _columns_first(z)\n", "    if tau is not None:\n        z /= tau\n    t = _columns_first(z)\n"),
         ("np.divide((positive, bottom, top), tau, out=stats[1:])\n        z /= tau\n",
          "stats[1:] = positive, bottom, top\n")),
        ("tests/test_report_reference.py",),
        "a partition's minima and totals are read from the products after they are scaled by 1/tau"),
    "batch-minima-keep-the-diagonal": Mutant(
        "losses.py",
        (("    t[diagonal, :, diagonal] = np.inf\n", ""),),
        ("tests/test_report_reference.py", "tests/test_losses.py::TestBatchMinima"),
        "each batch's minimum ranges over its positives too"),
    "slot-minimum-skips-the-positive": Mutant(
        "losses.py",
        (("bottom = np.minimum(low, positive)", "bottom = low"),),
        ("tests/test_report_reference.py",),
        "a partition slot's candidate minimum leaves out its own positive"),
    "row-maxima-after-the-mask": Mutant(
        "losses.py",
        (("    top = t.max(axis=0)\n", ""),
         ("        low = _off_diagonal_minima(t)\n",
          "        low = _off_diagonal_minima(t)\n        top = t.max(axis=0)\n"),
         ("        bottom = t.min(axis=0)\n", "        top, bottom = t.max(axis=0), t.min(axis=0)\n")),
        ("tests/test_report_reference.py",),
        "a partition's row maxima are read after the diagonal is masked with +inf"),
    "extremes-of-columns": Mutant(
        "losses.py",
        (("return z.transpose(2, 0, 1).copy()", "return z.transpose(1, 0, 2).copy()"),),
        ("tests/test_report_reference.py",),
        "the copy puts rows first, so a run's maxima and minima are its columns'"),
    "no-worker-cap": Mutant(
        "_parallel.py",
        (("max_workers=min(threads, usable_cores())", "max_workers=threads"),),
        ("tests/test_similarity.py::TestWorkerCap",),
        "a map starts as many workers as asked, each with its own tile buffer, whatever the cores"),
    "assignment-checks-its-first-batch": Mutant(
        "batching.py",
        (("flat = np.concatenate(self.batches)", "flat = self.batches[0]"),),
        ("tests/test_losses.py::TestTrainLoss",),
        "an index outside 0..N-1 passes the check unless it sits in the first batch"),
    "load-normalizes-copies": Mutant(
        "io.py",
        (("x, y = _normalize_in_place(x), _normalize_in_place(y)",
          "x, y = normalize_rows(x), normalize_rows(y)"),),
        ("tests/test_io.py::TestLoadNormalized",),
        "the load holds the raw pair beside its normalized copy"),
    "freeze-in-process": Mutant(
        "cli.py",
        (("atexit.register(gc.freeze)", "gc.freeze()"),),
        ("tests/test_cli.py::TestExitFreeze::test_main_leaves_the_collector_as_it_was",),
        "importing the CLI freezes the heap, so a long-running caller never collects it"),
    "no-exit-freeze": Mutant(
        "cli.py",
        (("atexit.register(gc.freeze)\n", ""),),
        ("tests/test_cli.py::TestExitFreeze::test_a_child_freezes_at_exit_and_writes_every_byte",),
        "a child's exit-time collections walk every object import left behind"),
}


def mutated(mutant: Mutant) -> str:
    """The text of ``mutant.path`` with its substitutions applied; ValueError
    unless each old text occurs exactly once when its turn comes."""
    text = (ROOT / "src" / "contrabatch" / mutant.path).read_text()
    for old, new in mutant.subs:
        if text.count(old) != 1 or old == new:
            raise ValueError(f"{mutant.path}: {old!r} must occur exactly once and change")
        text = text.replace(old, new)
    return text


def survives(mutant: Mutant) -> bool:
    """Whether every test of ``mutant`` passes on a copy of the tree that holds it."""
    text = mutated(mutant)
    with tempfile.TemporaryDirectory(prefix="contrabatch-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        target = tree / "src" / "contrabatch" / mutant.path
        compile(text, str(target), "exec")  # a mutant must be valid Python
        target.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
                   PYTHONDONTWRITEBYTECODE="1")
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, capture_output=True, timeout=1800)
        return child.returncode == 0


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    tests = tuple(dict.fromkeys(test for name in names for test in MUTANTS[name].tests))
    if not survives(Mutant("__init__.py", (), tests, "unmutated")):
        print("the unmutated tree fails these tests, so no mutant can be judged", file=sys.stderr)
        return 2
    survivors = []
    for name in names:
        alive = survives(MUTANTS[name])
        print(f"{'SURVIVED' if alive else 'killed  '} {name}: {MUTANTS[name].why}", flush=True)
        survivors += [name] * alive
    print(f"{len(names) - len(survivors)} of {len(names)} killed; survivors: "
          f"{', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
