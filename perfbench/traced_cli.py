"""Run one contrabatch CLI command with a span around every layer call.

Usage: python3 perfbench/traced_cli.py SPANS_JSON EPOCH MEMORY CLI_ARG...

The library is not changed: the public functions the CLI reaches are
replaced, in each module namespace that calls them, by wrappers that
record spans.  With MEMORY = 1 tracemalloc runs too and each span records
its allocation peak; tracking every NumPy allocation slows the spans
unevenly, so span times are taken from a child with MEMORY = 0.  After the
command returns, graph and order counters are computed from the objects
the layers returned, and spans and counters are written to SPANS_JSON.
The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

from contrabatch import batching, cli, io, losses

from checker import graph_counters
from spans import Recorder

# span name -> (module, attribute) pairs through which the CLI reaches it
TRACED = {
    "io.load": [(cli, "load_pair")],
    "io.normalize": [(io, "normalize_rows")],
    "io.write_perm": [(cli, "save_permutation")],
    "io.format_batches": [(cli, "format_batches")],
    "similarity.quantile": [(batching, "estimate_quantile_threshold"),
                            (cli, "estimate_quantile_threshold")],
    "similarity.graph": [(batching, "build_sparse_graph"), (cli, "build_sparse_graph")],
    "bandwidth.ordering": [(batching, "cuthill_mckee"), (cli, "cuthill_mckee")],
    "batching.pipeline": [(cli, "bandwidth_pipeline")],
    "batching.cut": [(batching, "sequential_batches"), (cli, "sequential_batches")],
    "batching.random": [(cli, "random_batches")],
    "batching.hardneg": [(cli, "hard_negative_batches")],
    "batching.nearest": [(batching, "nearest_cross_neighbors")],
    "losses.report": [(cli, "gap_report")],
    "losses.qbap": [(losses, "qbap_objective")],
    "losses.qap": [(losses, "qap_objective")],
}


def install(recorder: Recorder) -> None:
    """Swap in the wrappers; a name no module still exports is an error."""
    for name, sites in TRACED.items():
        present = [(m, attr) for m, attr in sites if hasattr(m, attr)]
        if not present:
            raise SystemExit(f"traced_cli: no module exports the call traced as {name}")
        wrapped = recorder.wrap(name, getattr(*present[0]))
        for module, attr in present:
            setattr(module, attr, wrapped)


def main(argv: list[str]) -> int:
    spans_path, epoch, memory, cli_args = Path(argv[0]), int(argv[1]), argv[2] == "1", argv[3:]
    recorder = Recorder(epoch, track_memory=memory)
    install(recorder)
    if memory:
        tracemalloc.start()
    try:
        with recorder.span("cli.main"):
            code = cli.main(cli_args)
    finally:
        if memory:
            tracemalloc.stop()
            recorder.track_memory = False
    counters = {}
    with recorder.span("trace.epilogue"):
        graph = recorder.results.get("similarity.graph")
        if graph is not None:
            q = recorder.results["similarity.quantile"].quantile_q
            counters = graph_counters(graph, q, recorder.results["bandwidth.ordering"])
        counters["losses.reports_per_epoch"] = sum(
            s["name"] == "losses.report" for s in recorder.spans)
    spans_path.write_text(json.dumps({"epoch": epoch, "spans": recorder.spans,
                                      "counters": counters}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
