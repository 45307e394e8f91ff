"""The benchmark's workloads: which CLI command each epoch runs, on what inputs.

Every workload is a closed loop with one client: epochs run one after
another, each epoch a fresh ``contrabatch`` CLI child on freshly drifted
embeddings, the way a training loop would call it.  All children use
``--threads 1`` with BLAS pinned to one thread.

Sizes are chosen so that one child takes about a second on a 2-core
machine: a run then fits at least eleven epochs (the least that gives a
tail percentile with ten samples beyond it) plus an in-process reference
for every epoch inside the benchmark's time budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Temperature used by every report and by the checker's loss gap.
TAU = 0.05
#: Batch size of every workload.
K = 64


@dataclass(frozen=True)
class Workload:
    """One named set of epoch inputs and the CLI command each epoch runs."""

    name: str
    inputs: str  # generator kind, see inputs.DriftingPairs
    n: int
    q: float
    command: str  # "permute" or "compare"
    report: bool = False  # permute --report
    out_batches: bool = False  # permute --out-batches
    seeds: int = 0  # compare --seeds

    @property
    def writes_perm(self) -> bool:
        return self.command == "permute"

    def argv(self, x: Path, y: Path, out_dir: Path) -> list[str]:
        """CLI arguments for one epoch whose files live in ``out_dir``."""
        args = [
            self.command, "--x", str(x), "--y", str(y),
            "--batch-size", str(K), "--quantile", repr(self.q),
            "--tau", repr(TAU), "--threads", "1",
        ]
        if self.command == "compare":
            return args + ["--seeds", str(self.seeds)]
        args += ["--out-perm", str(out_dir / "perm.txt")]
        if self.out_batches:
            args += ["--out-batches", str(out_dir / "batches.txt")]
        if self.report:
            args.append("--report")
        return args


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP's end-to-end path; the quantile and graph stages and the one
        # global-loss pass of the report take most of the epoch
        Workload(
            name="epoch-report",
            inputs="gaussian", n=4096, q=0.999,
            command="permute", report=True,
        ),
        # the loss layer: 22 gap reports each recompute the same global row
        # stats; similarity is a small share, so a similarity change shows nothing
        Workload(
            name="strategy-compare",
            inputs="gaussian", n=1536, q=0.999,
            command="compare", seeds=20,
        ),
        # fat similarity tail: ten times the retained entries of q = 0.999, with
        # exact duplicates; graph building and ordering at their largest share
        Workload(
            name="dense-permute",
            inputs="clustered", n=4096, q=0.99,
            command="permute", out_batches=True,
        ),
    )
}
