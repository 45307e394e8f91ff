"""Batch construction for contrastive learning via similarity-graph
bandwidth minimization.

Workflow: load a row-aligned embedding pair, estimate an inner-product
cutoff at a high quantile, keep only the node pairs above it, order the
resulting sparse graph to squeeze its edges toward the diagonal, and cut
that order into sequential batches.  Batches then concentrate the hardest
negatives, which provably narrows the gap between the in-batch loss and
the loss over all candidates.
"""

from .errors import (
    CapacityError,
    ContrabatchError,
    DataError,
    DegenerateRowError,
    FormatError,
    GraphError,
    ObjectiveUndefined,
    ParameterError,
    PermutationError,
)
from .io import (
    EmbeddingPair,
    detect_format,
    load_embeddings,
    load_pair,
    load_permutation,
    normalize_rows,
    save_embeddings,
    save_permutation,
    validate_permutation,
)
from .similarity import (
    SimilarityThreshold,
    SparseSimilarityGraph,
    build_sparse_graph,
    estimate_quantile_threshold,
    expected_retained_fraction,
    interpolated_quantile,
)
from .bandwidth import cuthill_mckee, exhaustive_min_bandwidth, matrix_bandwidth
from .batching import (
    BatchAssignment,
    bandwidth_pipeline,
    format_batches,
    hard_negative_batches,
    nearest_cross_neighbors,
    random_batches,
    sequential_batches,
)

__version__ = "0.1.0"

__all__ = [
    "BatchAssignment",
    "CapacityError",
    "ContrabatchError",
    "DataError",
    "DegenerateRowError",
    "EmbeddingPair",
    "FormatError",
    "GapReport",
    "GraphError",
    "ObjectiveUndefined",
    "OracleResult",
    "ParameterError",
    "PermutationError",
    "SimilarityThreshold",
    "SparseSimilarityGraph",
    "bandwidth_pipeline",
    "build_sparse_graph",
    "cuthill_mckee",
    "detect_format",
    "estimate_quantile_threshold",
    "exhaustive_min_bandwidth",
    "exhaustive_min_gap",
    "exhaustive_qap",
    "exhaustive_qbap",
    "expected_retained_fraction",
    "format_batches",
    "gap_report",
    "gap_upper_bounds",
    "hard_negative_batches",
    "interpolated_quantile",
    "iter_block_partitions",
    "load_embeddings",
    "load_pair",
    "load_permutation",
    "lse_component_bounds",
    "matrix_bandwidth",
    "nearest_cross_neighbors",
    "normalize_rows",
    "ntxent_global",
    "ntxent_train",
    "partition_count",
    "qap_objective",
    "qbap_objective",
    "random_batches",
    "save_embeddings",
    "save_permutation",
    "sequential_batches",
    "validate_permutation",
]

# Names that load their module on first access, so a command that never asks
# for them does not import it: the losses (``permute`` without ``--report``
# computes none) and the exhaustive solvers, for debugging at toy sizes.
_LAZY_NAMES = {
    "losses": frozenset({
        "GapReport",
        "gap_report",
        "gap_upper_bounds",
        "lse_component_bounds",
        "ntxent_global",
        "ntxent_train",
        "qap_objective",
        "qbap_objective",
    }),
    "oracle": frozenset({
        "OracleResult",
        "exhaustive_min_gap",
        "exhaustive_qap",
        "exhaustive_qbap",
        "iter_block_partitions",
        "partition_count",
    }),
}


def __getattr__(name: str):
    for module, names in _LAZY_NAMES.items():
        if name in names:
            from importlib import import_module

            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
