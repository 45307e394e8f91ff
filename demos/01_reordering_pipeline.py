"""Walk through the full batch-reordering pipeline on clustered data.

Ten clusters of similar samples are shuffled together; the pipeline finds
them again purely from inner products: it keeps only the strongest cross
similarities, orders the resulting graph so edges hug the diagonal, and
cuts that order into batches.  Batches end up full of mutually similar
samples, which is exactly where informative negatives live.
"""

import numpy as np

import contrabatch as cb

rng = np.random.default_rng(0)

n, d, clusters, k = 200, 16, 10, 20
centers = cb.normalize_rows(rng.standard_normal((clusters, d)))
labels = rng.permutation(np.repeat(np.arange(clusters), n // clusters))
x = cb.normalize_rows(centers[labels] + 0.1 * rng.standard_normal((n, d)))
y = cb.normalize_rows(centers[labels] + 0.1 * rng.standard_normal((n, d)))
pair = cb.EmbeddingPair(x, y)

print(f"{n} samples, {clusters} hidden clusters, batch size {k}")

# Step by step, the same composition bandwidth_pipeline runs internally.
threshold = cb.estimate_quantile_threshold(pair, q=0.97, chunk_rows=n)
print(f"\ninner-product cutoff at q=0.97: {threshold.value:.3f} ({threshold.estimator})")

graph = cb.build_sparse_graph(pair, threshold)
print(f"sparse graph: {graph.edge_count} edges, max degree {graph.max_degree}")
print(f"retained fraction of the {n}x{n} products: "
      f"{cb.expected_retained_fraction(graph):.4f} (about 1 - q)")

identity = np.arange(n)
order = cb.cuthill_mckee(graph, reverse=True)
print(f"\nbandwidth before ordering: {cb.matrix_bandwidth(graph, identity)}")
print(f"bandwidth after ordering:  {cb.matrix_bandwidth(graph, order)}")

assignment = cb.sequential_batches(order, k)
purity = np.mean([
    np.bincount(labels[batch]).max() / batch.size for batch in assignment.batches
])
print(f"\nmean batch purity under the reordering: {purity:.2f}")

shuffled = cb.random_batches(n, k, seed=1)
purity_rand = np.mean([
    np.bincount(labels[batch]).max() / batch.size for batch in shuffled.batches
])
print(f"mean batch purity under random batching: {purity_rand:.2f}")

# One call does all of the above.
order2, assignment2 = cb.bandwidth_pipeline(pair, q=0.97, k=k)
assert np.array_equal(order, order2)
print("\nbandwidth_pipeline(...) reproduces the step-by-step result exactly")
