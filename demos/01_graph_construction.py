"""Build a facial-attribute graph step by step.

Six landmarks on a ring, each carrying a feature vector. Pairs with similar
features that sit close together get large weights; the data-driven threshold
(mean + tau * std of the off-diagonal weights) decides which pairs become
edges.
"""

import numpy as np

from facegraph import (
    binarize,
    build_graph,
    edge_count,
    l2_normalize_rows,
    raw_adjacency,
    threshold_stats,
    write_graph_dot,
    write_graph_json,
)

rng = np.random.default_rng(0)

# landmarks on a small ring, pixel units
angles = 2 * np.pi * np.arange(6) / 6
landmarks = np.column_stack([112 + 12 * np.cos(angles), 112 + 12 * np.sin(angles)])

# two feature "looks": nodes 0-2 share one, nodes 3-5 the other (plus noise)
prototype_a = rng.normal(size=8)
prototype_b = rng.normal(size=8)
features = np.stack([prototype_a + 0.1 * rng.normal(size=8) for _ in range(3)]
                    + [prototype_b + 0.1 * rng.normal(size=8) for _ in range(3)])

normalized = l2_normalize_rows(features)
weights = raw_adjacency(normalized, landmarks)
print("pre-threshold weights (kernel / exp(distance)):")
print(np.array_str(weights, precision=4, suppress_small=True))

for tau in (0.0, 0.5, 1.5):
    stats = threshold_stats(weights, tau)
    adjacency = binarize(weights, stats.threshold)
    print(f"\ntau={tau}: mean={stats.mean:.5f} std={stats.std:.5f} "
          f"threshold={stats.threshold:.5f} -> {edge_count(adjacency)} edges")
    print(adjacency.astype(int))

# the one-call version, plus plot-ready exports
graph = build_graph(landmarks, features, tau=0.5, label=0)
write_graph_json(graph, "demo_graph.json")
write_graph_dot(graph, "demo_graph.dot")
print("\nwrote demo_graph.json and demo_graph.dot "
      "(render with: neato -n2 -Tpng demo_graph.dot)")
