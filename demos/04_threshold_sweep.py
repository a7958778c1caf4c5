"""Sweep the edge threshold multiplier tau.

One full train/eval per grid point with everything else fixed, including the
seed. Larger tau admits fewer edges, so the edge-count column is guaranteed
nonincreasing down the grid. On this small feature-dominated synthetic set
the accuracy stays flat while the graphs thin out; on harder data the
threshold choice is where the interesting trade-offs appear. The graphs are
built once, in sample order, so the split's indices pick them at every point;
each point only re-thresholds their stored raw weights, which gives the same
graphs as building them at that tau. The CLI equivalent is:

    facegraph sweep --param tau --dataset <dir> --out-dir <dir> ...
"""

import numpy as np

from facegraph import (
    GcnConfig,
    SyntheticSpec,
    TrainConfig,
    dataset_graphs,
    edge_count,
    evaluate,
    generate_synthetic,
    rethreshold,
    split_indices,
    train,
)

TAU_GRID = [0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.70, 0.90]

spec = SyntheticSpec(num_classes=3, samples_per_class=12, landmark_count=8,
                     feature_dim=12, feature_noise_scale=0.4)
dataset = generate_synthetic(spec)
train_idx, test_idx = split_indices(dataset, 0.25, seed=1000)
built = dataset_graphs(dataset, TAU_GRID[0])

print(f"{'tau':>5} {'Acc':>7} {'F1-Score':>9} {'WAR':>7} {'UAR':>7} "
      f"{'loss':>8} {'edges':>6}")
for tau in TAU_GRID:
    graphs = [rethreshold(g, tau) for g in built]
    model, _ = train([graphs[i] for i in train_idx],
                     GcnConfig(in_dim=spec.feature_dim, num_classes=3, hidden_dim=64),
                     TrainConfig(epochs=30, batch_size=8))
    report = evaluate(model, [graphs[i] for i in test_idx])
    mean_edges = float(np.mean([edge_count(g.adjacency) for g in graphs]))
    print(f"{tau:>5.2f} {100 * report.accuracy:>6.2f}% {100 * report.macro_f1:>8.2f}% "
          f"{100 * report.war:>6.2f}% {100 * report.uar:>6.2f}% "
          f"{report.loss:>8.4f} {mean_edges:>6.2f}")
