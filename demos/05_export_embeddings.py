"""Export learned graph embeddings for external projection plots.

The CSV holds one row per sample: id, true label, predicted label, then the
mean-pooled readout vector. ``export_embeddings`` takes the ids from the
dataset, whose samples line up with the graphs ``dataset_graphs`` returns. Feed the dim_* columns to any projection tool
(t-SNE, UMAP, PCA) to visualize how the classes separate.
"""

import csv

import numpy as np

from facegraph import (
    GcnConfig,
    SyntheticSpec,
    TrainConfig,
    dataset_graphs,
    export_embeddings,
    generate_synthetic,
    train,
)

spec = SyntheticSpec(num_classes=4, samples_per_class=15, landmark_count=8,
                     feature_dim=12)
dataset = generate_synthetic(spec)
graphs = dataset_graphs(dataset, tau=0.3)

model, _ = train(graphs,
                 GcnConfig(in_dim=spec.feature_dim, num_classes=4, hidden_dim=64),
                 TrainConfig(epochs=25, batch_size=8))

export_embeddings(model, dataset, graphs, "demo_embeddings.csv")

with open("demo_embeddings.csv", newline="") as handle:
    rows = list(csv.DictReader(handle))
print(f"wrote demo_embeddings.csv: {len(rows)} rows, "
      f"{sum(1 for k in rows[0] if k.startswith('dim_'))} embedding dims")

# quick sanity check without any plotting: class centroids should be spread out
embeddings = np.array([[float(row[k]) for k in row if k.startswith("dim_")]
                       for row in rows])
labels = np.array([int(row["label"]) for row in rows])
centroids = np.stack([embeddings[labels == c].mean(axis=0) for c in range(4)])
gaps = [np.linalg.norm(centroids[i] - centroids[j])
        for i in range(4) for j in range(i + 1, 4)]
print(f"centroid separation: min {min(gaps):.3f}, max {max(gaps):.3f}")
print("agreement with true labels:",
      f"{np.mean([int(r['label']) == int(r['prediction']) for r in rows]):.3f}")
