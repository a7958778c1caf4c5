"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing one PASS line with the measured margin."""

import json
import math
import time

import numpy as np

from facegraph import (
    GcnConfig,
    SyntheticSpec,
    TrainConfig,
    build_graph,
    compute_metrics,
    confusion,
    cross_entropy,
    dataset_graphs,
    edge_count,
    evaluate,
    forward,
    generate_synthetic,
    init_model,
    load_checkpoint,
    load_dataset,
    normalize_adjacency,
    raw_adjacency,
    save_checkpoint,
    save_dataset,
    split_indices,
    threshold_stats,
    train,
)
from facegraph.cli import main

from oracles import naive_graph, nearest_prototype_accuracy
from test_gcn import (
    analytic_grads,
    finite_difference_grads,
    layer_output,
    max_relative_error,
    permute_sample,
    toy_sample,
)

TAU_GRID = [0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.70, 0.90]


def test_adjacency_normalization_exact():
    chain = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    s = 1.0 / math.sqrt(6.0)
    expected = np.array([[0.5, s, 0.0], [s, 1.0 / 3.0, s], [0.0, s, 0.5]])
    normalize_adjacency(chain)  # warm-up outside the timed call
    start = time.perf_counter()
    out = normalize_adjacency(chain)
    elapsed = time.perf_counter() - start
    deviation = float(np.max(np.abs(out - expected)))
    assert deviation < 1e-12
    assert elapsed < 1e-3
    print(f"[PASS] adjacency normalization: max deviation {deviation:.2e} "
          f"vs the hand-derived chain matrix, {elapsed * 1e6:.0f} us")


def test_graph_construction_oracle_equivalence():
    rng = np.random.default_rng(1000)
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        points = rng.uniform(0.0, 224.0, size=(n, 2))
        features = rng.normal(size=(n, d))
        tau = float(rng.uniform(0.0, 1.0))
        graph = build_graph(points, features, tau, 0)
        production_raw = raw_adjacency(graph.features, points)
        stats = threshold_stats(production_raw, tau)
        normalized, raw, (mean, std, threshold), adjacency = naive_graph(
            points, features, tau)
        assert np.array_equal(graph.features, normalized)
        assert np.array_equal(production_raw, raw)
        assert (stats.mean, stats.std, stats.threshold) == (mean, std, threshold)
        assert np.array_equal(graph.adjacency, adjacency)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[PASS] graph construction oracle equivalence: "
          f"100 instances bit-for-bit, {elapsed:.2f} s")


def test_gradient_check():
    rng = np.random.default_rng(44)
    sample = toy_sample(rng, n=4, d=3, num_classes=2, label=1)
    config = GcnConfig(in_dim=3, num_classes=2, hidden_dim=6, num_layers=2,
                       activation="relu", dropout_rate=0.0)
    model = init_model(config, 11)
    start = time.perf_counter()
    analytic = analytic_grads(model, sample)
    numeric = finite_difference_grads(model, sample, step=1e-5)
    elapsed = time.perf_counter() - start
    worst = max_relative_error(analytic, numeric)
    assert worst < 1e-4
    assert elapsed < 5.0
    print(f"[PASS] gradient check: max relative error {worst:.2e}, {elapsed:.2f} s")


def test_permutation_properties():
    rng = np.random.default_rng(7)
    sample = toy_sample(rng, n=6, d=4, num_classes=3)
    model = init_model(GcnConfig(in_dim=4, num_classes=3, hidden_dim=16), 3)
    a_hat = normalize_adjacency(sample.adjacency)
    weight = rng.normal(size=(4, 5))
    base_layer = layer_output(a_hat, sample.features, weight, "relu")
    base_probs, base_cache = forward(model, sample)
    worst = 0.0
    for _ in range(20):
        perm = rng.permutation(6)
        permuted_layer = layer_output(a_hat[np.ix_(perm, perm)],
                                      sample.features[perm], weight, "relu")
        worst = max(worst, float(np.max(np.abs(permuted_layer - base_layer[perm]))))
        probs, cache = forward(model, permute_sample(sample, perm))
        for z, base_z in zip(cache.preactivations, base_cache.preactivations):
            worst = max(worst, float(np.max(np.abs(z - base_z[perm]))))
        worst = max(worst, float(np.max(np.abs(probs - base_probs))))
    assert worst <= 1e-9
    print(f"[PASS] permutation properties: max deviation {worst:.2e} over 20 permutations")


def test_loss_sanity():
    worst = 0.0
    for c in (2, 6, 7):
        labels = np.eye(c)[list(range(c))]
        uniform = np.full((c, c), 1.0 / c)
        worst = max(worst, abs(cross_entropy(labels, uniform) - math.log(c)))
    assert worst < 1e-9
    print(f"[PASS] loss sanity: |CE(uniform) - ln C| <= {worst:.2e} for C in (2, 6, 7)")


def test_threshold_monotonicity():
    dataset = generate_synthetic(SyntheticSpec(num_classes=3, samples_per_class=10,
                                               landmark_count=8, feature_dim=12,
                                               seed=1000))
    mean_edges = []
    saw_positive_spread = False
    for tau in TAU_GRID:
        counts = []
        for sample in dataset.samples:
            graph = build_graph(sample.landmarks, np.asarray(sample.features, float),
                                tau, sample.label)
            raw = raw_adjacency(graph.features, graph.landmarks)
            saw_positive_spread |= threshold_stats(raw, tau).std > 0.0
            counts.append(edge_count(graph.adjacency))
        mean_edges.append(float(np.mean(counts)))
    assert saw_positive_spread
    assert all(a >= b for a, b in zip(mean_edges, mean_edges[1:]))
    assert any(a > b for a, b in zip(mean_edges, mean_edges[1:]))
    print(f"[PASS] threshold monotonicity: mean edges "
          f"{mean_edges[0]:.2f} -> {mean_edges[-1]:.2f} over tau grid, "
          "nonincreasing with a strict drop")


def test_end_to_end_learning():
    spec = SyntheticSpec()  # 6 classes, 40 samples per class
    dataset = generate_synthetic(spec)

    clean = SyntheticSpec(feature_noise_scale=0.0, samples_per_class=1,
                          seed=spec.seed)
    prototypes = np.stack([np.asarray(s.features, float)
                           for s in generate_synthetic(clean).samples])
    separability = nearest_prototype_accuracy(dataset, prototypes)
    assert separability >= 0.99

    start = time.perf_counter()
    graphs = [g for _, g in dataset_graphs(dataset, 0.5)]
    train_idx, test_idx = split_indices(dataset, 0.25, 1000)
    epochs = 60  # within the 200-epoch budget
    model, history = train([graphs[i] for i in train_idx],
                           GcnConfig(in_dim=spec.feature_dim, num_classes=6),
                           TrainConfig(epochs=epochs))
    report = evaluate(model, [graphs[i] for i in test_idx])
    elapsed = time.perf_counter() - start

    assert epochs <= 200
    assert history[-1]["loss"] < 0.3
    assert report.accuracy >= 0.90
    assert elapsed < 60.0
    print(f"[PASS] end-to-end learning: separability {separability:.3f}, "
          f"test accuracy {report.accuracy:.3f}, final training loss "
          f"{history[-1]['loss']:.4f} after {epochs} epochs, {elapsed:.1f} s")


def test_metrics_identities():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        c = int(rng.integers(2, 9))
        matrix = rng.integers(0, 25, size=(c, c))
        if matrix.sum() == 0:
            matrix[0, 0] = 1
        report = compute_metrics(matrix, loss=0.0)
        assert report.war == report.accuracy

    for _ in range(50):
        c = int(rng.integers(2, 7))
        truth = np.repeat(np.arange(c), 30)
        preds = rng.integers(0, c, size=30 * c)
        report = compute_metrics(confusion(truth, preds, c), loss=0.0)
        assert abs(report.uar - report.war) <= 1e-12

    fixture = compute_metrics(np.array([[3, 0], [1, 0]]), loss=0.0)
    assert abs(fixture.macro_f1 - 0.4285714) < 1e-7
    print("[PASS] metrics identities: WAR == accuracy on 1000 random matrices, "
          "UAR == WAR balanced, macro-F1 fixture 0.4285714")


def test_determinism(tmp_path):
    dataset_dir = tmp_path / "ds"
    flags = ["--classes", "3", "--per-class", "8", "--landmarks", "6",
             "--feature-dim", "8", "--seed", "1000"]
    assert main(["synth", "--out-dir", str(dataset_dir), *flags]) == 0
    train_flags = ["--dataset", str(dataset_dir), "--epochs", "5",
                   "--batch-size", "4", "--hidden", "32"]
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert main(["train", "--out-dir", str(run_a), *train_flags]) == 0
    assert main(["train", "--out-dir", str(run_b), *train_flags]) == 0
    history_a = (run_a / "history.csv").read_bytes()
    assert history_a == (run_b / "history.csv").read_bytes()
    checkpoint_a = (run_a / "checkpoint.json").read_bytes()
    assert checkpoint_a == (run_b / "checkpoint.json").read_bytes()
    print(f"[PASS] determinism: {len(history_a)}-byte history and "
          f"{len(checkpoint_a)}-byte checkpoint are byte-identical across runs")


def test_round_trips(tmp_path):
    spec = SyntheticSpec(num_classes=3, samples_per_class=6, landmark_count=6,
                         feature_dim=8, seed=2)
    dataset = generate_synthetic(spec)
    manifest = save_dataset(dataset, tmp_path / "ds")
    reloaded = load_dataset(manifest)
    for original, loaded in zip(dataset.samples, reloaded.samples):
        assert original.sample_id == loaded.sample_id
        assert original.label == loaded.label
        assert np.array_equal(original.landmarks, loaded.landmarks)
        assert np.array_equal(original.features, loaded.features)

    graphs = [g for _, g in dataset_graphs(dataset, 0.3)]
    model, _ = train(graphs, GcnConfig(in_dim=8, num_classes=3, hidden_dim=16),
                     TrainConfig(epochs=3, batch_size=4))
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, model)
    restored, _ = load_checkpoint(path)
    for a, b in zip(model.params, restored.params):
        assert np.array_equal(a, b)
    for graph in graphs:
        before, _ = forward(model, graph)
        after, _ = forward(restored, graph)
        assert np.array_equal(before, after)  # 0 ulps in eval mode
    print("[PASS] round trips: dataset write/load and checkpoint save/load are "
          "bitwise faithful; eval after reload matches within 0 ulps")
