import base64
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import facegraph.gcn as gcn
from facegraph import (
    ACTIVATIONS,
    CacheMismatchError,
    CheckpointError,
    GcnConfig,
    GcnModel,
    GraphSample,
    InvalidInputError,
    NumericError,
    SyntheticSpec,
    TrainConfig,
    UsageError,
    adam_step,
    backward,
    cross_entropy,
    dataset_graphs,
    evaluate,
    forward,
    generate_synthetic,
    init_adam,
    init_model,
    load_checkpoint,
    lr_schedule,
    normalize_adjacency,
    predict,
    readout,
    rethreshold,
    save_checkpoint,
    train,
)
from facegraph.metrics import MAX_CLASSES
from oracles import (
    checkpoint_values,
    json_dump_checkpoint,
    naive_adam_step,
    naive_predict,
    naive_train,
    where_elu,
    where_elu_grad,
)


def toy_sample(rng, n=4, d=3, num_classes=2, label=0):
    adjacency = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adjacency[i, j] = adjacency[j, i] = 1
    features = rng.normal(size=(n, d))
    features /= np.sqrt((features * features).sum(axis=1, keepdims=True))
    landmarks = rng.uniform(0, 224, size=(n, 2))
    return GraphSample(landmarks=landmarks, features=features,
                       adjacency=adjacency, label=label)


def permute_sample(sample, perm):
    return GraphSample(landmarks=sample.landmarks[perm],
                       features=sample.features[perm],
                       adjacency=sample.adjacency[np.ix_(perm, perm)],
                       label=sample.label)


def layer_output(norm_adj, node_feats, weight, activation):
    """One GCN layer, sigma(A_hat @ H @ W), read from a one-layer model's forward."""
    n, d = node_feats.shape
    config = GcnConfig(in_dim=d, num_classes=1, hidden_dim=weight.shape[1],
                       num_layers=1, activation=activation)
    model = GcnModel(config, [weight, np.zeros((1, weight.shape[1])), np.zeros(1)])
    sample = GraphSample(landmarks=np.zeros((n, 2)), features=node_feats,
                         adjacency=np.zeros((n, n), dtype=np.int64), label=0)
    _, cache = forward(model, sample, norm_adj=norm_adj)
    act, _ = ACTIVATIONS[activation]
    return act(cache.preactivations[0])


def finite_difference_grads(model, sample, step=1e-5, rng_seed=None, norm_adj=None):
    """Central finite differences of the single-sample loss w.r.t. every parameter.

    With ``rng_seed`` set, dropout is on and every loss evaluation re-seeds
    its own generator, so the dropout masks are identical across perturbations.
    """
    def loss():
        rng = np.random.default_rng(rng_seed) if rng_seed is not None else None
        probs, _ = forward(model, sample, rng=rng, norm_adj=norm_adj)
        return -math.log(max(float(probs[sample.label]), 1e-12))

    grads = []
    for p in model.params:
        grad = np.zeros_like(p)
        flat_p, flat_g = p.ravel(), grad.ravel()
        for k in range(flat_p.size):
            original = flat_p[k]
            flat_p[k] = original + step
            upper = loss()
            flat_p[k] = original - step
            lower = loss()
            flat_p[k] = original
            flat_g[k] = (upper - lower) / (2.0 * step)
        grads.append(grad)
    return grads


def analytic_grads(model, sample, rng_seed=None, norm_adj=None):
    rng = np.random.default_rng(rng_seed) if rng_seed is not None else None
    probs, cache = forward(model, sample, rng=rng, norm_adj=norm_adj)
    onehot = np.zeros(model.config.num_classes)
    onehot[sample.label] = 1.0
    return backward(model, cache, probs - onehot)


def same_bits(a, b):
    """Equal shapes, NaN at the same places and identical bits everywhere else."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a.view(np.int64)[~nan], b.view(np.int64)[~nan]))


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestNormalizeAdjacency:
    def test_single_node(self):
        assert np.array_equal(normalize_adjacency(np.zeros((1, 1))), [[1.0]])

    def test_two_node_complete(self):
        out = normalize_adjacency(np.array([[0, 1], [1, 0]]))
        assert np.max(np.abs(out - 0.5)) < 1e-12

    def test_three_node_chain(self):
        out = normalize_adjacency(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
        s = 1.0 / math.sqrt(6.0)
        expected = np.array([[0.5, s, 0.0], [s, 1.0 / 3.0, s], [0.0, s, 0.5]])
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_symmetry_and_spectrum(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            upper = np.triu((rng.random((n, n)) < 0.4).astype(int), k=1)
            adjacency = upper + upper.T
            out = normalize_adjacency(adjacency)
            assert np.array_equal(out, out.T)
            eigenvalues = np.linalg.eigvalsh(out)
            assert eigenvalues.min() >= -1.0 - 1e-9
            assert eigenvalues.max() <= 1.0 + 1e-9

    def test_empty_adjacency_is_identity(self):
        assert np.array_equal(normalize_adjacency(np.zeros((3, 3))), np.eye(3))

    def test_not_square(self):
        with pytest.raises(InvalidInputError):
            normalize_adjacency(np.zeros((2, 3)))

    @pytest.mark.parametrize("adjacency, message", [
        ([[0, -1], [-1, 0]], "must be >= 0"),
        ([[0.0, np.nan], [np.nan, 0.0]], "must be >= 0"),
        ([[0.0, np.inf], [np.inf, 0.0]], "finite row sums"),
        ([[0.0, -np.inf], [-np.inf, 0.0]], "must be >= 0"),
        ([[1e308, 1e308], [0.0, 0.0]], "finite row sums"),
        ([["0", "1"], ["1", "0"]], "must hold numbers, got dtype <U1"),
        ([[None, 1], [1, 0]], "must hold numbers, got dtype object"),
        ([[0, 1], [1]], "not one array (setting an array element"),
    ], ids=["negative", "nan", "inf", "negative_inf", "row_sum_overflows", "strings",
            "none", "ragged"])
    def test_weights_that_give_no_degree_are_refused(self, adjacency, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"^adjacency.*{re.escape(message)}"):
                normalize_adjacency(adjacency)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float32, np.float64])
    def test_weights_of_every_number_dtype(self, dtype):
        adjacency = np.array([[0, 2, 0], [2, 0, 1], [0, 1, 0]], dtype=dtype)
        want = normalize_adjacency(adjacency.astype(np.float64))
        assert same_bits(normalize_adjacency(adjacency), want)

    @pytest.mark.parametrize("n", [12, 68])
    @pytest.mark.parametrize("tau", [-0.5, 0.0, 0.5, 1.0, 1e6])
    def test_bits_of_the_outer_product_form(self, n, tau):
        # tau -0.5 gives complete graphs here and 1e6 edgeless ones; the int
        # input has edge multiplicities 1-4, so its degrees vary more
        rng = np.random.default_rng(n)
        spec = SyntheticSpec(num_classes=2, samples_per_class=3, landmark_count=n,
                             feature_dim=8, seed=11)
        for graph in dataset_graphs(generate_synthetic(spec), tau):
            upper = np.triu(rng.integers(1, 5, size=(n, n)), k=1)
            for adjacency in (graph.adjacency, graph.adjacency * (upper + upper.T)):
                with_loops = np.asarray(adjacency, dtype=float) + np.eye(n)
                inv_sqrt_degree = 1.0 / np.sqrt(with_loops.sum(axis=1))
                want = with_loops * np.outer(inv_sqrt_degree, inv_sqrt_degree)
                assert same_bits(normalize_adjacency(adjacency), want)


class TestErf:
    def test_within_3_ulp_of_math_erf(self):
        x = np.concatenate([np.linspace(-7.0, 7.0, 140001),
                            np.random.default_rng(0).uniform(-7.0, 7.0, 20000),
                            [0.0, -0.0, 1.0, -1.0, 6.0]])
        want = np.array([math.erf(v) for v in x])
        got = gcn._erf(x)
        assert np.all(np.abs(got - want) <= 3 * np.spacing(np.abs(want)))
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_infinities_and_nan(self):
        assert np.array_equal(gcn._erf(np.array([np.inf, -np.inf])), [1.0, -1.0])
        assert np.isnan(gcn._erf(np.nan))


SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.1e-308,
                           np.inf, -np.inf, np.nan, 1e300, -1e300, 709.0, 710.0,
                           -745.0, 1e-20, -1e-20])


def activation_inputs(count=120):
    """Random arrays with special values mixed in, in C, F, strided and 1-D layouts."""
    rng = np.random.default_rng(17)
    for k in range(count):
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
        hits = rng.random(shape) < 0.2
        values[hits] = rng.choice(SPECIAL_VALUES, size=int(hits.sum()))
        yield [values, np.asfortranarray(values), values[::2, ::-1], values.ravel(),
               values.ravel()[::-1]][k % 5]


class TestActivations:
    def test_elu_matches_branching_form_bit_for_bit(self):
        # numpy's expm1 and exp run a SIMD loop on forward-strided input and libm
        # on reversed input, which can differ in the last bit. The branch-free
        # forms always feed them minimum's fresh output, so they match the
        # branching forms on a contiguous copy: the layout of a preactivation.
        for x in activation_inputs():
            contiguous = np.ascontiguousarray(x)
            with np.errstate(over="ignore"):  # the branching form overflows past 709.78
                want, want_grad = where_elu(contiguous), where_elu_grad(contiguous)
            assert same_bits(gcn._elu(x), want)
            assert same_bits(gcn._elu_grad(x), want_grad)

    @pytest.mark.parametrize("derivative", [0, 1], ids=["function", "gradient"])
    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_finite_extremes_do_not_warn(self, name, derivative):
        x = np.array([800.0, 2e154, -2e154])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = ACTIVATIONS[name][derivative](x)
        negative = {"relu": 0.0, "gelu": 0.0, "elu": -1.0}[name]
        want = [1.0, 1.0, 0.0] if derivative else [800.0, 2e154, negative]
        assert np.array_equal(out, want)


class TestGcnLayer:
    def test_identity_composition(self):
        h = np.array([[0.5, 2.0, 0.0]])
        out = layer_output(np.array([[1.0]]), h, np.eye(3), "relu")
        assert np.array_equal(out, h)

    @pytest.mark.parametrize("activation", ["relu", "gelu", "elu"])
    def test_zero_weight_gives_zero(self, activation):
        rng = np.random.default_rng(1)
        a_hat = normalize_adjacency((rng.random((4, 4)) < 0.5).astype(int) * 0)
        h = rng.normal(size=(4, 3))
        out = layer_output(a_hat, h, np.zeros((3, 2)), activation)
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_two_node_average(self):
        a_hat = normalize_adjacency(np.array([[0, 1], [1, 0]]))
        out = layer_output(a_hat, np.array([[2.0], [0.0]]), np.array([[1.0]]), "relu")
        assert np.max(np.abs(out - 1.0)) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        a_hat = normalize_adjacency(
            (lambda u: u + u.T)(np.triu((rng.random((5, 5)) < 0.5).astype(int), 1)))
        h = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 4))
        for _ in range(5):
            perm = rng.permutation(5)
            permuted = layer_output(a_hat[np.ix_(perm, perm)], h[perm], w, "gelu")
            assert np.max(np.abs(permuted - layer_output(a_hat, h, w, "gelu")[perm])) < 1e-9


class TestReadout:
    def test_single_row(self):
        assert np.array_equal(readout(np.array([[1.0, 2.0]])), [1.0, 2.0])

    def test_mean_of_equal_rows(self):
        assert np.array_equal(readout(np.array([[3.0, 1.0], [3.0, 1.0]])), [3.0, 1.0])

    def test_arithmetic_mean(self):
        assert np.array_equal(readout(np.array([[0.0, 2.0], [2.0, 0.0]])), [1.0, 1.0])

    @pytest.mark.parametrize("node_feats", [np.zeros((0, 2)), np.zeros(2)],
                             ids=["no_nodes", "1d"])
    def test_needs_nonempty_matrix(self, node_feats):
        with pytest.raises(InvalidInputError, match="nonempty 2-D"):
            readout(node_feats)


class TestForward:
    def setup_method(self):
        self.rng = np.random.default_rng(33)
        self.sample = toy_sample(self.rng, n=5, d=4, num_classes=3)
        self.config = GcnConfig(in_dim=4, num_classes=3, hidden_dim=8, num_layers=2)
        self.model = init_model(self.config, 7)

    def test_eval_deterministic(self):
        p1, _ = forward(self.model, self.sample)
        p2, _ = forward(self.model, self.sample)
        assert np.array_equal(p1, p2)

    def test_probabilities_sum_to_one(self):
        for seed in range(5):
            model = init_model(self.config, seed)
            probs, _ = forward(model, self.sample)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs >= 0.0)

    def test_permutation_invariance(self):
        base, _ = forward(self.model, self.sample)
        for _ in range(10):
            perm = self.rng.permutation(self.sample.num_nodes)
            probs, _ = forward(self.model, permute_sample(self.sample, perm))
            assert np.max(np.abs(probs - base)) < 1e-9

    def test_dimension_mismatch(self):
        bad = toy_sample(self.rng, n=4, d=6)
        with pytest.raises(InvalidInputError):
            forward(self.model, bad)

    @pytest.mark.parametrize("nodes", [4, 8])
    def test_adjacency_must_match_the_features(self, nodes):
        other = toy_sample(self.rng, n=nodes, d=4)
        short = GraphSample(landmarks=self.rng.uniform(0, 224, size=(6, 2)),
                            features=toy_sample(self.rng, n=6, d=4).features,
                            adjacency=other.adjacency, label=0)
        with pytest.raises(InvalidInputError, match=f"{nodes} nodes"):
            forward(self.model, short)
        with pytest.raises(InvalidInputError, match=f"{nodes} nodes"):
            forward(self.model, self.sample,
                    norm_adj=normalize_adjacency(other.adjacency))

    @pytest.mark.parametrize("shape", [(5, 4), (4, 5), (5,), (5, 5, 1)])
    def test_non_square_norm_adj_is_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="square"):
            forward(self.model, self.sample, norm_adj=np.ones(shape))

    def test_norm_adj_layout_keeps_the_bits(self):
        # a BLAS may round a product differently for another memory layout
        config = GcnConfig(in_dim=12, num_classes=3, hidden_dim=20, num_layers=3)
        model = init_model(config, 5)
        for graph in oracle_graphs(68, 12)[:4]:
            a_hat = normalize_adjacency(graph.adjacency)
            want, _ = forward(model, graph)
            got, _ = forward(model, graph, norm_adj=np.asfortranarray(a_hat))
            assert same_bits(got, want)

    def test_train_mode_differs_and_masks_recorded(self):
        config = GcnConfig(in_dim=4, num_classes=3, hidden_dim=32, num_layers=2,
                           dropout_rate=0.5)
        model = init_model(config, 7)
        eval_probs, _ = forward(model, self.sample)
        train_probs, cache = forward(model, self.sample, rng=np.random.default_rng(0))
        assert not np.array_equal(eval_probs, train_probs)
        assert cache.dropout_masks[0] is not None
        assert cache.dropout_masks[-1] is None  # final layer keeps everything
        assert set(np.unique(cache.dropout_masks[0])) <= {0.0, 2.0}


class TestModelBudget:
    @pytest.mark.parametrize("hidden, layers", [
        (10 ** 18, 2), (8, 10 ** 20), (10 ** 11, 2), (65536, 10), (2 ** 62, 2 ** 62),
        (1, 10 ** 7),
    ], ids=["hidden_huge", "layers_huge", "hidden_1e11", "wide_and_deep", "both_huge",
            "deep_and_thin"])
    def test_over_budget_is_refused_before_any_shape(self, hidden, layers, monkeypatch):
        def no_shapes(config):
            raise AssertionError("shapes derived for an over-budget model")
        monkeypatch.setattr(gcn, "param_shapes", no_shapes)
        config = GcnConfig(in_dim=16, num_classes=6, hidden_dim=hidden, num_layers=layers)
        with pytest.raises(UsageError,
                           match=r"parameters in \d+ layers, above the budget of \d+$"):
            init_model(config, 0)

    @pytest.mark.parametrize("in_dim, classes, hidden, layers", [
        (4, 3, 8, 2), (1, 1, 1, 1), (64, 7, 256, 2), (5, 2, 3, 4),
    ])
    def test_budget_counts_every_parameter_and_layer(self, in_dim, classes, hidden,
                                                     layers, monkeypatch):
        config = GcnConfig(in_dim=in_dim, num_classes=classes, hidden_dim=hidden,
                           num_layers=layers)
        count = sum(math.prod(shape) for shape in gcn.param_shapes(config))
        monkeypatch.setattr(gcn, "MAX_PARAMETERS", count + 64 * layers)
        model = init_model(config, 0)
        assert sum(p.size for p in model.params) == count
        monkeypatch.setattr(gcn, "MAX_PARAMETERS", count + 64 * layers - 1)
        with pytest.raises(UsageError, match=f"{count} parameters in {layers} layers"):
            init_model(config, 0)

    def test_wide_real_face_model_fits(self):
        config = GcnConfig(in_dim=64, num_classes=7, hidden_dim=1024, num_layers=4)
        assert [p.shape for p in init_model(config, 0).params] == gcn.param_shapes(config)


class TestClassBudget:
    """A model of more than MAX_CLASSES classes is refused before any of its
    C x C arrays exists: by init_model (and so train), predict (and so
    evaluate) and load_checkpoint."""

    def test_model_at_the_budget(self, tmp_path):
        model = init_model(GcnConfig(in_dim=1, num_classes=MAX_CLASSES, hidden_dim=1), 0)
        assert model.params[-1].shape == (MAX_CLASSES,)
        save_checkpoint(tmp_path / "model.json", model)
        loaded, _ = load_checkpoint(tmp_path / "model.json")
        assert loaded.config.num_classes == MAX_CLASSES
        samples = [toy_sample(np.random.default_rng(0), d=1, label=MAX_CLASSES - 1)]
        assert evaluate(model, samples).confusion.shape == (MAX_CLASSES, MAX_CLASSES)

    @pytest.mark.parametrize("classes", [MAX_CLASSES + 1, 200_000])
    def test_init_model_and_train_past_the_budget(self, classes):
        # at 200,000 classes the one-hot labels alone would take 298 GiB
        config = GcnConfig(in_dim=8, num_classes=classes, hidden_dim=1)
        message = f"^a model of {classes} classes, above the budget of {MAX_CLASSES}$"
        with pytest.raises(UsageError, match=message):
            init_model(config, 0)
        with pytest.raises(UsageError, match=message):
            train(separable_graphs(), config, TrainConfig(epochs=1))

    @pytest.mark.parametrize("infer", [predict, evaluate])
    def test_inference_past_the_budget(self, infer):
        model = GcnModel(GcnConfig(in_dim=8, num_classes=200_000, hidden_dim=1), [])
        with pytest.raises(UsageError, match="^a model of 200000 classes, above the budget"):
            infer(model, separable_graphs())

    def test_checkpoint_past_the_budget(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(path, init_model(GcnConfig(in_dim=1, num_classes=2, hidden_dim=1), 0))
        doc = json.loads(path.read_text())
        doc["config"]["num_classes"] = MAX_CLASSES + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"a model of {MAX_CLASSES + 1} classes, "
                                                  f"above the budget of {MAX_CLASSES}"):
            load_checkpoint(path)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        y = np.array([[1.0, 0.0]])
        assert abs(cross_entropy(y, y)) <= 1e-12

    def test_uniform_six_classes(self):
        y = np.eye(6)[[0, 3]]
        p = np.full((2, 6), 1.0 / 6.0)
        assert abs(cross_entropy(y, p) - 1.791759469228055) < 1e-12

    def test_single_sample_derived(self):
        y = np.array([[1.0, 0.0, 0.0]])
        p = np.array([[0.7, 0.2, 0.1]])
        assert abs(cross_entropy(y, p) - 0.35667494393873245) < 1e-12

    def test_clamp_prevents_infinity(self):
        y = np.array([[1.0, 0.0]])
        p = np.array([[0.0, 1.0]])
        assert math.isfinite(cross_entropy(y, p))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            cross_entropy(np.eye(2), np.full((3, 2), 0.5))


class TestBackward:
    def setup_method(self):
        self.rng = np.random.default_rng(44)
        self.sample = toy_sample(self.rng, n=4, d=3, num_classes=2, label=1)

    def model_for(self, activation, dropout=0.0):
        config = GcnConfig(in_dim=3, num_classes=2, hidden_dim=6, num_layers=2,
                           activation=activation, dropout_rate=dropout)
        return init_model(config, 11)

    def test_softmax_identity_at_logits(self):
        model = self.model_for("relu")
        probs, cache = forward(model, self.sample)
        onehot = np.array([0.0, 1.0])
        grads = backward(model, cache, probs - onehot)
        assert np.array_equal(grads[-1], probs - onehot)

    def test_zero_upstream_gradient(self):
        model = self.model_for("gelu")
        _, cache = forward(model, self.sample)
        grads = backward(model, cache, np.zeros(2))
        for g in grads:
            assert np.array_equal(g, np.zeros_like(g))

    @pytest.mark.parametrize("activation", ["relu", "gelu", "elu"])
    def test_gradients_match_finite_differences(self, activation):
        model = self.model_for(activation)
        analytic = analytic_grads(model, self.sample)
        numeric = finite_difference_grads(model, self.sample)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_gradients_with_frozen_dropout_mask(self):
        model = self.model_for("relu", dropout=0.3)
        analytic = analytic_grads(model, self.sample, rng_seed=99)
        numeric = finite_difference_grads(model, self.sample, rng_seed=99)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_gradients_with_a_non_symmetric_norm_adj(self):
        # backward propagates through A_hat.T, which differs from A_hat here;
        # node 3 is linked through its column alone
        norm_adj = np.eye(4)
        norm_adj[0, 1], norm_adj[1, 2], norm_adj[2, 3] = 0.7, -0.4, 0.9
        model = self.model_for("gelu")
        analytic = analytic_grads(model, self.sample, norm_adj=norm_adj)
        numeric = finite_difference_grads(model, self.sample, norm_adj=norm_adj)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_stale_cache_detected(self):
        model = self.model_for("relu")
        probs, cache = forward(model, self.sample)
        grads = [np.ones_like(p) for p in model.params]
        adam_step(model, grads, init_adam(model.params), 1e-3, 0.0)
        with pytest.raises(CacheMismatchError):
            backward(model, cache, probs)
        probs, cache = forward(model, self.sample)  # a cache taken after the step
        assert len(backward(model, cache, probs)) == len(model.params)


def adam_model(params):
    """A model holding ``params``; :func:`adam_step` reads only the arrays."""
    return GcnModel(config=GcnConfig(in_dim=1, num_classes=1), params=params)


class TestAdam:
    def test_zero_gradient_zero_decay_is_identity(self):
        rng = np.random.default_rng(2)
        params = [rng.normal(size=(3, 4)), rng.normal(size=5)]
        before = [p.copy() for p in params]
        state = init_adam(params)
        adam_step(adam_model(params), [np.zeros_like(p) for p in params], state, 1e-3, 0.0)
        for old, new in zip(before, params):
            assert np.array_equal(old, new)
        assert state.step == 1

    def test_first_step_magnitude_near_lr(self):
        params = [np.zeros(4)]
        grads = [np.array([0.5, -0.5, 2.0, -2.0])]
        lr = 1e-3
        adam_step(adam_model(params), grads, init_adam(params), lr, 0.0)
        # bias-corrected first step is lr * g / (|g| + eps') per coordinate
        assert np.all(np.abs(np.abs(params[0]) - lr) < 1e-6)
        assert np.array_equal(np.sign(params[0]), -np.sign(grads[0]))

    def test_decay_in_isolation(self):
        params = [np.array([2.0, -4.0])]
        lr, decay = 0.01, 0.5
        adam_step(adam_model(params), [np.zeros(2)], init_adam(params), lr, decay)
        assert np.array_equal(params[0], np.array([2.0, -4.0]) * (1.0 - lr * decay))

    def test_updates_in_place(self):
        weight = np.ones(3)
        grads = [np.ones(3)]
        model = adam_model([weight])
        state = init_adam(model.params)
        first, second = state.first_moment[0], state.second_moment[0]
        assert adam_step(model, grads, state, 1e-2, 1e-2) is None
        assert model.params[0] is weight and not np.array_equal(weight, np.ones(3))
        assert state.first_moment[0] is first and state.second_moment[0] is second
        assert np.all(first > 0.0) and np.all(second > 0.0)
        assert np.array_equal(grads[0], np.ones(3))
        assert state.step == 1 and model.updates == 1

    def test_zero_decay_keeps_every_bit(self):
        params = [np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -np.inf, np.nan])]
        before = params[0].copy()
        adam_step(adam_model(params), [np.zeros(7)], init_adam(params), 1e-3, 0.0)
        assert same_bits(params[0], before)

    def test_params_and_grads_must_be_parallel(self):
        params = [np.ones(3), np.ones(2)]
        with pytest.raises(InvalidInputError, match="parallel"):
            adam_step(adam_model(params), [np.ones(3)], init_adam(params), 1e-3, 0.0)

    @pytest.mark.parametrize("grad", [[[1.0, 2.0], [1.0]], np.ones(3), np.ones((2, 1)),
                                      1.0, [["a", "b"], ["c", "d"]], np.ones((2, 2)) + 1j],
                             ids=["ragged", "too_long", "wrong_columns", "scalar",
                                  "strings", "complex"])
    def test_bad_gradient_named(self, grad):
        params = [np.ones(2), np.ones((2, 2))]
        state = init_adam(params)
        before = [p.copy() for p in params]
        with pytest.raises(InvalidInputError, match=r"^grads\[1\]"):
            adam_step(adam_model(params), [np.zeros(2), grad], state, 1e-3, 0.0)
        assert all(np.array_equal(p, b) for p, b in zip(params, before))

    def test_ragged_parameter_named(self):
        with pytest.raises(InvalidInputError, match=r"^params\[0\]"):
            init_adam([[[1.0, 2.0], [1.0]]])

    def test_gradient_list_is_taken_as_its_array(self):
        params, lists = [np.ones((2, 2))], [np.ones((2, 2))]
        grads = [[[0.5, -1.0], [2.0, 0.0]]]
        adam_step(adam_model(params), grads, init_adam(params), 1e-3, 5e-4)
        adam_step(adam_model(lists), [np.array(grads[0])], init_adam(lists), 1e-3, 5e-4)
        assert same_bits(params[0], lists[0])

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_matches_oracle_over_steps(self, weight_decay):
        rng = np.random.default_rng(31)
        params = [rng.normal(size=(5, 7)), rng.normal(size=(7, 3)).T, rng.normal(size=4)]
        model = adam_model(list(params))
        state = init_adam(params)
        arrays = [*params, *state.first_moment, *state.second_moment]
        want = [p.copy() for p in params]
        first = [m.copy() for m in state.first_moment]
        second = [v.copy() for v in state.second_moment]
        for step in range(6):
            grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3) for p in params]
            lr = 1e-3 * (step + 1)
            adam_step(model, grads, state, lr, weight_decay)
            updated = [*model.params, *state.first_moment, *state.second_moment]
            assert all(got is kept for got, kept in zip(updated, arrays))
            want, first, second = naive_adam_step(want, grads, first, second, step, lr,
                                                  weight_decay)
            assert state.step == step + 1
            for got, expected in zip(arrays, [*want, *first, *second]):
                assert same_bits(got, expected)


class TestConfigTypes:
    """Sizes and seeds are integers; a model's dimensions, which its checkpoint
    stores as JSON, are Python ints."""

    @pytest.mark.parametrize("field, value", [
        ("epochs", 1.5), ("batch_size", 2.5), ("seed", 1.5), ("epochs", True),
        ("batch_size", "4"), ("seed", None),
    ], ids=["epochs_fraction", "batch_fraction", "seed_fraction", "epochs_bool",
            "batch_text", "seed_none"])
    def test_train_config_sizes_and_seed(self, field, value):
        with pytest.raises(UsageError, match=f"^{field} must be an int, got {value!r}$"):
            TrainConfig(**{"epochs": 1, field: value})

    def test_train_config_takes_numpy_integers(self):
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8)
        typed = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), seed=np.int64(5))
        got = train(graphs, config, typed)
        want = train(graphs, config, TrainConfig(epochs=2, batch_size=4, seed=5))
        assert got[1] == want[1]
        assert all(same_bits(a, b) for a, b in zip(got[0].params, want[0].params))

    @pytest.mark.parametrize("field", ["in_dim", "num_classes", "hidden_dim", "num_layers"])
    @pytest.mark.parametrize("value", [8.0, True, np.int64(8), "8"],
                             ids=["float", "bool", "numpy_int", "text"])
    def test_gcn_config_dimensions_are_ints(self, field, value):
        given = {"in_dim": 4, "num_classes": 3, field: value}
        with pytest.raises(UsageError, match=r"^in_dim, num_classes, hidden_dim and "
                                             r"num_layers must be ints, got \["):
            GcnConfig(**given)


class TestLrSchedule:
    def setup_method(self):
        self.config = TrainConfig(epochs=11)

    def test_first_epoch(self):
        assert lr_schedule(0, 11, self.config) == 1e-3

    def test_last_epoch(self):
        assert lr_schedule(10, 11, self.config) == pytest.approx(1e-4, abs=1e-18)

    def test_midpoint(self):
        assert lr_schedule(5, 11, self.config) == pytest.approx(5.5e-4, rel=1e-9)

    def test_single_epoch_run(self):
        assert lr_schedule(0, 1, TrainConfig(epochs=1)) == 1e-3

    def test_monotone_decreasing(self):
        values = [lr_schedule(e, 11, self.config) for e in range(11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            lr_schedule(11, 11, self.config)


def separable_graphs(num_classes=2, per_class=8, seed=5):
    spec = SyntheticSpec(num_classes=num_classes, samples_per_class=per_class,
                         landmark_count=6, feature_dim=8,
                         feature_noise_scale=0.05, seed=seed)
    dataset = generate_synthetic(spec)
    return dataset_graphs(dataset, 0.3)


class TestTrain:
    def test_zero_epochs(self):
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8)
        model, history = train(graphs, config, TrainConfig(epochs=0))
        reference = init_model(config, np.random.default_rng(1000))
        assert history == []
        for got, want in zip(model.params, reference.params):
            assert np.array_equal(got, want)

    def test_loss_decreases_on_separable_data(self):
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=16)
        _, history = train(graphs, config, TrainConfig(epochs=15, batch_size=4))
        assert history[-1]["loss"] < history[0]["loss"]

    def test_seeded_runs_identical(self):
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8)
        model_a, hist_a = train(graphs, config, TrainConfig(epochs=5))
        model_b, hist_b = train(graphs, config, TrainConfig(epochs=5))
        assert hist_a == hist_b
        for a, b in zip(model_a.params, model_b.params):
            assert np.array_equal(a, b)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            train([], GcnConfig(in_dim=4, num_classes=2), TrainConfig(epochs=1))

    def test_adjacency_must_match_the_features(self):
        graphs = separable_graphs()
        graphs[3] = replace(graphs[3], adjacency=np.zeros((4, 4), dtype=bool))
        with pytest.raises(InvalidInputError, match="4 nodes"):
            train(graphs, GcnConfig(in_dim=8, num_classes=2, hidden_dim=8),
                  TrainConfig(epochs=1))

    def test_non_finite_parameters_name_the_batch(self):
        # lr 1e200: the first step leaves finite weights near 1e200, and the
        # second step's forward overflows them, in epoch 0's second batch
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8)
        with pytest.raises(NumericError, match=r"epoch 0, batch 1\b"):
            train(graphs, config, TrainConfig(epochs=2, batch_size=4,
                                              lr_init=1e200, lr_min=1e199))

    def test_diverging_run_fails_without_warnings(self):
        # the lr-1e200 run overflows in the forward pass and the decay: those
        # steps are refused by the NumericError alone, not also by numpy
        # warnings, and the caller's floating-point error state is kept
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8)
        before = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match=r"epoch 0, batch 1\b"):
                train(graphs, config, TrainConfig(epochs=2, batch_size=4,
                                                  lr_init=1e200, lr_min=1e199))
        assert [str(w.message) for w in caught] == []
        assert np.geterr() == before

    def test_dim_mismatch_rejected(self):
        graphs = separable_graphs()
        with pytest.raises(InvalidInputError):
            train(graphs, GcnConfig(in_dim=5, num_classes=2), TrainConfig(epochs=1))

    def test_label_out_of_range_rejected(self):
        graphs = separable_graphs()
        with pytest.raises(InvalidInputError):
            train(graphs, GcnConfig(in_dim=8, num_classes=1), TrainConfig(epochs=1))


def with_sample_2(**fields):
    """An edit of a graph list that replaces fields of graph 2."""
    def edit(graphs):
        graphs[2] = replace(graphs[2], **fields)
        return graphs
    return edit


def run_on(run, samples):
    """``train`` a 2-class, in_dim 8 model on ``samples``, or ``evaluate`` one."""
    config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8)
    if run == "train":
        return train(samples, config, TrainConfig(epochs=2, batch_size=4))
    return evaluate(init_model(config, 0), samples)


class TestSampleCheck:
    """``train`` and ``evaluate`` refuse a bad sample up front, naming it."""

    @pytest.mark.parametrize("run", ["train", "evaluate"])
    @pytest.mark.parametrize("edit, message", [
        (lambda graphs: [], "empty"),
        (with_sample_2(features=np.zeros(8)), r"^sample 2 has features of shape \(8,\)"),
        (with_sample_2(features=np.zeros((6, 5))),
         r"^sample 2 has features of shape \(6, 5\), model expects N x 8$"),
        (with_sample_2(features=np.zeros((6, 8, 1))),
         r"^sample 2 has features of shape \(6, 8, 1\)"),
        (with_sample_2(features=None), r"^sample 2 has features of shape \(\)"),
        (with_sample_2(label=2), r"^sample 2 has label 2, outside \[0, 2\)$"),
        (with_sample_2(label=-1), r"^sample 2 has label -1, outside \[0, 2\)$"),
    ], ids=["empty", "features_1d", "wrong_width", "features_3d", "no_features",
            "label_high", "label_negative"])
    def test_bad_sample_named(self, run, edit, message):
        with pytest.raises(InvalidInputError, match=message):
            run_on(run, edit(separable_graphs()))

    @pytest.mark.parametrize("run", ["train", "evaluate"])
    @pytest.mark.parametrize("label", [1.5, np.float64(1.0), "1", None, True, np.True_],
                             ids=["fraction", "numpy_float", "text", "none", "bool",
                                  "numpy_bool"])
    def test_label_that_is_not_an_integer_named(self, run, label):
        with pytest.raises(InvalidInputError,
                           match=rf"^sample 2 has label {re.escape(repr(label))}, "
                                 r"not an integer class index$"):
            run_on(run, with_sample_2(label=label)(separable_graphs()))

    @pytest.mark.parametrize("run", ["train", "evaluate"])
    def test_numpy_integer_labels_accepted(self, run):
        graphs = separable_graphs()
        typed = [replace(g, label=np.int64(g.label)) for g in graphs]
        got, want = run_on(run, typed), run_on(run, graphs)
        if run == "train":
            assert got[1] == want[1]
            assert all(same_bits(a, b) for a, b in zip(got[0].params, want[0].params))
        else:
            assert got.loss == want.loss
            assert np.array_equal(got.confusion, want.confusion)

    @pytest.mark.parametrize("run", ["train", "evaluate"])
    def test_list_features_accepted(self, run):
        graphs = separable_graphs()
        listed = [replace(g, features=g.features.tolist()) for g in graphs]
        got, want = run_on(run, listed), run_on(run, graphs)
        if run == "train":
            assert got[1] == want[1]
            assert all(same_bits(a, b) for a, b in zip(got[0].params, want[0].params))
        else:
            assert got.loss == want.loss
            assert np.array_equal(got.confusion, want.confusion)


def oracle_graphs(n, feature_dim):
    """12 graphs on n landmarks, 3 classes; graph 0 is edgeless, graph 1 complete."""
    spec = SyntheticSpec(num_classes=3, samples_per_class=4, landmark_count=n,
                         feature_dim=feature_dim, seed=n)
    graphs = dataset_graphs(generate_synthetic(spec), 0.5)
    graphs[0] = rethreshold(graphs[0], 1e6)
    graphs[1] = rethreshold(graphs[1], -1e6)
    assert not graphs[0].adjacency.any()
    assert graphs[1].adjacency.sum() == n * (n - 1)
    return graphs


class TestTrainMatchesOracle:
    """``train`` gives the bits of a per-sample loop on dense A_hat products."""

    @pytest.mark.parametrize("n, width, layers, activation, dropout", [
        (12, 8, 1, "relu", 0.0),
        (12, 8, 2, "gelu", 0.2),
        (12, 8, 3, "elu", 0.2),
        (68, 8, 1, "elu", 0.2),
        (68, 8, 2, "relu", 0.2),
        (68, 8, 3, "gelu", 0.0),
        (68, 12, 2, "relu", 0.2),
        (68, 12, 3, "elu", 0.0),
    ])
    def test_params_and_history_bit_for_bit(self, n, width, layers, activation, dropout):
        # width is in_dim and half of hidden_dim; 12 and 24 are not multiples of 8
        graphs = oracle_graphs(n, width)
        config = GcnConfig(in_dim=width, num_classes=3, hidden_dim=2 * width,
                           num_layers=layers, activation=activation, dropout_rate=dropout)
        # 12 samples in batches of 5: the last batch holds 2
        train_config = TrainConfig(epochs=3, batch_size=5, lr_init=0.01, seed=n + layers)
        model, history = train(graphs, config, train_config)
        params, expected = naive_train(graphs, config, train_config,
                                       ACTIVATIONS[activation])
        assert len(model.params) == len(params)
        for got, want in zip(model.params, params):
            assert same_bits(got, want)
        assert history == expected

    @pytest.mark.parametrize("n, width, layers, activation, dropout", [
        (12, 8, 1, "relu", 0.0),
        (12, 8, 2, "gelu", 0.2),
        (12, 8, 3, "elu", 0.2),
        (68, 8, 1, "elu", 0.2),
        (68, 8, 2, "relu", 0.2),
        (68, 8, 3, "gelu", 0.0),
        (68, 12, 2, "elu", 0.2),
        (68, 12, 3, "relu", 0.0),
    ])
    def test_float32_params_and_history_bit_for_bit(self, n, width, layers, activation,
                                                   dropout):
        graphs = oracle_graphs(n, width)
        config = GcnConfig(in_dim=width, num_classes=3, hidden_dim=2 * width,
                           num_layers=layers, activation=activation, dropout_rate=dropout)
        train_config = TrainConfig(epochs=3, batch_size=5, lr_init=0.01, seed=n + layers,
                                   precision="float32")
        model, history = train(graphs, config, train_config)
        params, expected = naive_train(graphs, config, train_config,
                                       ACTIVATIONS[activation], dtype=np.float32)
        assert len(model.params) == len(params)
        for got, want in zip(model.params, params):
            # trained and returned in float32
            assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert history == expected


def _numpy_blas_is_x86_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "") and platform.machine() in ("x86_64", "AMD64")


def _cpu_has_avx2_and_fma() -> bool:
    """Whether the CPU runs the Haswell and Zen kernels, which use AVX2 and
    FMA instructions; read from Linux's /proc/cpuinfo, so False elsewhere."""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            flags = next((line.split(":", 1)[1].split() for line in handle
                          if line.startswith("flags")), [])
    except OSError:
        return False
    return {"avx2", "fma"} <= set(flags)


@pytest.mark.skipif(not _numpy_blas_is_x86_openblas(),
                    reason="OPENBLAS_CORETYPE selects kernels of OpenBLAS on x86-64 only")
@pytest.mark.skipif(not _cpu_has_avx2_and_fma(),
                    reason="the Haswell and Zen kernels need a CPU with AVX2 and FMA")
@pytest.mark.parametrize("coretype", ["Haswell", "Zen"])
def test_train_matches_oracle_on_other_openblas_kernels(coretype):
    """OpenBLAS picks its kernels from the CPU at run time, so the oracle's
    bits must hold on the kernels of an AVX2-only Intel host and of an AMD
    one too. The variable acts on the child pytest alone."""
    root = Path(__file__).parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).name}::TestTrainMatchesOracle"],
        cwd=root / "tests", env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode >= 0, f"the child pytest died of signal {-result.returncode}"
    assert result.returncode == 0, result.stdout[-3000:]


class TestPredictMatchesOracle:
    """``predict`` gives the bits of a per-sample forward on dense A_hat products."""

    @pytest.mark.parametrize("n, in_dim, hidden, layers, activation", [
        (12, 12, 20, 1, "relu"),
        (12, 64, 32, 2, "gelu"),
        (12, 12, 24, 3, "elu"),
        (68, 12, 20, 1, "elu"),
        (68, 12, 24, 2, "relu"),
        (68, 12, 36, 3, "gelu"),
        (68, 64, 64, 1, "gelu"),
        (68, 64, 40, 2, "elu"),
        (68, 64, 256, 3, "relu"),
    ])
    def test_labels_probabilities_and_embeddings_bit_for_bit(
            self, n, in_dim, hidden, layers, activation):
        graphs = oracle_graphs(n, in_dim)
        config = GcnConfig(in_dim=in_dim, num_classes=3, hidden_dim=hidden,
                           num_layers=layers, activation=activation)
        model = init_model(config, n + in_dim + layers)
        # spread the logits so that the classes do not all tie
        model.params[-2] *= 50.0
        got = predict(model, graphs)
        want = naive_predict(graphs, model.params, ACTIVATIONS[activation])
        assert np.array_equal(got[0], want[0])
        assert same_bits(got[1], want[1])
        assert same_bits(got[2], want[2])

    @pytest.mark.parametrize("n, in_dim, hidden, layers, activation", [
        (12, 12, 20, 1, "relu"),
        (12, 64, 32, 2, "gelu"),
        (12, 12, 24, 3, "elu"),
        (68, 12, 36, 3, "gelu"),
        (68, 64, 40, 2, "elu"),
        (68, 64, 256, 2, "relu"),
    ])
    def test_float32_weights_bit_for_bit(self, n, in_dim, hidden, layers, activation):
        """On float32 weights the pass runs in float32, and ``predict`` returns
        its probabilities and embeddings widened to float64, which is exact."""
        graphs = oracle_graphs(n, in_dim)
        config = GcnConfig(in_dim=in_dim, num_classes=3, hidden_dim=hidden,
                           num_layers=layers, activation=activation)
        model = init_model(config, n + in_dim + layers)
        model.params[-2] *= 50.0
        model.params = [p.astype(np.float32) for p in model.params]
        got = predict(model, graphs)
        want = naive_predict(graphs, model.params, ACTIVATIONS[activation],
                             dtype=np.float32)
        assert want[1].dtype == want[2].dtype == np.float32
        assert np.array_equal(got[0], want[0])
        assert same_bits(got[1], want[1].astype(np.float64))
        assert same_bits(got[2], want[2].astype(np.float64))


class TestPredict:
    def test_single_class(self):
        rng = np.random.default_rng(3)
        samples = [toy_sample(rng, num_classes=1) for _ in range(4)]
        model = init_model(GcnConfig(in_dim=3, num_classes=1, hidden_dim=4), 0)
        labels, probs, _ = predict(model, samples)
        assert np.array_equal(labels, np.zeros(4, dtype=int))
        assert np.allclose(probs, 1.0)

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(4)
        sample = toy_sample(rng, num_classes=3)
        config = GcnConfig(in_dim=3, num_classes=3, hidden_dim=4)
        model = init_model(config, 0)
        model.params[-2:] = [np.zeros_like(p) for p in model.params[-2:]]
        labels, probs, _ = predict(model, [sample])
        assert np.allclose(probs, 1.0 / 3.0)
        assert labels[0] == 0

    def test_invariant_under_node_permutation(self):
        rng = np.random.default_rng(6)
        sample = toy_sample(rng, n=6, d=4, num_classes=3)
        model = init_model(GcnConfig(in_dim=4, num_classes=3, hidden_dim=8), 2)
        base, _, _ = predict(model, [sample])
        for _ in range(5):
            perm = rng.permutation(6)
            permuted, _, _ = predict(model, [permute_sample(sample, perm)])
            assert permuted[0] == base[0]

    def test_overflowing_logits_name_the_sample(self):
        # finite weights: sample 0's zero features give zero logits, while
        # sample 1's positive embedding times 1e308 overflows every logit
        rng = np.random.default_rng(5)
        quiet, loud = toy_sample(rng), toy_sample(rng)
        quiet.features[:] = 0.0
        loud.features[:] = np.abs(loud.features)
        model = init_model(GcnConfig(in_dim=3, num_classes=2, hidden_dim=4), 0)
        for weight in model.params[:-2]:
            weight[:] = 1.0
        model.params[-2][:] = 1e308
        model.params[-1][:] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (predict, evaluate):
                with pytest.raises(NumericError, match=r"^sample 1: non-finite logits"):
                    run(model, [quiet, loud])


def extreme_model(hidden, with_preprocess):
    """A random-shape model whose weights span exponents +-300 and hold -0.0,
    +-5e-324 and +-1e308, with or without a ``preprocess`` block."""
    rng = np.random.default_rng(hidden + 1000 * with_preprocess)
    config = GcnConfig(in_dim=int(rng.integers(1, 6)),
                       num_classes=int(rng.integers(1, 8)), hidden_dim=hidden,
                       num_layers=int(rng.integers(1, 4)),
                       activation=str(rng.choice(sorted(ACTIVATIONS))),
                       dropout_rate=float(rng.choice([0.0, 0.2, 0.5])))
    model = init_model(config, rng)
    for p in model.params:
        p += rng.normal(size=p.shape)
        p *= 10.0 ** rng.integers(-300, 300, size=p.shape)
        p.ravel()[rng.integers(0, p.size, size=3)] = rng.choice(
            [-0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-5], size=3)
    preprocess = ({"tau": 0.3, "patch_h": 20, "patch_w": 20, "encoder_dim": 32,
                   "encoder_seed": 7} if with_preprocess else None)
    return model, preprocess


FLOAT32_MAX = float(np.finfo(np.float32).max)
FLOAT32_TINY = float(np.finfo(np.float32).smallest_subnormal)


def extreme_float32_model(hidden, with_preprocess, mixed):
    """``extreme_model``'s shapes with float32 weights that span exponents
    +-37 and hold -0.0, subnormals and +-float32 max; if ``mixed``, the
    readout weight stays float64."""
    model, preprocess = extreme_model(hidden, with_preprocess)
    rng = np.random.default_rng(hidden + 10 * mixed)
    params = []
    for p in model.params:
        q = rng.normal(size=p.shape) * 10.0 ** rng.integers(-37, 37, size=p.shape)
        q.ravel()[rng.integers(0, q.size, size=3)] = rng.choice(
            [-0.0, FLOAT32_TINY, -FLOAT32_TINY, 3 * FLOAT32_TINY, FLOAT32_MAX, -FLOAT32_MAX],
            size=3)
        params.append(q.astype(np.float32))
    if mixed:
        params[-2] = model.params[-2]
    return replace(model, params=params), preprocess


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = init_model(GcnConfig(in_dim=4, num_classes=3, hidden_dim=8), 1)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, preprocess={"tau": 0.5})
        loaded, preprocess = load_checkpoint(path)
        assert preprocess == {"tau": 0.5}
        for a, b in zip(model.params, loaded.params):
            assert np.array_equal(a, b)

    def test_forward_after_reload_zero_ulp(self, tmp_path):
        rng = np.random.default_rng(8)
        sample = toy_sample(rng, n=5, d=4, num_classes=3)
        model = init_model(GcnConfig(in_dim=4, num_classes=3, hidden_dim=8), 1)
        before, _ = forward(model, sample)
        path = tmp_path / "model.json"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        after, _ = forward(loaded, sample)
        assert np.array_equal(before, after)

    def test_optimizer_block_of_older_files_ignored(self, tmp_path):
        model = init_model(GcnConfig(in_dim=3, num_classes=2, hidden_dim=4), 1)
        path = tmp_path / "model.json"
        json_dump_checkpoint(path, model, preprocess={"tau": 0.5}, version=1)
        doc = json.loads(path.read_text())
        moments = [{"shape": list(p.shape), "data": np.full(p.size, 0.5).tolist()}
                   for p in model.params]
        doc["optimizer"] = {"step": 3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                            "first_moment": moments, "second_moment": moments}
        path.write_text(json.dumps(doc))
        loaded, preprocess = load_checkpoint(path)
        assert preprocess == {"tau": 0.5}
        for a, b in zip(model.params, loaded.params):
            assert np.array_equal(a, b)

    def test_update_count_stays_out_of_the_file(self, tmp_path):
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8)
        model, _ = train(graphs, config, TrainConfig(epochs=2, batch_size=4))
        assert model.updates == 2 * math.ceil(len(graphs) / 4)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_checkpoint(first, model, preprocess={"tau": 0.3})
        loaded, preprocess = load_checkpoint(first)
        assert loaded.updates == 0
        save_checkpoint(second, loaded, preprocess=preprocess)
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text())["config"] == asdict(config)

    @pytest.mark.parametrize("edit", [
        lambda d: d["readout_weight"].update(shape=[4, 2]),
        lambda d: d["readout_bias"].update(shape=[1, 2]),
    ], ids=["weight_shape", "bias_shape"])
    def test_shapes_and_optimizer_checked_against_config(self, tmp_path, edit):
        model = init_model(GcnConfig(in_dim=3, num_classes=2, hidden_dim=4), 1)
        path = tmp_path / "model.json"
        save_checkpoint(path, model)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("hidden", [1, 256, 512, 257])
    @pytest.mark.parametrize("with_preprocess", [False, True],
                             ids=["no_preprocess", "preprocess"])
    def test_bytes_match_json_dump(self, tmp_path, hidden, with_preprocess):
        model, preprocess = extreme_model(hidden, with_preprocess)
        save_checkpoint(tmp_path / "written.json", model, preprocess=preprocess)
        json_dump_checkpoint(tmp_path / "dumped.json", model, preprocess=preprocess,
                             version=2)
        assert ((tmp_path / "written.json").read_bytes()
                == (tmp_path / "dumped.json").read_bytes())

    @pytest.mark.parametrize("hidden", [1, 256, 512, 257])
    @pytest.mark.parametrize("with_preprocess", [False, True],
                             ids=["no_preprocess", "preprocess"])
    def test_version_1_files_load_bit_for_bit(self, tmp_path, hidden, with_preprocess):
        model, preprocess = extreme_model(hidden, with_preprocess)
        path = tmp_path / "v1.json"
        json_dump_checkpoint(path, model, preprocess=preprocess, version=1)
        loaded, loaded_preprocess = load_checkpoint(path)
        assert loaded.config == model.config and loaded_preprocess == preprocess
        for a, b in zip(model.params, loaded.params):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("hidden", [1, 256, 257])
    @pytest.mark.parametrize("mixed", [False, True], ids=["float32", "mixed"])
    @pytest.mark.parametrize("with_preprocess", [False, True],
                             ids=["no_preprocess", "preprocess"])
    def test_float32_bytes_match_json_dump(self, tmp_path, hidden, mixed, with_preprocess):
        model, preprocess = extreme_float32_model(hidden, with_preprocess, mixed)
        save_checkpoint(tmp_path / "written.json", model, preprocess=preprocess)
        json_dump_checkpoint(tmp_path / "dumped.json", model, preprocess=preprocess,
                             version=3)
        assert ((tmp_path / "written.json").read_bytes()
                == (tmp_path / "dumped.json").read_bytes())

    @pytest.mark.parametrize("mixed", [False, True], ids=["float32", "mixed"])
    def test_float32_round_trip_bit_for_bit(self, tmp_path, mixed):
        model, preprocess = extreme_float32_model(7, True, mixed)
        model.params[0].ravel()[:6] = [-0.0, FLOAT32_TINY, -FLOAT32_TINY, 3 * FLOAT32_TINY,
                                       FLOAT32_MAX, -FLOAT32_MAX]
        path = tmp_path / "model.json"
        save_checkpoint(path, model, preprocess=preprocess)
        doc = json.loads(path.read_text())
        entries = [*doc["layer_weights"], doc["readout_weight"], doc["readout_bias"]]
        assert doc["version"] == 3
        assert [e.get("dtype") for e in entries] == [
            "float32" if p.dtype == np.float32 else None for p in model.params]
        loaded, loaded_preprocess = load_checkpoint(path)
        assert loaded.config == model.config and loaded_preprocess == preprocess
        for p, q in zip(model.params, loaded.params, strict=True):
            assert q.dtype == np.float64 and q.dtype.isnative
            assert q.flags.writeable and q.flags.c_contiguous
            assert same_bits(q, p.astype(np.float64))

    @pytest.mark.parametrize("edit, reason", [
        (lambda d: d["readout_bias"].update(data=base64.b64encode(bytes(16)).decode()),
         "16 bytes do not fill shape [2]"),
        (lambda d: d["readout_bias"].pop("dtype"), "8 bytes do not fill shape [2]"),
        (lambda d: d["readout_bias"].update(dtype="float16"), "unknown dtype 'float16'"),
        (lambda d: d["readout_bias"].update(dtype="float64"), "unknown dtype 'float64'"),
        (lambda d: d["readout_bias"].update(dtype="<f4"), "unknown dtype '<f4'"),
        (lambda d: d["readout_bias"].update(dtype=None), "unknown dtype None"),
        (lambda d: d["readout_bias"].update(dtype=4), "unknown dtype 4"),
        (lambda d: d["readout_bias"].update(dtype={"float32": 1}),
         "unknown dtype {'float32': 1}"),
    ], ids=["float32_of_doubles", "dtype_missing", "dtype_float16", "dtype_float64",
            "dtype_typestr", "dtype_null", "dtype_int", "dtype_object"])
    def test_bad_dtype_refused(self, tmp_path, edit, reason):
        model = init_model(GcnConfig(in_dim=2, num_classes=2, hidden_dim=2, num_layers=1), 1)
        model.params = [p.astype(np.float32) for p in model.params]
        path = tmp_path / "model.json"
        save_checkpoint(path, model)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        message = f"malformed matrix entry 'readout_bias': {reason}"
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
    def test_dtype_key_refused_before_version_3(self, tmp_path, version):
        model = init_model(GcnConfig(in_dim=2, num_classes=2, hidden_dim=2, num_layers=1), 1)
        model.params = [p.astype(np.float32) for p in model.params]
        path = tmp_path / "model.json"
        json_dump_checkpoint(path, model, version=version)
        load_checkpoint(path)  # loads without the key
        doc = json.loads(path.read_text())
        doc["readout_bias"]["dtype"] = "float32"
        path.write_text(json.dumps(doc))
        message = (f"malformed matrix entry 'readout_bias': "
                   f"a version-{version} file stores no dtype")
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    def test_data_unpacks_to_the_weights_bit_for_bit(self, tmp_path):
        model, _ = extreme_model(7, False)
        save_checkpoint(tmp_path / "model.json", model)
        doc = json.loads((tmp_path / "model.json").read_text())
        entries = [*doc["layer_weights"], doc["readout_weight"], doc["readout_bias"]]
        for entry, p in zip(entries, model.params):
            assert entry["shape"] == list(p.shape) and "dtype" not in entry
            values = checkpoint_values(entry)
            assert np.array_equal(np.array(values).view(np.int64),
                                  p.ravel().view(np.int64))

    def test_transposed_parameter_round_trips_row_major(self, tmp_path):
        model = init_model(GcnConfig(in_dim=3, num_classes=2, hidden_dim=5), 1)
        row_major = model.params[0]
        transposed = np.ascontiguousarray(row_major.T).T  # same values, column-major
        assert not transposed.flags.c_contiguous
        save_checkpoint(tmp_path / "c.json", model)
        model.params[0] = transposed
        save_checkpoint(tmp_path / "f.json", model)
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "f.json").read_bytes()
        loaded, _ = load_checkpoint(tmp_path / "f.json")
        assert same_bits(loaded.params[0], row_major)

    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
    def test_loaded_params_update_in_place(self, tmp_path, version):
        model = init_model(GcnConfig(in_dim=3, num_classes=2, hidden_dim=4), 1)
        json_dump_checkpoint(tmp_path / "model.json", model, version=version)
        loaded, _ = load_checkpoint(tmp_path / "model.json")
        for p in loaded.params:
            assert p.dtype == np.float64 and p.dtype.isnative
            assert p.flags.writeable and p.flags.c_contiguous
        grads = [np.random.default_rng(k).normal(size=p.shape)
                 for k, p in enumerate(model.params)]
        zeros = [np.zeros_like(p) for p in model.params]
        want, _, _ = naive_adam_step(model.params, grads, zeros, zeros, 0, 0.01, 5e-4)
        arrays = list(loaded.params)
        adam_step(loaded, grads, init_adam(loaded.params), 0.01, 5e-4)
        for array, p, expected in zip(arrays, loaded.params, want):
            assert p is array and same_bits(p, expected)

    def test_version_1_data_must_be_a_list(self, tmp_path):
        # numpy would read the text "0.5" as the one bias value
        model = init_model(GcnConfig(in_dim=3, num_classes=1, hidden_dim=4), 1)
        path = tmp_path / "model.json"
        json_dump_checkpoint(path, model, version=1)
        doc = json.loads(path.read_text())
        doc["readout_bias"]["data"] = "0.5"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="'readout_bias'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [0, 4, True, 2.0, "2", None],
                             ids=["zero", "four", "true", "float", "text", "null"])
    def test_unsupported_version_rejected(self, tmp_path, version):
        model = init_model(GcnConfig(in_dim=3, num_classes=2, hidden_dim=4), 1)
        path = tmp_path / "model.json"
        save_checkpoint(path, model)
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": version}))
        with pytest.raises(CheckpointError, match="unsupported version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("index, name, value", [
        (0, "layer_weights[0]", np.nan),
        (1, "layer_weights[1]", np.inf),
        (2, "readout_weight", -np.inf),
        (3, "readout_bias", np.nan),
    ], ids=["layer0_nan", "layer1_inf", "weight_neg_inf", "bias_nan"])
    def test_non_finite_weight_refused(self, tmp_path, index, name, value):
        model = init_model(GcnConfig(in_dim=3, num_classes=2, hidden_dim=4), 1)
        model.params[index].ravel()[-1] = value
        path = tmp_path / "model.json"
        with pytest.raises(NumericError, match=re.escape(repr(name))):
            save_checkpoint(path, model)
        assert not path.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda params: params.__setitem__(0, np.zeros((4, 4))),
         r"layer_weights\[0\] must be 2-D of shape \(3, 4\), got shape \(4, 4\)"),
        (lambda params: params.__setitem__(3, np.zeros((2, 1))),
         r"readout_bias must be 1-D of shape \(2\), got shape \(2, 1\)"),
        (lambda params: params.__setitem__(2, [[1.0, 2.0, 3.0, 4.0], [0.5]]),
         "readout_weight: not one array"),
        (lambda params: params.pop(1), "3 parameters for a model of 2 layers, which has 4"),
        (lambda params: params.append(np.zeros(2)), "5 parameters for a model of 2 layers"),
    ], ids=["layer_shape", "bias_shape", "ragged", "one_fewer", "one_more"])
    def test_weights_the_config_does_not_fit_refused(self, tmp_path, edit, message):
        # the load would refuse such a file: it checks every shape against the config
        model = init_model(GcnConfig(in_dim=3, num_classes=2, hidden_dim=4), 1)
        edit(model.params)
        path = tmp_path / "model.json"
        with pytest.raises(InvalidInputError, match=message):
            save_checkpoint(path, model)
        assert not path.exists()

    @pytest.mark.parametrize("key, value", [
        ("tau", float("nan")),
        ("encoder_dim", float("inf")),
        ("patch_h", [20, -float("inf")]),
    ], ids=["tau_nan", "encoder_dim_inf", "nested_neg_inf"])
    def test_non_finite_preprocess_refused(self, tmp_path, key, value):
        model = init_model(GcnConfig(in_dim=3, num_classes=2, hidden_dim=4), 1)
        path = tmp_path / "model.json"
        with pytest.raises(NumericError, match=re.escape(repr(key))):
            save_checkpoint(path, model, preprocess={"tau": 0.5, key: value})
        assert not path.exists()

    @pytest.mark.parametrize("num_layers", [1, 3, 10 ** 20])
    def test_layer_count_checked_before_shapes(self, tmp_path, num_layers):
        # a huge count must not reach param_shapes, whose list would not fit
        model = init_model(GcnConfig(in_dim=3, num_classes=2, hidden_dim=4), 1)
        path = tmp_path / "model.json"
        save_checkpoint(path, model)
        doc = json.loads(path.read_text())
        doc["config"]["num_layers"] = num_layers
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError,
                           match=f"'layer_weights' must list {num_layers} matrices"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda d: d["config"].pop("in_dim"),
        lambda d: d["config"].update(depth=2),
        lambda d: d["config"].update(num_classes=0),
        lambda d: d["config"].update(activation="bogus"),
        lambda d: d["config"].update(dropout_rate=1.5),
        lambda d: d.update(config=[3, 2]),
        lambda d: d.pop("config"),
    ], ids=["missing_key", "unknown_key", "zero_classes", "bad_activation",
            "bad_dropout", "not_an_object", "absent"])
    def test_malformed_config_section(self, tmp_path, edit):
        model = init_model(GcnConfig(in_dim=3, num_classes=2, hidden_dim=4), 1)
        path = tmp_path / "model.json"
        save_checkpoint(path, model)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="malformed config section"):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestEvaluate:
    def test_report_fields(self):
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=16)
        model, _ = train(graphs, config, TrainConfig(epochs=40, batch_size=4))
        report = evaluate(model, graphs)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.confusion.sum() == len(graphs)
        assert report.accuracy > 0.8  # easily separable


class TestSettingBounds:
    """Each integer setting has a lower bound and is stored as a Python int;
    each float setting is finite."""

    @pytest.mark.parametrize("field, value, low", [
        ("seed", -1, 0), ("epochs", -1, 0), ("batch_size", 0, 1), ("seed", np.int64(-5), 0),
    ], ids=["seed", "epochs", "batch_size", "numpy_seed"])
    def test_train_config_below_its_bound(self, field, value, low):
        with pytest.raises(UsageError, match=f"^{field} must be >= {low}, got {value}$"):
            TrainConfig(**{"epochs": 1, field: value})

    @pytest.mark.parametrize("given", [
        {"lr_init": math.nan, "lr_min": math.nan}, {"lr_min": math.nan},
        {"lr_init": math.inf}, {"lr_init": math.inf, "lr_min": math.inf},
        {"weight_decay": math.nan}, {"weight_decay": math.inf},
    ], ids=["lr_both_nan", "lr_min_nan", "lr_init_inf", "lr_both_inf", "decay_nan",
            "decay_inf"])
    def test_train_config_floats_are_finite(self, given):
        with pytest.raises(UsageError):
            TrainConfig(epochs=1, **given)

    def test_numpy_integers_stored_as_ints(self):
        config = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), seed=np.uint8(5))
        assert [type(v) for v in (config.epochs, config.batch_size, config.seed)] == [int] * 3
        assert (config.epochs, config.batch_size, config.seed) == (2, 4, 5)

    @pytest.mark.parametrize("field", ["in_dim", "num_classes", "hidden_dim", "num_layers"])
    def test_gcn_config_dimension_below_one_named(self, field):
        with pytest.raises(UsageError, match=f"^{field} must be >= 1, got 0$"):
            GcnConfig(**{"in_dim": 4, "num_classes": 3, field: 0})


class TestPrecision:
    """``TrainConfig.precision`` is the dtype of every array a training step
    makes and of the parameters ``train`` returns."""

    def test_default_is_float64(self):
        assert TrainConfig(epochs=1).precision == "float64"

    @pytest.mark.parametrize("precision", ["float16", "double", np.float32, None])
    def test_unknown_precision_refused(self, precision):
        with pytest.raises(UsageError, match="^precision must be one of"):
            TrainConfig(epochs=1, precision=precision)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_every_array_has_the_training_dtype(self, monkeypatch, activation, dropout,
                                                precision):
        arrays = []  # (what, array) for every array a step makes or keeps
        real_forward, real_backward, real_adam = gcn.forward, gcn.backward, gcn.adam_step

        def traced_forward(model, sample, rng=None, norm_adj=None):
            probs, cache = real_forward(model, sample, rng=rng, norm_adj=norm_adj)
            arrays.extend([("probabilities", probs), ("logits", cache.logits),
                           ("a_hat", cache.a_hat), ("embedding", cache.embedding)])
            arrays.extend(("aggregated", m) for m in cache.aggregated)
            arrays.extend(("preactivation", z) for z in cache.preactivations)
            arrays.extend(("dropout mask", mask) for mask in cache.dropout_masks
                          if mask is not None)
            return probs, cache

        def traced_backward(model, cache, logit_grad):
            grads = real_backward(model, cache, logit_grad)
            arrays.append(("logit gradient", logit_grad))
            arrays.extend(("gradient", g) for g in grads)
            return grads

        def traced_adam(model, grads, state, lr, weight_decay):
            real_adam(model, grads, state, lr, weight_decay)
            arrays.extend(("accumulated gradient", g) for g in grads)
            arrays.extend(("parameter", p) for p in model.params)
            arrays.extend(("first moment", m) for m in state.first_moment)
            arrays.extend(("second moment", v) for v in state.second_moment)
            arrays.extend(("adam scratch", a) for pair in state.scratch for a in pair)

        monkeypatch.setattr(gcn, "forward", traced_forward)
        monkeypatch.setattr(gcn, "backward", traced_backward)
        monkeypatch.setattr(gcn, "adam_step", traced_adam)
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8, num_layers=2,
                           activation=activation, dropout_rate=dropout)
        model, _ = train(separable_graphs(), config,
                         TrainConfig(epochs=2, batch_size=4, precision=precision))
        kinds = {what for what, _ in arrays}
        assert ("dropout mask" in kinds) == (dropout > 0.0)
        assert len(kinds) == 14 - (dropout == 0.0)
        assert sorted({what for what, a in arrays if a.dtype != precision}) == []
        assert [p.dtype for p in model.params] == [np.dtype(precision)] * 4

    def test_float32_parameters_are_widened_exactly(self, tmp_path):
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8)
        model, _ = train(graphs, config, TrainConfig(epochs=3, precision="float32"))
        # saving keeps the float32 weights; loading gives those values as float64
        save_checkpoint(tmp_path / "model.json", model)
        loaded, _ = load_checkpoint(tmp_path / "model.json")
        for p, q in zip(model.params, loaded.params, strict=True):
            assert p.dtype == np.float32 and q.dtype == np.float64
            assert np.array_equal(q, p) and np.array_equal(q.astype(np.float32), p)
        # the trained model runs float32 inference
        probs, cache = forward(model, graphs[0])
        assert probs.dtype == cache.embedding.dtype == cache.a_hat.dtype == np.float32

    def test_float32_model_infers_in_float32(self):
        graphs = separable_graphs()
        model = init_model(GcnConfig(in_dim=8, num_classes=2, hidden_dim=8), 3)
        model.params = [p.astype(np.float32) for p in model.params]
        probs, cache = forward(model, graphs[0])
        assert probs.dtype == cache.embedding.dtype == cache.a_hat.dtype == np.float32

    @pytest.mark.parametrize("lr, batch", [(1e200, 0), (1e30, 1)],
                             ids=["lr_beyond_float32", "overflow_near_3.4e38"])
    def test_float32_divergence_names_the_batch_without_warnings(self, lr, batch):
        # 1e200 rounds to inf in float32, so the first step already diverges;
        # 1e30 is a float32, and the weights it leaves overflow float32 (but
        # not float64) in the next batch's forward pass
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8)
        before = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match=rf"^non-finite parameters at epoch 0, "
                                                   rf"batch {batch}$"):
                train(graphs, config, TrainConfig(epochs=2, batch_size=4, lr_init=lr,
                                                  lr_min=lr / 10, precision="float32"))
        assert [str(w.message) for w in caught] == []
        assert np.geterr() == before

    def test_float64_does_not_diverge_where_float32_does(self):
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8)
        model, _ = train(graphs, config, TrainConfig(epochs=1, batch_size=4, lr_init=1e30,
                                                     lr_min=1e29))
        assert all(np.isfinite(p).all() for p in model.params)


class TestRealSettings:
    """A float setting is a real number, stored as a Python float; anything
    else is a UsageError naming it."""

    @pytest.mark.parametrize("given", [
        {"lr_init": "1"}, {"lr_min": None}, {"weight_decay": None}, {"weight_decay": "0"},
        {"lr_init": True},
    ], ids=["lr_text", "lr_min_none", "decay_none", "decay_text", "lr_bool"])
    def test_train_config(self, given):
        (field,) = given
        with pytest.raises(UsageError, match=f"^{field} must be a "):
            TrainConfig(epochs=1, **given)

    @pytest.mark.parametrize("given, message", [
        ({"lr_init": 10 ** 400}, "^need 0 < lr_min <= lr_init < inf"),
        ({"weight_decay": 10 ** 400}, "^weight_decay must be finite"),
        ({"weight_decay": -10 ** 400}, "^weight_decay must be finite"),
    ], ids=["lr", "decay", "negative_decay"])
    def test_int_beyond_floats_is_infinite(self, given, message):
        with pytest.raises(UsageError, match=message):
            TrainConfig(epochs=1, **given)

    @pytest.mark.parametrize("value", [None, "0.2", False], ids=["none", "text", "bool"])
    def test_gcn_config_dropout(self, value):
        with pytest.raises(UsageError, match="^dropout_rate must be a "):
            GcnConfig(in_dim=4, num_classes=2, dropout_rate=value)

    def test_stored_as_floats(self):
        config = TrainConfig(epochs=1, lr_init=np.float32(0.5), lr_min=np.float64(0.25),
                             weight_decay=0)
        values = (config.lr_init, config.lr_min, config.weight_decay)
        assert [type(v) for v in values] == [float] * 3
        assert values == (0.5, 0.25, 0.0)
        model_config = GcnConfig(in_dim=4, num_classes=2, dropout_rate=np.float32(0.5))
        assert type(model_config.dropout_rate) is float
