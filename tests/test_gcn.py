import json
import math
import re
import warnings

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
    save_checkpoint,
    train,
)
from oracles import json_dump_checkpoint, naive_adam_step, where_elu, where_elu_grad


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


def finite_difference_grads(model, sample, step=1e-5, rng_seed=None):
    """Central finite differences of the single-sample loss w.r.t. every parameter.

    With ``rng_seed`` set, dropout is on and every loss evaluation re-seeds
    its own generator, so the dropout masks are identical across perturbations.
    """
    def loss():
        rng = np.random.default_rng(rng_seed) if rng_seed is not None else None
        probs, _ = forward(model, sample, rng=rng)
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


def analytic_grads(model, sample, rng_seed=None):
    rng = np.random.default_rng(rng_seed) if rng_seed is not None else None
    probs, cache = forward(model, sample, rng=rng)
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

    def test_stale_cache_detected(self):
        model = self.model_for("relu")
        probs, cache = forward(model, self.sample)
        params = model.params
        grads = [np.ones_like(p) for p in params]
        model.params, _ = adam_step(params, grads, init_adam(params), 1e-3, 0.0)
        with pytest.raises(CacheMismatchError):
            backward(model, cache, probs)


class TestAdam:
    def test_zero_gradient_zero_decay_is_identity(self):
        rng = np.random.default_rng(2)
        params = [rng.normal(size=(3, 4)), rng.normal(size=5)]
        grads = [np.zeros_like(p) for p in params]
        new_params, state = adam_step(params, grads, init_adam(params), 1e-3, 0.0)
        for old, new in zip(params, new_params):
            assert np.array_equal(old, new)
        assert state.step == 1

    def test_first_step_magnitude_near_lr(self):
        params = [np.zeros(4)]
        grads = [np.array([0.5, -0.5, 2.0, -2.0])]
        lr = 1e-3
        new_params, _ = adam_step(params, grads, init_adam(params), lr, 0.0)
        # bias-corrected first step is lr * g / (|g| + eps') per coordinate
        assert np.all(np.abs(np.abs(new_params[0]) - lr) < 1e-6)
        assert np.array_equal(np.sign(new_params[0]), -np.sign(grads[0]))

    def test_decay_in_isolation(self):
        params = [np.array([2.0, -4.0])]
        grads = [np.zeros(2)]
        lr, decay = 0.01, 0.5
        new_params, _ = adam_step(params, grads, init_adam(params), lr, decay)
        assert np.array_equal(new_params[0], params[0] * (1.0 - lr * decay))

    def test_inputs_left_untouched(self):
        params = [np.ones(3)]
        grads = [np.ones(3)]
        adam_step(params, grads, init_adam(params), 1e-2, 1e-2)
        assert np.array_equal(params[0], np.ones(3))


    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_matches_oracle_over_steps(self, weight_decay):
        rng = np.random.default_rng(31)
        params = [rng.normal(size=(5, 7)), rng.normal(size=(7, 3)).T, rng.normal(size=4)]
        state = init_adam(params)
        want, first, second = params, state.first_moment, state.second_moment
        for step in range(6):
            grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3) for p in params]
            lr = 1e-3 * (step + 1)
            before = [p.copy() for p in [*params, *state.first_moment, *state.second_moment]]
            new_params, new_state = adam_step(params, grads, state, lr, weight_decay)
            for old, kept in zip([*params, *state.first_moment, *state.second_moment], before):
                assert same_bits(old, kept)
            assert all(new is not old for new, old in zip(new_params, params))
            params, state = new_params, new_state
            want, first, second = naive_adam_step(want, grads, first, second, step, lr,
                                                  weight_decay)
            assert state.step == step + 1
            for got, expected in zip([*params, *state.first_moment, *state.second_moment],
                                     [*want, *first, *second]):
                assert same_bits(got, expected)


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
    return [g for _, g in dataset_graphs(dataset, 0.3)]


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

    def test_non_finite_parameters_name_the_batch(self):
        # lr 1e200: the first step leaves finite weights near 1e200, and the
        # second step's forward overflows them, in epoch 0's second batch
        graphs = separable_graphs()
        config = GcnConfig(in_dim=8, num_classes=2, hidden_dim=8)
        with np.errstate(all="ignore"), pytest.raises(NumericError,
                                                      match=r"epoch 0, batch 1\b"):
            train(graphs, config, TrainConfig(epochs=2, batch_size=4,
                                              lr_init=1e200, lr_min=1e199))

    def test_dim_mismatch_rejected(self):
        graphs = separable_graphs()
        with pytest.raises(InvalidInputError):
            train(graphs, GcnConfig(in_dim=5, num_classes=2), TrainConfig(epochs=1))

    def test_label_out_of_range_rejected(self):
        graphs = separable_graphs()
        with pytest.raises(InvalidInputError):
            train(graphs, GcnConfig(in_dim=8, num_classes=1), TrainConfig(epochs=1))


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
        save_checkpoint(path, model, preprocess={"tau": 0.5})
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

    @pytest.mark.parametrize("hidden", [1, gcn._CHECKPOINT_CHUNK,
                                        2 * gcn._CHECKPOINT_CHUNK, 257])
    @pytest.mark.parametrize("with_preprocess", [False, True],
                             ids=["no_preprocess", "preprocess"])
    def test_bytes_match_json_dump(self, tmp_path, hidden, with_preprocess):
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
        save_checkpoint(tmp_path / "written.json", model, preprocess=preprocess)
        json_dump_checkpoint(tmp_path / "dumped.json", model, preprocess=preprocess)
        assert ((tmp_path / "written.json").read_bytes()
                == (tmp_path / "dumped.json").read_bytes())

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
