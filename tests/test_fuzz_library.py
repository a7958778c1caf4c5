"""A seeded fuzzer of the library's settings and array boundary.

Each settings case mutates one argument of one entry point: a field of ``TrainConfig``,
``EncoderConfig``, ``SyntheticSpec`` or ``GcnConfig``, the test fraction or
seed of ``split_indices``, or a patch side of ``features_for_sample``. The
mutation is a negative number, a huge one, a numpy integer, a bool, NaN, an
infinity, a string or None. The case then builds the setting and, if it is accepted, uses it on
a tiny input. Whatever the value, the case must return or raise one of the
errors named in ``facegraph.errors``, with every warning an error; an
accepted integer field must be stored as a Python ``int``.

Each array case does the same to ``compute_metrics``, ``confusion`` or
``normalize_adjacency``, but puts the value in place of one entry of an
array argument (a confusion matrix, a label list, an adjacency) or of a
scalar one (the loss, the class count). An accepted matrix must be reported
as the counts it holds, an accepted label list counted in full, and an
accepted adjacency normalized to finite weights >= 0.

Each input case mutates one array argument of one of the library's array
entry points (graph construction, the patch encoders, ``forward``,
``train``, ``predict``, ``evaluate`` and ``cross_entropy``; a
``GraphSample``'s features, adjacency, landmarks or weights count as
arguments): one entry becomes a list (a ragged list), a complex number, an
int beyond the float range, NaN or an object, or the whole argument becomes
a matrix of strings, a complex array, an object or an array of another
shape. The property is the same.

Each round-trip case saves a model with ``save_checkpoint`` and loads it
back with ``load_checkpoint``: float32 and float64 weights of random shapes,
scales and extreme or non-finite entries, some of a shape other than the
config's, beside a random ``preprocess`` block (random keys, JSON values,
tuples, sets, numpy scalars and nesting near the recursion limit). The save
must raise a named error and write no file, or the load must give back
every weight as its float64 value and an equal ``preprocess``. Each report
case formats a random ``MetricsReport``, from ``compute_metrics`` or with
one field mutated, under random class names: ``format_report`` must return
a string or raise a named error.

``epochs`` is never mutated to a large value, since no budget bounds it and
training time grows with it; every other size is bounded by a budget that
refuses it before any allocation.
"""

import dataclasses
import inspect
import math
import random
import warnings
from numbers import Integral

import numpy as np
import pytest

from facegraph import (
    ACTIVATIONS,
    EncoderConfig,
    GcnConfig,
    GcnModel,
    MetricsReport,
    SyntheticSpec,
    TrainConfig,
    binarize,
    build_graph,
    compute_metrics,
    confusion,
    cross_entropy,
    errors,
    evaluate,
    extract_patch,
    features_for_sample,
    format_report,
    forward,
    generate_synthetic,
    init_model,
    l2_normalize_rows,
    load_checkpoint,
    normalize_adjacency,
    predict,
    raw_adjacency,
    rethreshold,
    save_checkpoint,
    split_indices,
    threshold_stats,
    train,
)
from facegraph.data import dataset_graphs
from facegraph.gcn import MAX_PREPROCESS_DEPTH, param_shapes

CASES = 300
SEED = 8128
ARRAY_CASES = 150
ARRAY_SEED = 6174
INPUT_CASES = 600
INPUT_SEED = 1729
ROUND_TRIP_CASES = 400
ROUND_TRIP_SEED = 2718

NAMED = tuple(cls for cls in vars(errors).values()
              if inspect.isclass(cls) and cls.__module__ == errors.__name__)
MUTATIONS = {
    "negative": [-1, -2.5, -2 ** 63],
    "huge": [10 ** 9, 2 ** 63, 10 ** 30, 1e300],
    "numpy": [np.int64(0), np.int32(3), np.uint8(1), np.int64(-4), np.int64(2 ** 40)],
    "bool": [True, False],
    "nan": [math.nan, np.float64("nan")],
    "inf": [math.inf, -math.inf],
    "not_a_number": ["0.1", "3", None],
}

# small, valid arguments every case starts from
SPEC = {"num_classes": 2, "samples_per_class": 3, "landmark_count": 4, "feature_dim": 4,
        "geometry_displacement_scale": 12.0, "feature_noise_scale": 0.25, "seed": 5}
DATASET = generate_synthetic(SyntheticSpec(**SPEC))
GRAPHS = dataset_graphs(DATASET, 0.5)
MODEL = {"in_dim": 4, "num_classes": 2, "hidden_dim": 8, "num_layers": 2,
         "dropout_rate": 0.2}
IMAGE = np.arange(256, dtype=np.uint8).reshape(16, 16)
LANDMARKS = np.array([[2.0, 3.0], [15.0, 0.0], [8.0, 8.0]])


def _settings(cls, given):
    """A ``cls`` from ``given``; each integer field it keeps must be a Python int."""
    settings = cls(**given)
    ints = [f.name for f in dataclasses.fields(cls) if f.type == "int"]  # string annotations
    assert ints and all(type(getattr(settings, name)) is int for name in ints), ints
    return settings


def _use_train_config(given):
    train(GRAPHS, GcnConfig(**MODEL), _settings(TrainConfig, given))


def _use_encoder(given):
    encoder = _settings(EncoderConfig, given)
    assert features_for_sample(IMAGE, LANDMARKS, 5, 3, encoder).shape == (3, encoder.out_dim)


def _use_spec(given):
    spec = _settings(SyntheticSpec, given)
    assert len(generate_synthetic(spec).samples) == spec.num_classes * spec.samples_per_class


def _use_model(given):
    train(GRAPHS, _settings(GcnConfig, given), TrainConfig(epochs=1, batch_size=4))


def _use_split(given):
    train_idx, test_idx = split_indices(DATASET, **given)
    assert sorted(train_idx + test_idx) == list(range(len(DATASET.samples)))


def _use_patch(given):
    assert features_for_sample(IMAGE, LANDMARKS, config=EncoderConfig(out_dim=8),
                               **given).shape == (3, 8)


# entry point -> (its valid arguments, how a case uses them)
TARGETS = {
    "TrainConfig": ({"epochs": 1, "batch_size": 4, "lr_init": 1e-3, "lr_min": 1e-4,
                     "weight_decay": 5e-4, "seed": 7}, _use_train_config),
    "EncoderConfig": ({"out_dim": 8, "projection_seed": 3}, _use_encoder),
    "SyntheticSpec": (SPEC, _use_spec),
    "GcnConfig": (MODEL, _use_model),
    "split_indices": ({"test_fraction": 0.25, "seed": 7}, _use_split),
    "features_for_sample": ({"h": 5, "w": 3}, _use_patch),
}


def _use_metrics(given):
    report = compute_metrics(**given)
    assert report.confusion.dtype == np.int64
    assert np.array_equal(report.confusion, given["matrix"])
    assert (report.confusion >= 0).all()
    assert all(0.0 <= rate <= 1.0 for rate in (report.accuracy, report.macro_f1,
                                                report.war, report.uar))


def _use_confusion(given):
    matrix = confusion(**given)
    assert matrix.shape == (given["num_classes"],) * 2
    assert matrix.sum() == len(given["true_labels"])


def _use_adjacency(given):
    normalized = normalize_adjacency(**given)
    assert normalized.shape == (3, 3) and (normalized >= 0).all()
    assert np.isfinite(normalized).all()


ARRAYS = {
    "compute_metrics": ({"matrix": [[3, 1], [0, 2]], "loss": 0.5}, _use_metrics),
    "confusion": ({"true_labels": [0, 1, 1], "predicted_labels": [0, 1, 0],
                   "num_classes": 2}, _use_confusion),
    "normalize_adjacency": ({"adjacency": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]},
                            _use_adjacency),
}


def _values(kind, name):
    """The values of mutation ``kind`` that argument ``name`` may take."""
    values = MUTATIONS[kind]
    if name == "epochs":  # no budget bounds the training time
        values = [v for v in values if not (isinstance(v, Integral) and v > 3)]
    return values


def _placed(valid, value, rng):
    """``value`` in place of one entry, drawn by ``rng``, of a (nested) list
    ``valid``; ``value`` itself where ``valid`` is no list."""
    if not isinstance(valid, list):
        return value
    k = rng.randrange(len(valid))
    return [*valid[:k], _placed(valid[k], value, rng), *valid[k + 1:]]


def _case(index, targets=TARGETS, seed=SEED, cases=CASES):
    """Case ``index`` of ``targets``: an entry point, the mutation kind, and
    the arguments with one of them mutated."""
    rng = random.Random(seed * cases + index)
    target = rng.choice(sorted(targets))
    valid = targets[target][0]
    name = rng.choice(sorted(valid))
    kind = rng.choice([k for k in sorted(MUTATIONS) if _values(k, name)])
    value = rng.choice(_values(kind, name))
    return target, kind, {**valid, name: _placed(valid[name], value, rng)}


@pytest.mark.parametrize("index", range(CASES))
def test_setting_returns_or_raises_a_named_error(index):
    target, _, given = _case(index)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the case
        try:
            TARGETS[target][1](given)
        except NAMED:
            pass


@pytest.mark.parametrize("index", range(ARRAY_CASES))
def test_array_returns_or_raises_a_named_error(index):
    target, _, given = _case(index, ARRAYS, ARRAY_SEED, ARRAY_CASES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ARRAYS[target][1](given)
        except NAMED:
            pass


def test_cases_cover_every_target_and_mutation():
    cases = [_case(index) for index in range(CASES)]
    assert {(target, kind) for target, kind, _ in cases} == {
        (target, kind) for target in TARGETS for kind in MUTATIONS}


def test_array_cases_cover_every_target_and_mutation():
    cases = [_case(index, ARRAYS, ARRAY_SEED, ARRAY_CASES) for index in range(ARRAY_CASES)]
    assert {(target, kind) for target, kind, _ in cases} == {
        (target, kind) for target in ARRAYS for kind in MUTATIONS}


def _mapped(valid, function):
    """``function`` of every entry of a (nested) list ``valid``."""
    if not isinstance(valid, list):
        return function(valid)
    return [_mapped(entry, function) for entry in valid]


def _reshaped(valid, rng):
    """``valid`` with an axis more or fewer, or one entry fewer along its first."""
    return rng.choice([[valid], valid[0], valid[:-1], _mapped(valid, lambda entry: [entry])])


# mutation kind -> how a case mutates a valid (nested) list, drawing from rng
DEFECTS = {
    "ragged": lambda valid, rng: _placed(valid, [0.5] * rng.randrange(3), rng),
    "string": lambda valid, rng: _mapped(valid, rng.choice([repr, lambda entry: "x"])),
    "object": lambda valid, rng: rng.choice([object(), None, _placed(valid, object(), rng)]),
    "complex": lambda valid, rng: rng.choice([_placed(valid, 1 + 2j, rng),
                                              np.asarray(valid) + 1j]),
    "huge_int": lambda valid, rng: _placed(valid, rng.choice([10 ** 400, -10 ** 400]), rng),
    "shape": _reshaped,
    "nan": lambda valid, rng: _placed(valid, math.nan, rng),
}

SAMPLE = GRAPHS[0]
FITTED = init_model(GcnConfig(**MODEL), 3)


def _sample(given):
    """``SAMPLE`` with the given fields in place of its own."""
    return dataclasses.replace(SAMPLE, **given)


def _use_build_graph(given):
    graph = build_graph(given["landmarks"], given["features"], 0.5, 1)
    assert graph.adjacency.shape == (graph.num_nodes,) * 2


def _use_forward(given):
    probabilities, _ = forward(FITTED, _sample(given))
    assert probabilities.shape == (MODEL["num_classes"],)


def _use_train(given):
    train([_sample(given), *GRAPHS[1:]], GcnConfig(**MODEL), TrainConfig(epochs=1, batch_size=4))


def _use_predict(given):
    assert len(predict(FITTED, [_sample(given), *GRAPHS[1:]])[0]) == len(GRAPHS)


def _use_evaluate(given):
    assert evaluate(FITTED, [_sample(given), *GRAPHS[1:]]).confusion.sum() == len(GRAPHS)


SAMPLE_ARRAYS = {"features": SAMPLE.features.tolist(), "adjacency": SAMPLE.adjacency.tolist()}
INPUTS = {
    "build_graph": ({"landmarks": SAMPLE.landmarks.tolist(),
                     "features": DATASET.samples[0].features.tolist()}, _use_build_graph),
    "rethreshold": ({"weights": SAMPLE.weights.tolist(), "landmarks": SAMPLE.landmarks.tolist()},
                    lambda given: rethreshold(_sample(given), 0.25)),
    "l2_normalize_rows": ({"features": DATASET.samples[0].features.tolist()},
                          lambda given: l2_normalize_rows(**given)),
    "raw_adjacency": ({"features": SAMPLE.features.tolist(),
                       "points": SAMPLE.landmarks.tolist()},
                      lambda given: raw_adjacency(**given)),
    "threshold_stats": ({"raw": raw_adjacency(SAMPLE.features, SAMPLE.landmarks).tolist()},
                        lambda given: threshold_stats(tau=0.5, **given)),
    "binarize": ({"raw": raw_adjacency(SAMPLE.features, SAMPLE.landmarks).tolist()},
                 lambda given: binarize(threshold=0.1, **given)),
    "features_for_sample": ({"image": IMAGE.tolist(), "landmarks": LANDMARKS.tolist()},
                            lambda given: features_for_sample(h=5, w=3,
                                                              config=EncoderConfig(out_dim=8),
                                                              **given)),
    "extract_patch": ({"image": IMAGE.tolist(), "center": [2.0, 3.0]},
                      lambda given: extract_patch(h=3, w=5, **given)),
    "forward": (SAMPLE_ARRAYS, _use_forward),
    "train": (SAMPLE_ARRAYS, _use_train),
    "predict": (SAMPLE_ARRAYS, _use_predict),
    "evaluate": (SAMPLE_ARRAYS, _use_evaluate),
    "cross_entropy": ({"labels_onehot": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
                       "probabilities": [[0.75, 0.25], [0.5, 0.5], [0.125, 0.875]]},
                      lambda given: cross_entropy(**given)),
}


def _input_case(index):
    """Input case ``index``: an entry point, the mutation kind, and the
    arguments with one array argument mutated."""
    rng = random.Random(INPUT_SEED * INPUT_CASES + index)
    target = rng.choice(sorted(INPUTS))
    valid = INPUTS[target][0]
    name = rng.choice(sorted(valid))
    kind = rng.choice(sorted(DEFECTS))
    return target, kind, {**valid, name: DEFECTS[kind](valid[name], rng)}


@pytest.mark.parametrize("index", range(INPUT_CASES))
def test_input_returns_or_raises_a_named_error(index):
    target, _, given = _input_case(index)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning fails the case
        try:
            INPUTS[target][1](given)
        except NAMED:
            pass


def test_input_cases_cover_every_target_and_mutation():
    cases = [_input_case(index) for index in range(INPUT_CASES)]
    assert {(target, kind) for target, kind, _ in cases} == {
        (target, kind) for target in INPUTS for kind in DEFECTS}


def _nested(value, depth):
    """``value`` inside ``depth`` one-entry lists."""
    for _ in range(depth):
        value = [value]
    return value


def _json_value(rng, depth=0):
    """A random ``preprocess`` value: mostly what JSON holds, sometimes not."""
    kind = rng.choice(["scalar"] * 6 + ["list", "dict", "tuple", "set", "numpy", "deep"])
    if kind == "scalar" or depth > 2:
        return rng.choice([0, -7, 2 ** 70, 10 ** 5000, 0.5, -0.0, 5e-324, 1.7976931348623157e308,
                           math.nan, math.inf, -math.inf, True, None, "", "tau", "\u00e9\n\"",
                           "\ud800"])
    if kind == "list":
        return [_json_value(rng, depth + 1) for _ in range(rng.randrange(3))]
    if kind == "dict":
        keys = rng.sample(["a", "b", "", 1, None, 2.5], rng.randrange(3))
        return {key: _json_value(rng, depth + 1) for key in keys}
    if kind == "tuple":
        return tuple(_json_value(rng, depth + 1) for _ in range(rng.randrange(1, 3)))
    if kind == "set":
        return {1, 2}
    if kind == "numpy":
        return rng.choice([np.float64(0.25), np.float32(0.5), np.int64(3), np.bool_(True)])
    depth = rng.choice([0, 1, rng.randrange(900 - MAX_PREPROCESS_DEPTH, 1010)])
    return _nested(rng.choice([1, "x", {}]), MAX_PREPROCESS_DEPTH + depth)


def _weights(rng, shape, np_rng):
    """Random weights of ``shape`` in float32 or float64 at a random scale
    within the dtype's range, subnormals included."""
    dtype = rng.choice([np.float32, np.float64])
    scale = 10.0 ** rng.choice([0, -40, 30] if dtype == np.float32 else [0, -310, 300])
    return (np_rng.standard_normal(shape) * scale).astype(dtype)


def _checkpoint_case(rng):
    config = GcnConfig(in_dim=rng.randint(1, 4), num_classes=rng.randint(1, 4),
                       hidden_dim=rng.randint(1, 5), num_layers=rng.randint(1, 3),
                       activation=rng.choice(sorted(ACTIVATIONS)),
                       dropout_rate=rng.choice([0.0, 0.2]))
    np_rng = np.random.default_rng(rng.randrange(2 ** 32))
    shapes = param_shapes(config)
    if rng.random() < 0.15:  # one weight of a shape other than the config's
        k = rng.randrange(len(shapes))
        shapes[k] = rng.choice([(shapes[k][0] + 1, *shapes[k][1:]), shapes[k][::-1] + (1,)])
    params = [_weights(rng, shape, np_rng) for shape in shapes]
    if rng.random() < 0.3:  # one extreme or non-finite entry; float32 rounds 1.8e308 to inf
        weights = rng.choice(params)
        with np.errstate(over="ignore"):
            weights.flat[rng.randrange(weights.size)] = rng.choice(
                [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308])
    if rng.random() < 0.2:
        preprocess = None
    else:
        keys = rng.sample(["tau", "patch_h", "encoder_dim", "", "\u00e9", "\ud800"],
                          rng.randrange(4))
        if rng.random() < 0.1:
            keys.append(rng.choice([1, None]))
        preprocess = {key: _json_value(rng) for key in keys}
    return GcnModel(config=config, params=params), preprocess


def _use_checkpoint(case, path):
    model, preprocess = case
    try:
        save_checkpoint(path, model, preprocess)
    except NAMED:
        assert not path.exists()
        return
    try:  # a saved file loads: the save refuses what would not
        loaded, loaded_preprocess = load_checkpoint(path)
    except NAMED as exc:
        pytest.fail(f"saved, but the load raised {exc!r}")
    assert loaded.config == model.config
    assert len(loaded.params) == len(model.params)
    for got, want in zip(loaded.params, model.params):
        assert got.dtype == np.float64 and got.tobytes() == want.astype(np.float64).tobytes()
    assert loaded_preprocess == preprocess


REPORT_FIELDS = {
    "loss": [math.nan, math.inf, -1.0, 10 ** 400, "0.1", None, np.float32(0.5), [0.5]],
    "accuracy": [math.nan, 1e300, "1", None, np.int64(1), 1 + 2j],
    "per_class_recall": [None, "x", [0.5], [[0.5, 0.5]], [math.nan] * 3, [1 + 1j] * 3],
    "confusion": [None, [[1, 0], [0, 1]], np.eye(2), np.ones(3), np.ones((2, 3)),
                  np.array(7), np.full((2, 2), math.nan), np.full((2, 2), 1e30),
                  np.array([["a", "b"], ["c", "d"]]), np.eye(2) + 1j, np.full((2, 2), -1)],
}
CLASS_NAMES = [None, ["a"], ["a", "b", "c"], ("x", "y"), np.array(["p", "q", "r"]), [1, 2, 3],
               ["", "\n", "\u00e9" * 40], "abc", ["a", None, "c"], []]


def _report_case(rng):
    num_classes = rng.choice([1, 2, 3, 32, 33])
    np_rng = np.random.default_rng(rng.randrange(2 ** 32))
    matrix = np_rng.integers(0, 5, size=(num_classes, num_classes))
    matrix[0, 0] += 1
    report = compute_metrics(matrix, rng.choice([0.0, 0.5, 1e300]))
    if rng.random() < 0.7:
        field = rng.choice(sorted(REPORT_FIELDS))
        report = dataclasses.replace(report, **{field: rng.choice(REPORT_FIELDS[field])})
    return report, rng.choice(CLASS_NAMES)


def _use_report(case, path):
    assert isinstance(format_report(*case), str)


ROUND_TRIPS = {"checkpoint": (_checkpoint_case, _use_checkpoint),
               "format_report": (_report_case, _use_report)}


def _round_trip_case(index):
    """Round-trip case ``index``: its target and the arguments drawn for it."""
    rng = random.Random(ROUND_TRIP_SEED * ROUND_TRIP_CASES + index)
    target = rng.choice(sorted(ROUND_TRIPS))
    return target, ROUND_TRIPS[target][0](rng)


@pytest.mark.parametrize("index", range(ROUND_TRIP_CASES))
def test_round_trip_returns_or_raises_a_named_error(index, tmp_path):
    target, case = _round_trip_case(index)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ROUND_TRIPS[target][1](case, tmp_path / "checkpoint.json")
        except NAMED:
            pass
