"""Every public array argument enters through ``errors._as_array``: a value of
which numpy makes no array of real numbers, or an array of the wrong shape, is
an :class:`InvalidInputError` whose message starts with the argument's name,
never numpy's bare ``ValueError``, ``TypeError``, ``OverflowError`` or
``ComplexWarning``."""

import dataclasses
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from facegraph import (
    Dataset,
    EncoderConfig,
    GcnConfig,
    InvalidInputError,
    NumericError,
    TrainConfig,
    binarize,
    build_graph,
    confusion,
    cross_entropy,
    edge_count,
    evaluate,
    extract_patch,
    features_for_sample,
    forward,
    init_model,
    l2_normalize_rows,
    predict,
    raw_adjacency,
    SampleRecord,
    dataset_graphs,
    readout,
    rethreshold,
    load_checkpoint,
    save_checkpoint,
    threshold_from_weights,
    threshold_stats,
    train,
    write_feature_blob,
    write_graph_dot,
    write_graph_json,
)
from facegraph.errors import _as_array
from facegraph.gcn import MAX_PREPROCESS_DEPTH

RAGGED = [[1.0, 0.0], [1.0]]
GRAPH = build_graph([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]],
                    [[1.0, 0.5], [0.5, 1.0], [1.0, 1.0]], 0.0, 1)
MODEL = init_model(GcnConfig(in_dim=2, num_classes=2, hidden_dim=4), 0)


def with_features(features):
    return dataclasses.replace(GRAPH, features=features)


@pytest.mark.parametrize("call, name", [
    (lambda: build_graph(RAGGED, np.ones((2, 2)), 0.5, 0), "landmarks"),
    (lambda: build_graph(np.eye(2), RAGGED, 0.5, 0), "feature matrix"),
    (lambda: l2_normalize_rows(RAGGED), "feature matrix"),
    (lambda: raw_adjacency(RAGGED, np.eye(2)), "feature matrix"),
    (lambda: raw_adjacency(np.eye(2), RAGGED), "landmarks"),
    (lambda: threshold_stats(RAGGED, 0.5), "weight matrix"),
    (lambda: threshold_from_weights(RAGGED, 0.5), "weights"),
    (lambda: binarize(RAGGED, 0.5), "weight matrix"),
    (lambda: edge_count(RAGGED), "adjacency"),
    (lambda: readout(RAGGED), "node features"),
    (lambda: cross_entropy(RAGGED, np.eye(2)), "one-hot labels"),
    (lambda: cross_entropy(np.eye(2), RAGGED), "probabilities"),
    (lambda: features_for_sample(RAGGED, np.eye(2), 3, 3, EncoderConfig()), "image"),
    (lambda: features_for_sample(np.zeros((4, 4)), RAGGED, 3, 3, EncoderConfig()),
     "landmarks"),
    (lambda: forward(MODEL, with_features(RAGGED)), "sample features"),
    (lambda: train([GRAPH, with_features(RAGGED)], MODEL.config, TrainConfig(epochs=1)),
     "sample 1 features"),
    (lambda: predict(MODEL, [with_features(RAGGED)]), "sample features"),
    (lambda: evaluate(MODEL, [with_features(RAGGED)]), "sample 0 features"),
    (lambda: build_graph(np.eye(2), np.eye(2) + 1j, 0.5, 0), "feature matrix"),
    (lambda: build_graph(np.eye(2), [["a", "b"], ["c", "d"]], 0.5, 0), "feature matrix"),
    (lambda: build_graph(object(), np.eye(2), 0.5, 0), "landmarks"),
    (lambda: build_graph(np.eye(2), [[10 ** 400, 0], [0, 1]], 0.5, 0), "feature matrix"),
    (lambda: extract_patch(np.zeros((4, 4)), ("a", 1.0), 3, 3), "center"),
    (lambda: extract_patch(np.zeros((4, 4)), (1.0, 1.0, 1.0), 3, 3), "center"),
    (lambda: threshold_from_weights(0.5, 0.5), "weights"),
    (lambda: threshold_from_weights(np.eye(2), 0.5), "weights"),
    (lambda: cross_entropy(np.eye(2), np.full((3, 2), 0.5)), "probabilities"),
    (lambda: confusion([0, 1], [0], 2), "predicted labels"),
    (lambda: edge_count(np.eye(2) + 1j), "adjacency"),
    (lambda: edge_count([["x", "1"], ["1", "x"]]), "adjacency"),
    (lambda: dataset_graphs(Dataset(["a", "b"], 2, 2, [
        SampleRecord("s0", 0, np.eye(2), RAGGED)]), 0.5), "sample 's0' features"),
    (lambda: write_feature_blob(os.devnull, RAGGED), "feature blob payload"),
    (lambda: write_graph_json(dataclasses.replace(GRAPH, landmarks=np.eye(3)), os.devnull),
     "landmarks"),
    (lambda: write_graph_dot(dataclasses.replace(GRAPH, landmarks=RAGGED), os.devnull),
     "landmarks"),
], ids=["build_graph_landmarks", "build_graph_features", "l2_normalize_rows",
        "raw_adjacency_features", "raw_adjacency_landmarks", "threshold_stats",
        "threshold_from_weights", "binarize", "edge_count", "readout",
        "cross_entropy_labels", "cross_entropy_probabilities", "features_for_sample_image",
        "features_for_sample_landmarks", "forward", "train", "predict", "evaluate",
        "complex_features", "string_features", "object_landmarks", "huge_int_features",
        "string_center", "three_coordinate_center", "scalar_weights", "matrix_weights",
        "cross_entropy_shapes", "confusion_lengths", "complex_adjacency", "string_adjacency",
        "dataset_graphs", "feature_blob", "graph_json_landmarks", "graph_dot_landmarks"])
def test_malformed_array_names_its_argument(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning fails the case
        with pytest.raises(InvalidInputError, match=f"^{re.escape(name)}[ :]"):
            call()


@pytest.mark.parametrize("value, dtype, shape, message", [
    ([[1, 2], [3]], None, None, "x: not one array (setting an array element"),
    ([1 + 2j], float, None, "x must hold real numbers, got dtype complex128"),
    ([10 ** 400], float, None, "x: not one array (int too large to convert to float)"),
    (object(), float, None, "x: not one array (float() argument must be"),
    (np.zeros(3), None, (None, 2), "x must be 2-D of shape (N, 2), got shape (3,)"),
    (np.zeros((3, 3)), None, (None, None, None),
     "x must be 3-D of shape (N, M, K), got shape (3, 3)"),
    (np.zeros(3), None, (4,), "x must be 1-D of shape (4), got shape (3,)"),
], ids=["ragged", "complex", "huge_int", "object", "ndim", "three_axes", "size"])
def test_as_array_message(value, dtype, shape, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}"):
            _as_array("x", value, dtype, shape)


@pytest.mark.parametrize("value, dtype, shape", [
    ([[1, 2], [3, 4]], float, (None, 2)), (np.arange(6.0).reshape(2, 3), None, (2, None)),
    (np.float32([1.5]), None, (1,)), ([10 ** 30], float, None), (["1.5"], float, (1,)),
], ids=["int_list", "matrix", "float32", "int_beyond_int64", "numeric_string"])
def test_as_array_converts_as_numpy_does(value, dtype, shape):
    array = _as_array("x", value, dtype, shape)
    expected = np.asarray(value, dtype=dtype)
    assert array.dtype == expected.dtype and array.tobytes() == expected.tobytes()


class TestRethresholdWeights:
    """``rethreshold`` takes the graph's weights as a 1-D array of real
    numbers with one entry per pair of its N x 2 landmarks."""

    @pytest.mark.parametrize("weights", [
        GRAPH.weights[:-1], GRAPH.weights[None], GRAPH.weights + 0j,
    ], ids=["short", "2d", "complex"])
    def test_malformed_weights_refused(self, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^graph weights "):
                rethreshold(dataclasses.replace(GRAPH, weights=weights), 0.5)

    def test_ragged_landmarks_refused(self):
        with pytest.raises(InvalidInputError, match="^landmarks: not one array"):
            rethreshold(dataclasses.replace(GRAPH, landmarks=RAGGED), 0.5)

    def test_list_of_landmarks_is_the_array(self):
        listed = rethreshold(dataclasses.replace(GRAPH, landmarks=GRAPH.landmarks.tolist()), 0.5)
        assert np.array_equal(listed.adjacency, rethreshold(GRAPH, 0.5).adjacency)

    def test_node_count_of_listed_landmarks(self):
        assert dataclasses.replace(GRAPH, landmarks=GRAPH.landmarks.tolist()).num_nodes == 3

    def test_list_of_weights_is_the_array(self):
        for tau in (-1.0, 0.0, 0.5):
            listed = rethreshold(dataclasses.replace(GRAPH, weights=GRAPH.weights.tolist()),
                                 tau)
            direct = rethreshold(GRAPH, tau)
            assert np.array_equal(listed.adjacency, direct.adjacency)
            assert listed.stats == direct.stats


CIRCULAR = []
CIRCULAR.append(CIRCULAR)
DEEP = []
for _ in range(10_000):
    DEEP = [DEEP]


class TestCheckpointPreprocess:
    """``save_checkpoint`` writes only a ``preprocess`` dict that loads back as
    given: string keys, values JSON holds; it refuses any other before the
    file is opened."""

    @pytest.mark.parametrize("preprocess, named", [
        ([1], ""),
        ({"tau": 0.5, 1: 2.0}, " 1"),
        ({"tau": 0.5, "seed": object()}, " 'seed'"),
        ({"tau": 0.5, "grid": {1, 2}}, " 'grid'"),
        ({"tau": 0.5, "nested": {"a": 1, 2: 3}}, " 'nested'"),
        ({"tau": 0.5, "loop": CIRCULAR}, " 'loop'"),
        ({"tau": 0.5, "deep": DEEP}, " 'deep'"),
    ], ids=["not_a_dict", "int_key", "object_value", "set_value", "unsortable_keys",
            "circular", "too_deep"])
    def test_refused_before_the_file_opens(self, tmp_path, preprocess, named):
        path = tmp_path / "model.json"
        with pytest.raises(InvalidInputError,
                           match=f"^cannot save preprocess{re.escape(named)}: "):
            save_checkpoint(path, MODEL, preprocess=preprocess)
        assert not path.exists()

    def test_nan_stays_a_numeric_error(self, tmp_path):
        with pytest.raises(NumericError):
            save_checkpoint(tmp_path / "model.json", MODEL, preprocess={"tau": math.nan})

    def test_saved_block_loads_as_given(self, tmp_path):
        preprocess = {"tau": 0.5, "patch": [20, 20], "encoder": {"dim": 64}}
        save_checkpoint(tmp_path / "model.json", MODEL, preprocess=preprocess)
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["preprocess"] == preprocess

    @pytest.mark.parametrize("value", [(20, 20), [{"a": (1,)}], {"inner": {1: 2.0}},
                                       [{None: 0}]],
                             ids=["tuple", "nested_tuple", "int_key_inside", "none_key_inside"])
    def test_value_that_loads_back_as_another_refused(self, tmp_path, value):
        # JSON writes a tuple as a list and an inner key as a string
        path = tmp_path / "model.json"
        with pytest.raises(InvalidInputError, match="^cannot save preprocess 'grid': JSON "
                                                    "would load it back as another value$"):
            save_checkpoint(path, MODEL, preprocess={"tau": 0.5, "grid": value})
        assert not path.exists()

    def test_nesting_is_bounded_below_the_recursion_limit(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(path, MODEL, preprocess={"deep": nested(MAX_PREPROCESS_DEPTH)})
        assert load_checkpoint(path)[1] == {"deep": nested(MAX_PREPROCESS_DEPTH)}
        # near the recursion limit a value could be written that no load reads
        for depth in [MAX_PREPROCESS_DEPTH + 1, *range(900, 1000)]:
            with pytest.raises(InvalidInputError, match="^cannot save preprocess 'deep': "):
                save_checkpoint(path, MODEL, preprocess={"deep": nested(depth)})
            assert load_checkpoint(path)[1] == {"deep": nested(MAX_PREPROCESS_DEPTH)}


def nested(depth):
    """A list nested ``depth`` deep."""
    value = [0]
    for _ in range(depth - 1):
        value = [value]
    return value
