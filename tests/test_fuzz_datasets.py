"""A seeded fuzzer of the dataset writer against the dataset reader.

Each case edits one field of a valid in-memory dataset, feature-backed or
image-backed: a sample's id, label, landmarks, features or image, or the
dataset's class names or declared counts. It then saves the dataset. Either
``save_dataset`` refuses it with an ``InvalidInputError`` and writes nothing,
or ``load_dataset`` reads back the same class names, counts, ids and labels,
and the same bits: landmarks as float64, features as float32 and images as
uint8, as the files hold them.
"""

import copy
import math
import random

import numpy as np
import pytest

from facegraph import (
    InvalidInputError,
    SyntheticSpec,
    generate_synthetic,
    generate_synthetic_imageset,
    load_dataset,
    save_dataset,
)

CASES = 100

BASES = {
    "feat": generate_synthetic(SyntheticSpec(num_classes=3, samples_per_class=2,
                                             landmark_count=6, feature_dim=8, seed=31)),
    "img": generate_synthetic_imageset(SyntheticSpec(num_classes=2, samples_per_class=2,
                                                     landmark_count=5, seed=32)),
}

SAMPLE_IDS = ["fresh_1", "a.b-c", "../escaped", ".hidden", "", "a/b", 7, None]
LABELS = [0, 1, 2, -1, 3, np.int64(1), np.int32(0), 1.0, np.float32(1.0), 1.5,
          math.nan, math.inf, None, True, "1", 10 ** 20]
VALUES = [math.nan, math.inf, -math.inf, 1e39, 1e300, 1e-45, -2.5, 3]
CLASS_NAMES = [[1, 2, 3], ["a", "b", "c"], ["a", "b"], ["a"], [], ("x", "y", "z"),
               ["a", None, "c"], [b"a", b"b", b"c"], np.array(["p", "q", "r"])]
PIXELS = [300.0, -1, 0.5, math.nan, 255.0, 0]


def _landmarks(rng, landmarks):
    op = rng.choice(["value", "value", "short", "int", "float32", "list", "ragged",
                     "flat", "junk"])
    if op == "value":
        landmarks = landmarks.copy()
        landmarks[rng.randrange(len(landmarks)), rng.randrange(2)] = rng.choice(VALUES)
        return landmarks
    return {"short": lambda: landmarks[:-1],
            "int": lambda: np.rint(landmarks).astype(int),
            "float32": lambda: landmarks.astype(np.float32),
            "list": landmarks.tolist,
            "ragged": lambda: [[1.0, 2.0], [3.0]] + landmarks[2:].tolist(),
            "flat": landmarks.ravel,
            "junk": lambda: rng.choice([None, "0,0", [], 5.0])}[op]()


def _features(rng, features, shape):
    if features is None:  # an image-backed sample, given features of some shape
        rows, dim = shape
        return np.full(rng.choice([(rows, dim), (rows, dim + 1), (rows - 1, dim)]), 0.5)
    op = rng.choice(["value", "value", "column", "row", "float64", "int", "flat", "none"])
    if op == "value":
        features = features.astype(np.float64)
        features[rng.randrange(features.shape[0]),
                 rng.randrange(features.shape[1])] = rng.choice(VALUES)
        return features
    return {"column": lambda: features[:, :-1], "row": lambda: features[:-1],
            "float64": lambda: features.astype(np.float64),
            "int": lambda: (features * 4).astype(int), "flat": features.ravel,
            "none": lambda: None}[op]()


def _image(rng, image):
    op = rng.choice(["pixel", "pixel", "small", "float", "bool", "none", "empty", "3d"])
    if op == "pixel":
        image = (np.zeros((4, 6), np.uint8) if image is None else image).astype(float)
        image[rng.randrange(image.shape[0]), rng.randrange(image.shape[1])] = \
            rng.choice(PIXELS)
        return image
    return {"small": lambda: np.arange(12, dtype=np.uint8).reshape(3, 4),
            "float": lambda: np.arange(12.0).reshape(3, 4),
            "bool": lambda: np.eye(3, dtype=bool),
            "none": lambda: None, "empty": lambda: np.zeros((0, 4)),
            "3d": lambda: np.zeros((2, 3, 4))}[op]()


def _mutate(rng, dataset):
    """Edit one field of ``dataset`` in place."""
    sample = rng.choice(dataset.samples)
    kind = rng.choice(["id", "label", "landmarks", "landmarks", "features", "features",
                       "image", "image", "class_names", "count"])
    if kind == "id":
        sample.sample_id = rng.choice([*SAMPLE_IDS, dataset.samples[0].sample_id])
    elif kind == "label":
        sample.label = rng.choice(LABELS)
    elif kind == "landmarks":
        sample.landmarks = _landmarks(rng, sample.landmarks)
    elif kind == "features":
        sample.features = _features(rng, sample.features,
                                    (dataset.landmark_count, dataset.feature_dim))
    elif kind == "image":
        sample.image = _image(rng, sample.image)
    elif kind == "class_names":
        dataset.class_names = rng.choice(CLASS_NAMES)
    else:
        key = rng.choice(["feature_dim", "landmark_count"])
        value = getattr(dataset, key)
        setattr(dataset, key, rng.choice([value + 1, value - 1, 0, np.int64(value),
                                          float(value), value + 0.5, str(value), None,
                                          True]))


def _same_bits(given, loaded, dtype):
    if given is None:
        return loaded is None
    expected = np.asarray(given).astype(dtype)
    return (loaded.dtype == expected.dtype and loaded.shape == expected.shape
            and loaded.tobytes() == expected.tobytes())


@pytest.mark.parametrize("case", range(CASES))
def test_saved_dataset_loads_or_nothing_is_written(case, tmp_path):
    rng = random.Random(case)
    dataset = copy.deepcopy(BASES[rng.choice(sorted(BASES))])
    _mutate(rng, dataset)
    out = tmp_path / "ds"
    try:
        manifest = save_dataset(dataset, out)
    except InvalidInputError:
        assert not out.exists()
        return
    loaded = load_dataset(manifest)
    assert loaded.class_names == list(dataset.class_names)
    assert (loaded.feature_dim, loaded.landmark_count) == (dataset.feature_dim,
                                                           dataset.landmark_count)
    assert len(loaded.samples) == len(dataset.samples)
    for given, back in zip(dataset.samples, loaded.samples):
        assert back.sample_id == given.sample_id
        assert type(back.label) is int and back.label == given.label
        assert _same_bits(given.landmarks, back.landmarks, np.float64)
        assert _same_bits(given.features, back.features, np.float32)
        assert _same_bits(given.image, back.image, np.uint8)
