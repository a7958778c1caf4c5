"""An int with more digits than ``str`` converts (``sys.get_int_max_str_digits()``,
4,300 by default) reaches the named error of the setting it breaks, which
shows it by its digit count, never a bare ``ValueError`` from formatting it."""

import re

import numpy as np
import pytest

from facegraph import (
    EncoderConfig,
    GcnConfig,
    GcnModel,
    GraphSample,
    InvalidInputError,
    SyntheticSpec,
    TrainConfig,
    UsageError,
    build_graph,
    confusion,
    evaluate,
    extract_patch,
    forward,
    generate_synthetic,
    init_model,
    lr_schedule,
    split_indices,
)
from facegraph.errors import _show

HUGE = 10 ** 5000  # 5001 digits, past the default limit of 4300
SHOWN = "an int of 5001 digits"
SHOWN_NEGATIVE = "a negative int of 5001 digits"


@pytest.mark.parametrize("value, shown", [
    (10 ** 4300 - 1, None), (-(10 ** 4300 - 1), None),
    (10 ** 4300, "an int of 4301 digits"), (-10 ** 4300, "a negative int of 4301 digits"),
    (10 ** 5000 - 1, "an int of 5000 digits"), (HUGE, SHOWN),
    (2 ** 20000, "an int of 6021 digits"), (7, None), (np.int64(-3), None),
    ("7", None), (2.5, None),
], ids=["4300_digits", "negative_4300_digits", "4301_digits", "negative_4301_digits",
        "5000_digits", "5001_digits", "power_of_two", "small", "numpy", "string", "float"])
def test_show_is_repr_or_the_digit_count(value, shown):
    assert _show(value) == (repr(value) if shown is None else shown)


def tiny_dataset():
    return generate_synthetic(SyntheticSpec(num_classes=2, samples_per_class=2,
                                            landmark_count=3, feature_dim=2))


def labeled_sample(label):
    return GraphSample(landmarks=np.zeros((3, 2)), features=np.ones((3, 2)),
                       adjacency=np.zeros((3, 3)), label=label)


@pytest.mark.parametrize("call, error, message", [
    (lambda: TrainConfig(epochs=-HUGE), UsageError,
     f"epochs must be >= 0, got {SHOWN_NEGATIVE}"),
    (lambda: SyntheticSpec(num_classes=-HUGE), UsageError,
     f"num_classes must be >= 1, got {SHOWN_NEGATIVE}"),
    (lambda: split_indices(tiny_dataset(), 0.25, -HUGE), UsageError,
     f"seed must be an int >= 0, got {SHOWN_NEGATIVE}"),
    (lambda: extract_patch(np.zeros((4, 4)), (1.0, 1.0), -HUGE, 3), UsageError,
     f"patch size must be positive, got {SHOWN_NEGATIVE}x3"),
    (lambda: extract_patch(np.zeros((4, 4)), (1.0, 1.0), HUGE, 3.0), UsageError,
     f"patch sides must be ints, got {SHOWN}x3.0"),
    (lambda: extract_patch(np.zeros((4, 4)), (1.0, 1.0), HUGE, 3), UsageError,
     f"patch {SHOWN}x3 of {SHOWN} pixels, above the budget of 16384"),
    (lambda: build_graph(np.eye(3, 2), np.ones((3, 2)), 0.5, -HUGE), InvalidInputError,
     f"label must be a nonnegative class index, got {SHOWN_NEGATIVE}"),
    (lambda: GcnConfig(in_dim=HUGE, num_classes=2.0), UsageError,
     f"in_dim, num_classes, hidden_dim and num_layers must be ints, "
     f"got [{SHOWN}, 2.0, 256, 2]"),
    (lambda: init_model(GcnConfig(in_dim=1, num_classes=1, num_layers=HUGE), 0), UsageError,
     f"a model of an int of 5005 digits parameters in {SHOWN} layers, "
     f"above the budget of 16777216"),
    (lambda: EncoderConfig(out_dim=HUGE), UsageError,
     f"encoder output dimension {SHOWN}, above the budget of 4096"),
    (lambda: generate_synthetic(SyntheticSpec(num_classes=HUGE)), UsageError,
     "a synthetic dataset of an int of 5005 digits bytes, above the budget of 134217728"),
    (lambda: evaluate(init_model(GcnConfig(in_dim=2, num_classes=2, hidden_dim=4), 0),
                      [labeled_sample(HUGE)]), InvalidInputError,
     f"sample 0 has label {SHOWN}, outside [0, 2)"),
    (lambda: evaluate(GcnModel(GcnConfig(in_dim=2, num_classes=HUGE), []),
                      [labeled_sample(-1)]), InvalidInputError,
     f"sample 0 has label -1, outside [0, {SHOWN})"),
    (lambda: evaluate(GcnModel(GcnConfig(in_dim=HUGE, num_classes=2), []),
                      [labeled_sample(0)]), InvalidInputError,
     f"sample 0 has features of shape (3, 2), model expects N x {SHOWN}"),
    (lambda: forward(GcnModel(GcnConfig(in_dim=HUGE, num_classes=2), [np.zeros(1)]),
                     labeled_sample(0)), InvalidInputError,
     f"sample features have shape (3, 2), model expects N x {SHOWN}"),
    (lambda: lr_schedule(-HUGE, 10, TrainConfig(epochs=1)), InvalidInputError,
     f"epoch {SHOWN_NEGATIVE} outside [0, 10)"),
    (lambda: confusion([-1], [0], HUGE), InvalidInputError,
     f"true labels outside [0, {SHOWN})"),
], ids=["check_ints", "synthetic_spec", "split_seed", "patch_side", "patch_type", "patch_area",
        "graph_label", "gcn_config_dims", "model_budget", "encoder_budget",
        "synthetic_budget", "sample_label", "class_count", "sample_width",
        "forward_width", "schedule_epoch", "confusion_classes"])
def test_huge_int_reaches_the_named_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
