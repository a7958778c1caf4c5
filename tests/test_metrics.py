import dataclasses
import re
import warnings

import numpy as np
import pytest

from facegraph import InvalidInputError, compute_metrics, confusion, format_report
from facegraph.metrics import MAX_CLASSES, MAX_TABLE_CLASSES
from facegraph.metrics import MAX_CLASSES, report_row

from oracles import naive_metrics


class TestConfusion:
    def test_perfect_predictions(self):
        labels = [0, 0, 1, 2, 2, 2]
        matrix = confusion(labels, labels, 3)
        assert np.array_equal(matrix, np.diag([2, 1, 3]))

    def test_all_predicted_zero(self):
        matrix = confusion([0, 1, 2], [0, 0, 0], 3)
        assert matrix[:, 0].sum() == 3
        assert matrix[:, 1:].sum() == 0

    def test_derived_tally(self):
        matrix = confusion([0, 0, 0, 1], [0, 0, 1, 0], 2)
        assert np.array_equal(matrix, [[2, 1], [1, 0]])

    def test_out_of_range_label(self):
        with pytest.raises(InvalidInputError):
            confusion([0, 3], [0, 1], 3)
        with pytest.raises(InvalidInputError):
            confusion([0, 1], [0, -1], 3)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            confusion([0, 1], [0], 2)

    @pytest.mark.parametrize("truth, preds", [
        ([0, 1], [0, 1.7]),
        ([0.5, 1], [0, 1]),
        ([0, float("nan")], [0, 1]),
        (np.array([0.0, np.nan]), np.array([0, 1])),
        ([0, 1], np.array([0.0, np.inf])),
        ([0, 1], np.array([-np.inf, 1.0])),
    ], ids=["fractional_pred", "fractional_true", "nan_list", "nan_array",
            "inf_array", "negative_inf_array"])
    def test_label_that_is_no_class_index(self, truth, preds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="labels"):
                confusion(truth, preds, 2)

    def test_whole_number_labels_count(self):
        matrix = confusion([0.0, 1.0, 1.0], np.array([1, 1, 0], dtype=np.uint8), 2)
        assert matrix.dtype == np.int64
        assert np.array_equal(matrix, [[0, 1], [1, 1]])

    def test_class_count_at_the_budget(self):
        matrix = confusion([0, MAX_CLASSES - 1], [MAX_CLASSES - 1, 0], MAX_CLASSES)
        assert matrix.shape == (MAX_CLASSES, MAX_CLASSES) and matrix.sum() == 2

    @pytest.mark.parametrize("num_classes", [MAX_CLASSES + 1, 10 ** 9, 0])
    def test_class_count_outside_the_budget(self, num_classes):
        with pytest.raises(InvalidInputError, match=f"^{num_classes} classes, outside "
                                                    f"the budget of \\[1, {MAX_CLASSES}\\]$"):
            confusion([], [], num_classes)

    @pytest.mark.parametrize("num_classes", [2.0, "2", None, True])
    def test_class_count_must_be_an_int(self, num_classes):
        with pytest.raises(InvalidInputError, match="^num_classes must be an int"):
            confusion([0], [1], num_classes)

    @pytest.mark.parametrize("truth, preds", [
        (["0", "1"], [0, 1]), ([0, 1], [None, 1]), ([0, 1], [0, 1 + 0j]),
    ], ids=["strings", "none", "complex"])
    def test_labels_must_be_numbers(self, truth, preds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="labels must be numbers, got dtype"):
                confusion(truth, preds, 2)

    @pytest.mark.parametrize("truth, preds, which", [
        ([0, [1]], [0, 1], "true"), ([0, 1], [[0], 1], "predicted"),
    ])
    def test_ragged_labels(self, truth, preds, which):
        with pytest.raises(InvalidInputError, match=f"^{which} labels: not one array"):
            confusion(truth, preds, 2)


class TestComputeMetrics:
    def test_recalls_uar_war_fixture(self):
        report = compute_metrics(np.array([[3, 0], [1, 0]]), loss=0.1)
        assert np.array_equal(report.per_class_recall, [1.0, 0.0])
        assert report.uar == 0.5
        assert report.war == 0.75
        assert report.accuracy == 0.75

    def test_macro_f1_fixture(self):
        report = compute_metrics(np.array([[3, 0], [1, 0]]), loss=0.0)
        assert abs(report.macro_f1 - 0.42857142857142855) < 1e-12

    def test_perfect_balanced(self):
        report = compute_metrics(np.diag([5, 5, 5]), loss=0.0)
        assert report.accuracy == report.war == report.uar == 1.0
        assert report.macro_f1 == 1.0

    def test_war_equals_accuracy_exactly(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            c = int(rng.integers(2, 8))
            matrix = rng.integers(0, 30, size=(c, c))
            if matrix.sum() == 0:
                matrix[0, 0] = 1
            report = compute_metrics(matrix, loss=0.0)
            assert report.war == report.accuracy

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 1001))
            c = int(rng.integers(2, 11))
            truth = rng.integers(0, c, size=n)
            preds = rng.integers(0, c, size=n)
            report = compute_metrics(confusion(truth, preds, c), loss=0.0)
            want = naive_metrics(truth, preds, c)
            assert report.accuracy == want["accuracy"]
            assert abs(report.uar - want["uar"]) < 1e-12
            assert abs(report.war - want["war"]) < 1e-12
            assert report.macro_f1 == want["macro_f1"]

    def test_balanced_uar_equals_war(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            c = int(rng.integers(2, 6))
            per_class = 24
            truth = np.repeat(np.arange(c), per_class)
            preds = rng.integers(0, c, size=c * per_class)
            report = compute_metrics(confusion(truth, preds, c), loss=0.0)
            assert abs(report.uar - report.war) <= 1e-12

    def test_fractions_in_unit_interval(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            c = int(rng.integers(1, 7))
            matrix = rng.integers(0, 9, size=(c, c))
            if matrix.sum() == 0:
                matrix[0, 0] = 1
            report = compute_metrics(matrix, loss=1.0)
            for value in (report.accuracy, report.macro_f1, report.war, report.uar):
                assert 0.0 <= value <= 1.0
            assert np.all((report.per_class_recall >= 0) & (report.per_class_recall <= 1))

    def test_zero_support_class_excluded_from_uar(self):
        # class 2 never occurs: UAR averages over the two supported classes
        report = compute_metrics(np.array([[2, 0, 0], [0, 1, 1], [0, 0, 0]]), loss=0.0)
        assert report.uar == (1.0 + 0.5) / 2.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_metrics(np.zeros((2, 2), dtype=int), loss=0.0)
        with pytest.raises(InvalidInputError):
            compute_metrics(np.zeros((0, 0), dtype=int), loss=0.0)

    @pytest.mark.parametrize("matrix, message", [
        ([[0.5, 2], [0, 1]], "entries must be whole numbers in [0, "),
        ([[-1, 2], [0, 1]], "entries must be whole numbers in [0, "),
        ([[np.nan, 2], [0, 1]], "entries must be whole numbers in [0, "),
        ([[np.inf, 2], [0, 1]], "entries must be whole numbers in [0, "),
        ([[2.0 ** 60, 2], [0, 1]], "entries must be whole numbers in [0, "),
        ([[2 ** 53, 2], [0, 1]], f"counts more than {2 ** 53} samples"),
        ([["1", "2"], ["0", "1"]], "must hold numbers, got dtype <U1"),
        ([[None, 2], [0, 1]], "must hold numbers, got dtype object"),
        ([[10 ** 30, 2], [0, 1]], "must hold numbers, got dtype object"),
        ([[1, 2], [3]], "confusion matrix: not one array (setting an array element"),
    ], ids=["fraction", "negative", "nan", "inf", "beyond_2**53", "total_beyond_2**53",
            "strings", "none", "python_int_beyond_int64", "ragged"])
    def test_matrix_that_is_no_counts_is_refused(self, matrix, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                compute_metrics(matrix, 0.1)

    @pytest.mark.parametrize("loss", [-0.5, np.nan, np.inf, "0.1", None, True])
    def test_loss_that_is_no_cross_entropy_is_refused(self, loss):
        with pytest.raises(InvalidInputError, match="^loss must be a"):
            compute_metrics(np.array([[3, 0], [1, 0]]), loss)

    @pytest.mark.parametrize("matrix", [
        np.array([[3.0, 0.0], [1.0, 0.0]]), np.array([[3, 0], [1, 0]], dtype=np.uint8),
        [[3, 0], [1, 0]], np.array([[True, False], [True, False]]),
    ], ids=["whole_floats", "uint8", "list", "bool"])
    def test_whole_counts_of_any_number_dtype(self, matrix):
        report = compute_metrics(matrix, np.float32(0.25))
        assert report.confusion.dtype == np.int64 and type(report.loss) is float
        assert np.array_equal(report.confusion, np.asarray(matrix, dtype=np.int64))
        counts = np.asarray(matrix, dtype=np.int64)
        assert report.accuracy == np.trace(counts) / counts.sum()


class TestRendering:
    def test_format_report_mentions_all_metrics(self):
        report = compute_metrics(np.array([[3, 0], [1, 0]]), loss=0.25)
        text = format_report(report, class_names=["happy", "sad"])
        for token in ("Acc", "F1-Score", "WAR", "UAR", "happy", "sad"):
            assert token in text

    @pytest.mark.parametrize("names", [["happy", "sad"], ["a", "b", "c", "d"]])
    def test_format_report_name_count_must_match(self, names):
        report = compute_metrics(np.diag([1, 2, 3]), loss=0.25)
        with pytest.raises(InvalidInputError, match="3"):
            format_report(report, class_names=names)

    def test_format_report_takes_an_array_of_names(self):
        report = compute_metrics(np.array([[3, 0], [1, 0]]), loss=0.25)
        assert (format_report(report, np.array(["happy", "sad"]))
                == format_report(report, ["happy", "sad"]))

    def test_format_report_empty_names_are_counted(self):
        report = compute_metrics(np.diag([1, 2]), loss=0.25)
        with pytest.raises(InvalidInputError, match="0 class names for 2 classes"):
            format_report(report, class_names=[])

    @pytest.mark.parametrize("names", [[1, 2], ["happy", None], [b"happy", b"sad"]],
                             ids=["ints", "none", "bytes"])
    def test_format_report_names_must_be_strings(self, names):
        report = compute_metrics(np.diag([1, 2]), loss=0.1)
        with pytest.raises(InvalidInputError, match="class names must be strings"):
            format_report(report, class_names=names)

    def test_format_report_headline_bytes(self):
        report = compute_metrics(np.array([[3, 0], [1, 0]]), loss=0.25)
        head = format_report(report, ["happy", "sad"]).split("\n")[:5]
        assert head == ["loss      0.250000", "Acc       75.00%", "F1-Score  42.86%",
                        "WAR       75.00%", "UAR       50.00%"]

    def test_six_class_report_bytes(self):
        matrix = np.array([[5, 1, 0, 0, 0, 0], [0, 4, 2, 0, 0, 0], [0, 0, 6, 0, 0, 0],
                           [1, 0, 0, 3, 1, 1], [0, 0, 0, 0, 6, 0], [0, 2, 0, 0, 0, 4]])
        names = ["anger", "disgust", "fear", "happy", "sad", "surprise"]
        assert format_report(compute_metrics(matrix, 0.5), names) == "\n".join([
            "loss      0.500000", "Acc       77.78%", "F1-Score  77.05%",
            "WAR       77.78%", "UAR       77.78%", "",
            "per-class recall:",
            "  anger        83.33%", "  disgust      66.67%", "  fear         100.00%",
            "  happy        50.00%", "  sad          100.00%", "  surprise     66.67%", "",
            "confusion (rows true, columns predicted):",
            "             anger  disgust     fear    happy      sad surprise",
            "anger            5        1        0        0        0        0",
            "disgust          0        4        2        0        0        0",
            "fear             0        0        6        0        0        0",
            "happy            1        0        0        3        1        1",
            "sad              0        0        0        0        6        0",
            "surprise         0        2        0        0        0        4"])

    def test_confusion_table_up_to_the_bound(self):
        at = format_report(compute_metrics(np.eye(MAX_TABLE_CLASSES), 0.1)).split("\n")
        assert at[-MAX_TABLE_CLASSES - 2] == "confusion (rows true, columns predicted):"
        assert len(at) == 5 + 2 + MAX_TABLE_CLASSES + 1 + 2 + MAX_TABLE_CLASSES

    @pytest.mark.parametrize("classes", [MAX_TABLE_CLASSES + 1, MAX_CLASSES])
    def test_one_line_past_the_bound(self, classes):
        report = compute_metrics(np.eye(classes), 0.1)
        lines = format_report(report).split("\n")
        assert len(lines) == 5 + 2 + classes + 1 + 1
        assert lines[-1] == (f"confusion: {classes} x {classes}, above the "
                             f"{MAX_TABLE_CLASSES} classes printed; see metrics.json")

    @pytest.mark.parametrize("field, value, message", [
        ("confusion", [[1, 0], [0, 1]], None),
        ("confusion", np.array(7), "confusion matrix must be square"),
        ("confusion", np.ones((2, 3)), "confusion matrix must be square"),
        ("confusion", np.full((2, 2), np.nan), "whole numbers"),
        ("confusion", np.array([["a", "b"], ["c", "d"]]), "must hold numbers"),
        ("per_class_recall", None, "per-class recall"),
        ("per_class_recall", [0.5], "per-class recall"),
        ("per_class_recall", [[0.5, 0.5]], "per-class recall"),
        ("loss", "0.1", "loss must be a real number"),
        ("loss", [0.5], "loss must be a real number"),
        ("loss", 10 ** 400, None),
        ("accuracy", None, "accuracy must be a real number"),
        ("uar", 1 + 2j, "uar must be a real number"),
    ])
    def test_format_report_checks_a_hand_built_report(self, field, value, message):
        report = compute_metrics(np.array([[3, 0], [1, 2]]), loss=0.25)
        report = dataclasses.replace(report, **{field: value})
        if message is None:  # a list matrix and an int beyond the float range are fine
            assert "confusion (rows true" in format_report(report, ["a", "b"])
            return
        with pytest.raises(InvalidInputError, match=message):
            format_report(report, ["a", "b"])

    def test_report_row_percentages(self):
        report = compute_metrics(np.array([[3, 0], [1, 0]]), loss=0.25)
        row = report_row(report)
        assert row["Acc"] == "75.00"
        assert row["WAR"] == "75.00"
        assert row["UAR"] == "50.00"
        assert row["loss"] == "0.250000"
