"""Classification metrics: confusion matrix, accuracy, macro-F1, WAR and UAR.

WAR is the support-weighted mean of per-class recalls. The weights are
support / total, so every class contributes diagonal / total and the sum
telescopes to overall accuracy; it is computed that way and therefore equals
accuracy exactly. UAR is the plain mean of recalls over classes that have at
least one true sample. Macro-F1 averages per-class F1 over every class, with
0/0 treated as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _as_array, _as_real, _is_int, _show

__all__ = ["MetricsReport", "compute_metrics", "confusion", "format_report", "report_row"]

# The largest class count. A C x C array (the confusion matrix, the one-hot
# identity of training and evaluation) takes 8 MiB at the budget.
MAX_CLASSES = 2 ** 10

# The largest class count format_report prints a confusion table for. The
# table has C + 1 lines of C columns: 11.6 MB at MAX_CLASSES. Past this count
# one line points to metrics.json, which the CLI writes with the whole matrix.
MAX_TABLE_CLASSES = 32

# The largest total a confusion matrix may count: every sum of its entries is
# then exact in int64 and in float64.
_MAX_COUNT = 2 ** 53


@dataclass
class MetricsReport:
    loss: float
    accuracy: float
    macro_f1: float
    war: float
    uar: float
    per_class_recall: np.ndarray
    confusion: np.ndarray


def confusion(true_labels, predicted_labels, num_classes: int) -> np.ndarray:
    """C x C count matrix; entry (t, p) counts true class t predicted as p.
    Every label must be a whole number in [0, num_classes), and num_classes
    an int in [1, :data:`MAX_CLASSES`]."""
    if not _is_int(num_classes):
        raise InvalidInputError(f"num_classes must be an int, got {num_classes!r}")
    truth = _as_array("true labels", true_labels, shape=(None,))
    preds = _as_array("predicted labels", predicted_labels, shape=truth.shape)
    for which, labels in (("true", truth), ("predicted", preds)):
        if labels.dtype.kind not in "biuf":
            raise InvalidInputError(f"{which} labels must be numbers, got dtype {labels.dtype}")
        # nan != nan, so a NaN fails the first check; +-inf fails the second
        if labels.dtype.kind == "f" and not np.all(labels == np.trunc(labels)):
            raise InvalidInputError(f"{which} labels must be whole numbers")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise InvalidInputError(f"{which} labels outside [0, {_show(num_classes)})")
    if not 1 <= num_classes <= MAX_CLASSES:
        raise InvalidInputError(f"{_show(num_classes)} classes, outside the budget "
                                f"of [1, {MAX_CLASSES}]")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (truth.astype(int), preds.astype(int)), 1)
    return matrix


def _counts(matrix) -> tuple[np.ndarray, int]:
    """A confusion matrix as int64 counts, and their total; InvalidInputError
    unless it is square and holds whole counts >= 0 of a bool, int, uint or
    float dtype, at least one and at most 2**53 in all."""
    counts = _as_array("confusion matrix", matrix)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or counts.shape[0] < 1:
        raise InvalidInputError("confusion matrix must be square and nonempty")
    if counts.dtype.kind not in "biuf":
        raise InvalidInputError(f"confusion matrix must hold numbers, got dtype {counts.dtype}")
    # NaN fails the first comparison, +inf the second
    if not (np.all(counts >= 0) and np.all(counts <= _MAX_COUNT)
            and (counts.dtype.kind != "f" or np.all(counts == np.trunc(counts)))):
        raise InvalidInputError(f"confusion matrix entries must be whole numbers "
                                f"in [0, {_MAX_COUNT}]")
    total = counts.sum(dtype=np.float64)  # entries of at most _MAX_COUNT cannot overflow
    if total < 1:
        raise InvalidInputError("confusion matrix holds no samples")
    if total > _MAX_COUNT:
        raise InvalidInputError(f"confusion matrix counts more than {_MAX_COUNT} samples")
    return counts.astype(np.int64, copy=False), int(total)


def compute_metrics(matrix: np.ndarray, loss: float) -> MetricsReport:
    """Derive the full report from a confusion matrix plus a loss value.

    The matrix holds whole counts >= 0 of a bool, int, uint or float dtype,
    at least one and at most 2**53 in all; the loss is a finite number >= 0.
    """
    counts, total = _counts(matrix)
    loss = _as_real("loss", loss)
    if not 0.0 <= loss < np.inf:
        raise InvalidInputError(f"loss must be a finite number >= 0, got {loss!r}")
    num_classes = counts.shape[0]
    diagonal = np.diag(counts)
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)

    accuracy = float(diagonal.sum()) / total
    recalls = np.where(row_sums > 0, diagonal / np.maximum(row_sums, 1), 0.0)
    supported = row_sums > 0
    uar = float(recalls[supported].mean())
    # support-weighted recall telescopes to trace/total, i.e. accuracy
    war = accuracy

    precisions = np.where(col_sums > 0, diagonal / np.maximum(col_sums, 1), 0.0)
    sums = precisions + recalls
    positive = sums > 0.0
    f1 = np.where(positive, 2.0 * precisions * recalls / np.where(positive, sums, 1.0), 0.0)
    # a running sum in class order; np.sum would add pairwise and change bits
    macro_f1 = np.cumsum(f1)[-1] / num_classes

    return MetricsReport(loss=loss, accuracy=accuracy, macro_f1=macro_f1,
                         war=war, uar=uar, per_class_recall=recalls,
                         confusion=counts)


def format_report(report: MetricsReport, class_names=None) -> str:
    """Human-readable rendering of a metrics report. Past
    :data:`MAX_TABLE_CLASSES` classes one line stands in for the confusion
    table. The report's confusion matrix must pass :func:`compute_metrics`'s
    checks, its per-class recall hold one real number per class, its
    other fields be real numbers, and ``class_names``, if given, be a
    sequence (not one string) of a string per class; else InvalidInputError."""
    counts, _ = _counts(report.confusion)
    num_classes = counts.shape[0]
    recalls = _as_array("per-class recall", report.per_class_recall, float, (num_classes,))
    if isinstance(class_names, (str, bytes)):  # list() would split it into letters
        raise InvalidInputError(f"class names must be a sequence of strings, got {class_names!r}")
    names = ([f"class_{c}" for c in range(num_classes)] if class_names is None
             else list(class_names))
    if len(names) != num_classes:
        raise InvalidInputError(f"{len(names)} class names for {num_classes} classes")
    if not all(isinstance(n, str) for n in names):
        raise InvalidInputError(f"class names must be strings, got {names!r}")
    row = report_row(report)
    lines = [
        f"{'loss':<10}{row['loss']}",
        *(f"{key:<10}{row[key]}%" for key in ("Acc", "F1-Score", "WAR", "UAR")),
        "",
        "per-class recall:",
    ]
    for name, recall in zip(names, recalls):
        lines.append(f"  {name:<12} {100.0 * recall:.2f}%")
    lines.append("")
    if num_classes > MAX_TABLE_CLASSES:
        lines.append(f"confusion: {num_classes} x {num_classes}, above the "
                     f"{MAX_TABLE_CLASSES} classes printed; see metrics.json")
        return "\n".join(lines)
    lines.append("confusion (rows true, columns predicted):")
    width = max(5, max(len(n) for n in names) + 1)
    header = " " * width + "".join(f"{n[:width - 1]:>{width}}" for n in names)
    lines.append(header)
    for name, row in zip(names, counts):
        lines.append(f"{name:<{width}}" + "".join(f"{int(v):>{width}}" for v in row))
    return "\n".join(lines)


def report_row(report: MetricsReport) -> dict:
    """Machine-readable row with the sweep table's metric columns (percent).
    Each field must be a real number; else :class:`UsageError` naming it."""
    def percent(name):
        return f"{100.0 * _as_real(name, getattr(report, name)):.2f}"

    return {
        "Acc": percent("accuracy"),
        "F1-Score": percent("macro_f1"),
        "WAR": percent("war"),
        "UAR": percent("uar"),
        "loss": f"{_as_real('loss', report.loss):.6f}",
    }
