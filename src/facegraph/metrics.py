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

from .errors import InvalidInputError

__all__ = ["MetricsReport", "compute_metrics", "confusion", "format_report", "report_row"]


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
    """C x C count matrix; entry (t, p) counts true class t predicted as p."""
    truth = np.asarray(true_labels, dtype=int)
    preds = np.asarray(predicted_labels, dtype=int)
    if truth.shape != preds.shape or truth.ndim != 1:
        raise InvalidInputError("label arrays must be 1-D and the same length")
    if truth.size and (truth.min() < 0 or truth.max() >= num_classes):
        raise InvalidInputError(f"true labels outside [0, {num_classes})")
    if preds.size and (preds.min() < 0 or preds.max() >= num_classes):
        raise InvalidInputError(f"predicted labels outside [0, {num_classes})")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(truth, preds):
        matrix[t, p] += 1
    return matrix


def compute_metrics(matrix: np.ndarray, loss: float) -> MetricsReport:
    """Derive the full report from a confusion matrix plus a loss value."""
    counts = np.asarray(matrix, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or counts.shape[0] < 1:
        raise InvalidInputError("confusion matrix must be square and nonempty")
    total = int(counts.sum())
    if total < 1:
        raise InvalidInputError("confusion matrix holds no samples")
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

    f1_total = 0.0
    for c in range(num_classes):
        precision = diagonal[c] / col_sums[c] if col_sums[c] > 0 else 0.0
        recall = recalls[c]
        if precision + recall > 0.0:
            f1_total += 2.0 * precision * recall / (precision + recall)
    macro_f1 = f1_total / num_classes

    return MetricsReport(loss=float(loss), accuracy=accuracy, macro_f1=macro_f1,
                         war=war, uar=uar, per_class_recall=recalls,
                         confusion=counts)


def format_report(report: MetricsReport, class_names=None) -> str:
    """Human-readable rendering of a metrics report."""
    num_classes = report.confusion.shape[0]
    names = list(class_names) if class_names else [f"class_{c}" for c in range(num_classes)]
    if len(names) != num_classes:
        raise InvalidInputError(f"{len(names)} class names for {num_classes} classes")
    lines = [
        f"loss      {report.loss:.6f}",
        f"Acc       {100.0 * report.accuracy:.2f}%",
        f"F1-Score  {100.0 * report.macro_f1:.2f}%",
        f"WAR       {100.0 * report.war:.2f}%",
        f"UAR       {100.0 * report.uar:.2f}%",
        "",
        "per-class recall:",
    ]
    for name, recall in zip(names, report.per_class_recall):
        lines.append(f"  {name:<12} {100.0 * recall:.2f}%")
    lines.append("")
    lines.append("confusion (rows true, columns predicted):")
    width = max(5, max(len(n) for n in names) + 1)
    header = " " * width + "".join(f"{n[:width - 1]:>{width}}" for n in names)
    lines.append(header)
    for name, row in zip(names, report.confusion):
        lines.append(f"{name:<{width}}" + "".join(f"{int(v):>{width}}" for v in row))
    return "\n".join(lines)


def report_row(report: MetricsReport) -> dict:
    """Machine-readable row with the sweep table's metric columns (percent)."""
    return {
        "Acc": f"{100.0 * report.accuracy:.2f}",
        "F1-Score": f"{100.0 * report.macro_f1:.2f}",
        "WAR": f"{100.0 * report.war:.2f}",
        "UAR": f"{100.0 * report.uar:.2f}",
        "loss": f"{report.loss:.6f}",
    }
