"""Facial-attribute graph construction from landmarks and per-landmark features.

Vertices are landmarks. Each pair gets a weight equal to the cosine similarity
of the two feature rows (clamped to [0, 1]) divided by the exponential of the
Euclidean distance between the two landmark positions. Edges survive only
where that weight strictly exceeds a data-driven threshold: the mean of the
off-diagonal weights plus ``tau`` standard deviations.

Every result is bit-for-bit equal to a plain per-entry reference that uses
``np.dot`` for inner products, ``math.sqrt``/``math.exp`` for scalars and
sequential sums in row-major order; the test suite relies on that. The code is
vectorized only with primitives that round exactly like that reference:

- ``np.vecdot`` over rows calls the same dot kernel as a per-pair ``np.dot``
  on rows with the same strides;
- elementwise ``-``, ``*``, ``/``, ``np.sqrt`` and ``np.clip`` are correctly
  rounded (or exact), element by element, like their scalar forms;
- ``np.cumsum(...)[-1]`` adds in order, one element at a time.

Matrix products (``F @ F.T``, a row gemv ``F[i+1:] @ F[i]``) and ``einsum``
are not used: they block or reorder the accumulation and disagree with
per-pair ``np.dot`` on most entries. ``np.exp`` is not used either: its own
SIMD kernel rounds differently from the C library ``exp`` behind ``math.exp``
on a few percent of entries, so the exponential stays a scalar call over the
upper triangle. ``np.sum`` and ``np.mean`` add pairwise, so the statistics do
not use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "GraphSample",
    "ThresholdStats",
    "binarize",
    "build_graph",
    "edge_count",
    "l2_normalize_rows",
    "raw_adjacency",
    "similarity_kernel",
    "threshold_from_weights",
    "threshold_stats",
]


@dataclass(frozen=True)
class ThresholdStats:
    """Off-diagonal weight statistics and the resulting edge threshold."""

    tau: float
    mean: float
    std: float
    threshold: float


@dataclass
class GraphSample:
    """One sample's landmarks, row-normalized features, binary adjacency and label."""

    landmarks: np.ndarray  # N x 2 float64 pixel coordinates
    features: np.ndarray   # N x d float64, rows unit norm (or all-zero)
    adjacency: np.ndarray  # N x N int64 over {0, 1}, symmetric, zero diagonal
    label: int

    @property
    def num_nodes(self) -> int:
        return int(self.landmarks.shape[0])


def l2_normalize_rows(features: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean norm.

    Rows whose norm is at most 1e-12 are returned as exact zeros rather than
    divided by a vanishing value.
    """
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2:
        raise InvalidInputError("feature matrix must be 2-D")
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise InvalidInputError(f"feature row {row} contains non-finite values")
    norms = np.sqrt(np.vecdot(feats, feats))[:, None]
    # same memory layout as the input: the BLAS dot kernel depends on row strides
    out = np.zeros_like(feats)
    np.divide(feats, norms, out=out, where=norms > 1e-12)
    return out


def similarity_kernel(x_i: np.ndarray, x_j: np.ndarray) -> float:
    """Cosine similarity of two unit (or zero) vectors, clamped to [0, 1].

    The upper clamp removes rounding spill above 1 for identical unit rows,
    so the weight range contract of :func:`raw_adjacency` holds exactly.
    """
    a = np.asarray(x_i, dtype=float)
    b = np.asarray(x_j, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidInputError(
            f"kernel inputs must be 1-D vectors of equal length, got {a.shape} and {b.shape}"
        )
    return min(1.0, max(0.0, float(np.dot(a, b))))


def raw_adjacency(features: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pre-threshold edge weights: feature kernel over exp(pairwise distance).

    ``features`` must already be row-normalized. The diagonal is forced to
    zero so self-similarity never enters the threshold statistics; self-loops
    are added later by the GCN normalization instead.
    """
    feats = np.asarray(features, dtype=float)
    pts = np.asarray(points, dtype=float)
    if feats.ndim != 2:
        raise InvalidInputError("feature matrix must be 2-D")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError("landmark array must have shape (N, 2)")
    if feats.shape[0] != pts.shape[0]:
        raise InvalidInputError(
            f"feature rows ({feats.shape[0]}) and landmarks ({pts.shape[0]}) disagree"
        )
    n = pts.shape[0]
    out = np.zeros((n, n))
    for i in range(n - 1):
        out[i, i + 1:] = np.vecdot(feats[i], feats[i + 1:])
    dx = pts[:, 0, None] - pts[None, :, 0]
    dy = pts[:, 1, None] - pts[None, :, 1]
    upper = np.triu_indices(n, k=1)
    distances = np.sqrt(dx * dx + dy * dy)[upper]
    decay = np.fromiter(map(math.exp, distances.tolist()), float, len(distances))
    weights = np.clip(out[upper], 0.0, 1.0) / decay
    out[upper] = weights
    out[upper[::-1]] = weights
    return out


def threshold_from_weights(weights, tau: float) -> ThresholdStats:
    """Mean/population-std/threshold of a flat collection of edge weights.

    Accumulation is sequential in the given order; callers that need
    reproducibility against a per-entry reference must pass a stable order.
    Identical weights short-circuit to (value, std 0): a rounded sequential
    mean can land an ulp off the common value, which would corrupt the
    degenerate all-equal case that must stay exactly edgeless.
    """
    values = np.asarray(weights, dtype=float)
    count = len(values)
    if count < 1:
        raise InvalidInputError("cannot compute threshold statistics of no weights")
    first = float(values[0])
    if np.all(values == first):
        return ThresholdStats(tau=float(tau), mean=first, std=0.0, threshold=first)
    mean = float(np.cumsum(values)[-1]) / count
    deviations = values - mean
    squares = float(np.cumsum(deviations * deviations)[-1])
    std = math.sqrt(squares / count)
    return ThresholdStats(tau=float(tau), mean=mean, std=std,
                          threshold=float(mean + tau * std))


def threshold_stats(raw: np.ndarray, tau: float) -> ThresholdStats:
    """Threshold statistics over the off-diagonal entries of a weight matrix.

    The diagonal is structurally constant and excluded; the standard
    deviation is the population one (division by the entry count).
    """
    weights = np.asarray(raw, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise InvalidInputError("weight matrix must be square")
    n = weights.shape[0]
    if n < 2:
        raise InvalidInputError("need at least 2 nodes for off-diagonal statistics")
    # boolean indexing walks the matrix in row-major order
    return threshold_from_weights(weights[~np.eye(n, dtype=bool)], tau)


def binarize(raw: np.ndarray, threshold: float) -> np.ndarray:
    """Keep edges whose weight strictly exceeds the threshold.

    Equality yields 0. The diagonal is forced to zero regardless of the
    threshold's sign.
    """
    adjacency = (np.asarray(raw, dtype=float) > float(threshold)).astype(np.int64)
    np.fill_diagonal(adjacency, 0)
    return adjacency


def build_graph(landmarks: np.ndarray, features: np.ndarray, tau: float,
                label: int) -> GraphSample:
    """Full graph construction: normalize, weight, threshold, binarize."""
    pts = np.asarray(landmarks, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError("landmark array must have shape (N, 2)")
    if pts.shape[0] < 2:
        raise InvalidInputError("need at least 2 landmarks to build a graph")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("landmark coordinates must be finite")
    if int(label) < 0:
        raise InvalidInputError(f"label must be a nonnegative class index, got {label}")
    normalized = l2_normalize_rows(features)
    raw = raw_adjacency(normalized, pts)
    stats = threshold_stats(raw, tau)
    adjacency = binarize(raw, stats.threshold)
    return GraphSample(landmarks=pts, features=normalized, adjacency=adjacency,
                       label=int(label))


def edge_count(adjacency: np.ndarray) -> int:
    """Number of undirected edges in a binary adjacency matrix."""
    return int(np.asarray(adjacency).sum()) // 2
