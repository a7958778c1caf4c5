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
per-pair ``np.dot`` on most entries. The similarities come from one
broadcast ``np.vecdot(F[:, None], F[None])`` over all N x N pairs, of which
the upper triangle is kept. Two bit-equal forms are slower: one
``np.vecdot(F[iu], F[ju])`` over the gathered rows of every pair copies each
row once per pair, and one ``np.vecdot`` per row pays a call per row. Over 36
samples at N=68 they took 11.2-11.3 ms and 8.5-8.9 ms against 3.3-4.5 ms for
the broadcast (2-core Xeon, numpy 2.4.6, one BLAS thread). ``np.exp`` takes
its own SIMD kernel on a contiguous array, and that kernel rounds differently
from the C library ``exp`` behind ``math.exp`` on a few percent of entries.
On a reversed (negative-stride) view numpy calls the C library ``exp`` per
element instead, so the exponential is one ``np.exp`` over the reversed upper
triangle; it matched ``math.exp`` on 4M distances bit for bit, at a tenth of
the cost of a ``math.exp`` call per pair. ``np.sum`` and ``np.mean`` add
pairwise, so the statistics do not use them.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UsageError, _as_array, _as_real, _is_int, _show

__all__ = [
    "GraphSample",
    "ThresholdStats",
    "binarize",
    "build_graph",
    "edge_count",
    "l2_normalize_rows",
    "raw_adjacency",
    "rethreshold",
    "threshold_from_weights",
    "threshold_stats",
]

# Building an N-node graph peaks at about 45 bytes per N x N entry; the budget
# admits up to 2048 nodes, about 190 MB.
MAX_ADJACENCY_ENTRIES = 2 ** 22


@dataclass(frozen=True)
class ThresholdStats:
    """Off-diagonal weight statistics and the resulting edge threshold."""

    tau: float
    mean: float
    std: float
    threshold: float


@dataclass
class GraphSample:
    """One sample's landmarks, row-normalized features, binary adjacency and label.

    ``build_graph`` also keeps what does not depend on ``tau``: the raw pair
    weights and their threshold statistics, from which :func:`rethreshold`
    gives the graph at another ``tau``.
    """

    landmarks: np.ndarray  # N x 2 float64 pixel coordinates
    features: np.ndarray   # N x d float64, rows unit norm (or all-zero)
    adjacency: np.ndarray  # N x N bool, symmetric, False on the diagonal
    label: int
    # read-only raw weights of the strict upper triangle, row-major (N(N-1)/2)
    weights: np.ndarray | None = None
    stats: ThresholdStats | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.landmarks)


@functools.lru_cache(maxsize=4)  # a command builds graphs of one size
def _upper_mask(n: int) -> np.ndarray:
    """Read-only n x n boolean mask of the strict upper triangle. Boolean
    indexing walks it in row-major order, the order of ``np.triu_indices``."""
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


def l2_normalize_rows(features: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean norm.

    Rows whose norm is at most 1e-12 are returned as exact zeros rather than
    divided by a vanishing value. A row whose squared norm overflows (values
    near 1e154 or larger) raises :class:`InvalidInputError`.
    """
    feats = _as_array("feature matrix", features, float, (None, None))
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise InvalidInputError(f"feature row {row} contains non-finite values")
    with np.errstate(over="ignore"):
        squares = np.vecdot(feats, feats)
    if np.isinf(squares).any():
        row = int(np.argmax(np.isinf(squares)))
        raise InvalidInputError(f"feature row {row} has a norm beyond the float range")
    norms = np.sqrt(squares)[:, None]
    # same memory layout as the input: the BLAS dot kernel depends on row strides
    out = np.zeros_like(feats)
    np.divide(feats, norms, out=out, where=norms > 1e-12)
    return out


def raw_adjacency(features: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pre-threshold edge weights: feature kernel over exp(pairwise distance).

    The kernel is the cosine similarity of two rows clamped to [0, 1]; the
    upper clamp removes rounding spill above 1 for identical unit rows.
    ``features`` must already be row-normalized and ``points`` finite. The
    diagonal is forced to zero so self-similarity never enters the threshold
    statistics; self-loops are added later by the GCN normalization instead.
    """
    feats = _as_array("feature matrix", features, float, (None, None))
    pts = _as_array("landmarks", points, float, (None, 2))
    if feats.shape[0] != pts.shape[0]:
        raise InvalidInputError(
            f"feature rows ({feats.shape[0]}) and landmarks ({pts.shape[0]}) disagree"
        )
    _check_node_count(pts.shape[0])
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("landmark coordinates must be finite")
    n = pts.shape[0]
    upper = _upper_mask(n)
    # every (i, j) pair is one dot of rows i and j, as in a per-pair np.dot
    dots = np.vecdot(feats[:, None, :], feats[None, :, :])[upper]
    x, y = pts[:, 0], pts[:, 1]
    # huge coordinates give distance inf, and past log(max double) = 709.78
    # the decay is inf, so such a pair weighs 0 (where math.exp would raise)
    with np.errstate(over="ignore"):
        dx = (x[:, None] - x)[upper]
        dy = (y[:, None] - y)[upper]
        distances = np.sqrt(dx * dx + dy * dy)
        decay = np.exp(distances[::-1])[::-1]  # the C library's exp: see above
    return _symmetric(np.clip(dots, 0.0, 1.0) / decay, n)


def _check_node_count(n: int) -> None:
    """Refuse a graph of more than :data:`MAX_ADJACENCY_ENTRIES` N x N entries."""
    if n * n > MAX_ADJACENCY_ENTRIES:
        raise InvalidInputError(f"a graph of {n} nodes has {n * n} adjacency entries, "
                                f"above the budget of {MAX_ADJACENCY_ENTRIES}")


def _symmetric(weights: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix with ``weights`` on both triangles and a zero diagonal.

    Boolean indexing walks the mask in row-major order, the order of the
    weights; through the transpose it fills the lower triangle.
    """
    mask = _upper_mask(n)
    out = np.zeros((n, n))
    out[mask] = weights
    out.T[mask] = weights
    return out


def threshold_from_weights(weights, tau: float) -> ThresholdStats:
    """Mean/population-std/threshold of a flat collection of edge weights.

    Accumulation is sequential in the given order; callers that need
    reproducibility against a per-entry reference must pass a stable order.
    Identical weights short-circuit to (value, std 0): a rounded sequential
    mean can land an ulp off the common value, which would corrupt the
    degenerate all-equal case that must stay exactly edgeless.
    """
    values = _as_array("weights", weights, float, (None,))
    count = len(values)
    if count < 1:
        raise InvalidInputError("cannot compute threshold statistics of no weights")
    first = float(values[0])
    if np.all(values == first):
        return _at_tau(first, 0.0, tau, equal=True)
    mean = float(np.cumsum(values)[-1]) / count
    deviations = values - mean
    squares = float(np.cumsum(deviations * deviations)[-1])
    return _at_tau(mean, math.sqrt(squares / count), tau, equal=False)


def _at_tau(mean: float, std: float, tau: float, equal: bool) -> ThresholdStats:
    """The statistics with their threshold at ``tau``, a real number other
    than NaN; an infinite ``tau`` gives an edgeless or a complete graph.
    Identical weights (``equal``) have their common value as the threshold
    whatever ``tau`` is, which keeps such a graph edgeless even where
    ``tau * 0.0`` is NaN."""
    tau = _as_real("tau", tau)
    if math.isnan(tau):
        raise UsageError("tau must be a number other than NaN")
    threshold = mean if equal else float(mean + tau * std)
    return ThresholdStats(tau=tau, mean=mean, std=std, threshold=threshold)


def threshold_stats(raw: np.ndarray, tau: float) -> ThresholdStats:
    """Threshold statistics over the off-diagonal entries of a weight matrix.

    The diagonal is structurally constant and excluded; the standard
    deviation is the population one (division by the entry count).
    """
    weights = _as_array("weight matrix", raw, float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise InvalidInputError("weight matrix must be square")
    n = weights.shape[0]
    if n < 2:
        raise InvalidInputError("need at least 2 nodes for off-diagonal statistics")
    # boolean indexing walks the matrix in row-major order
    return threshold_from_weights(weights[~np.eye(n, dtype=bool)], tau)


def binarize(raw: np.ndarray, threshold: float) -> np.ndarray:
    """Keep edges whose weight strictly exceeds the threshold, as a bool matrix.

    Equality yields False. The diagonal is forced to False regardless of the
    threshold's sign.
    """
    adjacency = _as_array("weight matrix", raw, float, (None, None)) > float(threshold)
    np.fill_diagonal(adjacency, False)
    return adjacency


def build_graph(landmarks: np.ndarray, features: np.ndarray, tau: float,
                label: int) -> GraphSample:
    """Full graph construction: normalize, weight, threshold, binarize."""
    pts = _as_array("landmarks", landmarks, float, (None, 2))
    if pts.shape[0] < 2:
        raise InvalidInputError("need at least 2 landmarks to build a graph")
    if not _is_int(label) or label < 0:
        raise InvalidInputError(f"label must be a nonnegative class index, got {_show(label)}")
    normalized = l2_normalize_rows(features)
    raw = raw_adjacency(normalized, pts)
    weights = raw[_upper_mask(pts.shape[0])]
    weights.setflags(write=False)
    stats = threshold_stats(raw, tau)
    return GraphSample(landmarks=pts, features=normalized,
                       adjacency=binarize(raw, stats.threshold), label=int(label),
                       weights=weights, stats=stats)


def rethreshold(graph: GraphSample, tau: float) -> GraphSample:
    """``graph`` at another ``tau``, equal field for field to ``build_graph``
    at that ``tau``.

    Only the threshold and the adjacency are computed again: the mean and
    standard deviation do not depend on ``tau``, and the result shares
    ``landmarks``, ``features`` and ``weights`` with ``graph``.
    """
    weights, stats = graph.weights, graph.stats
    if weights is None or stats is None:
        raise InvalidInputError("graph keeps no raw weights to re-threshold")
    n = len(_as_array("landmarks", graph.landmarks, float, (None, 2)))
    weights = _as_array("graph weights", weights, float, (n * (n - 1) // 2,))
    # the off-diagonal entries are all equal exactly when the triangle's are
    stats = _at_tau(stats.mean, stats.std, tau, bool(np.all(weights == weights[0])))
    raw = _symmetric(weights, n)
    return dataclasses.replace(graph, adjacency=binarize(raw, stats.threshold),
                               stats=stats)


def edge_count(adjacency: np.ndarray) -> int:
    """Number of undirected edges in a binary adjacency matrix."""
    return int(_as_array("adjacency", adjacency, float).sum()) // 2
