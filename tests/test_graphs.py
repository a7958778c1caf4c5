import math

import numpy as np
import pytest

from facegraph import (
    InvalidInputError,
    binarize,
    build_graph,
    edge_count,
    l2_normalize_rows,
    raw_adjacency,
    threshold_from_weights,
    threshold_stats,
)
from facegraph.cli import TAU_GRID as CLI_TAU_GRID

from oracles import naive_graph

TAU_GRID = [0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.70, 0.90]


def random_instance(rng, n=None, d=None):
    n = n or int(rng.integers(2, 7))
    d = d or int(rng.integers(2, 9))
    points = rng.uniform(0.0, 224.0, size=(n, 2))
    features = rng.normal(size=(n, d))
    if rng.random() < 0.2:
        features[int(rng.integers(n))] = 0.0  # exercise the zero-row policy
    return points, features


class TestNormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_stays_zero(self):
        out = l2_normalize_rows(np.array([[0.0, 0.0]]))
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_norm_two(self):
        out = l2_normalize_rows(np.ones((1, 4)))
        assert np.array_equal(out, [[0.5, 0.5, 0.5, 0.5]])

    def test_unit_norms(self):
        rng = np.random.default_rng(7)
        out = l2_normalize_rows(rng.normal(size=(20, 6)))
        norms = np.sqrt((out * out).sum(axis=1))
        assert np.all(np.abs(norms - 1.0) < 1e-9)

    def test_nonfinite_names_row(self):
        bad = np.array([[1.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(InvalidInputError, match="row 1"):
            l2_normalize_rows(bad)

    def test_tiny_norm_zeroed(self):
        out = l2_normalize_rows(np.array([[1e-13, 0.0]]))
        assert np.array_equal(out, [[0.0, 0.0]])


class TestSimilarityKernel:
    """The clamped cosine kernel, seen through two coincident landmarks: there
    the decay is exp(0) = 1, so the weight is exactly the kernel value."""

    @staticmethod
    def kernel(x_i, x_j):
        return raw_adjacency(np.array([x_i, x_j]), np.zeros((2, 2)))[0, 1]

    def test_identical_unit_vectors(self):
        assert self.kernel([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert self.kernel([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_45_degrees(self):
        s = math.sqrt(0.5)
        assert self.kernel([1.0, 0.0], [s, s]) == s  # 0.7071067811865476

    def test_negative_clamped(self):
        assert self.kernel([1.0, 0.0], [-1.0, 0.0]) == 0.0

    def test_rounding_spill_clamped(self):
        row = l2_normalize_rows(np.array([[3.0, 4.0]]))[0]
        assert self.kernel(row, row) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a = l2_normalize_rows(rng.normal(size=(2, 5)))
        assert self.kernel(a[0], a[1]) == self.kernel(a[1], a[0])


class TestRawAdjacency:
    def test_identical_coincident(self):
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        points = np.zeros((2, 2))
        raw = raw_adjacency(feats, points)
        assert raw[0, 1] == 1.0 and raw[1, 0] == 1.0
        assert raw[0, 0] == 0.0 and raw[1, 1] == 0.0

    def test_orthogonal_features(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        points = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert np.array_equal(raw_adjacency(feats, points), np.zeros((2, 2)))

    def test_derived_scalar(self):
        s = math.sqrt(0.5)
        feats = np.array([[1.0, 0.0], [s, s]])
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        raw = raw_adjacency(feats, points)
        assert raw[0, 1] == s / math.exp(5.0)
        assert abs(raw[0, 1] - 0.004764448014328882) < 1e-15

    def test_exact_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            points, features = random_instance(rng)
            raw = raw_adjacency(l2_normalize_rows(features), points)
            assert np.array_equal(raw, raw.T)
            assert raw.min() >= 0.0 and raw.max() <= 1.0

    def test_scale_sensitivity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            points, features = random_instance(rng)
            normalized = l2_normalize_rows(features)
            raw = raw_adjacency(normalized, points)
            scaled = raw_adjacency(normalized, 2.0 * points)
            mask = ~np.eye(raw.shape[0], dtype=bool) & (raw > 0.0)
            assert np.all(scaled[mask] < raw[mask])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            raw_adjacency(np.ones((3, 2)), np.zeros((2, 2)))

    def test_far_landmarks_weigh_zero(self):
        # math.exp overflows past log(max double) = 709.782712893384
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        near = raw_adjacency(feats, np.array([[0.0, 0.0], [709.78, 0.0]]))
        assert near[0, 1] == 1.0 / math.exp(709.78) > 0.0
        far = raw_adjacency(feats, np.array([[0.0, 0.0], [1e3, 0.0]]))
        assert np.array_equal(far, np.zeros((2, 2)))

    def test_far_and_huge_landmarks_match_oracle(self):
        rng = np.random.default_rng(19)
        features = rng.normal(size=(5, 3))
        points = np.array([[0.0, 0.0], [0.5, 0.5], [1e3, 0.0], [1e300, 5.0],
                           [1.0, -1e300]])
        normalized, raw, _, _ = naive_graph(points, features, 0.5)
        assert np.array_equal(raw_adjacency(normalized, points), raw)


class TestThresholdStats:
    def test_multiset_fixture(self):
        stats = threshold_from_weights([0.2, 0.4, 0.6, 0.8], 0.5)
        assert abs(stats.mean - 0.5) < 1e-12
        assert abs(stats.std - 0.22360679774997896) < 1e-12
        assert abs(stats.threshold - 0.6118033988749895) < 1e-12

    def test_all_equal_zero_std(self):
        for c in (0.4, 0.5, 1.0):
            raw = np.full((3, 3), c)
            np.fill_diagonal(raw, 0.0)
            stats = threshold_stats(raw, 7.0)
            assert stats.std == 0.0
            assert stats.mean == c
            assert stats.threshold == c

    def test_tau_zero_gives_mean(self):
        rng = np.random.default_rng(5)
        raw = rng.random((4, 4))
        raw = (raw + raw.T) / 2
        np.fill_diagonal(raw, 0.0)
        stats = threshold_stats(raw, 0.0)
        assert stats.threshold == stats.mean

    def test_too_few_nodes(self):
        with pytest.raises(InvalidInputError):
            threshold_stats(np.zeros((1, 1)), 0.5)


class TestBinarize:
    def test_strictly_above(self):
        raw = np.array([[0.0, 0.7], [0.7, 0.0]])
        assert np.array_equal(binarize(raw, 0.5), [[0, 1], [1, 0]])

    def test_equality_is_zero(self):
        raw = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert np.array_equal(binarize(raw, 0.5), np.zeros((2, 2), dtype=int))

    def test_all_equal_gives_empty(self):
        raw = np.full((3, 3), 0.3)
        np.fill_diagonal(raw, 0.0)
        stats = threshold_stats(raw, 1.5)
        assert stats.std == 0.0
        assert binarize(raw, stats.threshold).sum() == 0

    def test_diagonal_forced_zero_for_negative_threshold(self):
        raw = np.zeros((3, 3))
        adjacency = binarize(raw, -1.0)
        assert np.all(np.diag(adjacency) == 0)


class TestBuildGraph:
    def test_two_identical_nodes(self):
        graph = build_graph(np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 0.0]]),
                            0.0, 0)
        assert graph.adjacency.sum() == 0  # weight 1 is not strictly above mean 1

    def test_huge_tau_empties_graph(self):
        rng = np.random.default_rng(17)
        points, features = random_instance(rng, n=5, d=4)
        graph = build_graph(points, features, 1e6, 2)
        assert graph.adjacency.sum() == 0

    def test_three_node_mid_weight_not_connected(self):
        # raw pair weights 0.9 / 0.5 / 0.1 with tau 0: threshold is the mean,
        # the strict comparison keeps only the strongest pair
        raw = np.array([[0.0, 0.9, 0.5],
                        [0.9, 0.0, 0.1],
                        [0.5, 0.1, 0.0]])
        stats = threshold_stats(raw, 0.0)
        adjacency = binarize(raw, stats.threshold)
        assert adjacency[0, 1] == 1 and adjacency[1, 0] == 1
        assert adjacency.sum() == 2

    def test_monotone_edge_count_over_tau_grid(self):
        rng = np.random.default_rng(19)
        points, features = random_instance(rng, n=6, d=5)
        counts = []
        for tau in TAU_GRID:
            graph = build_graph(points, features, tau, 0)
            counts.append(edge_count(graph.adjacency))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_normalized_features_attached(self):
        rng = np.random.default_rng(23)
        points, features = random_instance(rng, n=4, d=3)
        graph = build_graph(points, features, 0.3, 1)
        assert np.array_equal(graph.features, l2_normalize_rows(features))
        assert graph.label == 1

    def test_single_landmark_rejected(self):
        with pytest.raises(InvalidInputError):
            build_graph(np.zeros((1, 2)), np.ones((1, 3)), 0.5, 0)

    def test_nonfinite_landmarks_rejected(self):
        points = np.array([[0.0, 0.0], [np.inf, 1.0]])
        with pytest.raises(InvalidInputError):
            build_graph(points, np.ones((2, 3)), 0.5, 0)


class TestBruteForceEquivalence:
    def test_bitwise_match_on_small_instances(self):
        rng = np.random.default_rng(1000)
        for _ in range(100):
            points, features = random_instance(rng)
            tau = float(rng.uniform(0.0, 1.0))
            graph = build_graph(points, features, tau, 0)
            normalized, raw, (mean, std, threshold), adjacency = naive_graph(
                points, features, tau)
            production_raw = raw_adjacency(graph.features, points)
            stats = threshold_stats(production_raw, tau)
            assert np.array_equal(graph.features, normalized)
            assert np.array_equal(production_raw, raw)
            assert stats.mean == mean and stats.std == std
            assert stats.threshold == threshold
            assert np.array_equal(graph.adjacency, adjacency)

    def test_bitwise_match_at_real_face_shape(self):
        # N=68 landmarks, d=64 features: the shape of real face data
        rng = np.random.default_rng(68)
        coincident = random_instance(rng, n=68, d=64)
        coincident[0][[5, 40]] = coincident[0][17]
        zero_row = random_instance(rng, n=68, d=64)
        zero_row[1][33] = 0.0
        for points, features in (coincident, zero_row):
            for token in CLI_TAU_GRID:
                tau = float(token)
                graph = build_graph(points, features, tau, 0)
                normalized, raw, expected_stats, adjacency = naive_graph(
                    points, features, tau)
                production_raw = raw_adjacency(graph.features, points)
                stats = threshold_stats(production_raw, tau)
                actual_stats = (stats.mean, stats.std, stats.threshold)
                for actual, expected in ((graph.features, normalized),
                                         (production_raw, raw),
                                         (actual_stats, expected_stats)):
                    assert np.array_equal(np.asarray(actual).view(np.int64),
                                          np.asarray(expected).view(np.int64))
                assert np.array_equal(graph.adjacency, adjacency)

    def test_threshold_from_weights_list_matches_array(self):
        rng = np.random.default_rng(29)
        weights = rng.random(68 * 67)
        for tau in (0.0, 0.5, 0.9):
            assert (threshold_from_weights(weights.tolist(), tau)
                    == threshold_from_weights(weights, tau))
        assert (threshold_from_weights([0.3] * 5, 0.5)
                == threshold_from_weights(np.full(5, 0.3), 0.5))

    def test_degenerate_equal_weights_safe(self):
        # every pair identical: zero variance, empty graph, no error
        points = np.zeros((3, 2))
        features = np.tile(np.array([1.0, 0.0]), (3, 1))
        graph = build_graph(points, features, 0.0, 0)
        assert graph.adjacency.sum() == 0
