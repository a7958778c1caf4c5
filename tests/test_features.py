import math

import numpy as np
import pytest

import facegraph.features as features_module
from facegraph import (
    DatasetError,
    EncoderConfig,
    InvalidInputError,
    UsageError,
    encode_patch_toy,
    extract_patch,
    features_for_sample,
    read_pgm,
    write_pgm,
)
from facegraph.cli import PATCH_GRID
from facegraph.features import _pool_cells, _projection_matrix

from oracles import naive_encode, naive_features, naive_patch

PATCH_SIZES = [(1, 1), (5, 7), (8, 8), (30, 30), (33, 17), (64, 64)]


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(13, 9), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        assert np.array_equal(read_pgm(path), image)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n\x01\x02\x03\x04")
        assert np.array_equal(read_pgm(path), [[1, 2], [3, 4]])

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n")
        with pytest.raises(DatasetError):
            read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(DatasetError):
            read_pgm(path)

    @pytest.mark.parametrize("content, message", [
        (b"P5\n4", "truncated PGM header"),
        (b"P5\n4 4\n", "truncated PGM header"),
        (b"P5", "truncated PGM header"),
        (b"P5\nfour 4\n255\n", "malformed PGM header"),
        (b"P5\n4 4.0\n255\n", "malformed PGM header"),
        (b"P5\n0 4\n255\n", "invalid PGM dimensions 0x4"),
        (b"P5\n4 0\n255\n", "invalid PGM dimensions 4x0"),
        (b"P5\n-1 4\n255\n", "invalid PGM dimensions -1x4"),
        (b"P5\n1 1\n0\n\x00", "only 8-bit PGM supported, maxval=0"),
        (b"P5#c\n1 1\n255\n\x00", "not a binary PGM"),
        (b"P5\n1 1\n255#c\n\x00", "malformed PGM header"),
        (b"P5\n1 1 # no maxval", "truncated PGM header"),
    ], ids=["no_height", "no_maxval", "magic_only", "word_width", "float_height",
            "zero_width", "zero_height", "negative_width", "zero_maxval",
            "comment_glued_to_magic", "comment_glued_to_maxval", "comment_for_maxval"])
    def test_bad_header(self, tmp_path, content, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(content)
        with pytest.raises(DatasetError, match=message):
            read_pgm(path)

    @pytest.mark.parametrize("content", [
        b"P5 #c\r2 1 255\n\x01\x02",
        b"P5\t2\t1\t255\t\x01\x02",
        b"P5\x0b2\x0b1\x0b255\x0b\x01\x02",
        b"P5\x0c2\x0c1\x0c255\x0c\x01\x02",
        b"# made by hand\nP5 2 1 255\n\x01\x02",
        b"P5 2 1 255\r\x01\x02trailing",
    ], ids=["cr_ended_comment", "tabs", "vertical_tabs", "form_feeds",
            "comment_before_magic", "cr_then_trailing"])
    def test_header_separators(self, tmp_path, content):
        path = tmp_path / "sep.pgm"
        path.write_bytes(content)
        assert np.array_equal(read_pgm(path), [[1, 2]])

    @pytest.mark.parametrize("image", [
        np.zeros((0, 3), dtype=np.uint8), np.zeros((3, 0)), [[300.0]], [[-1.0]],
        [[2.5]], [[np.nan]], [[np.inf]], np.array([[256]]), np.array([[-1]]),
        [[1e300]], [[2 ** 70]], np.zeros(3, dtype=np.uint8),
    ], ids=["no_rows", "no_columns", "above_255", "negative", "fraction", "nan",
            "inf", "int_above_255", "int_negative", "float_past_int64",
            "int_past_int64", "one_dimensional"])
    def test_write_refuses_what_read_refuses_or_changes(self, tmp_path, image):
        path = tmp_path / "out.pgm"
        with pytest.raises(InvalidInputError):
            write_pgm(path, image)
        assert not path.exists()

    @pytest.mark.parametrize("image", [np.array([[0.0, 255.0]]), np.array([[0, 255]]),
                                       np.array([[False, True]])],
                             ids=["whole_floats", "int64", "bool"])
    def test_write_accepts_exact_pixels(self, tmp_path, image):
        path = tmp_path / "out.pgm"
        write_pgm(path, image)
        assert np.array_equal(read_pgm(path), image)

    def test_16bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DatasetError):
            read_pgm(path)


class TestExtractPatch:
    def test_constant_image(self):
        image = np.full((5, 5), 7, dtype=np.uint8)
        patch = extract_patch(image, (2.0, 2.0), 3, 3)
        assert np.array_equal(patch, np.full((3, 3), 7))

    def test_corner_replication_matches_oracle(self):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
        patch = extract_patch(image, (0.0, 0.0), 3, 3)
        assert np.array_equal(patch, naive_patch(image, (0.0, 0.0), 3, 3))
        assert patch[0, 0] == image[0, 0]

    def test_ramp_exact_subblock(self):
        image = np.arange(100).reshape(10, 10)
        patch = extract_patch(image, (5.0, 5.0), 2, 2)
        assert np.array_equal(patch, image[4:6, 4:6])

    def test_shape_never_shrinks(self):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 256, size=(8, 11), dtype=np.uint8)
        for center in [(-20.0, -20.0), (100.0, 3.0), (5.5, 7.2), (0.0, 10.9)]:
            for h, w in [(1, 1), (4, 9), (30, 2)]:
                patch = extract_patch(image, center, h, w)
                assert patch.shape == (h, w)
                assert np.array_equal(patch, naive_patch(image, center, h, w))

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64, bool])
    def test_patch_larger_than_image_past_each_corner(self, dtype):
        rng = np.random.default_rng(8)
        image = rng.integers(0, 2 if dtype is bool else 256, size=(5, 7)).astype(dtype)
        corners = [(-3.0, -2.0), (9.0, -2.0), (-3.0, 6.0), (9.0, 6.0),
                   (-40.0, -40.0), (40.0, -40.0), (-40.0, 40.0), (40.0, 40.0)]
        for center in corners:
            for h, w in [(9, 12), (6, 8), (13, 3)]:
                patch = extract_patch(image, center, h, w)
                assert patch.dtype == image.dtype
                assert np.array_equal(patch, naive_patch(image, center, h, w))

    @pytest.mark.parametrize("center", [(1e300, 5.0), (-1e300, 5.0), (5.0, 1e300),
                                        (5.0, -1e300), (-1e300, 1e300)])
    def test_huge_center_clamped(self, center):
        rng = np.random.default_rng(6)
        image = rng.integers(0, 256, size=(8, 11), dtype=np.uint8)
        patch = extract_patch(image, center, 4, 5)
        assert np.array_equal(patch, naive_patch(image, center, 4, 5))

    def test_nonpositive_size_rejected(self):
        with pytest.raises(InvalidInputError):
            extract_patch(np.zeros((4, 4)), (1.0, 1.0), 0, 3)

    def test_nonfinite_center_rejected(self):
        with pytest.raises(InvalidInputError):
            extract_patch(np.zeros((4, 4)), (np.nan, 1.0), 3, 3)


class TestToyEncoder:
    def test_zero_patch_zero_vector(self):
        feature = encode_patch_toy(np.zeros((10, 10)), EncoderConfig())
        assert np.array_equal(feature, np.zeros(64))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        patch = rng.integers(0, 256, size=(20, 20))
        config = EncoderConfig(out_dim=32, projection_seed=42)
        assert np.array_equal(encode_patch_toy(patch, config),
                              encode_patch_toy(patch, config))

    def test_single_pixel_change_detected(self):
        rng = np.random.default_rng(1000)
        patch = rng.integers(0, 256, size=(8, 8))
        other = patch.copy()
        other[3, 5] = (other[3, 5] + 1) % 256
        config = EncoderConfig(projection_seed=1000)
        assert not np.array_equal(encode_patch_toy(patch, config),
                                  encode_patch_toy(other, config))

    def test_out_dim(self):
        feature = encode_patch_toy(np.ones((12, 12)), EncoderConfig(out_dim=7))
        assert feature.shape == (7,)

    def test_small_patch_still_encodes(self):
        feature = encode_patch_toy(np.full((3, 5), 100), EncoderConfig())
        assert feature.shape == (64,)
        assert np.all(np.isfinite(feature))

    def test_bad_config(self):
        with pytest.raises(InvalidInputError):
            EncoderConfig(out_dim=0)

    @pytest.mark.parametrize("field, value", [
        ("out_dim", 2.5), ("out_dim", True), ("out_dim", "8"), ("projection_seed", 1.5),
        ("projection_seed", None),
    ], ids=["dim_fraction", "dim_bool", "dim_text", "seed_fraction", "seed_none"])
    def test_sizes_and_seed_must_be_integers(self, field, value):
        with pytest.raises(UsageError, match=f"^{field} must be an int, got {value!r}$"):
            EncoderConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        patch = np.arange(144).reshape(12, 12)
        typed = EncoderConfig(out_dim=np.int64(7), projection_seed=np.int32(3))
        assert np.array_equal(encode_patch_toy(patch, typed),
                              encode_patch_toy(patch, EncoderConfig(out_dim=7,
                                                                    projection_seed=3)))

    def test_out_dim_budget(self):
        budget = features_module.MAX_ENCODER_DIM
        assert EncoderConfig(out_dim=budget).out_dim == budget
        for out_dim in (budget + 1, 10 ** 9):
            with pytest.raises(UsageError, match=f"{out_dim}, above the budget of {budget}"):
                EncoderConfig(out_dim=out_dim)


class TestFeaturesForSample:
    def test_constant_image_identical_rows(self):
        image = np.full((40, 40), 90, dtype=np.uint8)
        landmarks = np.array([[5.0, 5.0], [20.0, 20.0], [35.0, 10.0]])
        feats = features_for_sample(image, landmarks, 9, 9, EncoderConfig())
        assert np.array_equal(feats[0], feats[1])
        assert np.array_equal(feats[0], feats[2])

    def test_shape(self):
        image = np.zeros((30, 30), dtype=np.uint8)
        feats = features_for_sample(image, np.array([[1.0, 2.0], [3.0, 4.0]]),
                                    5, 5, EncoderConfig(out_dim=16))
        assert feats.shape == (2, 16)

    @pytest.mark.parametrize("landmarks", [np.zeros(2), np.zeros((2, 3))],
                             ids=["1d", "3_columns"])
    def test_landmark_shape_rejected(self, landmarks):
        with pytest.raises(InvalidInputError, match=r"shape \(N, 2\)"):
            features_for_sample(np.zeros((5, 5)), landmarks, 3, 3, EncoderConfig())

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_image_without_pixels_rejected(self, shape):
        with pytest.raises(InvalidInputError, match="pixels"):
            features_for_sample(np.zeros(shape, np.uint8), np.array([[1.0, 2.0]]),
                                3, 3, EncoderConfig())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_pixel_rejected(self, value):
        image = np.full((20, 20), 10.0)
        image[13, 4] = value
        with pytest.raises(InvalidInputError, match="finite"):
            features_for_sample(image, np.array([[1.0, 2.0]]), 3, 3, EncoderConfig())

    @pytest.mark.parametrize("patch", [np.zeros((0, 4)), np.full((4, 4), np.nan)],
                             ids=["empty", "nan"])
    def test_bad_patch_rejected(self, patch):
        with pytest.raises(InvalidInputError):
            encode_patch_toy(patch, EncoderConfig())

    @pytest.mark.parametrize("run", [
        lambda image, path: write_pgm(path, image),
        lambda image, path: extract_patch(image, (2.0, 2.0), 3, 3),
        lambda image, path: encode_patch_toy(image, EncoderConfig()),
        lambda image, path: features_for_sample(image, np.array([[1.0, 2.0]]), 3, 3,
                                                EncoderConfig()),
    ], ids=["write_pgm", "extract_patch", "encode_patch_toy", "features_for_sample"])
    @pytest.mark.parametrize("image", [
        np.full((6, 6), 1 + 2j), np.full((6, 6), "a"), np.full((6, 6), None),
        np.zeros((6, 6), dtype="datetime64[s]"),
    ], ids=["complex", "string", "object_none", "datetime"])
    def test_pixel_dtype_rejected(self, tmp_path, run, image):
        with pytest.raises(InvalidInputError, match="got dtype"):
            run(image, tmp_path / "out.pgm")
        assert not (tmp_path / "out.pgm").exists()

    def test_landmark_order_equivariance(self):
        rng = np.random.default_rng(5)
        image = rng.integers(0, 256, size=(50, 50), dtype=np.uint8)
        landmarks = rng.uniform(0, 50, size=(6, 2))
        config = EncoderConfig()
        base = features_for_sample(image, landmarks, 7, 7, config)
        perm = rng.permutation(6)
        permuted = features_for_sample(image, landmarks[perm], 7, 7, config)
        assert np.array_equal(permuted, base[perm])


class TestFeatureOracle:
    """The encoder equals the per-cell pooling loop, as int64 bit patterns."""

    @pytest.mark.parametrize("out_dim", [1, 64])
    @pytest.mark.parametrize("h, w", PATCH_SIZES)
    def test_features_for_sample(self, h, w, out_dim):
        rng = np.random.default_rng(100 * h + w)
        height, width = 41, 52
        image = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        borders = [(0, 0), (width - 1, height - 1), (-3, 20), (width + 4, 20),
                   (20, -3), (20, height + 4), (-70, -70), (width + 70, height + 70)]
        # Python's round() takes half to even
        halves = [(2.5, 3.5), (-0.5, 0.5), (width - 0.5, height - 1.5), (10.5, 11.5)]
        scattered = rng.uniform(-10.0, width + 10.0, size=(20, 2))
        landmarks = np.vstack([borders, halves, scattered]).astype(float)
        config = EncoderConfig(out_dim=out_dim, projection_seed=7)
        feats = features_for_sample(image, landmarks, h, w, config)
        expected = naive_features(image, landmarks, h, w, out_dim, 7)
        assert np.array_equal(bits(feats), bits(expected))

    @pytest.mark.parametrize("out_dim", [1, 64])
    @pytest.mark.parametrize("h, w", PATCH_SIZES)
    def test_encode_patch_toy(self, h, w, out_dim):
        rng = np.random.default_rng(100 * h + w + 1)
        patch = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        config = EncoderConfig(out_dim=out_dim, projection_seed=11)
        expected = bits(naive_encode(patch, out_dim, 11))
        for pixels in (patch, patch.astype(float)):
            assert np.array_equal(bits(encode_patch_toy(pixels, config)), expected)

    @pytest.mark.parametrize("kind", ["transposed", "int16_negative", "uint16_full"])
    def test_pixel_layouts_and_types(self, kind):
        rng = np.random.default_rng(17)
        if kind == "transposed":
            image = rng.integers(0, 256, size=(52, 41), dtype=np.uint8).T
            assert not image.flags.c_contiguous
        elif kind == "int16_negative":
            image = rng.integers(-32768, 32768, size=(41, 52), dtype=np.int16)
        else:
            image = rng.integers(60000, 65536, size=(41, 52), dtype=np.uint16)
            image[0, 0] = 65535
        landmarks = np.vstack([[(0.0, 0.0), (51.0, 40.0), (-9.0, 45.0)],
                               rng.uniform(-5.0, 57.0, size=(12, 2))])
        for h, w in [(5, 7), (30, 30), (64, 64)]:
            feats = features_for_sample(image, landmarks, h, w, EncoderConfig())
            expected = naive_features(image, landmarks, h, w, 64, 1000)
            assert np.array_equal(bits(feats), bits(expected))

    @pytest.mark.parametrize("size", sorted({30} | {int(size) for size in PATCH_GRID}))
    def test_eval_images_shape(self, size):
        """A 224x224 face image with 68 landmarks, at every patch sweep size."""
        rng = np.random.default_rng(size)
        image = rng.integers(0, 256, size=(224, 224), dtype=np.uint8)
        landmarks = np.vstack([[(0.0, 0.0), (223.0, 223.0), (-4.5, 100.0)],
                               rng.uniform(20.0, 204.0, size=(65, 2))])
        feats = features_for_sample(image, landmarks, size, size, EncoderConfig())
        expected = naive_features(image, landmarks, size, size, 64, 1000)
        assert np.array_equal(bits(feats), bits(expected))

    @pytest.mark.parametrize("h, w", PATCH_SIZES)
    def test_fractional_pixels_agree_to_rounding(self, h, w):
        # Only whole-number pixel sums are exact in any summation order. A cell
        # mean's rounding reaches each output through terms as large as the
        # largest outputs, so an output that cancels to near zero keeps an
        # absolute error on that scale.
        rng = np.random.default_rng(100 * h + w + 2)
        image = rng.uniform(0.0, 255.0, size=(41, 52))
        landmarks = rng.uniform(-10.0, 62.0, size=(12, 2))
        feats = features_for_sample(image, landmarks, h, w, EncoderConfig())
        expected = naive_features(image, landmarks, h, w, 64, 1000)
        np.testing.assert_allclose(feats, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())


class TestReadOnlyCaches:
    """Every per-size cache hands out one shared array that nobody may edit."""

    @pytest.mark.parametrize("cached", [lambda: _projection_matrix(5, 16),
                                        lambda: _pool_cells(30), lambda: _pool_cells(3)],
                             ids=["projection", "pool_cells", "pool_cells_small"])
    def test_write_raises(self, cached):
        array = cached()
        assert array is cached()
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] += 1.0

    @pytest.mark.parametrize("cached, fill", [
        (_projection_matrix, lambda k: _projection_matrix(k, 4)),
        (_pool_cells, lambda k: _pool_cells(k + 1)),
    ], ids=["projection", "pool_cells"])
    def test_cache_is_bounded(self, cached, fill):
        for key in range(100):
            fill(key)
        info = cached.cache_info()
        assert info.currsize == info.maxsize < 100


class TestGivenProjection:
    """``EncoderConfig.projection`` replaces the seeded draw: the drawn matrix
    given back encodes bit for bit as the seed does."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_drawn_matrix_encodes_as_the_seed(self, order):
        rng = np.random.default_rng(8)
        image = rng.integers(0, 256, size=(40, 50), dtype=np.uint8)
        landmarks = rng.uniform(-5.0, 55.0, size=(12, 2))
        seeded = EncoderConfig(out_dim=16, projection_seed=7)
        given = EncoderConfig(out_dim=16, projection_seed=7,
                              projection=np.array(_projection_matrix(7, 16), order=order))
        assert np.array_equal(bits(features_for_sample(image, landmarks, 9, 7, given)),
                              bits(features_for_sample(image, landmarks, 9, 7, seeded)))
        patch = image[:9, :7]
        assert np.array_equal(bits(encode_patch_toy(patch, given)),
                              bits(encode_patch_toy(patch, seeded)))

    def test_given_matrix_is_used(self):
        patch = np.arange(64).reshape(8, 8)
        matrix = np.eye(64)[:3]
        config = EncoderConfig(out_dim=3, projection=matrix.tolist())
        assert np.array_equal(encode_patch_toy(patch, config), np.arange(3) / 255.0)
        negated = EncoderConfig(projection=-_projection_matrix(1000, 64))
        assert np.array_equal(encode_patch_toy(patch, negated),
                              -encode_patch_toy(patch, EncoderConfig()))

    def test_kept_as_a_read_only_copy(self):
        matrix = np.zeros((2, 64), dtype=np.float32)
        config = EncoderConfig(out_dim=2, projection=matrix)
        matrix[0, 0] = 1.0
        stored = config.projection
        assert stored.dtype == np.float64 and stored.flags.c_contiguous
        assert not stored.flags.writeable and not stored.any()

    def test_left_out_of_comparison_and_repr(self):
        given = EncoderConfig(out_dim=2, projection=np.ones((2, 64)))
        assert given == EncoderConfig(out_dim=2) and hash(given) == hash(EncoderConfig(out_dim=2))
        assert repr(given) == "EncoderConfig(out_dim=2, projection_seed=1000)"

    @pytest.mark.parametrize("projection, message", [
        (np.ones((64, 63)), r"^projection must be 2-D of shape \(64, 64\), got shape \(64, 63\)$"),
        (np.ones(64 * 64), r"^projection must be 2-D of shape \(64, 64\)"),
        (np.full((64, 64), np.nan), "^projection must be finite$"),
        (np.full((64, 64), np.inf), "^projection must be finite$"),
        (np.ones((64, 64), dtype=complex), "^projection must hold real numbers"),
        ([["a"] * 64] * 64, "^projection: not one array"),
    ], ids=["columns", "flat", "nan", "inf", "complex", "text"])
    def test_bad_matrix_refused(self, projection, message):
        with pytest.raises(InvalidInputError, match=message):
            EncoderConfig(projection=projection)


class TestSettingBounds:
    """The encoder's seed is >= 0 and its fields are stored as Python ints; the
    library refuses a patch over the pixel budget before cutting it."""

    @pytest.mark.parametrize("value", [-1, np.int64(-1)], ids=["int", "numpy"])
    def test_negative_projection_seed(self, value):
        with pytest.raises(UsageError, match="^projection_seed must be >= 0, got -1$"):
            EncoderConfig(projection_seed=value)

    def test_out_dim_below_one_named(self):
        with pytest.raises(UsageError, match="^out_dim must be >= 1, got 0$"):
            EncoderConfig(out_dim=0)

    def test_numpy_integers_stored_as_ints(self):
        config = EncoderConfig(out_dim=np.int64(7), projection_seed=np.uint32(3))
        assert type(config.out_dim) is int and type(config.projection_seed) is int
        assert config == EncoderConfig(out_dim=7, projection_seed=3)

    @pytest.mark.parametrize("h, w", [(2 ** 20, 2 ** 20), (np.int64(2 ** 32), np.int64(2 ** 32)),
                                      (1, 10 ** 30)],
                             ids=["huge", "numpy_wrap", "one_side"])
    def test_huge_patch_refused(self, h, w):
        image, landmarks = np.zeros((8, 8)), np.array([[2.0, 3.0]])
        budget = features_module.MAX_PATCH_PIXELS
        with pytest.raises(UsageError, match=f"above the budget of {budget}$"):
            features_for_sample(image, landmarks, h, w, EncoderConfig())
        with pytest.raises(UsageError, match=f"above the budget of {budget}$"):
            extract_patch(image, (2.0, 3.0), h, w)

    def test_patch_at_the_budget_accepted(self):
        side = math.isqrt(features_module.MAX_PATCH_PIXELS)
        patch = extract_patch(np.zeros((8, 8)), (2.0, 3.0), side, side)
        assert patch.shape == (side, side)
        with pytest.raises(UsageError, match="above the budget"):
            extract_patch(np.zeros((8, 8)), (2.0, 3.0), side + 1, side)

    @pytest.mark.parametrize("h", [math.nan, 2.5, np.float64(3.0)],
                             ids=["nan", "fraction", "numpy_float"])
    def test_patch_size_that_is_not_an_int_refused(self, h):
        with pytest.raises(UsageError, match="patch"):
            extract_patch(np.zeros((8, 8)), (2.0, 3.0), h, 3)

    @pytest.mark.parametrize("h", ["3", None], ids=["text", "none"])
    def test_patch_size_that_is_not_a_number_refused(self, h):
        with pytest.raises(UsageError, match="^patch sides must be ints"):
            extract_patch(np.zeros((8, 8)), (2.0, 3.0), h, 3)
        with pytest.raises(UsageError, match="^patch sides must be ints"):
            features_for_sample(np.zeros((8, 8)), np.array([[2.0, 3.0]]), 3, h,
                                EncoderConfig())
