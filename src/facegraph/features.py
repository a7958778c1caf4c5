"""Per-landmark appearance features.

Cuts fixed-size patches around landmark positions (edge replication at the
borders) and encodes each patch with a deterministic pooled-projection
encoder: average-pool to an 8x8 grid, scale to [0, 1], multiply by a seeded
random projection, or by the one :class:`EncoderConfig` is given.
Precomputed feature files can be used instead, see :mod:`facegraph.data`.

A sample's patches are encoded together, bit-for-bit equal to a reference
that clamps every pixel index, takes ``np.mean`` of each cell and ``P @ grid``
per patch (the tests rely on it). The image is edge-padded once, and all N
windows are taken with one index into its ``sliding_window_view``. Each
window is pooled by two products with 0/1 cell matrices, ``cells_h @ patch @
cells_w.T``, in float64; the counts are the matrices' row sums. Sums of whole
numbers below 2**53 are exact in any order, so for integer pixels
``sum / count / 255.0`` equals ``mean() / 255.0`` (fractional pixels agree
only to rounding). The projection is one gemv per contiguous grid, which
``np.matmul`` issues for a stack of column vectors: a batched ``pooled @ P.T``
GEMM differed on 129,528 of 156,672 entries of a 36-sample N=68 set, and a
strided grid also rounds differently.

Also provides binary PGM (P5, 8-bit) image reading and writing.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (DatasetError, InvalidInputError, UsageError, _as_array, _atomic_open,
                     _check_ints, _is_int, _show)

__all__ = [
    "EncoderConfig",
    "encode_patch_toy",
    "extract_patch",
    "features_for_sample",
    "read_pgm",
    "write_pgm",
]

POOL_GRID = 8

# The largest encoder output: its projection takes out_dim x 512 bytes, and a
# sample's features out_dim x 8 bytes per landmark.
MAX_ENCODER_DIM = 2 ** 12

# The largest patch area: encoding a sample peaks at about 10 bytes per patch
# pixel per landmark.
MAX_PATCH_PIXELS = 2 ** 14

# Skips whitespace and comments, then captures one PGM header token, which is
# empty at the end of the data.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


@dataclass(frozen=True)
class EncoderConfig:
    """Settings of the built-in pooled-projection patch encoder.

    The encoder multiplies each pooled 8x8 grid by an ``out_dim x 64``
    projection, drawn from ``projection_seed`` by default. ``projection``,
    when given, is that matrix itself, used in place of the draw: a finite
    ``out_dim x 64`` array of real numbers, kept as a read-only, C-contiguous
    float64 copy (an :class:`InvalidInputError` otherwise). The CLI passes
    the one a checkpoint stores, so inference need not draw it. It takes no
    part in comparison or repr; the seed still names the matrix it came from.
    """

    out_dim: int = 64
    projection_seed: int = 1000
    projection: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _check_ints(self, 1, "out_dim")
        _check_ints(self, 0, "projection_seed")
        if self.out_dim > MAX_ENCODER_DIM:
            raise UsageError(f"encoder output dimension {_show(self.out_dim)}, above the "
                             f"budget of {MAX_ENCODER_DIM}")
        if self.projection is not None:
            matrix = _as_array("projection", self.projection, np.float64,
                               (self.out_dim, POOL_GRID * POOL_GRID))
            if not np.isfinite(matrix).all():
                raise InvalidInputError("projection must be finite")
            # a copy, C-contiguous as the drawn matrix is, so each gemv rounds as with it
            matrix = np.array(matrix, order="C")
            matrix.setflags(write=False)
            object.__setattr__(self, "projection", matrix)


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM file into an H x W uint8 array."""
    with open(path, "rb") as handle:
        data = handle.read()
    tokens, pos = [], 0
    for _ in range(4):  # magic, width, height, maxval
        match = _PGM_TOKEN.match(data, pos)
        pos = match.end()
        if not match[1]:
            raise DatasetError(f"{path}: truncated PGM header")
        if not tokens and match[1] != b"P5":
            raise DatasetError(f"{path}: not a binary PGM (P5) file")
        tokens.append(match[1])
    try:
        width, height, maxval = map(int, tokens[1:])
    except ValueError as exc:
        raise DatasetError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1:
        raise DatasetError(f"{path}: invalid PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise DatasetError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pos += 1  # single whitespace byte after the header
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise DatasetError(f"{path}: PGM raster shorter than {width}x{height}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, image: np.ndarray) -> None:
    """Write an H x W array of whole numbers in [0, 255] as a binary (P5) PGM
    file; any other pixel, or an empty image, is an :class:`InvalidInputError`."""
    pixels = _pgm_pixels(image)
    with _atomic_open(path, "wb") as handle:
        handle.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
        handle.write(pixels.tobytes())


def _pgm_pixels(image) -> np.ndarray:
    """The uint8 raster :func:`write_pgm` writes for ``image``."""
    pixels = _pixels(image)
    if not ((pixels >= 0) & (pixels <= 255) & (pixels % 1 == 0)).all():
        raise InvalidInputError("PGM pixels must be whole numbers in [0, 255]")
    return pixels.astype(np.uint8)


def _pixels(image) -> np.ndarray:
    """Check that an image or patch is a non-empty 2-D grid of finite bool,
    int, uint or float pixels."""
    img = _as_array("image", image, shape=(None, None))
    if img.size == 0:
        raise InvalidInputError(f"image must have pixels, got shape {img.shape}")
    if img.dtype.kind not in "biuf":
        raise InvalidInputError("image pixels must be bool, int, uint or float, "
                                f"got dtype {img.dtype}")
    if img.dtype.kind == "f" and not np.isfinite(img).all():
        raise InvalidInputError("image pixels must be finite")
    return img


def _check_patch(h, w) -> tuple[int, int]:
    """``(h, w)`` as ints; refuses sides that are not positive ints and areas
    over MAX_PATCH_PIXELS."""
    if not (_is_int(h) and _is_int(w)):
        raise UsageError(f"patch sides must be ints, got {_show(h)}x{_show(w)}")
    h, w = int(h), int(w)
    if h < 1 or w < 1:
        raise UsageError(f"patch size must be positive, got {_show(h)}x{_show(w)}")
    if h * w > MAX_PATCH_PIXELS:
        raise UsageError(f"patch {_show(h)}x{_show(w)} of {_show(h * w)} pixels, "
                         f"above the budget of {MAX_PATCH_PIXELS}")
    return h, w


def _cut_windows(image, centers: np.ndarray, h: int, w: int) -> np.ndarray:
    """Cut one h x w window per (x, y) center into an N x h x w stack."""
    img = _pixels(image)
    h, w = _check_patch(h, w)
    if not np.all(np.isfinite(centers)):
        raise InvalidInputError("patch center must be finite")
    height, width = img.shape
    # A window that starts a whole patch or more beyond a border reads only
    # that border's pixels, so clipping the centers to where the window starts
    # at most one patch out changes no window and keeps huge coordinates from
    # overflowing int64. Edge padding by one patch then reads what clamping
    # each pixel index to the image would.
    cx = np.rint(np.clip(centers[:, 0], w // 2 - w, width + w // 2)).astype(np.int64)
    cy = np.rint(np.clip(centers[:, 1], h // 2 - h, height + h // 2)).astype(np.int64)
    # edge padding as np.pad(img, ((h, h), (w, w)), mode="edge") makes it,
    # without np.pad's generic path: the image, its edge columns, then the
    # top and bottom rows, corners included, copied from the padded edge rows
    padded = np.empty((height + 2 * h, width + 2 * w), img.dtype)
    rows = slice(h, h + height)
    padded[rows, w:w + width] = img
    padded[rows, :w] = img[:, :1]
    padded[rows, w + width:] = img[:, -1:]
    padded[:h] = padded[h]
    padded[h + height:] = padded[h + height - 1]
    windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w))
    return windows[cy - h // 2 + h, cx - w // 2 + w]


def extract_patch(image: np.ndarray, center, h: int, w: int) -> np.ndarray:
    """Cut an h x w window around a landmark, replicating edge pixels.

    The top-left corner is (round(cx) - w // 2, round(cy) - h // 2); pixels
    falling outside the image are clamped to the nearest valid pixel, so the
    output shape is always exactly h x w.
    """
    return _cut_windows(image, _as_array("center", center, float, (2,))[None], h, w)[0]


@functools.lru_cache(maxsize=4)  # a command encodes with one (seed, dim)
def _projection_matrix(seed: int, out_dim: int) -> np.ndarray:
    # Generated once per (seed, dim) and treated as read-only afterwards.
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((out_dim, POOL_GRID * POOL_GRID)) / POOL_GRID
    matrix.setflags(write=False)
    return matrix


@functools.lru_cache(maxsize=4)  # a sweep point cuts patches of one or two sides
def _pool_cells(size: int) -> np.ndarray:
    """8 x size 0/1 matrix: row i marks cell i's pixels, [r0, max(r0 + 1, r1))."""
    starts = np.arange(POOL_GRID) * size // POOL_GRID
    stops = np.maximum(starts + 1, np.arange(1, POOL_GRID + 1) * size // POOL_GRID)
    index = np.arange(size)
    cells = ((index >= starts[:, None]) & (index < stops[:, None])).astype(np.float64)
    cells.setflags(write=False)
    return cells


def _encode(patches: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Pool each patch of an N x h x w stack to the 8x8 grid and project it."""
    n, h, w = patches.shape
    cells_h, cells_w = _pool_cells(h), _pool_cells(w)
    sums = cells_h @ patches.astype(np.float64) @ cells_w.T
    counts = np.outer(cells_h.sum(axis=1), cells_w.sum(axis=1))
    # C order, so each grid below is a contiguous vector
    grids = (sums / counts / 255.0).reshape(n, POOL_GRID * POOL_GRID)
    matrix = config.projection
    if matrix is None:
        matrix = _projection_matrix(config.projection_seed, config.out_dim)
    # a stack of column vectors: matmul calls one gemv per grid
    return np.matmul(matrix, grids[:, :, None])[:, :, 0]


def encode_patch_toy(patch: np.ndarray, config: EncoderConfig) -> np.ndarray:
    """Deterministic patch embedding: pool to 8x8, flatten, project to out_dim."""
    return _encode(_pixels(patch)[None], config)[0]


def features_for_sample(image: np.ndarray, landmarks: np.ndarray, h: int, w: int,
                        config: EncoderConfig) -> np.ndarray:
    """Encode one patch per landmark; row i belongs to landmark i."""
    points = _as_array("landmarks", landmarks, float, (None, 2))
    return _encode(_cut_windows(image, points, h, w), config)
