"""Exception types shared across the package, and the checks that raise them.

The public functions that take arrays (graph building, patch encoding, the
GCN passes, the metrics and the graph and feature writers) take them through
:func:`_as_array`, which converts them as ``np.asarray`` does and checks
their shape, so a malformed array argument (a ragged nested list, strings or
objects where numbers belong, an int beyond the float range, a complex array
where a real one belongs, or the wrong shape) is an :class:`InvalidInputError`
whose message starts with the argument's name, never a bare numpy error or
warning.
"""

import math
from numbers import Integral as _Integral, Real as _Real

import numpy as np


class InvalidInputError(ValueError):
    """An operation received arguments outside its documented domain."""


class UsageError(InvalidInputError):
    """A setting lies outside its documented range; the CLI exits 1 on it."""


class DatasetError(ValueError):
    """Base class for dataset loading and validation failures."""


class ManifestParseError(DatasetError):
    """The dataset manifest could not be parsed or is structurally wrong."""


class MissingFileError(DatasetError):
    """A file referenced by the manifest does not exist."""


class DimensionMismatchError(DatasetError):
    """A sample's landmarks or features disagree with the declared shape."""


class CheckpointError(ValueError):
    """A model checkpoint is malformed or has an unsupported version."""


class CacheMismatchError(RuntimeError):
    """A backward pass was given a cache built against different parameters."""


class NumericError(ArithmeticError):
    """Training produced non-finite values."""


def _is_int(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool is neither."""
    return isinstance(value, _Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is an int, a float or a numpy number; a bool is none."""
    return isinstance(value, _Real) and not isinstance(value, bool)


def _show(value) -> str:
    """``repr(value)``, but an int with more digits than ``str`` converts
    (``sys.get_int_max_str_digits()``) as "an int of N digits"."""
    try:
        return repr(value)
    except ValueError:
        if not _is_int(value):
            raise
    magnitude = abs(int(value))
    digits = max(0, int((magnitude.bit_length() - 1) * math.log10(2)) - 1)  # a lower bound
    while magnitude >= 10 ** digits:
        digits += 1
    return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


def _as_real(name: str, value) -> float:
    """``value`` as a float, or UsageError naming it unless it is a real number.
    An int beyond the float range becomes the infinity of its sign, as it
    compares; NaN and the infinities pass: each caller states the range it takes."""
    if not _is_real(value):
        raise UsageError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _fits(got: tuple, shape: tuple) -> bool:
    """Whether the shape ``got`` matches the pattern ``shape``, in which None
    matches any size. A plain loop: half the cost of ``all()`` over a generator."""
    if len(got) != len(shape):
        return False
    for size, n in zip(shape, got):
        if size is not None and size != n:
            return False
    return True


def _as_array(name: str, value, dtype=None, shape=None) -> np.ndarray:
    """``np.asarray(value, dtype)``, bit for bit, of a shape that matches the
    pattern ``shape``, in which None matches any size; else InvalidInputError
    naming ``name``. A complex ``value`` is refused where ``dtype`` is given,
    since the cast would drop its imaginary part. A real ``np.ndarray`` that
    already has the dtype and fits the pattern is returned as is, which is
    what the conversion returns for it, without the conversion's cost."""
    if type(value) is np.ndarray and (shape is None or _fits(value.shape, shape)) and (
            dtype is None or (value.dtype == dtype and value.dtype.kind != "c")):
        return value
    try:
        array = np.asarray(value)
        if dtype is not None and array.dtype.kind != "c":
            array = array.astype(dtype, copy=False)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InvalidInputError(f"{name}: not one array ({exc})") from None
    if dtype is not None and array.dtype.kind == "c":
        raise InvalidInputError(f"{name} must hold real numbers, got dtype {array.dtype}")
    if shape is not None and not _fits(array.shape, shape):
        sizes = ", ".join("NMK"[axis] if size is None else str(size)
                          for axis, size in enumerate(shape))
        raise InvalidInputError(f"{name} must be {len(shape)}-D of shape ({sizes}), "
                                f"got shape {array.shape}")
    return array


def _check_reals(config, *names: str) -> None:
    """Store each named field of ``config`` as a float, or raise UsageError."""
    for name in names:
        object.__setattr__(config, name, _as_real(name, getattr(config, name)))


def _check_ints(config, low: int, *names: str) -> None:
    """Store each named field of ``config`` as an int >= ``low``, or raise UsageError."""
    for name in names:
        value = getattr(config, name)
        if not _is_int(value):
            raise UsageError(f"{name} must be an int, got {value!r}")
        if value < low:
            raise UsageError(f"{name} must be >= {low}, got {_show(int(value))}")
        object.__setattr__(config, name, int(value))  # frozen dataclasses too
