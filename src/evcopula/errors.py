"""Exception types shared across the package, and the checks of outside input that raise them.

Scalars, arrays (t, u, v, samples, knots), split points, file paths and
streams are each checked here, once.
"""

import io
import numbers
import os

import numpy as np


class EvCopulaError(Exception):
    """Base class for all errors raised by this package."""


class ParamOutOfRangeError(EvCopulaError, ValueError):
    """A family or bound parameter lies outside its admissible range."""


def check_real(x, name: str, lo: float, hi: float) -> float:
    """``x`` as a float if it is a real number (Python or numpy, not a bool) in [lo, hi].

    NaN, strings, None and +-inf (unless that bound is infinite) raise ParamOutOfRangeError.
    """
    if type(x) is float:  # the common case, before the slower ABC check
        if lo <= x <= hi:
            return x
    elif not isinstance(x, bool) and isinstance(x, numbers.Real) and lo <= x <= hi:
        return float(x)
    raise ParamOutOfRangeError(f"{name}={x!r} must be a real number in [{lo:g}, {hi:g}]")


def check_int(x, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``x`` as an int if it is an int or numpy integer (not a bool or float) in [lo, hi]."""
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Integral)):
        raise ParamOutOfRangeError(f"{name} must be an integer, got {x!r}")
    if lo is not None and x < lo:
        raise ParamOutOfRangeError(f"{name} must be >= {lo}, got {x}")
    if hi is not None and x > hi:
        raise ParamOutOfRangeError(f"{name} must be <= {hi}, got {x}")
    return int(x)


def check_type(x, cls: type, name: str):
    """``x`` itself if it is an instance of ``cls``, else ParamOutOfRangeError."""
    if not isinstance(x, cls):
        raise ParamOutOfRangeError(
            f"{name} must be an instance of {cls.__name__}, got {type(x).__name__}"
        )
    return x


def check_path(path, name: str):
    """``path`` itself if it is a file name: a str or an ``os.PathLike``.

    Anything else raises ParamOutOfRangeError before a file is opened; an
    int would be read as an open file descriptor, and closed after use.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ParamOutOfRangeError(f"{name} must be a file path, got {type(path).__name__}")
    return path


def check_stream(stream, method: str):
    """``stream`` itself if it is a text stream, not a binary one, with a callable ``method``."""
    binary = isinstance(stream, (io.RawIOBase, io.BufferedIOBase))
    if binary or not callable(getattr(stream, method, None)):
        raise ParamOutOfRangeError(
            f"stream must be a text stream with {method}(), got {type(stream).__name__}"
        )
    return stream


def check_reals(x, name: str) -> np.ndarray:
    """``x`` as a float array if numpy reads it as real numbers, of any shape.

    Python and numpy numbers, 0-d arrays and (nested) lists of them pass;
    bools, strings, complex numbers, objects such as ``None`` or
    ``Fraction``, and ragged rows raise ParamOutOfRangeError.  A float
    array is returned as it is, not copied.
    """
    try:
        arr = np.asarray(x)
    except ValueError:  # a ragged nested sequence
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ParamOutOfRangeError(f"{name} must be real numbers, got {type(x).__name__}")
    return arr.astype(float, copy=False)


def check_unit_interval(x, name: str) -> np.ndarray:
    """``x`` as a float array if it holds real numbers (:func:`check_reals`) in [0, 1], NaN excluded."""
    arr = check_reals(x, name)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # also rejects NaN
        raise ParamOutOfRangeError(f"{name} must lie in [0, 1]")
    return arr


def check_pair(u, v) -> tuple:
    """u and v as float arrays (:func:`check_reals`) whose shapes broadcast together.

    NaN and shapes that do not broadcast raise ParamOutOfRangeError.
    """
    u, v = check_reals(u, "u"), check_reals(v, "v")
    if np.isnan(u).any() or np.isnan(v).any():
        raise ParamOutOfRangeError("u and v must be numbers, got NaN")
    try:
        np.broadcast_shapes(u.shape, v.shape)
    except ValueError:
        raise ParamOutOfRangeError(f"u {u.shape} and v {v.shape} do not broadcast") from None
    return u, v


def check_split_points(points) -> np.ndarray:
    """``[0, *points, 1]`` as a float array if ``points`` are real numbers increasing in (0, 1).

    numpy must read the points as one float array, so strings, NaN, ragged
    rows and objects such as ``Fraction`` raise ParamOutOfRangeError.
    """
    try:
        edges = np.array([0.0, *points, 1.0])
    except (TypeError, ValueError):  # not iterable, or ragged: fails the ndim test
        edges = np.empty((0, 0))
    if edges.dtype.kind != "f" or edges.ndim != 1 or not (edges[:-1] < edges[1:]).all():
        raise ParamOutOfRangeError(
            f"split points must be real numbers increasing strictly inside (0, 1), got {points!r}"
        )
    return edges.astype(float, copy=False)


class NonConvergentError(EvCopulaError, ArithmeticError):
    """Adaptive quadrature hit its depth or panel limit before reaching tolerance."""


class NonFiniteError(EvCopulaError, ArithmeticError):
    """An integrand returned a non-finite value at an evaluation node."""


class InvalidDependenceFunctionError(EvCopulaError, ValueError):
    """Candidate dependence function failed validation."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateSampleError(EvCopulaError, ValueError):
    """Sample is too small or constant in one coordinate."""
