"""Exception types shared across the package, and the argument checks that raise them.

``check_vector`` (a complex (n,) vector) and ``check_stack`` (a (..., n) stack)
raise ``ConfigurationError``, also for non-numbers; ``check_finite`` (the
entries of a checked array), ``check_type``, ``check_pair``, ``check_number``,
``check_reals``, ``check_nonnegative``, ``check_positive``, ``check_count``,
``check_cells`` and ``check_integers`` raise ``ParameterError``.
"""

import cmath
import math
import numbers

import numpy as np


class AfdmError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AfdmError):
    """Invalid or inconsistent configuration (sizes, rates, prefixes)."""


class ParameterError(AfdmError):
    """A parameter violates an operation's contract."""


class NumericalError(AfdmError):
    """A numerical step failed (singular or badly conditioned system)."""


def is_integer(value) -> bool:
    """Whether ``value`` is an integer (numpy integers too, bools and whole floats not)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real number (numpy reals and integers too, bools not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_vector(x, n: int | None, what: str) -> np.ndarray:
    """``x`` as a complex128 array of shape (n,), any length if ``n`` is None; else ``ConfigurationError``."""
    x = np.asarray(x)
    if x.dtype.kind not in "biufc" or x.ndim != 1 or n not in (None, x.shape[0]):
        size = "n" if n is None else n
        raise ConfigurationError(f"{what} must be numbers of shape ({size},), got {x.dtype} {x.shape}")
    return x.astype(np.complex128, copy=False)


def check_stack(x, n: int | None, what: str) -> np.ndarray:
    """``x`` as a complex128 array of shape (..., n), any n if ``n`` is None; else ``ConfigurationError``."""
    x = np.asarray(x)
    if x.dtype.kind not in "biufc" or x.ndim == 0 or n not in (None, x.shape[-1]):
        size = "n" if n is None else n
        raise ConfigurationError(f"{what} must be numbers of shape (..., {size}), got {x.dtype} {x.shape}")
    return x.astype(np.complex128, copy=False)


def check_finite(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` itself, a numeric array; ``ParameterError`` unless every entry is finite."""
    if not np.isfinite(x).all():
        raise ParameterError(f"{what} must be finite")
    return x


def check_type(value, kind: type, what: str) -> None:
    """``ParameterError`` unless ``value`` is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise ParameterError(f"{what} must be of type {kind.__name__}, got {value!r}")


def check_pair(value, what: str) -> tuple:
    """The two items of ``value``, a (delay, Doppler) pair of axes; ``ParameterError`` unless it has two."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise ParameterError(f"{what} must be a (delay, Doppler) pair of axes, got {value!r}") from None
    return first, second


def check_number(value, what: str) -> None:
    """``ParameterError`` unless ``value`` is a finite number, real or complex, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Complex) and cmath.isfinite(value)):
        raise ParameterError(f"{what} must be a finite number, got {value!r}")


def check_reals(values, what: str) -> np.ndarray:
    """``values`` as a float64 array of any shape; ``ParameterError`` unless finite real numbers.

    Bools read as 0 and 1, as in every array check; complex numbers, strings
    and objects are refused.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf" or not np.all(np.isfinite(arr)):
        raise ParameterError(f"{what} must be finite real numbers, got {values!r}")
    return arr.astype(np.float64, copy=False)


def check_nonnegative(value, what: str) -> None:
    """``ParameterError`` unless ``value`` is a real number, not a bool, finite and >= 0."""
    if not (is_real(value) and 0 <= value < math.inf):
        raise ParameterError(f"{what} must be finite and non-negative, got {value!r}")


def check_positive(value, what: str) -> None:
    """``ParameterError`` unless ``value`` is a real number, not a bool, finite and > 0."""
    if not (is_real(value) and 0 < value < math.inf):
        raise ParameterError(f"{what} must be positive and finite, got {value!r}")


def check_count(value, what: str, least: int = 1) -> None:
    """``ParameterError`` unless ``value`` is an integer (``is_integer``) >= ``least``."""
    if not is_integer(value) or value < least:
        raise ParameterError(f"{what} must be an integer >= {least}, got {value!r}")


_INT64 = np.iinfo(np.int64)


def check_cells(cells: int, what: str, itemsize: int = 8) -> int:
    """``cells``, an integer budget's entry count formed in Python integers;
    ``ParameterError`` unless an array of that many ``itemsize``-byte entries
    fits numpy's limit of 2^63 - 1 bytes, so it is refused before any array is built."""
    if cells * itemsize > _INT64.max:
        raise ParameterError(f"{what} of {cells} entries of {itemsize} bytes passes numpy's array limit")
    return cells


def check_integers(values, what: str) -> np.ndarray:
    """``values`` as a fresh 1-D int64 array; ``ParameterError`` unless each is a real whole |x| < 2^63.

    Integer arrays are decided in integers, so every int64 but -2^63 and
    every uint64 below 2^63 passes; floats must be whole and below 2^63 in
    magnitude.
    """
    arr = np.asarray(values)
    kind = arr.dtype.kind  # no bools, complex numbers, strings or objects
    if kind == "i":
        fits = arr.dtype.itemsize < 8 or arr.min(initial=0) > _INT64.min
    elif kind == "u":
        fits = arr.dtype.itemsize < 8 or arr.max(initial=0) <= _INT64.max
    elif kind == "f":
        fits = bool(np.all(np.abs(arr) < 2.0**63) and np.all(arr == np.round(arr)))
    else:
        fits = False
    if not fits or arr.ndim != 1:
        raise ParameterError(f"{what} must be a 1-D array of int64 integers, got {values!r}")
    return arr.astype(np.int64)
