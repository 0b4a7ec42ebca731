"""Exception types shared across the package, and the argument checks that raise them.

``check_vector`` (a complex (n,) vector) and ``check_stack`` (a (..., n) stack)
raise ``ConfigurationError``, also for non-numbers; ``check_nonnegative``,
``check_count`` and ``check_integers`` raise ``ParameterError``.
"""

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


def check_vector(x, n: int, what: str) -> np.ndarray:
    """``x`` as a complex128 array of shape (n,); ``ConfigurationError`` otherwise."""
    x = np.asarray(x)
    if x.dtype.kind not in "biufc" or x.shape != (n,):
        raise ConfigurationError(f"{what} must be numbers of shape ({n},), got {x.dtype} {x.shape}")
    return x.astype(np.complex128, copy=False)


def check_stack(x, n: int, what: str) -> np.ndarray:
    """``x`` as a complex128 array of shape (..., n); ``ConfigurationError`` otherwise."""
    x = np.asarray(x)
    if x.dtype.kind not in "biufc" or x.shape[-1:] != (n,):
        raise ConfigurationError(f"{what} must be numbers of shape (..., {n}), got {x.dtype} {x.shape}")
    return x.astype(np.complex128, copy=False)


def check_nonnegative(value, what: str) -> None:
    """``ParameterError`` unless ``value`` is a real number, not a bool, finite and >= 0."""
    if not (is_real(value) and 0 <= value < math.inf):
        raise ParameterError(f"{what} must be finite and non-negative, got {value!r}")


def check_count(value, what: str, least: int = 1) -> None:
    """``ParameterError`` unless ``value`` is an integer (``is_integer``) >= ``least``."""
    if not is_integer(value) or value < least:
        raise ParameterError(f"{what} must be an integer >= {least}, got {value!r}")


def check_integers(values, what: str) -> np.ndarray:
    """``values`` as a 1-D int64 array; ``ParameterError`` unless each is a real whole |x| < 2^63."""
    arr = np.asarray(values)
    real = arr.dtype.kind in "iuf"  # no bools, complex numbers, strings or objects
    arr = arr.astype(np.float64) if real else arr
    if not real or arr.ndim != 1 or not np.all(np.abs(arr) < 2.0**63) or np.any(arr != np.round(arr)):
        raise ParameterError(f"{what} must be a 1-D array of int64 integers, got {values!r}")
    return arr.astype(np.int64)
