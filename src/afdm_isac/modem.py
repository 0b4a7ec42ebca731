"""Constellation mapping and superimposed-frame power bookkeeping.

Gray mappings are fixed so that bit-error curves reproduce exactly under a
fixed seed:

* QPSK: bits (b0, b1) -> ((1-2*b0) + j*(1-2*b1))/sqrt(2), i.e. 00 -> (1+j)/sqrt(2).
* 16-QAM: bits (b0, b1, b2, b3) -> (I + jQ)/sqrt(10) with per-axis Gray code
  00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3 applied to (b0, b1) for I and
  (b2, b3) for Q.

Both constellations have unit average symbol energy; data symbols are scaled
by sigma_d so that each subcarrier carries sigma_d^2 on average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, check_count, check_nonnegative, check_stack

__all__ = [
    "Constellation",
    "FrameSpec",
    "map_bits",
    "demap_symbols",
    "random_data_vector",
]

class Constellation(Enum):
    QPSK = "qpsk"
    QAM16 = "qam16"

    @property
    def bits_per_symbol(self) -> int:
        return 2 if self is Constellation.QPSK else 4

    @property
    def points(self) -> np.ndarray:
        """Unit-average-energy constellation points, indexed by symbol value, read-only."""
        return _POINTS[self]

    @property
    def fourth_moment(self) -> float:
        """E|u|^4 of the unit-energy constellation (1.0 for QPSK, 1.32 for 16-QAM)."""
        return float(np.mean(np.abs(self.points) ** 4))

    @property
    def squared_symbol_mean(self) -> complex:
        """E{u^2}; zero for the symmetric constellations built here."""
        return complex(np.mean(self.points**2))


# built once, indexed by symbol value; a 16-QAM axis Gray-codes 00, 01, 10, 11 as -3, -1, 3, 1
_SYMBOLS = np.arange(16)
_GRAY_AXIS = np.array([-3.0, -1.0, 3.0, 1.0])
_POINTS = {
    Constellation.QPSK: ((1 - 2 * (_SYMBOLS[:4] >> 1)) + 1j * (1 - 2 * (_SYMBOLS[:4] & 1))) / math.sqrt(2),
    Constellation.QAM16: (_GRAY_AXIS[_SYMBOLS >> 2] + 1j * _GRAY_AXIS[_SYMBOLS & 3]) / math.sqrt(10),
}
for _table in _POINTS.values():
    _table.flags.writeable = False


@dataclass(frozen=True)
class FrameSpec:
    """Power bookkeeping for a superimposed frame.

    pilot_power is the total pilot energy sigma_p^2; data_symbol_power is the
    per-subcarrier data power sigma_d^2.
    """

    pilot_power: float
    data_symbol_power: float
    constellation: Constellation = Constellation.QPSK

    def __post_init__(self):
        check_nonnegative(self.pilot_power, "pilot_power")
        check_nonnegative(self.data_symbol_power, "data_symbol_power")
        if not isinstance(self.constellation, Constellation):
            raise ParameterError(f"constellation must be a Constellation, got {self.constellation!r}")

    def total_power(self, n_sub: int) -> float:
        """P_t = sigma_p^2 + Nc * sigma_d^2."""
        return self.pilot_power + n_sub * self.data_symbol_power

    @property
    def sigma_d(self) -> float:
        return math.sqrt(self.data_symbol_power)


def map_bits(bits, spec: FrameSpec) -> np.ndarray:
    """Map a bit stream of 0/1 numbers to sigma_d-scaled Gray-coded symbols."""
    bits = np.asarray(bits).ravel()
    k = spec.constellation.bits_per_symbol
    if bits.size % k != 0:
        raise ParameterError(
            f"bit count {bits.size} is not a multiple of {k} bits per symbol"
        )
    if bits.dtype.kind not in "biuf" or np.any((bits != 0) & (bits != 1)):
        raise ParameterError("bits must be 0/1")
    idx = bits.astype(np.int64, copy=False).reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))
    return spec.constellation.points[idx] * spec.sigma_d


def demap_symbols(y_eq, spec: FrameSpec) -> np.ndarray:
    """Hard minimum-distance demapping of the flattened ``y_eq``; inverse of map_bits on clean input."""
    y_eq = check_stack(y_eq, None, "equalized symbols").ravel()
    k = spec.constellation.bits_per_symbol
    pts = spec.constellation.points * (spec.sigma_d if spec.sigma_d > 0 else 1.0)
    idx = np.argmin(np.abs(y_eq[:, None] - pts[None, :]), axis=1)
    shifts = np.arange(k - 1, -1, -1)
    return ((idx[:, None] >> shifts) & 1).astype(np.int64).ravel()


def random_data_vector(n_sub: int, spec: FrameSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw one frame worth of random bits and map them; returns (bits, x_data)."""
    check_count(n_sub, "n_sub")
    bits = rng.integers(0, 2, n_sub * spec.constellation.bits_per_symbol)
    return bits, map_bits(bits, spec)

