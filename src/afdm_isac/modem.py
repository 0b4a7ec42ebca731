"""Constellation mapping and superimposed frame assembly.

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

from .errors import ParameterError

__all__ = [
    "Constellation",
    "FrameSpec",
    "Frame",
    "map_bits",
    "demap_symbols",
    "assemble_frame",
    "random_data_vector",
]

_GRAY_AXIS = {(0, 0): -3.0, (0, 1): -1.0, (1, 1): 1.0, (1, 0): 3.0}


class Constellation(Enum):
    QPSK = "qpsk"
    QAM16 = "qam16"

    @property
    def bits_per_symbol(self) -> int:
        return 2 if self is Constellation.QPSK else 4

    @property
    def points(self) -> np.ndarray:
        """Unit-average-energy constellation points, indexed by symbol value."""
        if self is Constellation.QPSK:
            b = np.array([(i >> 1, i & 1) for i in range(4)])
            return ((1 - 2 * b[:, 0]) + 1j * (1 - 2 * b[:, 1])) / math.sqrt(2)
        b = np.array([(i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(16)])
        i_axis = np.array([_GRAY_AXIS[(r[0], r[1])] for r in b])
        q_axis = np.array([_GRAY_AXIS[(r[2], r[3])] for r in b])
        return (i_axis + 1j * q_axis) / math.sqrt(10)

    @property
    def fourth_moment(self) -> float:
        """E|u|^4 of the unit-energy constellation (1.0 for QPSK, 1.32 for 16-QAM)."""
        return float(np.mean(np.abs(self.points) ** 4))

    @property
    def squared_symbol_mean(self) -> complex:
        """E{u^2}; zero for the symmetric constellations built here."""
        return complex(np.mean(self.points**2))


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
        if not (0 <= self.pilot_power < math.inf and 0 <= self.data_symbol_power < math.inf):
            raise ParameterError("powers must be finite and non-negative")

    def total_power(self, n_sub: int) -> float:
        """P_t = sigma_p^2 + Nc * sigma_d^2."""
        return self.pilot_power + n_sub * self.data_symbol_power

    @property
    def sigma_d(self) -> float:
        return math.sqrt(self.data_symbol_power)


@dataclass(frozen=True)
class Frame:
    """DAFT-domain frame: superposition of a pilot and a data vector."""

    x_pilot: np.ndarray
    x_data: np.ndarray
    spec: FrameSpec

    @property
    def x(self) -> np.ndarray:
        return self.x_pilot + self.x_data

    @property
    def expected_total_power(self) -> float:
        return self.spec.total_power(self.x_pilot.shape[0])


def map_bits(bits, spec: FrameSpec) -> np.ndarray:
    """Map a bit stream to sigma_d-scaled Gray-coded symbols."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    k = spec.constellation.bits_per_symbol
    if bits.size % k != 0:
        raise ParameterError(
            f"bit count {bits.size} is not a multiple of {k} bits per symbol"
        )
    if np.any((bits != 0) & (bits != 1)):
        raise ParameterError("bits must be 0/1")
    idx = bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))
    return spec.constellation.points[idx] * spec.sigma_d


def demap_symbols(y_eq, spec: FrameSpec) -> np.ndarray:
    """Hard minimum-distance demapping back to bits; inverse of map_bits on clean input."""
    y_eq = np.asarray(y_eq, dtype=np.complex128).ravel()
    k = spec.constellation.bits_per_symbol
    pts = spec.constellation.points * (spec.sigma_d if spec.sigma_d > 0 else 1.0)
    idx = np.argmin(np.abs(y_eq[:, None] - pts[None, :]), axis=1)
    shifts = np.arange(k - 1, -1, -1)
    return ((idx[:, None] >> shifts) & 1).astype(np.int64).ravel()


def random_data_vector(n_sub: int, spec: FrameSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw one frame worth of random bits and map them; returns (bits, x_data)."""
    bits = rng.integers(0, 2, n_sub * spec.constellation.bits_per_symbol)
    return bits, map_bits(bits, spec)


def assemble_frame(x_p, x_d, spec: FrameSpec) -> Frame:
    """Superimpose pilot and data vectors into a frame."""
    x_p = np.asarray(x_p, dtype=np.complex128)
    x_d = np.asarray(x_d, dtype=np.complex128)
    if x_p.shape != x_d.shape or x_p.ndim != 1:
        raise ParameterError(
            f"pilot and data must be equal-length vectors, got {x_p.shape} vs {x_d.shape}"
        )
    return Frame(x_pilot=x_p, x_data=x_d, spec=spec)
