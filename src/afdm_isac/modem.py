"""Constellation mapping and superimposed-frame power bookkeeping.

Gray mappings are fixed so that bit-error curves reproduce exactly under a
fixed seed:

* QPSK: bits (b0, b1) -> ((1-2*b0) + j*(1-2*b1))/sqrt(2), i.e. 00 -> (1+j)/sqrt(2).
* 16-QAM: bits (b0, b1, b2, b3) -> (I + jQ)/sqrt(10) with per-axis Gray code
  00 -> -3, 01 -> -1, 11 -> +1, 10 -> +3 applied to (b0, b1) for I and
  (b2, b3) for Q.

Both constellations have unit average symbol energy; data symbols are scaled
by sigma_d so that each subcarrier carries sigma_d^2 on average.  The link's
modem steps are ``random_data_vector`` (random bits to symbols) and
``estimator.equalize_demod`` (symbols to bits, through ``_demap``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, check_count, check_nonnegative, check_type

__all__ = [
    "Constellation",
    "FrameSpec",
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


# built once, indexed by symbol value; a 16-QAM axis Gray-codes 00, 01, 10, 11 as -3, -1, 3, 1
_SYMBOLS = np.arange(16)
_GRAY_AXIS = np.array([-3.0, -1.0, 3.0, 1.0])
_POINTS = {
    Constellation.QPSK: ((1 - 2 * (_SYMBOLS[:4] >> 1)) + 1j * (1 - 2 * (_SYMBOLS[:4] & 1))) / math.sqrt(2),
    Constellation.QAM16: (_GRAY_AXIS[_SYMBOLS >> 2] + 1j * _GRAY_AXIS[_SYMBOLS & 3]) / math.sqrt(10),
}
for _table in _POINTS.values():
    _table.flags.writeable = False


def _axis(constellation: Constellation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decision rule of either axis of a constellation, built once: its unit levels in
    ascending order, whether a value on the midpoint of each adjacent pair goes to the
    upper level (the one of lower axis value), and the Gray bits of each level."""
    half = constellation.bits_per_symbol // 2
    levels = _POINTS[constellation][np.arange(1 << half) << half].real  # indexed by axis value
    values = np.argsort(levels)
    gray = (values[:, None] >> np.arange(half - 1, -1, -1)) & 1
    return levels[values], values[1:] < values[:-1], gray


# a symbol's bits are its I level's Gray bits, then its Q level's
_AXES = {constellation: _axis(constellation) for constellation in Constellation}


def _axis_level(v: np.ndarray, levels: np.ndarray, upward: np.ndarray) -> np.ndarray:
    """Index into ascending ``levels`` of the level nearest each of ``v``."""
    level = np.zeros(v.shape, dtype=np.intp)
    for lo, hi, up in zip(levels[:-1], levels[1:], upward):
        mid = (lo + hi) / 2
        level += (v >= mid) if up else (v > mid)
    return level


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


def _map(bits: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """The sigma_d-scaled Gray-coded symbols of a flat array of 0/1 numbers, a whole
    number of symbols, unchecked: each symbol takes its k bits high bit first."""
    k = spec.constellation.bits_per_symbol
    idx = bits.astype(np.int64, copy=False).reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))
    return spec.constellation.points[idx] * spec.sigma_d


def _demap(y_eq: np.ndarray, spec: FrameSpec) -> np.ndarray:
    """Hard minimum-distance bits of a flat complex128 array, unchecked: the equalizer's
    demapper, the inverse of ``_map`` on clean input.

    Both constellations are the product of two Gray-coded axes, so the
    nearest point is the nearest level on each axis: the sign for QPSK, the
    three midpoints between the 16-QAM levels.  A value on a midpoint goes
    to the level of lower axis value, so a point at equal distance from
    several symbols gets the lowest of their values, and a non-finite point
    (all distances equal) symbol 0, as the nearest point by complex
    distance does.
    """
    ascending, upward, gray = _AXES[spec.constellation]
    levels = ascending * (spec.sigma_d if spec.sigma_d > 0 else 1.0)
    bits = np.concatenate([gray[_axis_level(v, levels, upward)] for v in (y_eq.real, y_eq.imag)], axis=1)
    finite = np.isfinite(y_eq)
    if not finite.all():
        bits[~finite] = 0
    return bits.ravel()


class _PackedFrames:
    """Frames of ``n_sub`` sigma_d-scaled data symbols read from packed random bytes.

    With k bits per symbol (2 or 4; k must divide 8), byte b carries the 8/k
    symbols (b >> k*j) & (M - 1), j = 0, 1, ..., read through a (256, 8/k)
    table by one row gather into a buffer of ``rows`` frames, reused by
    every read.  A frame takes its symbols from the first ceil(n_sub*k/8)
    of its ``frame_bytes``, whole 32-bit words, so frames drawn together or
    apart read the same generator stream (``rng.bytes`` reads little-endian
    words on every platform).
    """

    def __init__(self, spec: FrameSpec, n_sub: int, rows: int):
        # scaling the constellation before the gather gives the same products at
        # one multiply per point instead of one per frame sample
        symbols = spec.constellation.points * spec.sigma_d
        k = spec.constellation.bits_per_symbol
        per = 8 // k  # symbols per random byte, low bits first
        self.table = symbols[(np.arange(256)[:, None] >> (k * np.arange(per))) & (symbols.shape[0] - 1)]
        self.n_sub = n_sub
        self.width = -(-n_sub // per)
        self.frame_bytes = 4 * -(-self.width // 4)
        self.buffer = np.empty((rows, self.width, per), dtype=np.complex128)

    def draw(self, rng, count: int) -> np.ndarray:
        """The (count, frame_bytes) bytes of ``count`` frames, one ``rng.bytes`` call."""
        return np.frombuffer(rng.bytes(count * self.frame_bytes), np.uint8).reshape(count, -1)

    def read(self, raw: np.ndarray) -> np.ndarray:
        """The (rows, n_sub) frames of the byte rows ``raw``, a view into the buffer."""
        out = self.buffer[: raw.shape[0]]
        # the bytes index all 256 rows; mode "raise" would gather into a copy of out
        np.take(self.table, raw[:, : self.width], axis=0, out=out, mode="clip")
        return out.reshape(raw.shape[0], -1)[:, : self.n_sub]


def random_data_vector(n_sub: int, spec: FrameSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw one frame worth of random bits and map them; returns (bits, x_data).

    The bits are int64 0/1 numbers from the numpy ``Generator`` ``rng``.  An
    ``n_sub`` that is no integer >= 1, or whose bits would take 2^63 bytes or
    more, a ``spec`` that is no ``FrameSpec`` or an ``rng`` that is no
    ``Generator`` raises ``ParameterError``.
    """
    check_count(n_sub, "n_sub")
    check_type(spec, FrameSpec, "spec")
    check_type(rng, np.random.Generator, "rng")
    k = spec.constellation.bits_per_symbol
    count = operator.index(n_sub) * k
    if count >= 2**60:  # 8 bytes a bit
        raise ParameterError(f"n_sub must give fewer than 2^60 bits, got {n_sub} symbols of {k} bits")
    bits = rng.integers(0, 2, count)
    return bits, _map(bits, spec)

