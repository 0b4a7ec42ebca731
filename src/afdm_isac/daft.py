"""Discrete affine Fourier transform (DAFT) core.

AFDM multiplexes symbols on chirp subcarriers.  The synthesis (inverse
DAFT) of a DAFT-domain vector ``x`` is

    s[n] = (1/sqrt(Nc)) * sum_m x[m] * exp(+j*2*pi*(c1*n^2 + m*n/Nc + c2*m^2))

and the analysis (forward DAFT) is its exact adjoint, i.e. the same kernel
with exp(-j...).  Both are implemented as chirp-FFT-chirp at O(N log N).

Conventions used throughout the package:

* forward/analysis direction carries exp(-j...), synthesis exp(+j...);
* the 1/sqrt(Nc) factor sits on both directions (unitary pair);
* ``c2`` defaults to pi - 3; any real value is accepted;
* 2*c1*Nc must be an integer, which makes the chirp-periodic prefix a pure
  phase-rotated copy of the symbol tail.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ParameterError

__all__ = [
    "AfdmConfig",
    "idaft",
    "daft",
    "build_daft_matrix",
    "add_cpp",
    "remove_cpp",
    "waveform_samples",
    "chirp_rate_bounds",
]

DEFAULT_C2 = math.pi - 3.0

_DENSE_MATRIX_CAP = 4096


@dataclass(frozen=True)
class AfdmConfig:
    """AFDM modem parameters.

    Attributes
    ----------
    n_sub : int
        Number of subcarriers (DAFT length).
    n_cpp : int
        Chirp-periodic prefix length in samples.
    c1 : float
        First chirp rate; 2*c1*n_sub must be an integer.
    c2 : float
        Second chirp rate (irrational by convention, pi-3 by default).
    delta_f : float
        Subcarrier spacing in Hz.
    f_c : float
        Carrier frequency in Hz.
    """

    n_sub: int
    n_cpp: int = 0
    c1: float = 0.0
    c2: float = field(default=DEFAULT_C2)
    delta_f: float = 1.0e5
    f_c: float = 28.0e9

    def __post_init__(self):
        for name in ("n_sub", "n_cpp"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name in ("c1", "c2", "delta_f", "f_c"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_sub < 1:
            raise ConfigurationError(f"n_sub must be positive, got {self.n_sub}")
        if self.n_cpp < 0:
            raise ConfigurationError(f"n_cpp must be non-negative, got {self.n_cpp}")
        if self.n_cpp >= self.n_sub:
            raise ConfigurationError(
                f"n_cpp ({self.n_cpp}) must be smaller than n_sub ({self.n_sub})"
            )
        if self.delta_f <= 0 or self.f_c <= 0:
            raise ConfigurationError("delta_f and f_c must be positive")
        two_c1_n = 2.0 * self.c1 * self.n_sub
        if abs(two_c1_n - round(two_c1_n)) > 1e-9:
            raise ConfigurationError(
                f"2*c1*n_sub must be an integer, got {two_c1_n!r}"
            )

    @property
    def t_s(self) -> float:
        """Sample period, 1/(n_sub*delta_f)."""
        return 1.0 / (self.n_sub * self.delta_f)

    @property
    def two_c1_n(self) -> int:
        """The integer 2*c1*n_sub."""
        return round(2.0 * self.c1 * self.n_sub)


def _as_vector(x, n: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (n,):
        raise ConfigurationError(f"{what} must have shape ({n},), got {x.shape}")
    return x


def _chirp(rate: float, n: int) -> np.ndarray:
    """exp(-j*2*pi*rate*k^2) for k = 0..n-1 (analysis-direction sign)."""
    k = np.arange(n, dtype=np.float64)
    return np.exp(-2j * np.pi * rate * k * k)


def idaft(x, cfg: AfdmConfig) -> np.ndarray:
    """Synthesize the time-domain signal from a DAFT-domain vector.

    Implemented as chirp multiply, unitary inverse FFT, chirp multiply.
    """
    x = _as_vector(x, cfg.n_sub, "DAFT-domain vector")
    n = cfg.n_sub
    inner = np.fft.ifft(x * np.conj(_chirp(cfg.c2, n))) * math.sqrt(n)
    return np.conj(_chirp(cfg.c1, n)) * inner


def daft(s, cfg: AfdmConfig) -> np.ndarray:
    """Analyze a time-domain signal into the DAFT domain (adjoint of idaft)."""
    s = _as_vector(s, cfg.n_sub, "time-domain vector")
    n = cfg.n_sub
    inner = np.fft.fft(s * _chirp(cfg.c1, n)) / math.sqrt(n)
    return _chirp(cfg.c2, n) * inner


def build_daft_matrix(cfg: AfdmConfig) -> np.ndarray:
    """Dense analysis matrix A with A[m, n] = exp(-j2pi(c1 n^2 + mn/Nc + c2 m^2))/sqrt(Nc).

    Intended as a test oracle; the FFT path is the production path.  Guarded
    to n_sub <= 4096 to bound memory.
    """
    n = cfg.n_sub
    if n > _DENSE_MATRIX_CAP:
        raise ConfigurationError(
            f"dense matrix limited to n_sub <= {_DENSE_MATRIX_CAP}, got {n}"
        )
    m = np.arange(n).reshape(-1, 1)
    t = np.arange(n).reshape(1, -1)
    phase = cfg.c1 * t * t + m * t / n + cfg.c2 * m * m
    return np.exp(-2j * np.pi * phase) / math.sqrt(n)


def add_cpp(s, cfg: AfdmConfig) -> np.ndarray:
    """Prepend the chirp-periodic prefix.

    The prefix sample at position n in [-n_cpp, -1] is
    s[Nc + n] * exp(-j*2*pi*c1*(Nc^2 + 2*Nc*n)).
    """
    s = _as_vector(s, cfg.n_sub, "time-domain vector")
    if cfg.n_cpp == 0:
        return s.copy()
    n = cfg.n_sub
    idx = np.arange(-cfg.n_cpp, 0)
    factor = np.exp(-2j * np.pi * cfg.c1 * (n * n + 2.0 * n * idx))
    prefix = s[n + idx] * factor
    return np.concatenate([prefix, s])


def remove_cpp(r, cfg: AfdmConfig) -> np.ndarray:
    """Drop the chirp-periodic prefix, keeping the last n_sub samples."""
    r = np.asarray(r, dtype=np.complex128)
    expected = cfg.n_sub + cfg.n_cpp
    if r.shape != (expected,):
        raise ConfigurationError(
            f"prefixed signal must have shape ({expected},), got {r.shape}"
        )
    return r[cfg.n_cpp :].copy()


def waveform_samples(s, cfg: AfdmConfig, tau) -> np.ndarray:
    """The transmitted chirp waveform delayed by ``tau`` samples.

    ``s`` is the prefix-free time symbol (``idaft`` output) and the result
    is s((n - tau)*Ts) for n = 0..Nc-1: shape (Nc,) for a scalar delay and
    (len(tau), Nc) for a 1-D array of delays.  The waveform is the sum of
    the chirp subcarriers with frequency-wrapped instantaneous phase

        g_m(t) = c1 t^2 + m t / Nc - floor(2 c1 t + m/Nc) t

    (plus c2 m^2), so that fractional delays behave like the physical DAC
    output rather than a naive quadratic-phase extrapolation; at integer
    delays it is the chirp-periodic record ``add_cpp`` builds.  With
    K = 2*c1*Nc, A = ceil(K*tau) and t = n - tau the wrap index is
    floor((m + K*n - A)/Nc) for every m, which gives the exact closed form

        s(t) = (1/Nc) exp(j2pi[c1 t^2 + (A - K n) t/Nc + K n^2/(2Nc)])
               * sum_k s[k] exp(-j2pi A k/Nc) h(n - k),
        h(d) = D(d - tau) exp(-j pi K d^2/Nc),  D(u) = sum_{r<Nc} exp(j2pi r u/Nc).

    D is the periodic sinc exp(j pi u (Nc-1)/Nc) sin(pi u)/sin(pi u/Nc)
    (Nc at u = 0 mod Nc), and h(d + Nc) = (-1)^(K Nc) h(d), so h(d) (-1)^(K d)
    is Nc-periodic for either parity of K*Nc.  Splitting (-1)^(K d) into
    (-1)^(K n) (-1)^(K k) turns the sum over lags d in (-Nc, Nc) into one
    cyclic convolution of length Nc, evaluated by FFT at O(Nc log Nc) per
    delay.
    """
    s = _as_vector(s, cfg.n_sub, "time-domain vector")
    tau = np.asarray(tau, dtype=np.float64)
    if tau.ndim > 1 or not np.all(np.isfinite(tau)):
        raise ParameterError(f"delay must be a finite scalar or 1-D array, got {tau!r}")
    n_sub, k_rate = cfg.n_sub, cfg.two_c1_n
    n = np.arange(n_sub)
    taus = np.atleast_1d(tau)[:, None]
    a_int = np.ceil(k_rate * taus)
    t = n - taus
    # the lag d - tau for d = 0..Nc-1, reduced to [-Nc/2, Nc/2] (D is Nc-periodic)
    u = t - n_sub * np.round(t / n_sub)
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc = np.where(u == 0, n_sub, np.sin(np.pi * u) / np.sin(np.pi * u / n_sub))
    kernel = sinc * np.exp(1j * np.pi * (u * (n_sub - 1) - k_rate * n * (n - n_sub)) / n_sub)
    spread = s * np.exp(1j * np.pi * (k_rate * n - 2.0 * a_int * n / n_sub))
    conv = np.fft.ifft(np.fft.fft(spread) * np.fft.fft(kernel))
    phase = cfg.c1 * (t * t + n * n) + (a_int - k_rate * n) * t / n_sub - k_rate * n / 2.0
    out = np.exp(2j * np.pi * phase) * conv / n_sub
    return out if tau.ndim else out[0]


def chirp_rate_bounds(tau_m: int, nu_m: int, n_sub: int) -> tuple[float, float]:
    """Valid c1 interval for a channel with maximum delay/Doppler (tau_m, nu_m).

    Lower bound keeps distinct paths separated in the DAFT domain; upper
    bound keeps the delay range unambiguous.
    """
    lo = (2 * nu_m + 1) / (2.0 * n_sub)
    hi = 1.0 / (2.0 * (tau_m + 1))
    return lo, hi
