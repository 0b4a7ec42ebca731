"""Discrete affine Fourier transform (DAFT) core.

AFDM multiplexes symbols on chirp subcarriers.  The synthesis (inverse
DAFT) of a DAFT-domain vector ``x`` is

    s[n] = (1/sqrt(Nc)) * sum_m x[m] * exp(+j*2*pi*(c1*n^2 + m*n/Nc + c2*m^2))

and the analysis (forward DAFT) is its exact adjoint, i.e. the same kernel
with exp(-j...).  Both are implemented as chirp-FFT-chirp at O(N log N),
and both are batch-first: a stack of shape (..., Nc) is transformed along
its last axis, the chirps broadcasting over the leading axes, so a Monte
Carlo set of frames is one call.  The dense N x N matrix of the pair
(``build_daft_matrix``) is a test oracle only.  Every entry point refuses
a ``cfg`` that is no ``AfdmConfig`` with ``ParameterError``; ``idaft`` and
``daft`` are their checks plus the unchecked kernels ``_idaft`` and
``_daft``, which only ``channel`` calls (the equalizer's solve).

Conventions used throughout the package:

* forward/analysis direction carries exp(-j...), synthesis exp(+j...);
* the 1/sqrt(Nc) factor sits on both directions (unitary pair);
* ``c2`` defaults to pi - 3; any real value is accepted;
* every chirp phase at an integer index reads the tables ``c1_chirp`` and
  ``c2_chirp`` of ``AfdmConfig``; no other module reads c1 or c2;
* K = 2*c1*Nc must be an integer, so the prefix phase
  exp(-j*2*pi*c1*(Nc^2 + 2*Nc*i)) is (-1)^(K*Nc): at any integer index i the
  chirp-periodic extension of a symbol is s[i mod Nc] * (-1)^(K*Nc*floor(i/Nc)),
  whose sign ``AfdmConfig.prefix_flips`` owns; the prefix (``add_cpp``) and
  every delayed copy in the package (``waveform_samples``) read the
  extension through ``_chirp_periodic``, which no other module calls;
* a fractional delay tau is split exactly into a whole part w = round(tau)
  and a fraction |f| <= 1/2, so the delayed waveform's per-sample factors
  are table entries at integer indices (``dft_twiddle``, ``c1_chirp``) and
  only a handful of exponentials and sincs are evaluated per delay.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigurationError,
    ParameterError,
    check_cells,
    check_finite,
    check_reals,
    check_stack,
    check_type,
    check_vector,
    is_integer,
    is_real,
)

__all__ = [
    "AfdmConfig",
    "idaft",
    "daft",
    "build_daft_matrix",
    "add_cpp",
    "remove_cpp",
    "waveform_samples",
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

    ``c1_chirp``, ``c2_chirp`` and ``dft_twiddle`` are read-only tables built
    once per config; ``prefix_flips`` is the parity of K*Nc.  An ``n_sub``
    whose complex table would pass numpy's array limit raises
    ``ParameterError`` (``errors.check_cells``) at construction.
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
            if not is_integer(value):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name in ("c1", "c2", "delta_f", "f_c"):
            value = getattr(self, name)
            if not (is_real(value) and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be finite and real, got {value!r}")
        if self.n_sub < 1:
            raise ConfigurationError(f"n_sub must be positive, got {self.n_sub}")
        # every table is n_sub complex entries: refused before the first is built
        check_cells(int(self.n_sub), "n_sub", itemsize=16)
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

    @property
    def prefix_flips(self) -> bool:
        """Whether (-1)^(K*Nc) is -1: the extension flips sign once per symbol of delay."""
        return bool(self.two_c1_n * self.n_sub % 2)

    @functools.cached_property
    def c1_chirp(self) -> np.ndarray:
        """exp(-j*2*pi*c1*k^2), k < Nc, phase (K*k^2 mod 2Nc)/(2Nc) exact in int64 for Nc < 2^30."""
        n2 = 2 * self.n_sub
        k = np.arange(self.n_sub, dtype=np.int64)
        table = np.exp((-1j * np.pi / self.n_sub) * (k * k % n2 * (self.two_c1_n % n2) % n2))
        table.flags.writeable = False
        return table

    @functools.cached_property
    def c2_chirp(self) -> np.ndarray:
        """exp(-j*2*pi*c2*k^2), k < Nc (analysis-direction sign)."""
        k = np.arange(self.n_sub, dtype=np.float64)
        table = np.exp(-2j * np.pi * self.c2 * k * k)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def dft_twiddle(self) -> np.ndarray:
        """exp(-j*2*pi*k/Nc), k < Nc: the DFT factor of an integer phase reduced mod Nc."""
        table = np.exp(-2j * np.pi * np.arange(self.n_sub) / self.n_sub)
        table.flags.writeable = False
        return table


def idaft(x, cfg: AfdmConfig) -> np.ndarray:
    """Synthesize the time-domain signal from a DAFT-domain vector.

    Implemented as chirp multiply, unitary inverse FFT, chirp multiply along
    the last axis: ``x`` is one vector of length Nc or a stack (..., Nc),
    and each row of a stack comes out bit for bit as its own call would.
    A non-finite entry raises ``ParameterError``.
    """
    check_type(cfg, AfdmConfig, "cfg")
    return _idaft(check_finite(check_stack(x, cfg.n_sub, "DAFT-domain vector"), "DAFT-domain vector"), cfg)


def daft(s, cfg: AfdmConfig) -> np.ndarray:
    """Analyze a time-domain signal into the DAFT domain (adjoint of idaft).

    Batches and refuses non-finite entries like ``idaft``: ``s`` has shape
    (Nc,) or (..., Nc).
    """
    check_type(cfg, AfdmConfig, "cfg")
    return _daft(check_finite(check_stack(s, cfg.n_sub, "time-domain vector"), "time-domain vector"), cfg)


def _idaft(x: np.ndarray, cfg: AfdmConfig) -> np.ndarray:
    """``idaft`` of a finite complex128 stack (..., Nc), unchecked; one new array of its shape."""
    s = x * np.conj(cfg.c2_chirp)
    np.fft.ifft(s, out=s)
    s *= math.sqrt(cfg.n_sub)
    return np.multiply(np.conj(cfg.c1_chirp), s, out=s)


def _daft(s: np.ndarray, cfg: AfdmConfig) -> np.ndarray:
    """``daft`` of a finite complex128 stack (..., Nc), unchecked."""
    inner = np.fft.fft(s * cfg.c1_chirp) / math.sqrt(cfg.n_sub)
    return cfg.c2_chirp * inner


def build_daft_matrix(cfg: AfdmConfig) -> np.ndarray:
    """Dense analysis matrix A with A[m, n] = exp(-j2pi(c1 n^2 + mn/Nc + c2 m^2))/sqrt(Nc).

    The DFT part is read at the exact index (m*n) mod Nc, so no phase grows
    with m*n.  A test oracle with no caller in the package: ``idaft`` and
    ``daft`` are the production path, for single vectors and stacks alike.
    Guarded to n_sub <= 4096 to bound memory.
    """
    check_type(cfg, AfdmConfig, "cfg")
    n = cfg.n_sub
    if n > _DENSE_MATRIX_CAP:
        raise ConfigurationError(
            f"dense matrix limited to n_sub <= {_DENSE_MATRIX_CAP}, got {n}"
        )
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * k / n)[np.outer(k, k) % n]
    return cfg.c2_chirp[:, None] * dft * (cfg.c1_chirp / math.sqrt(n))


def _chirp_periodic(s: np.ndarray, cfg: AfdmConfig, idx) -> np.ndarray:
    """The chirp-periodic extension s[i mod Nc] * (-1)^(K*Nc*floor(i/Nc)) at integer ``idx``.

    ``s`` holds Nc samples on its last axis; the result has shape
    s.shape[:-1] + idx.shape.
    """
    n = cfg.n_sub
    out = np.take(s, idx % n, axis=-1)
    if cfg.prefix_flips:
        out = np.where(idx // n % 2 == 0, out, -out)
    return out


def add_cpp(s, cfg: AfdmConfig) -> np.ndarray:
    """Prepend the chirp-periodic prefix.

    The prefix sample at position n in [-n_cpp, -1] is the extension's
    s[Nc + n] * (-1)^(K*Nc): the symbol tail, sign-flipped when K*Nc is odd.
    """
    check_type(cfg, AfdmConfig, "cfg")
    s = check_vector(s, cfg.n_sub, "time-domain vector")
    return _chirp_periodic(s, cfg, np.arange(-cfg.n_cpp, cfg.n_sub))


def remove_cpp(r, cfg: AfdmConfig) -> np.ndarray:
    """Drop the chirp-periodic prefix, keeping the last n_sub samples."""
    check_type(cfg, AfdmConfig, "cfg")
    r = check_vector(r, cfg.n_sub + cfg.n_cpp, "prefixed signal")
    return r[cfg.n_cpp :].copy()


def waveform_samples(s, cfg: AfdmConfig, tau) -> np.ndarray:
    """The transmitted chirp waveform delayed by ``tau`` samples.

    ``s`` is the prefix-free time symbol (``idaft`` output), or a stack of
    them with shape (..., Nc), and the result is s((n - tau)*Ts) for
    n = 0..Nc-1.  A scalar delay gives shape (..., Nc).  An array of delays
    lists them on its last axis and gives s.shape[:-1] + (delays, Nc); its
    leading axes broadcast against the leading axes of ``s`` (and may not
    add to them), so a 1-D array delays every signal by every delay, and a
    (B, 1) array gives each of B signals its own delay.  The waveform is
    the sum of the chirp subcarriers with frequency-wrapped instantaneous
    phase

        g_m(t) = c1 t^2 + m t / Nc - floor(2 c1 t + m/Nc) t

    (plus c2 m^2), so that fractional delays behave like the physical DAC
    output rather than a naive quadratic-phase extrapolation.  At integer
    instants it is the chirp-periodic extension, so every whole-sample delay
    is read from windows of it, bit for bit the record ``add_cpp`` builds,
    whatever the other delays are.  All-whole delays may come back as a
    read-only view of those windows (a 1-D run of consecutive ascending
    delays does); copy before writing.  With any fractional delay the closed
    form runs over every delay and the whole ones are then read from the
    windows.  Fractional delays use the exact closed form: with K = 2*c1*Nc,
    A = ceil(K*tau) and t = n - tau the wrap index is floor((m + K*n - A)/Nc)
    for every m, so

        s(t) = (1/Nc) exp(j2pi[c1 t^2 + (A - K n) t/Nc + K n^2/(2Nc)])
               * sum_k s[k] exp(-j2pi A k/Nc) h(n - k),
        h(d) = D(d - tau) exp(-j pi K d^2/Nc),  D(u) = sum_{r<Nc} exp(j2pi r u/Nc).

    D is the periodic sinc exp(j pi u (Nc-1)/Nc) sin(pi u)/sin(pi u/Nc)
    (Nc at u = 0 mod Nc), and h(d + Nc) = (-1)^(K Nc) h(d), so h(d) (-1)^(K d)
    is Nc-periodic for either parity of K*Nc.  Splitting (-1)^(K d) into
    (-1)^(K n) (-1)^(K k) turns the sum over lags d in (-Nc, Nc) into one
    cyclic convolution of length Nc, evaluated by FFT at O(Nc log Nc) per
    delay and signal.  Every per-sample factor is read from the config's
    tables: with tau = w + f (w = round(tau), |f| <= 1/2, both exact),
    D(n - tau) = (exp(-j2pi f) - 1)/(conj(dft_twiddle[j]) exp(-j2pi f/Nc) - 1)
    at j = (n - w) mod Nc (its limit at j = 0), exp(-j pi K d^2/Nc) is
    ``c1_chirp[d]``, and the ramps exp(-+j2pi A k/Nc) become a shift of the
    kernel's spectrum by A mod Nc.  The phase in front reduces exactly to
    one number per delay, (K f^2 - 2 a f - w (K w + 2 a))/(2 Nc) with
    a = ceil(K f), times exp(j2pi A n/Nc) (-1)^(K n), so a delay costs a
    few exponentials, not one per sample, and the phase stays exact at any
    whole part.  Delays are finite real numbers (else ``ParameterError``).
    """
    check_type(cfg, AfdmConfig, "cfg")
    s = check_stack(s, cfg.n_sub, "signals")
    tau = check_reals(tau, "delays")
    lead = s.shape[:-1]
    if tau.ndim and not _broadcasts_to(tau.shape[:-1], lead):
        raise ParameterError(
            f"delays must be a scalar or an array whose leading axes broadcast "
            f"to the signals' {lead}, got {tau!r}"
        )
    taus = np.atleast_1d(tau)
    whole = taus == np.round(taus)
    if np.all(whole):
        out = _whole_delays(s, cfg, taus)
    else:
        out = _fractional_delays(s, cfg, taus[..., None])
        if np.any(whole):
            out = np.where(whole[..., None], _whole_delays(s, cfg, taus), out)
    return out if tau.ndim else out[..., 0, :]


def _fractional_delays(s: np.ndarray, cfg: AfdmConfig, tau: np.ndarray) -> np.ndarray:
    """The closed form of ``waveform_samples`` at the delays ``tau`` (shape (..., 1)).

    Per-sample factors are read from the config's tables; exponentials and
    sincs are evaluated once per delay.  With tau = w + f, w = round(tau)
    and |f| <= 1/2 (both exact), A = ceil(K*tau) = K*w + ceil(K*f).
    """
    n_sub, k_rate = cfg.n_sub, cfg.two_c1_n
    n = np.arange(n_sub)
    w = np.round(tau)
    f = tau - w
    a = np.ceil(k_rate * f)
    sign = 1.0 - 2.0 * (k_rate * n % 2)  # sigma_n = (-1)^(K n)
    # D(n - tau) = D(j - f) at j = (n - w) mod Nc is (exp(-j2pi f) - 1)/(exp(j2pi (j - f)/Nc) - 1)
    # with exp(j2pi j/Nc) read at the index n - w mod Nc (negative below w), and at j = 0
    # its limit Nc sinc(f)/sinc(f/Nc) exp(-j pi f (Nc - 1)/Nc), which reads Nc at a
    # subnormal f where the quotient would lose every digit
    at_w = np.mod(w, n_sub).astype(np.int64)
    # the (..., delays, Nc) arrays below are as large as the stack of signals; each is
    # written in place where it can be and dropped once read, so that few are alive at
    # once: a caller's block of trials then needs less heap, and a trimmed heap faults
    # fewer pages back in
    kernel = np.conj(cfg.dft_twiddle)[n - at_w]
    kernel *= np.exp(-2j * np.pi * f / n_sub)
    kernel -= 1.0  # the denominator
    origin = np.arange(0, kernel.size, n_sub) + at_w.ravel()  # j = 0, one per row
    kernel.flat[origin] = 1.0
    np.divide(-2j * np.sin(np.pi * f) * np.exp(-1j * np.pi * f), kernel, out=kernel)
    limit = n_sub * np.sinc(f) / np.sinc(f / n_sub) * np.exp(-1j * np.pi * f * (n_sub - 1) / n_sub)
    kernel.flat[origin] = limit.ravel()
    kernel *= cfg.c1_chirp * sign
    # the ramp exp(-j2pi A n/Nc) on s sigma and its conjugate on the output are the shift
    # of the kernel's spectrum by A mod Nc (reduced exactly in floats): bin k reads bin
    # k - A mod Nc
    shift = np.mod(k_rate % n_sub * at_w + a, n_sub).astype(np.int64)
    bins = n - shift
    bins %= n_sub
    shifted = np.take_along_axis(np.fft.fft(kernel, out=kernel), bins, axis=-1)
    del kernel, bins
    spectrum = s * sign
    conv = np.fft.fft(spectrum, out=spectrum)[..., None, :] * shifted
    del spectrum, shifted
    np.fft.ifft(conv, out=conv)
    # c1 (t^2 + n^2) + (A - K n) t/Nc - K n/2 at t = n - tau is
    # (K f^2 - 2 a f - w (K w + 2 a))/(2 Nc) + A n/Nc - K n/2, the whole part of the
    # first term reduced mod 2 Nc; exp(j2pi (A n/Nc - K n/2)) is the shift and sigma_n
    turns = np.mod(np.mod(w, 2 * n_sub) * np.mod(k_rate * w + 2.0 * a, 2 * n_sub), 2 * n_sub)
    scale = np.exp(1j * np.pi * (k_rate * f * f - 2.0 * a * f - turns) / n_sub) / n_sub
    conv *= scale
    conv *= sign
    return conv


def _broadcasts_to(shape: tuple, target: tuple) -> bool:
    """Whether an array of ``shape`` broadcasts to ``target`` without enlarging it."""
    return len(shape) <= len(target) and all(
        a in (1, b) for a, b in zip(shape[::-1], target[::-1])
    )


def _whole_delays(s: np.ndarray, cfg: AfdmConfig, taus: np.ndarray) -> np.ndarray:
    """The extension at n - tau for whole ``taus`` (delays on the last axis).

    A 1-D ``taus`` delays every signal of the stack by each delay; leading
    axes of ``taus`` pick one row of delays per signal.  Each delay is
    reduced mod 2Nc in floats (exact; it keeps i mod Nc and the parity of
    floor(i/Nc)), a 1-D run of consecutive ascending delays as a whole, so
    it stays a run.  With the lags in [lo, hi], window k of the extension
    over [-hi, Nc - lo) is s(n - (hi - k)): a run is the reversed windows,
    a read-only view, and any other set picks rows of them (one ``take`` on
    the window axis for a 1-D set).
    """
    n = cfg.n_sub
    lags = np.mod(taus, 2 * n)
    run = taus.ndim == 1 and taus.size > 0 and bool(np.all(np.diff(taus) == 1))
    if run:
        lags = lags[0] + np.arange(taus.size)
    lags = lags.astype(np.int64)
    hi = int(lags.max(initial=0))
    lo = int(lags.min(initial=hi))
    windows = sliding_window_view(_chirp_periodic(s, cfg, np.arange(-hi, n - lo)), n, axis=-1)
    if taus.ndim == 1:
        return windows[..., ::-1, :] if run else windows.take(hi - lags, axis=-2)
    rows = (hi - lags).reshape((1,) * (s.ndim - taus.ndim) + lags.shape + (1,))
    return np.take_along_axis(windows, rows, axis=-2)
