"""Doubly dispersive channel, radar echo generation, and DAFT-domain models.

A path with integer delay tau, normalized Doppler nu and gain alpha acts on
the prefix-free symbol as

    y[n] = alpha * s[n - tau] * exp(j*2*pi*nu*<n - tau>_Nc/Nc)

where s[n - tau] reads the chirp-periodic extension of the symbol (the
record ``add_cpp`` builds): s[<n - tau>_Nc], negated when n - tau < 0 and
K*Nc is odd (K = 2*c1*Nc).  In the DAFT domain the same path is the unitary
matrix A * Gamma * Pi^tau * Delta_nu * A^H scaled by alpha, which has one
nonzero per row; ``PathChannel`` keeps a sum of such paths in that
structured form, and the tests check it against the dense matrices.

The radar echo over the post-prefix window follows the sampled
receiver-clock model

    r[n] = beta * s((n - tau_bar) * Ts) * exp(j*2*pi*nu_bar*n/Nc) + noise

and ``sensing_echo`` builds it from the prefix-free symbol alone: the delays
are evaluated with the frequency-wrapped chirp model (``waveform_samples``:
the same chirp-periodic extension at whole-sample delays, so no prefixed
record is needed, and an exact O(Nc log Nc) closed form at fractional ones).
For integer delays the two conventions differ only by the constant phase
exp(j*2*pi*nu*tau/Nc), which is absorbed by the path gain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .daft import (
    AfdmConfig,
    _as_stack,
    _broadcasts_to,
    _chirp_periodic,
    daft,
    idaft,
    waveform_samples,
)
from .errors import ConfigurationError, ParameterError

__all__ = [
    "SPEED_OF_LIGHT",
    "ChannelPath",
    "ChannelRealization",
    "SensingTarget",
    "BasisGrid",
    "basis_grid",
    "apply_basis",
    "subcarrier_offset",
    "PathChannel",
    "apply_channel_time",
    "sample_channel",
    "sensing_echo",
    "delay_doppler_to_range_velocity",
]

SPEED_OF_LIGHT = 3.0e8


def _integers(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or not np.all(np.isfinite(arr)) or np.any(arr != np.round(arr)):
        raise ParameterError(f"{what} must be a 1-D array of integers, got {values!r}")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class ChannelPath:
    """One propagation path: complex gain, integer delay (samples), real Doppler."""

    gain: complex
    delay: int
    doppler: float

    def __post_init__(self):
        _integers([self.delay], "path delay")


@dataclass(frozen=True)
class ChannelRealization:
    """A set of paths plus the communication noise power and grid bounds."""

    paths: tuple[ChannelPath, ...]
    noise_power: float
    tau_m: int
    nu_m: int

    def __post_init__(self):
        if not self.paths:
            raise ParameterError("realization must contain at least one path")
        if len(self.paths) > self.max_paths:
            raise ParameterError(
                f"{len(self.paths)} paths exceed the basis size {self.max_paths}"
            )

    @property
    def max_paths(self) -> int:
        return (2 * self.nu_m + 1) * (self.tau_m + 1)


@dataclass(frozen=True)
class SensingTarget:
    """Point target: complex gain, real delay in samples, normalized Doppler.

    ``delay_samples`` may be fractional; ``delay_doppler_to_range_velocity``
    converts delay and Doppler to range and velocity.  Gain, delay and
    Doppler may also be arrays, one target per row of a symbol stack
    (``sensing_echo``); the noise power is one scalar.  Every value must be
    finite and the noise power non-negative; the bounds of ``analysis``
    require more of it.
    """

    gain: complex
    delay_samples: float
    doppler_norm: float
    noise_power: float

    def __post_init__(self):
        for name in ("gain", "delay_samples", "doppler_norm"):
            if not np.isfinite(getattr(self, name)).all():
                raise ParameterError(f"target {name} must be finite, got {getattr(self, name)!r}")
        if not 0 <= self.noise_power < math.inf:
            raise ParameterError(
                f"target noise power must be finite and non-negative, got {self.noise_power!r}"
            )


@dataclass(frozen=True)
class BasisGrid:
    """Integer delay-Doppler basis covering [0, tau_m] x [-nu_m, nu_m].

    Pair i (0-based) has tau_i = i // (2*nu_m + 1) and
    nu_i = i % (2*nu_m + 1) - nu_m.
    """

    tau_m: int
    nu_m: int
    pairs: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        span = 2 * self.nu_m + 1
        pairs = tuple(
            (i // span, i % span - self.nu_m) for i in range(span * (self.tau_m + 1))
        )
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def index_of(self, tau: int, nu: int) -> int:
        return tau * (2 * self.nu_m + 1) + nu + self.nu_m


def basis_grid(tau_m: int, nu_m: int) -> BasisGrid:
    return BasisGrid(tau_m=tau_m, nu_m=nu_m)


def _path_terms(s, cfg: AfdmConfig, delays, dopplers, gains, n: np.ndarray) -> np.ndarray:
    """Per-path terms gain * s[n - tau] * exp(j*2*pi*nu*<n - tau>_Nc/Nc), shape (paths, len(n)).

    s[n - tau] reads the chirp-periodic extension, so ``n`` may reach into
    the prefix.  With s all ones the terms are the path taps c, so that the
    path maps s to c * s[<n - tau>_Nc].
    """
    lag = n - np.asarray(delays)[:, None]
    ramp = np.exp(2j * np.pi * np.asarray(dopplers)[:, None] * (lag % cfg.n_sub) / cfg.n_sub)
    return np.asarray(gains)[:, None] * ramp * _chirp_periodic(s, cfg, lag)


def apply_basis(x, cfg: AfdmConfig, tau, nu) -> np.ndarray:
    """DAFT-domain action of unit-gain (tau, nu) paths on x, via chirp-FFT ops.

    A scalar integer delay tau in [0, Nc) and a real Doppler nu give one
    vector of shape (Nc,).  1-D arrays of L delays and L Dopplers give one
    row per path, shape (L, Nc): one ``idaft`` of x and one batched ``daft``,
    each row bit for bit the scalar call.
    """
    delays, dopplers = np.atleast_1d(tau), np.atleast_1d(np.asarray(nu, dtype=np.float64))
    if delays.dtype.kind not in "iu" or delays.ndim != 1 or dopplers.shape != delays.shape:
        raise ParameterError(f"need integer delays and one Doppler each, got {tau!r} and {nu!r}")
    if delays.min(initial=0) < 0 or delays.max(initial=0) >= cfg.n_sub:
        raise ParameterError(f"delays must lie in [0, Nc), got {tau}")
    n = np.arange(cfg.n_sub)
    rows = daft(_path_terms(idaft(x, cfg), cfg, delays, dopplers, np.ones(delays.size), n), cfg)
    return rows if np.ndim(tau) else rows[0]


def subcarrier_offset(tau, nu, cfg: AfdmConfig):
    """Cyclic subcarrier shift 2*c1*tau*Nc - nu (mod Nc) induced by a path.

    Works elementwise on integer arrays of delays and Dopplers.
    """
    return (cfg.two_c1_n * tau - nu) % cfg.n_sub


@dataclass(frozen=True, eq=False)
class PathChannel:
    """A sum of integer (tau, nu) paths, kept in structured form.

    In the DAFT domain a path is one nonzero per row: row p reads subcarrier
    q = <p + off>_Nc with off = ``subcarrier_offset(tau, nu)`` and phase

        exp(j*2*pi*(c1*tau^2 - (q + nu)*tau/Nc - c2*(p^2 - q^2)))

    (the prefix sign cancels the wrap of the chirp, so this holds for either
    parity of K*Nc); it is conj(c1_chirp[tau]) * c2_chirp[p] * conj(c2_chirp[q])
    from the config's tables times the DFT factor at ((q + nu)*tau mod Nc)/Nc,
    the product reduced in integers.  In the time domain the channel is
    H_t = sum_tau diag(c_tau) Pi^tau, a cyclic band of width max(tau), and
    the DAFT-domain matrix is A H_t A^H.  ``h @ x`` costs O(P*Nc) per
    vector and takes one vector (Nc,) or a stack (..., Nc), applying the
    channel to each row along the last axis: one gather of the stack and one
    in-place product per path, each row bit for bit its own call.
    ``np.asarray(h)`` gives the dense DAFT-domain matrix and
    ``regularized_solve`` the banded time-domain normal-equation solve.
    The DAFT-domain taps are built once, on first use, and every array is
    frozen: ``delays``, ``dopplers`` and ``gains`` are read-only copies of
    the arguments, so a later write to the caller's arrays cannot change
    the channel or make its taps stale.
    """

    cfg: AfdmConfig
    delays: np.ndarray
    dopplers: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        delays = _integers(self.delays, "delays")
        dopplers = _integers(self.dopplers, "Dopplers")
        gains = np.array(self.gains, dtype=np.complex128)
        if not (delays.shape == dopplers.shape == gains.shape):
            raise ParameterError("delays, dopplers and gains must have equal lengths")
        if np.any((delays < 0) | (delays >= self.cfg.n_sub)):
            raise ParameterError(f"delays must lie in [0, {self.cfg.n_sub})")
        for name, value in (("delays", delays), ("dopplers", dopplers), ("gains", gains)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @functools.cached_property
    def _daft_taps(self) -> tuple[np.ndarray, np.ndarray]:
        """Source columns q and gain-weighted phases, both (paths, Nc) and read-only."""
        n, cfg = self.cfg.n_sub, self.cfg
        tau, nu = self.delays[:, None], self.dopplers[:, None]
        q = (np.arange(n) + subcarrier_offset(tau, nu, cfg)) % n
        phase = np.conj(cfg.c1_chirp[tau]) * np.exp(-2j * np.pi * ((q + nu) * tau % n) / n)
        taps = self.gains[:, None] * phase * cfg.c2_chirp * np.conj(cfg.c2_chirp[q])
        q.flags.writeable = False
        taps.flags.writeable = False
        return q, taps

    def _vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.cfg.n_sub,):
            raise ConfigurationError(f"expected shape ({self.cfg.n_sub},), got {x.shape}")
        return x

    def __matmul__(self, x) -> np.ndarray:
        x = _as_stack(x, self.cfg.n_sub, "DAFT-domain vector")
        q, taps = self._daft_taps
        if not len(q):
            return np.zeros(x.shape, dtype=np.complex128)
        # one gather and one in-place product per path, taps first: numpy's SIMD
        # complex product rounds a*b and b*a differently
        out = x.take(q[0], axis=-1)
        np.multiply(taps[0], out, out)
        for row_q, row_taps in zip(q[1:], taps[1:]):
            term = x.take(row_q, axis=-1)
            np.multiply(row_taps, term, term)
            out += term
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        n = self.cfg.n_sub
        q, taps = self._daft_taps
        out = np.zeros((n, n), dtype=np.complex128)
        np.add.at(out, (np.broadcast_to(np.arange(n), q.shape), q), taps)
        return out if dtype is None else out.astype(dtype, copy=False)

    def _time_taps(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct delays and their diagonals c_tau, so that H_t = sum diag(c_tau) Pi^tau."""
        n = self.cfg.n_sub
        taus, which = np.unique(self.delays, return_inverse=True)
        per_path = _path_terms(
            np.ones(n), self.cfg, self.delays, self.dopplers, self.gains, np.arange(n)
        )
        taps = np.zeros((taus.size, n), dtype=np.complex128)
        np.add.at(taps, which, per_path)
        return taus, taps

    def regularized_solve(self, r, lam: float) -> np.ndarray:
        """Time-domain z = (H_t^H H_t + lam*I)^{-1} H_t^H r.

        H_t^H H_t + lam*I is Hermitian with cyclic half-bandwidth at most
        max(tau) - min(tau).  Ordering the unknowns as [0, Nc-1, 1, Nc-2, ...]
        turns the cyclic band into an ordinary one about twice as wide, which
        one banded Cholesky solve handles at O(Nc*tau_m^2).  Raises
        ``numpy.linalg.LinAlgError`` when the matrix is not positive definite.
        """
        # scipy.linalg takes about 0.3 s to import and only this solve needs
        # it, so importing it here keeps it out of every other caller's start-up.
        from scipy.linalg import solveh_banded

        n = self.cfg.n_sub
        r = self._vector(r)
        taus, taps = self._time_taps()
        # M[a, <a + t1 - t2>] += conj(c_t1[<a + t1>]) * c_t2[<a + t1>]
        a = np.arange(n)
        reads = (a + taus[:, None]) % n
        seen = np.take_along_axis(taps, reads, axis=1)
        rhs = np.sum(np.conj(seen) * r[reads], axis=0)
        values = np.conj(seen)[:, None, :] * taps[:, reads].swapaxes(0, 1)
        cols = (a + (taus[:, None] - taus[None, :])[..., None]) % n
        # position of unknown a in the order [0, Nc-1, 1, Nc-2, ...]
        pos = np.where(a < (n + 1) // 2, 2 * a, 2 * (n - 1 - a) + 1)
        row_pos, col_pos = np.broadcast_to(pos, values.shape), pos[cols]
        lower = row_pos >= col_pos
        k, j = (row_pos - col_pos)[lower], col_pos[lower]
        band = np.zeros((int(k.max(initial=0)) + 1, n), dtype=np.complex128)
        np.add.at(band, (k, j), values[lower])
        band[0] += lam
        rhs_perm = np.empty(n, dtype=np.complex128)
        rhs_perm[pos] = rhs
        return solveh_banded(band, rhs_perm, lower=True)[pos]


def apply_channel_time(s_cpp, realization: ChannelRealization, cfg: AfdmConfig, rng=None) -> np.ndarray:
    """Push a prefixed time signal through the channel.

    Returns a signal of the same length; the prefix region carries the
    cyclic-equivalent continuation (it is discarded by the receiver).  Each
    path's Doppler ramp rides with the delayed signal, so the post-prefix
    window equals the DAFT-domain matrix model exactly.  With rng given,
    circularly symmetric Gaussian noise of the realization's power is added.
    """
    s_cpp = np.asarray(s_cpp, dtype=np.complex128)
    if s_cpp.shape != (cfg.n_sub + cfg.n_cpp,):
        raise ConfigurationError(
            f"expected prefixed signal of length {cfg.n_sub + cfg.n_cpp}, got {s_cpp.shape}"
        )
    paths = realization.paths
    delays = np.array([p.delay for p in paths])
    if delays.max() > cfg.n_cpp:
        raise ParameterError(f"path delay {delays.max()} exceeds prefix length {cfg.n_cpp}")
    y = _path_terms(
        s_cpp[cfg.n_cpp :],
        cfg,
        delays,
        [p.doppler for p in paths],
        [p.gain for p in paths],
        np.arange(-cfg.n_cpp, cfg.n_sub),
    ).sum(axis=0)
    if rng is not None and realization.noise_power > 0:
        scale = math.sqrt(realization.noise_power / 2.0)
        y += scale * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
    return y


def sample_channel(
    L: int, tau_m: int, nu_m: int, rng, noise_power: float = 0.0
) -> ChannelRealization:
    """Draw L distinct integer (tau, nu) pairs and CN(0, 1/L) gains."""
    if L < 1:
        raise ParameterError("L must be >= 1")
    grid = basis_grid(tau_m, nu_m)
    if L > len(grid):
        raise ParameterError(f"L={L} exceeds the {len(grid)}-pair grid")
    picks = rng.choice(len(grid), size=L, replace=False)
    scale = math.sqrt(1.0 / (2 * L))
    paths = []
    for i in picks:
        tau, nu = grid.pairs[int(i)]
        gain = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        paths.append(ChannelPath(gain=complex(gain), delay=tau, doppler=float(nu)))
    return ChannelRealization(
        paths=tuple(paths), noise_power=noise_power, tau_m=tau_m, nu_m=nu_m
    )


def sensing_echo(s, cfg: AfdmConfig, target: SensingTarget, rng=None) -> np.ndarray:
    """Target echo over the post-prefix window (Nc samples) of the symbol ``s``.

    r[n] = beta * s((n - tau_bar)*Ts) * exp(j*2*pi*nu_bar*n/Nc) + w[n], with
    ``s`` the prefix-free time symbol (``idaft`` output).  The delayed copy
    is ``waveform_samples`` of ``s``, which at whole-sample delays reads the
    samples ``add_cpp`` would have put in front of it.  ``s`` may be a stack
    (..., Nc); the target's delay, Doppler and gain are then scalars or
    arrays that broadcast over its leading axes, one target per row, and
    the noise is drawn for the whole stack, real parts first.
    """
    s = np.asarray(s, dtype=np.complex128)
    if s.shape[-1:] != (cfg.n_sub,):
        raise ConfigurationError(f"expected symbols of length {cfg.n_sub}, got {s.shape}")
    tau, nu, gain = (
        np.asarray(v) for v in (target.delay_samples, target.doppler_norm, target.gain)
    )
    if not all(_broadcasts_to(v.shape, s.shape[:-1]) for v in (tau, nu, gain)):
        raise ParameterError(
            f"target parameters of shapes {tau.shape}, {nu.shape}, {gain.shape} do not "
            f"broadcast over the symbols' leading axes {s.shape[:-1]}"
        )
    if np.any((tau < 0) | (tau > cfg.n_cpp)):
        raise ParameterError(
            f"target delay {tau} samples outside the prefix budget [0, {cfg.n_cpp}]"
        )
    n = np.arange(cfg.n_sub)
    delayed = waveform_samples(s, cfg, tau[..., None])[..., 0, :]
    r = gain[..., None] * delayed * np.exp(2j * np.pi * nu[..., None] * n / cfg.n_sub)
    if rng is not None and target.noise_power > 0:
        scale = math.sqrt(target.noise_power / 2.0)
        r = r + scale * (rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape))
    return r


def delay_doppler_to_range_velocity(tau_hat: float, nu_hat: float, cfg: AfdmConfig) -> tuple[float, float]:
    """Convert normalized estimates to range (m) and radial velocity (m/s).

    Monostatic round trip: delay 2R/c and Doppler shift 2*V*f_c/c.
    """
    r = SPEED_OF_LIGHT * tau_hat * cfg.t_s / 2.0
    v = SPEED_OF_LIGHT * nu_hat * cfg.delta_f / (2.0 * cfg.f_c)
    return r, v
