"""Doubly dispersive channel, radar echo generation, and DAFT-domain models.

A path with integer delay tau, normalized Doppler nu and gain alpha acts on
the prefix-free symbol as

    y[n] = alpha * gamma_tau[n] * s[<n - tau>_Nc] * exp(j*2*pi*nu*<n - tau>_Nc/Nc)

where gamma_tau is the prefix phase factor (identically 1 when 2*c1*Nc is an
integer and Nc is even).  In the DAFT domain the same path is the unitary
matrix A * Gamma * Pi^tau * Delta_nu * A^H scaled by alpha, which has one
nonzero per row; ``PathChannel`` keeps a sum of such paths in that
structured form, and the tests check it against the dense matrices.

The radar echo follows the sampled receiver-clock model

    r[n] = beta * s((n - tau_bar) * Ts) * exp(j*2*pi*nu_bar*n/Nc) + noise

whose fractional delays are evaluated with the frequency-wrapped chirp model
(``waveform_samples``, an exact O(Nc log Nc) closed form on the prefix-free
symbol).  For integer delays the two conventions differ only by the
constant phase exp(j*2*pi*nu*tau/Nc), which is absorbed by the path gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .daft import AfdmConfig, daft, idaft, waveform_samples
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


@dataclass(frozen=True)
class ChannelPath:
    """One propagation path: complex gain, integer delay (samples), real Doppler."""

    gain: complex
    delay: int
    doppler: float


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
    converts delay and Doppler to range and velocity.
    """

    gain: complex
    delay_samples: float
    doppler_norm: float
    noise_power: float


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


def _prefix_factor(cfg: AfdmConfig, tau: int, n: np.ndarray) -> np.ndarray:
    out = np.ones(n.shape, dtype=np.complex128)
    early = n < tau
    if np.any(early):
        nc = cfg.n_sub
        out[early] = np.exp(-2j * np.pi * cfg.c1 * (nc * nc + 2.0 * nc * (n[early] - tau)))
    return out


def _shift_and_rotate(s: np.ndarray, cfg: AfdmConfig, tau: int, nu: float) -> np.ndarray:
    """Unit-gain path action on the prefix-free window (cyclic form)."""
    n = np.arange(cfg.n_sub)
    src = (n - tau) % cfg.n_sub
    return _prefix_factor(cfg, tau, n) * s[src] * np.exp(2j * np.pi * nu * src / cfg.n_sub)


def apply_basis(x, cfg: AfdmConfig, tau: int, nu: float) -> np.ndarray:
    """DAFT-domain action of a unit-gain (tau, nu) path, via chirp-FFT ops."""
    if tau < 0 or tau >= cfg.n_sub:
        raise ParameterError(f"delay must lie in [0, Nc), got {tau}")
    return daft(_shift_and_rotate(idaft(x, cfg), cfg, tau, nu), cfg)


def subcarrier_offset(tau, nu, cfg: AfdmConfig):
    """Cyclic subcarrier shift 2*c1*tau*Nc - nu (mod Nc) induced by a path.

    Works elementwise on integer arrays of delays and Dopplers.
    """
    return (cfg.two_c1_n * tau - nu) % cfg.n_sub


def _integers(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or not np.all(np.isfinite(arr)) or np.any(arr != np.round(arr)):
        raise ParameterError(f"{what} must be a 1-D array of integers, got {values!r}")
    return arr.astype(np.int64)


@dataclass(frozen=True, eq=False)
class PathChannel:
    """A sum of integer (tau, nu) paths, kept in structured form.

    In the DAFT domain a path is one nonzero per row: row p reads subcarrier
    q = <p + off>_Nc with off = ``subcarrier_offset(tau, nu)`` and phase

        exp(j*2*pi*(c1*tau^2 - (q + nu)*tau/Nc - c2*(p^2 - q^2)))

    (the prefix factor cancels the wrap of the chirp, so this holds for odd
    and even Nc).  In the time domain the channel is
    H_t = sum_tau diag(c_tau) Pi^tau, a cyclic band of width max(tau), and
    the DAFT-domain matrix is A H_t A^H.  ``h @ x`` costs O(P*Nc),
    ``np.asarray(h)`` gives the dense DAFT-domain matrix and
    ``regularized_solve`` the banded time-domain normal-equation solve.
    """

    cfg: AfdmConfig
    delays: np.ndarray
    dopplers: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        delays = _integers(self.delays, "delays")
        dopplers = _integers(self.dopplers, "Dopplers")
        gains = np.asarray(self.gains, dtype=np.complex128)
        if not (delays.shape == dopplers.shape == gains.shape):
            raise ParameterError("delays, dopplers and gains must have equal lengths")
        if np.any((delays < 0) | (delays >= self.cfg.n_sub)):
            raise ParameterError(f"delays must lie in [0, {self.cfg.n_sub})")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "dopplers", dopplers)
        object.__setattr__(self, "gains", gains)

    def _daft_taps(self) -> tuple[np.ndarray, np.ndarray]:
        """Source columns q and gain-weighted phases, both (paths, Nc)."""
        n, cfg = self.cfg.n_sub, self.cfg
        p = np.arange(n)
        tau, nu = self.delays[:, None], self.dopplers[:, None]
        q = (p + subcarrier_offset(tau, nu, cfg)) % n
        phase = cfg.c1 * tau * tau - (q + nu) * tau / n - cfg.c2 * (p * p - q * q)
        return q, self.gains[:, None] * np.exp(2j * np.pi * phase)

    def _vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.cfg.n_sub,):
            raise ConfigurationError(f"expected shape ({self.cfg.n_sub},), got {x.shape}")
        return x

    def __matmul__(self, x) -> np.ndarray:
        x = self._vector(x)
        q, taps = self._daft_taps()
        return np.sum(taps * x[q], axis=0)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        n = self.cfg.n_sub
        q, taps = self._daft_taps()
        out = np.zeros((n, n), dtype=np.complex128)
        np.add.at(out, (np.broadcast_to(np.arange(n), q.shape), q), taps)
        return out if dtype is None else out.astype(dtype, copy=False)

    def _time_taps(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct delays and their diagonals c_tau, so that H_t = sum diag(c_tau) Pi^tau."""
        n = np.arange(self.cfg.n_sub)
        taus, which = np.unique(self.delays, return_inverse=True)
        src = (n - self.delays[:, None]) % self.cfg.n_sub
        per_path = self.gains[:, None] * np.exp(
            2j * np.pi * self.dopplers[:, None] * src / self.cfg.n_sub
        )
        taps = np.zeros((taus.size, n.size), dtype=np.complex128)
        np.add.at(taps, which, per_path)
        for k, tau in enumerate(taus):
            taps[k] *= _prefix_factor(self.cfg, int(tau), n)
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
    for p in realization.paths:
        if p.delay > cfg.n_cpp:
            raise ParameterError(
                f"path delay {p.delay} exceeds prefix length {cfg.n_cpp}"
            )
    s = s_cpp[cfg.n_cpp :]
    n_full = np.arange(-cfg.n_cpp, cfg.n_sub)
    y = np.zeros(n_full.size, dtype=np.complex128)
    for p in realization.paths:
        src = (n_full - p.delay) % cfg.n_sub
        y += (
            p.gain
            * _prefix_factor(cfg, p.delay, n_full)
            * s[src]
            * np.exp(2j * np.pi * p.doppler * src / cfg.n_sub)
        )
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


def sensing_echo(s_cpp, cfg: AfdmConfig, target: SensingTarget, rng=None) -> np.ndarray:
    """Target echo over the post-prefix window (Nc samples).

    r[n] = beta * s((n - tau_bar)*Ts) * exp(j*2*pi*nu_bar*n/Nc) + w[n].
    Integer delays read the prefixed record directly; fractional delays
    evaluate the chirp waveform model on the record's prefix-free part
    (``waveform_samples``), which agrees with the record at integer delays.
    """
    s_cpp = np.asarray(s_cpp, dtype=np.complex128)
    if s_cpp.shape != (cfg.n_sub + cfg.n_cpp,):
        raise ConfigurationError(
            f"expected prefixed signal of length {cfg.n_sub + cfg.n_cpp}, got {s_cpp.shape}"
        )
    tau = target.delay_samples
    if tau < 0 or tau > cfg.n_cpp:
        raise ParameterError(
            f"target delay {tau} samples outside the prefix budget [0, {cfg.n_cpp}]"
        )
    n = np.arange(cfg.n_sub)
    if float(tau).is_integer():
        delayed = s_cpp[cfg.n_cpp + n - int(tau)]
    else:
        delayed = waveform_samples(s_cpp[cfg.n_cpp :], cfg, tau)
    r = target.gain * delayed * np.exp(2j * np.pi * target.doppler_norm * n / cfg.n_sub)
    if rng is not None and target.noise_power > 0:
        scale = math.sqrt(target.noise_power / 2.0)
        r = r + scale * (rng.standard_normal(cfg.n_sub) + 1j * rng.standard_normal(cfg.n_sub))
    return r


def delay_doppler_to_range_velocity(tau_hat: float, nu_hat: float, cfg: AfdmConfig) -> tuple[float, float]:
    """Convert normalized estimates to range (m) and radial velocity (m/s).

    Monostatic round trip: delay 2R/c and Doppler shift 2*V*f_c/c.
    """
    r = SPEED_OF_LIGHT * tau_hat * cfg.t_s / 2.0
    v = SPEED_OF_LIGHT * nu_hat * cfg.delta_f / (2.0 * cfg.f_c)
    return r, v
