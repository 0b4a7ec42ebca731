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
exp(j*2*pi*nu*tau/Nc), which is absorbed by the path gain.  Every real
Doppler ramp exp(j*2*pi*nu*n/Nc), of a path, an echo or a range-Doppler map
(``sensing``), is ``_doppler_ramp``: its whole part read from
``dft_twiddle``, so exact at any nu, and 2*sqrt(Nc) exponentials per nu.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .daft import (
    AfdmConfig,
    _broadcasts_to,
    _chirp_periodic,
    add_cpp,
    daft,
    idaft,
    waveform_samples,
)
from .errors import (
    NumericalError,
    ParameterError,
    check_count,
    check_integers,
    check_nonnegative,
    check_reals,
    check_stack,
    check_vector,
    is_real,
)

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
    """One propagation path: finite complex gain, whole delay >= 0 (samples), finite real Doppler."""

    gain: complex
    delay: int
    doppler: float

    def __post_init__(self):
        if check_integers([self.delay], "path delay")[0] < 0:
            raise ParameterError(f"path delay must be >= 0, got {self.delay!r}")
        gain, doppler = self.gain, self.doppler
        if isinstance(gain, bool) or not (isinstance(gain, numbers.Complex) and cmath.isfinite(gain)):
            raise ParameterError(f"path gain must be a finite number, got {gain!r}")
        if not (is_real(doppler) and math.isfinite(doppler)):
            raise ParameterError(f"path Doppler must be a finite real number, got {doppler!r}")


@dataclass(frozen=True)
class ChannelRealization:
    """A set of paths plus the communication noise power and the integer grid bounds."""

    paths: tuple[ChannelPath, ...]
    noise_power: float
    tau_m: int
    nu_m: int

    def __post_init__(self):
        check_nonnegative(self.noise_power, "noise_power")
        check_count(self.tau_m, "tau_m", least=0)
        check_count(self.nu_m, "nu_m", least=0)
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
    finite (delay and Doppler real) and the noise power non-negative; the
    bounds of ``analysis`` take scalars only and require more of them.
    """

    gain: complex
    delay_samples: float
    doppler_norm: float
    noise_power: float

    def __post_init__(self):
        for name, kinds in (("gain", "biufc"), ("delay_samples", "biuf"), ("doppler_norm", "biuf")):
            value = np.asarray(getattr(self, name))
            if value.dtype.kind not in kinds or not np.isfinite(value).all():
                raise ParameterError(f"target {name} must be finite numbers, got {getattr(self, name)!r}")
        check_nonnegative(self.noise_power, "target noise power")


@dataclass(frozen=True)
class BasisGrid:
    """Integer delay-Doppler basis covering [0, tau_m] x [-nu_m, nu_m].

    Pair i (0-based) has tau_i = i // (2*nu_m + 1) and
    nu_i = i % (2*nu_m + 1) - nu_m.  Both bounds are integers >= 0.
    """

    tau_m: int
    nu_m: int
    pairs: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        check_count(self.tau_m, "tau_m", least=0)
        check_count(self.nu_m, "nu_m", least=0)
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


def _path_terms(s, cfg: AfdmConfig, delays, dopplers) -> np.ndarray:
    """Unit-gain terms s[n - tau] * exp(j*2*pi*nu*<n - tau>_Nc/Nc), n < Nc, shape (paths, Nc).

    ``delays`` is an integer array.  Each term reads the ramped symbol through
    the chirp-periodic extension, so any sum of terms is chirp-periodic.  With
    s all ones the terms are the path taps c: the path maps s to c * s[<n - tau>_Nc].
    """
    most = int(delays.max(initial=0))
    ext = _chirp_periodic(_doppler_ramp(dopplers, cfg) * s, cfg, np.arange(-most, cfg.n_sub))
    # row p of the extension starts at n = -most, so its term is the window at most - tau_p
    return sliding_window_view(ext, cfg.n_sub, axis=-1)[np.arange(delays.size), most - delays]


def apply_basis(x, cfg: AfdmConfig, tau, nu) -> np.ndarray:
    """DAFT-domain action of unit-gain (tau, nu) paths on x, via chirp-FFT ops.

    A scalar integer delay tau in [0, Nc) and a real Doppler nu give one
    vector of shape (Nc,).  1-D arrays of L delays and L Dopplers give one
    row per path, shape (L, Nc): one ``idaft`` of x and one batched ``daft``,
    each row bit for bit the scalar call.  The FFT reference for
    ``PathChannel``; no receive path calls it (the benchmark pins its route).
    """
    delays, dopplers = np.atleast_1d(tau), np.atleast_1d(np.asarray(nu, dtype=np.float64))
    if delays.dtype.kind not in "iu" or delays.ndim != 1 or dopplers.shape != delays.shape:
        raise ParameterError(f"need integer delays and one Doppler each, got {tau!r} and {nu!r}")
    if delays.min(initial=0) < 0 or delays.max(initial=0) >= cfg.n_sub:
        raise ParameterError(f"delays must lie in [0, Nc), got {tau}")
    rows = daft(_path_terms(idaft(x, cfg), cfg, delays, dopplers), cfg)
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
    from the config's tables times its ``dft_twiddle`` entry at
    (q + nu)*tau mod Nc, the product reduced in integers (nu mod Nc first).
    In the time domain the channel is H_t = sum_tau diag(c_tau) Pi^tau, a
    cyclic band of width max(tau), and the DAFT-domain matrix is A H_t A^H.
    ``images(x)`` gives the per-path terms of ``h @ x`` for one vector (Nc,)
    or a stack (..., Nc), shape (..., P, Nc), by one gather and one in-place
    product, each row bit for bit its own call; ``h @ x`` sums them, O(P*Nc)
    per vector through a (..., P, Nc) temporary, so the package applies it to
    single vectors and streams stacks through ``images`` in blocks.
    ``np.asarray(h)`` gives the dense DAFT-domain matrix and
    ``regularized_solve`` the banded time-domain normal-equation solve.
    Every array is frozen: ``delays``, ``dopplers`` and ``gains`` are
    read-only copies of the arguments, so a later write to the caller's
    arrays cannot change the channel or make its state stale.  It keeps two
    tap tables, built once on first use: the DAFT-domain taps of ``images``
    and the time taps, (spread + 1)*Nc*16 bytes with spread = max(tau) -
    min(tau), for the H_t^H r of every solve; and one factor, the banded
    Cholesky factor of the last lam, (2*spread + 1)*Nc*16 bytes (about
    140 KB at Nc = 512 with a spread of 8, 71 MB at Nc = 2^18).  The band's
    Gram diagonals are not kept: every workload factors a channel at one lam.
    """

    cfg: AfdmConfig
    delays: np.ndarray
    dopplers: np.ndarray
    gains: np.ndarray
    # (lam, banded Cholesky factor) of the last regularized_solve
    _factor: tuple[float, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        delays = check_integers(self.delays, "delays")
        dopplers = check_integers(self.dopplers, "Dopplers")
        gains = np.asarray(self.gains)
        if not (delays.shape == dopplers.shape == gains.shape):
            raise ParameterError("delays, dopplers and gains must have equal lengths")
        if gains.dtype.kind not in "biufc" or not np.all(np.isfinite(gains)):
            raise ParameterError(f"gains must be finite numbers, got {self.gains!r}")
        gains = gains.astype(np.complex128)
        if np.any((delays < 0) | (delays >= self.cfg.n_sub)):
            raise ParameterError(f"delays must lie in [0, {self.cfg.n_sub})")
        for name, value in (("delays", delays), ("dopplers", dopplers), ("gains", gains)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @functools.cached_property
    def _daft_taps(self) -> tuple[np.ndarray, np.ndarray]:
        """Source columns q and gain-weighted phases, both (paths, Nc) and read-only."""
        n, cfg = self.cfg.n_sub, self.cfg
        tau, nu = self.delays[:, None], self.dopplers[:, None] % n
        q = (np.arange(n) + subcarrier_offset(tau, nu, cfg)) % n
        phase = np.conj(cfg.c1_chirp[tau]) * cfg.dft_twiddle[(q + nu) * tau % n]
        taps = self.gains[:, None] * phase * cfg.c2_chirp * np.conj(cfg.c2_chirp[q])
        q.flags.writeable = False
        taps.flags.writeable = False
        return q, taps

    def images(self, x) -> np.ndarray:
        """The per-path terms of ``h @ x``, shape x.shape[:-1] + (paths, Nc)."""
        q, taps = self._daft_taps
        out = check_stack(x, self.cfg.n_sub, "DAFT-domain vector").take(q, axis=-1)
        # taps first: numpy's SIMD complex product rounds a*b and b*a differently
        return np.multiply(taps, out, out)

    def __matmul__(self, x) -> np.ndarray:
        return self.images(x).sum(axis=-2)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        n = self.cfg.n_sub
        q, taps = self._daft_taps
        out = np.zeros((n, n), dtype=np.complex128)
        np.add.at(out, (np.broadcast_to(np.arange(n), q.shape), q), taps)
        return out if dtype is None else out.astype(dtype, copy=False)

    @functools.cached_property
    def _time_taps(self) -> tuple[int, np.ndarray]:
        """Smallest delay tau_0 and the taps V, (spread + 1, Nc), read-only.

        Row t belongs to the delay tau = tau_0 + t and holds its diagonal
        c_tau read from the input side, V[t, a] = c_tau[<a + tau>_Nc], so
        that H_t[<a + tau>, a] = V[t, a]; a delay no path has is a zero row.
        A path adds gain * exp(j*2*pi*nu*a/Nc), the phase reduced in
        integers, negated where a + tau wraps past Nc when K*Nc is odd: that
        output reads the symbol through the chirp-periodic prefix.
        """
        n, cfg = self.cfg.n_sub, self.cfg
        tau_0 = int(self.delays.min()) if self.delays.size else 0
        tau_1 = int(self.delays.max()) if self.delays.size else 0
        a = np.arange(n)
        phase = self.dopplers[:, None] % n * a % n
        per_path = self.gains[:, None] * np.conj(cfg.dft_twiddle[phase])
        if cfg.prefix_flips:
            per_path[a + self.delays[:, None] >= n] *= -1
        taps = np.zeros((tau_1 - tau_0 + 1, n), dtype=np.complex128)
        for t, row in zip(self.delays - tau_0, per_path):
            taps[t] += row
        taps.flags.writeable = False
        return tau_0, taps

    def _band(self, lam: float) -> np.ndarray:
        """Lower band of H_t^H H_t + lam*I with the unknowns ordered [0, Nc-1, 1, Nc-2, ...].

        It reads the cyclic diagonals D[m, a] = (H_t^H H_t)[a, <a + m>_Nc] for
        m <= m_max = min(spread, Nc // 2), formed here: the sum of
        conj(V[t1, a]) * V[t2, <a + m>] over the delay pairs with t1 - t2 = m
        or m - Nc (both once the spread reaches Nc/2).  Position 2a holds the
        front unknown a < ceil(Nc/2) and position 2i+1 the back unknown
        Nc-1-i, so an even band row 2m pairs unknowns m apart on one side (D
        read at stride 2), and an odd row pairs a front unknown with a back
        one, which couple only across the two wraps: in the first and last
        m_max columns of the row.  It raises nothing itself; the solve has
        checked lam.
        """
        n = self.cfg.n_sub
        taps, conj = self._time_taps[1], np.conj(self._time_taps[1])
        spread = len(taps) - 1
        m_max, n_front, n_back = min(spread, n // 2), (n + 1) // 2, n // 2
        ahead = np.concatenate([taps, taps[:, :m_max]], axis=1)  # ahead[t, a + m] = V[t, <a + m>]
        diags = np.empty((m_max + 1, n), dtype=np.complex128)
        for m in range(m_max + 1):
            diags[m] = (conj[m:] * ahead[: spread + 1 - m, m : m + n]).sum(axis=0)
            if n - m <= spread:
                diags[m] += (conj[: spread + 1 - n + m] * ahead[n - m :, m : m + n]).sum(axis=0)
        width = min(2 * m_max, n - 1)
        band = np.zeros((width + 1, n), dtype=np.complex128)
        for m in range(width // 2 + 1):
            band[2 * m, 0 : 2 * (n_front - m) : 2] = np.conj(diags[m, : n_front - m])
            band[2 * m, 1 : 2 * (n_back - m) : 2] = diags[m, n_front : n - m][::-1]
        # Odd row k = 2m+1 pairs unknowns lag = j + 1 apart across a wrap, for
        # m <= j < m_max: at column j - m the back one of the pair reads D (the
        # wrap at 0), at column Nc - m - 2 - j the front one (the wrap at
        # Nc/2); the value is conjugated when that unknown is the column.
        m, j = np.nonzero(np.tri(m_max, dtype=bool).T)
        k, lag = 2 * m + 1, j + 1
        start, end = j - m, n - m - 2 - j
        at_back = diags[lag, n - 1 - np.where(start % 2, start, start + k) // 2]
        band[k, start] = np.where(start % 2, np.conj(at_back), at_back)
        at_front = diags[lag, np.where(end % 2, end + k, end) // 2]
        band[k, end] = np.where(end % 2, at_front, np.conj(at_front))
        band[0] += lam
        return band

    def regularized_solve(self, r, lam: float) -> np.ndarray:
        """Time-domain z = (H_t^H H_t + lam*I)^{-1} H_t^H r.

        H_t^H H_t + lam*I is Hermitian with cyclic half-bandwidth at most
        the spread max(tau) - min(tau).  Ordering the unknowns as
        [0, Nc-1, 1, Nc-2, ...] turns the cyclic band into an ordinary one
        twice as wide (``_band``), factored by one banded Cholesky
        decomposition at O(Nc*spread^2).  The channel keeps the factor of the
        last lam, (2*spread + 1)*Nc*16 bytes, so a repeat call with the same
        lam costs H_t^H r and two triangular solves.  Before any work, a
        ``lam`` not finite and >= 0 or a non-finite ``r`` raises
        ``ParameterError`` and an ``r`` not of shape (Nc,)
        ``ConfigurationError``; a matrix that is not positive definite or
        overflows raises ``NumericalError`` (with no warning) on every call
        and leaves no factor kept, and so does a solution that overflows,
        H_t^H r included.
        """
        # scipy.linalg takes about 0.3 s to import and only this solve needs
        # it, so importing it here keeps it out of every other caller's start-up.
        from scipy.linalg import cho_solve_banded, cholesky_banded

        check_nonnegative(lam, "lam")
        n = self.cfg.n_sub
        r = check_vector(r, n, "r")
        if not np.all(np.isfinite(r)):
            raise ParameterError("r must be finite")
        tau_0, taps = self._time_taps
        # H_t^H r at a: conj(V[t, a]) times r read at <a + tau_0 + t>
        reads = sliding_window_view(np.concatenate([r, r]), n)[tau_0 : tau_0 + len(taps)]
        cached = self._factor
        refactor = cached is None or cached[0] != lam
        # an overflow here leaves a non-finite band or solution, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = np.vecdot(taps, reads, axis=0)
            band = self._band(lam) if refactor else None
        half = (n + 1) // 2
        ordered = np.empty(n, dtype=np.complex128)
        ordered[0::2], ordered[1::2] = rhs[:half], rhs[half:][::-1]
        if refactor:
            if not np.isfinite(band).all():
                raise NumericalError("equalizer matrix overflows")
            try:
                # the band was checked just above, so scipy need not scan it again
                factor = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise NumericalError("singular equalizer matrix") from exc
            factor.flags.writeable = False
            cached = (lam, factor)
            object.__setattr__(self, "_factor", cached)
        z = cho_solve_banded((cached[1], True), ordered, check_finite=False)
        if not np.isfinite(z).all():
            raise NumericalError("equalizer solution overflows")
        return np.concatenate([z[0::2], z[1::2][::-1]])


def apply_channel_time(s_cpp, realization: ChannelRealization, cfg: AfdmConfig, rng=None) -> np.ndarray:
    """Push a prefixed time signal through the channel.

    Returns a signal of the same length.  Each path's Doppler ramp rides with
    the delayed signal, so the post-prefix window equals the DAFT-domain
    matrix model exactly; the window is chirp-periodic, so the prefix region
    (discarded by the receiver) is ``add_cpp`` of it.  With rng given,
    circularly symmetric Gaussian noise of the realization's power is added.
    """
    s_cpp = check_vector(s_cpp, cfg.n_sub + cfg.n_cpp, "prefixed signal")
    paths = realization.paths
    delays = np.array([p.delay for p in paths])
    if delays.max() > cfg.n_cpp:
        raise ParameterError(f"path delay {delays.max()} exceeds prefix length {cfg.n_cpp}")
    terms = _path_terms(s_cpp[cfg.n_cpp :], cfg, delays, [p.doppler for p in paths])
    y = add_cpp(np.array([p.gain for p in paths]) @ terms, cfg)
    if rng is not None and realization.noise_power > 0:
        scale = math.sqrt(realization.noise_power / 2.0)
        y += scale * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
    return y


def sample_channel(
    L: int, tau_m: int, nu_m: int, rng, noise_power: float = 0.0
) -> ChannelRealization:
    """Draw L distinct integer (tau, nu) pairs and CN(0, 1/L) gains."""
    check_count(L, "L")
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
    samples ``add_cpp`` would have put in front of it and at fractional ones
    reads the config's tables, a few exponentials per target, and the ramp
    is ``_doppler_ramp``.  ``s`` may be a stack (..., Nc); the target's
    delay, Doppler and gain are then scalars or arrays that broadcast over
    its leading axes, one target per row, and the noise is drawn for the
    whole stack, real parts first.
    """
    s = check_stack(s, cfg.n_sub, "symbols")
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
    delayed = waveform_samples(s, cfg, tau[..., None])[..., 0, :]
    r = gain[..., None] * delayed * _doppler_ramp(nu, cfg)
    if rng is not None and target.noise_power > 0:
        scale = math.sqrt(target.noise_power / 2.0)
        r = r + scale * (rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape))
    return r


def _doppler_ramp(nu, cfg: AfdmConfig) -> np.ndarray:
    """exp(j*2*pi*nu*n/Nc), n < Nc, on a last axis after the axes of the real ``nu``.

    With b = ceil(sqrt(Nc)) and n = q*b + r, the outer product of the ramps
    over k = q*b and k = r, each with nu = w + f (w = round(nu)) the
    ``dft_twiddle`` entry at -w*k mod Nc, reduced in int64, times
    exp(j*2*pi*f*k/Nc): the phase is exact at any nu and each sample within
    about a dozen ulps of the exponential of the exactly reduced phase.
    """
    nu, n_sub = np.asarray(nu, dtype=np.float64), cfg.n_sub
    whole = np.round(nu)
    width = math.isqrt(n_sub - 1) + 1
    step = 2j * np.pi * (nu - whole)[..., None] / n_sub
    back = np.mod(-whole, n_sub).astype(np.int64)[..., None]
    q, r = np.arange(0, n_sub, width), np.arange(width)
    coarse, fine = (np.exp(step * k) * cfg.dft_twiddle[back * k % n_sub] for k in (q, r))
    return (coarse[..., :, None] * fine[..., None, :]).reshape(nu.shape + (-1,))[..., :n_sub]


def delay_doppler_to_range_velocity(tau_hat: float, nu_hat: float, cfg: AfdmConfig) -> tuple[float, float]:
    """Convert normalized estimates to range (m) and radial velocity (m/s).

    Monostatic round trip: delay 2R/c and Doppler shift 2*V*f_c/c.  The
    estimates are finite real numbers or arrays of them.
    """
    r = SPEED_OF_LIGHT * check_reals(tau_hat, "tau_hat") * cfg.t_s / 2.0
    v = SPEED_OF_LIGHT * check_reals(nu_hat, "nu_hat") * cfg.delta_f / (2.0 * cfg.f_c)
    return r, v
