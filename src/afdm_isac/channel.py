"""Doubly dispersive channel, radar echo generation, and DAFT-domain models.

One model of a path serves the link and the radar.  A path with delay tau
samples, normalized Doppler nu and gain beta maps the prefix-free symbol s
(``idaft`` output) to the post-prefix window

    r[n] = beta * s((n - tau)*Ts) * exp(j*2*pi*nu*n/Nc),    n < Nc,

the delayed copy ``waveform_samples`` of s times the Doppler ramp
``_doppler_ramp`` on the receive index.  At a whole delay the copy is the
chirp-periodic extension that ``add_cpp`` builds, s[<n - tau>_Nc] negated
when n - tau < 0 and K*Nc is odd (K = 2*c1*Nc); at a fractional one it is
the frequency-wrapped chirp waveform.  The ramp's whole part is read from
``dft_twiddle``, so it is exact at any nu, at 2*sqrt(Nc) exponentials per
nu; it is every real Doppler ramp of the package, a path's, an echo's or a
range-Doppler map's (``sensing``).  ``sensing_echo`` is this map for one
target.  ``apply_channel_time`` sums it over the paths of a realization,
path gain alpha taken as beta = alpha * exp(-j*2*pi*nu*tau/Nc), so a path is

    y[n] = alpha * s[n - tau] * exp(j*2*pi*nu*(n - tau)/Nc),

the chirp-periodic-prefix model of Bemani, Ghogho and Kountouris.  At an
integer Doppler the same path in the DAFT domain is the unitary matrix
A * Gamma * Pi^tau * Delta_nu * A^H scaled by alpha, one nonzero per row;
``PathChannel`` keeps a sum of such paths as one table of those nonzeros,
and the tests check it against the dense matrices.  Arguments are
validated once at the public entry: the public constructor and the
transforms check theirs, while the estimator builds its channels by
``PathChannel._trusted`` and equalizes by ``PathChannel._daft_solve`` over
arrays it has checked or built itself, with no check.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .daft import (
    AfdmConfig,
    _broadcasts_to,
    _daft,
    _idaft,
    _whole_delays,
    add_cpp,
    daft,
    idaft,
    waveform_samples,
)
from .errors import (
    NumericalError,
    ParameterError,
    check_cells,
    check_count,
    check_finite,
    check_integers,
    check_nonnegative,
    check_number,
    check_reals,
    check_stack,
    check_type,
    check_vector,
    is_integer,
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
        check_number(self.gain, "path gain")
        if not (is_real(self.doppler) and math.isfinite(self.doppler)):
            raise ParameterError(f"path Doppler must be a finite real number, got {self.doppler!r}")


@dataclass(frozen=True)
class ChannelRealization:
    """A set of paths plus the communication noise power and the integer grid bounds."""

    paths: tuple[ChannelPath, ...]
    noise_power: float
    tau_m: int
    nu_m: int

    def __post_init__(self):
        paths = self.paths
        if not isinstance(paths, (tuple, list)) or not all(isinstance(p, ChannelPath) for p in paths):
            raise ParameterError(f"paths must be a sequence of ChannelPath, got {self.paths!r}")
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
    nu_i = i % (2*nu_m + 1) - nu_m.  Both bounds are integers >= 0, and a
    grid whose int64 pair indices pass numpy's array limit (``check_cells``)
    raises ``ParameterError``.
    """

    tau_m: int
    nu_m: int
    pairs: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        check_count(self.tau_m, "tau_m", least=0)
        check_count(self.nu_m, "nu_m", least=0)
        size = check_cells((2 * int(self.nu_m) + 1) * (int(self.tau_m) + 1), "a basis grid")
        delays, dopplers = _grid_pairs(np.arange(size), self.nu_m)
        object.__setattr__(self, "pairs", tuple(zip(delays.tolist(), dopplers.tolist())))

    def __len__(self) -> int:
        return len(self.pairs)

    def index_of(self, tau: int, nu: int) -> int:
        """The index of the pair (tau, nu); ``ParameterError`` for a pair not on the grid."""
        if not (is_integer(tau) and is_integer(nu) and 0 <= tau <= self.tau_m and abs(nu) <= self.nu_m):
            raise ParameterError(f"({tau!r}, {nu!r}) is not a pair of the ({self.tau_m}, {self.nu_m}) grid")
        return tau * (2 * self.nu_m + 1) + nu + self.nu_m


def _grid_pairs(indices: np.ndarray, nu_m: int) -> tuple[np.ndarray, np.ndarray]:
    """The delays and Dopplers of the pairs at the int64 ``indices`` of a grid of
    Doppler bound ``nu_m``, unchecked: ``BasisGrid``'s pair rule."""
    delays, dopplers = np.divmod(indices, 2 * nu_m + 1)
    return delays, dopplers - nu_m


def basis_grid(tau_m: int, nu_m: int) -> BasisGrid:
    return BasisGrid(tau_m=tau_m, nu_m=nu_m)


def _paths(s, cfg: AfdmConfig, delays: np.ndarray, dopplers) -> np.ndarray:
    """Unit-gain paths s[n - tau] * exp(j*2*pi*nu*(n - tau)/Nc), n < Nc, shape (paths, Nc).

    ``delays`` is an integer array with entries in [0, Nc).  The delayed copy
    is ``waveform_samples``' whole-delay reader, bit for bit its output (a
    benchmark trace counts the public name as sensing work), and the ramp is
    ``_doppler_ramp``, times its conjugate at n = tau: exp(-j*2*pi*nu*tau/Nc).
    """
    ramps = _doppler_ramp(dopplers, cfg)
    return _whole_delays(s, cfg, delays) * ramps * np.conj(ramps[np.arange(delays.size), delays, None])


def apply_basis(x, cfg: AfdmConfig, tau, nu) -> np.ndarray:
    """DAFT-domain action of unit-gain (tau, nu) paths on x, via chirp-FFT ops.

    A scalar integer delay tau in [0, Nc) and a real Doppler nu give one
    vector of shape (Nc,).  1-D arrays of L delays and L Dopplers give one
    row per path, shape (L, Nc): one ``idaft`` of x and one batched ``daft``,
    each row bit for bit the scalar call.  The FFT reference for
    ``PathChannel``; no receive path calls it (the benchmark pins its route).
    """
    check_type(cfg, AfdmConfig, "cfg")
    delays, dopplers = np.atleast_1d(tau), np.atleast_1d(check_reals(nu, "Dopplers"))
    if delays.dtype.kind not in "iu" or delays.ndim != 1 or dopplers.shape != delays.shape:
        raise ParameterError(f"need integer delays and one Doppler each, got {tau!r} and {nu!r}")
    if delays.min(initial=0) < 0 or delays.max(initial=0) >= cfg.n_sub:
        raise ParameterError(f"delays must lie in [0, Nc), got {tau}")
    rows = daft(_paths(idaft(x, cfg), cfg, delays, dopplers), cfg)
    return rows if np.ndim(tau) else rows[0]


def _unknown_order(n: int) -> np.ndarray:
    """The unknowns [0, n-1, 1, n-2, ...] of the banded solve: the front ones at even positions."""
    order = np.empty(n, dtype=np.int64)
    order[0::2], order[1::2] = np.arange((n + 1) // 2), np.arange(n - 1, (n - 1) // 2, -1)
    return order


# at most 16 layouts, each (2*m_max + 1)*Nc*8 bytes (70 KB at Nc = 512 with a
# spread of 8): the link's channel estimates take every spread from 0 to tau_m
@functools.lru_cache(maxsize=16)
def _band_layout(n: int, m_max: int) -> np.ndarray:
    """Where ``PathChannel._band`` reads each entry: an index into the flat
    [D, conj(D), 0] of the (m_max + 1, n) cyclic diagonals D, one per band entry,
    shape (min(2*m_max, n - 1) + 1, n) and read-only.

    Band entry (k, c) is A[x, y] with x = order[c + k] and y = order[c]
    (``_unknown_order``): conj(D[(x - y) mod n, y]) when that lag is at most
    m_max, else D[(y - x) mod n, x] when that one is, else 0, and 0 past the
    matrix's corner (c + k >= n).  It depends on the order alone, so every
    channel of that size and reach shares it.
    """
    order, size = _unknown_order(n), (m_max + 1) * n
    rows = np.arange(n) + np.arange(min(2 * m_max, n - 1) + 1)[:, None]
    x, y = order[np.minimum(rows, n - 1)], order
    back, ahead = (x - y) % n, (y - x) % n
    at = np.where(back <= m_max, size + back * n + y, np.where(ahead <= m_max, ahead * n + x, 2 * size))
    at[rows >= n] = 2 * size
    at.flags.writeable = False
    return at


def subcarrier_offset(tau, nu, cfg: AfdmConfig):
    """Cyclic subcarrier shift 2*c1*tau*Nc - nu (mod Nc) induced by a path.

    Works elementwise on whole delays and Dopplers, integers or integer
    arrays of int64 range (else ``ParameterError``), reduced mod Nc first.
    """
    check_type(cfg, AfdmConfig, "cfg")
    tau = check_integers(np.ravel(tau), "delays").reshape(np.shape(tau))
    nu = check_integers(np.ravel(nu), "Dopplers").reshape(np.shape(nu))
    return _offset(tau, nu, cfg)


def _offset(tau: np.ndarray, nu: np.ndarray, cfg: AfdmConfig) -> np.ndarray:
    """``subcarrier_offset`` of int64 arrays, unchecked: a ``PathChannel``'s own delays and Dopplers."""
    n = cfg.n_sub
    return (cfg.two_c1_n % n * (tau % n) - nu % n) % n


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
    single vectors and streams stacks through ``images`` in blocks.  A vector
    is gathered by ``x[q]`` (numpy's ``take`` copies the read-only q first),
    a stack by ``take``.  ``_forms(x, image)`` reads the quadratic forms
    x^H h_i x of a stack (the ambiguity Monte Carlo's points) without the
    images: path i's image is x shifted cyclically by q[i, 0] into one
    reused row buffer and multiplied by its taps.
    ``np.asarray(h)`` gives the dense DAFT-domain matrix and ``_daft_solve``
    the equalizer's banded time-domain normal-equation solve, whose band is
    formed in closed form: the cyclic diagonals of H_t^H H_t are the inverse
    DFT of coefficients summed over pairs of paths (``_band``), with no loop
    over lags, delays or paths.  Every array is frozen: ``delays``,
    ``dopplers`` and ``gains`` are read-only copies of the arguments, so a
    later write to the caller's arrays cannot change the channel or make its
    state stale (``_trusted`` takes over fresh arrays instead of copying).
    It keeps one tap table, the source columns and taps that every product,
    the dense view and the H^H r of every solve read, P*Nc*24 bytes for P
    paths, built on the first product or solve; and one factor, the banded
    Cholesky factor of the last lam, (2*spread + 1)*Nc*16 bytes with
    spread = max(tau) - min(tau) (about 140 KB at Nc = 512 with a spread
    of 8, 71 MB at Nc = 2^18).  The band's Gram diagonals are not kept:
    every workload factors a channel at one lam.
    """

    cfg: AfdmConfig
    delays: np.ndarray
    dopplers: np.ndarray
    gains: np.ndarray
    # (lam, banded Cholesky factor) of the last solve
    _factor: tuple[float, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        check_type(self.cfg, AfdmConfig, "cfg")
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

    @classmethod
    def _trusted(cls, cfg: AfdmConfig, delays: np.ndarray, dopplers: np.ndarray, gains: np.ndarray) -> PathChannel:
        """The channel of arrays the caller built and hands over: int64 delays in
        [0, Nc) and Dopplers, finite complex128 gains, all 1-D of one length.  They
        are made read-only, not copied, and nothing is checked."""
        for value in (delays, dopplers, gains):
            value.flags.writeable = False
        h = object.__new__(cls)
        vars(h).update(cfg=cfg, delays=delays, dopplers=dopplers, gains=gains, _factor=None)
        return h

    @functools.cached_property
    def _daft_taps(self) -> tuple[np.ndarray, np.ndarray]:
        """Source columns q and gain-weighted phases, both (paths, Nc) and read-only.

        Each product is formed in place with its operands in the formula's
        order (numpy's SIMD complex product rounds a*b and b*a differently),
        so building the table holds 40 bytes per entry at its peak: q, one
        int64 index and the taps, then q, the taps and one gather.
        """
        n, cfg = self.cfg.n_sub, self.cfg
        tau, nu = self.delays[:, None], self.dopplers[:, None] % n
        q = np.arange(n) + _offset(tau, nu, cfg)
        q %= n
        at = q + nu
        at *= tau
        at %= n
        taps = cfg.dft_twiddle[at]
        del at
        np.multiply(np.conj(cfg.c1_chirp[tau]), taps, out=taps)
        np.multiply(self.gains[:, None], taps, out=taps)
        taps *= cfg.c2_chirp
        source = cfg.c2_chirp[q]
        taps *= np.conj(source, out=source)
        q.flags.writeable = False
        taps.flags.writeable = False
        return q, taps

    def images(self, x) -> np.ndarray:
        """The per-path terms of ``h @ x``, shape x.shape[:-1] + (paths, Nc)."""
        q, taps = self._daft_taps
        x = check_stack(x, self.cfg.n_sub, "DAFT-domain vector")
        # take copies the read-only q before it gathers; a vector's x[q] does not
        out = x[q] if x.ndim == 1 else x.take(q, axis=-1)
        # taps first: numpy's SIMD complex product rounds a*b and b*a differently
        return np.multiply(taps, out, out)

    def _forms(self, x: np.ndarray, image: np.ndarray) -> np.ndarray:
        """x^H h_i x for each path i of the checked stack x (..., Nc), shape x.shape[:-1] + (paths,).

        Bit for bit ``np.vecdot(x[..., None, :], h.images(x))`` at Nc >= 2: row
        p of path i reads x[<p + k>_Nc] with k = q[i, 0], so each path's image
        is x shifted cyclically by two slice copies into ``image``, the
        caller's one reused buffer of x's shape, then multiplied by the taps
        in place, taps first as in ``images``.
        """
        q, taps = self._daft_taps
        n = self.cfg.n_sub
        out = np.empty(x.shape[:-1] + (len(q),), dtype=np.complex128)
        for i, k in enumerate(q[:, 0].tolist()):
            image[..., : n - k] = x[..., k:]
            image[..., n - k :] = x[..., :k]
            np.multiply(taps[i], image, out=image)
            out[..., i] = np.vecdot(x, image)
        return out

    def __matmul__(self, x) -> np.ndarray:
        return self.images(x).sum(axis=-2)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        n = self.cfg.n_sub
        q, taps = self._daft_taps
        out = np.zeros((n, n), dtype=np.complex128)
        np.add.at(out, (np.broadcast_to(np.arange(n), q.shape), q), taps)
        return out if dtype is None else out.astype(dtype, copy=False)

    def _band(self, lam: float) -> np.ndarray:
        """Lower band of H_t^H H_t + lam*I with the unknowns ordered [0, Nc-1, 1, Nc-2, ...].

        The cyclic diagonals D[m, a] = (H_t^H H_t)[a, <a + m>_Nc] for
        m <= m_max = min(spread, Nc // 2) come in closed form from the paths.
        A pair of paths (i, j) with tau_i - tau_j = m mod Nc adds
        conj(g_i) * g_j * w^(nu_j*m) * w^((nu_j - nu_i)*a), w = exp(j*2*pi/Nc),
        to D[m, a], so row m of D is the unscaled inverse DFT of its
        coefficients over the Doppler differences: one ``bincount`` per real
        part gathers them and one batched FFT forms every row, with no loop
        over lags or paths.  When K*Nc is odd the prefix flips negate a pair's
        term when tau_i < tau_j, and the entry where a + m >= Nc.  The band
        is then one gather from [D, conj(D), 0] through ``_band_layout``.
        It raises nothing itself; the solve has checked lam.
        """
        n, cfg = self.cfg.n_sub, self.cfg
        tau, nu, gains = self.delays, self.dopplers % n, self.gains
        diff = tau[:, None] - tau
        m_max = min(int(diff.max(initial=0)), n // 2)
        lag = diff % n
        i, j = np.nonzero(lag <= m_max)
        m = lag[i, j]
        terms = np.conj(gains[i]) * gains[j] * cfg.dft_twiddle[-nu[j] * m % n]
        if cfg.prefix_flips:
            terms[tau[i] < tau[j]] *= -1
        at, size = m * n + (nu[j] - nu[i]) % n, (m_max + 1) * n
        coef = np.empty((m_max + 1, n), dtype=np.complex128)
        coef.real = np.bincount(at, terms.real, size).reshape(coef.shape)
        coef.imag = np.bincount(at, terms.imag, size).reshape(coef.shape)
        source = np.empty(2 * size + 1, dtype=np.complex128)  # [D, conj(D), 0]
        diags = source[:size].reshape(coef.shape)
        np.fft.ifft(coef, axis=-1, norm="forward", out=diags)
        if cfg.prefix_flips:
            tail = diags[:, n - m_max :]  # a = Nc - m_max + t, so a + m >= Nc where t + m >= m_max
            tail[np.arange(m_max) + np.arange(m_max + 1)[:, None] >= m_max] *= -1
        np.conjugate(diags, out=source[size:-1].reshape(coef.shape))
        source[-1] = 0
        band = source.take(_band_layout(n, m_max))
        band[0] += lam
        return band

    def _daft_solve(self, r: np.ndarray, lam: float) -> np.ndarray:
        """The DAFT-domain (H^H H + lam*I)^{-1} H^H r of a finite complex128 (Nc,)
        ``r`` and a finite lam >= 0, unchecked: ``daft`` of the time-domain
        (H_t^H H_t + lam*I)^{-1} H_t^H idaft(r), where A is unitary and
        H = A H_t A^H, so H_t^H idaft(r) is ``idaft`` of H^H r.

        H^H r is read from the tap table: path i's row p puts
        conj(taps[i, p]) * r[p] at column q[i, p], one permutation per path.
        The Hermitian matrix, of cyclic half-bandwidth at most the spread,
        is an ordinary band twice as wide with the unknowns ordered
        [0, Nc-1, 1, Nc-2, ...] (``_band``), factored by one banded Cholesky
        decomposition at O(Nc*spread^2) and kept for the last lam, so a
        repeat costs H^H r, one ``idaft`` and two triangular solves.  A
        matrix that is not positive definite or overflows raises
        ``NumericalError`` (with no warning) on every call and leaves no
        factor kept, and so does a solution that overflows.
        """
        pbtrf, pbtrs = _banded_cholesky()
        q, taps = self._daft_taps
        cached = self._factor
        refactor = cached is None or cached[0] != lam
        # an overflow here leaves a non-finite band or solution, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            adjoint = np.empty_like(taps)
            np.put_along_axis(adjoint, q, np.conj(taps) * r, axis=-1)
            # H_t^H idaft(r) in the band's order
            ordered = _idaft(adjoint.sum(axis=0), self.cfg)[_unknown_order(self.cfg.n_sub)]
            band = self._band(lam) if refactor else None
        if refactor:
            if not np.isfinite(band).all():
                raise NumericalError("equalizer matrix overflows")
            factor, info = pbtrf(band, lower=1, overwrite_ab=1)
            if info:
                raise NumericalError("singular equalizer matrix")
            factor.flags.writeable = False
            cached = (lam, factor)
            object.__setattr__(self, "_factor", cached)
        # pbtrs reports only an illegal argument, and the factor and H_t^H r fit by construction
        z, _ = pbtrs(cached[1], ordered, lower=1, overwrite_b=1)
        if not np.isfinite(z).all():
            raise NumericalError("equalizer solution overflows")
        return _daft(np.concatenate([z[0::2], z[1::2][::-1]]), self.cfg)


@functools.cache
def _banded_cholesky():
    """LAPACK's complex banded Cholesky factorization and solve (zpbtrf, zpbtrs), the
    routines of scipy's ``cholesky_banded`` and ``cho_solve_banded``, loaded on first use.

    They are read from scipy's compiled LAPACK wrapper, the extension module
    ``scipy.linalg._flapack``, loaded by itself: the ``scipy`` and
    ``scipy.linalg`` packages are located but never imported.  After numpy,
    importing ``scipy.linalg`` took 0.22-0.24 s and raised the peak RSS by
    28 MB (x86_64, Python 3.11, numpy 2.4, scipy 1.17), nearly all of it in
    modules the solve never calls; the extension alone took 3-6 ms and
    2.5 MB.  The routines are the ones scipy's ``get_lapack_funcs(("pbtrf",
    "pbtrs"))`` returns for complex128, the very same objects, whichever of
    the two loads first.  Without scipy the first solve raises ``ImportError``.
    """
    scipy = importlib.util.find_spec("scipy")
    packages = (scipy.submodule_search_locations or ()) if scipy else ()
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack", [os.path.join(path, "linalg") for path in packages]
    )
    if spec is None:
        raise ImportError("the banded equalizer needs scipy (its scipy.linalg._flapack), which was not found")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.zpbtrf, flapack.zpbtrs


def apply_channel_time(s_cpp, realization: ChannelRealization, cfg: AfdmConfig, rng) -> np.ndarray:
    """Push a prefixed time signal through the channel.

    Returns a signal of the same length.  The post-prefix window is the sum
    over paths of alpha * s[n - tau] * exp(j*2*pi*nu*(n - tau)/Nc), read from
    the prefix-free part of ``s_cpp`` (the module's model), which at integer
    Dopplers is the DAFT-domain matrix model exactly.  The prefix region,
    which the receiver discards, is ``add_cpp`` of the window: the physical
    prefix at integer Dopplers only.  Exactly when the realization's noise
    power is positive, circularly symmetric Gaussian noise of that power is
    added: two ``standard_normal`` calls on the ``Generator`` ``rng``, real
    parts then imaginary parts, one value per sample.  A non-finite entry of
    ``s_cpp``, or an ``rng`` that is no ``Generator``, raises ``ParameterError``.
    """
    check_type(realization, ChannelRealization, "realization")
    check_type(cfg, AfdmConfig, "cfg")
    check_type(rng, np.random.Generator, "rng")
    s_cpp = check_finite(check_vector(s_cpp, cfg.n_sub + cfg.n_cpp, "prefixed signal"), "prefixed signal")
    paths = realization.paths
    delays = np.array([int(p.delay) for p in paths])
    if delays.max() > cfg.n_cpp:
        raise ParameterError(f"path delay {delays.max()} exceeds prefix length {cfg.n_cpp}")
    terms = _paths(s_cpp[cfg.n_cpp :], cfg, delays, [p.doppler for p in paths])
    y = add_cpp(np.array([p.gain for p in paths]) @ terms, cfg)
    if realization.noise_power > 0:
        scale = math.sqrt(realization.noise_power / 2.0)
        y += scale * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
    return y


def sample_channel(
    L: int, tau_m: int, nu_m: int, rng, noise_power: float = 0.0
) -> ChannelRealization:
    """Draw L distinct integer (tau, nu) pairs and CN(0, 1/L) gains from the Generator ``rng``.

    One ``choice`` draws the indices of the pairs on the (tau_m, nu_m) grid,
    read by ``BasisGrid``'s pair rule, then one ``standard_normal`` draws 2L
    values: path i's gain has real part 2i and imaginary part 2i + 1, each
    times sqrt(1/(2L)).  A grid that ``BasisGrid`` refuses for its size
    raises ``ParameterError`` too.
    """
    check_count(L, "L")
    check_type(rng, np.random.Generator, "rng")
    check_count(tau_m, "tau_m", least=0)
    check_count(nu_m, "nu_m", least=0)
    size = check_cells((2 * int(nu_m) + 1) * (int(tau_m) + 1), "a basis grid")
    if L > size:
        raise ParameterError(f"L={L} exceeds the {size}-pair grid")
    picks = rng.choice(size, size=L, replace=False)
    gains = (rng.standard_normal((L, 2)) * math.sqrt(1.0 / (2 * L))).view(np.complex128).ravel()
    delays, dopplers = _grid_pairs(picks, nu_m)
    paths = tuple(
        ChannelPath(complex(g), tau, float(nu)) for tau, nu, g in zip(delays.tolist(), dopplers.tolist(), gains)
    )
    return ChannelRealization(paths=paths, noise_power=noise_power, tau_m=tau_m, nu_m=nu_m)


def sensing_echo(s, cfg: AfdmConfig, target: SensingTarget) -> np.ndarray:
    """Noiseless target echo over the post-prefix window (Nc samples) of the symbol ``s``.

    r[n] = beta * s((n - tau_bar)*Ts) * exp(j*2*pi*nu_bar*n/Nc), with
    ``s`` the prefix-free time symbol (``idaft`` output).  The delayed copy
    is ``waveform_samples`` of ``s``, which at whole-sample delays reads the
    samples ``add_cpp`` would have put in front of it and at fractional ones
    reads the config's tables, a few exponentials per target, and the ramp
    is ``_doppler_ramp``.  ``s`` may be a stack (..., Nc); the target's
    delay, Doppler and gain are then scalars or arrays that broadcast over
    its leading axes, one target per row.  The target's noise power is the
    caller's to add (``sensing.roc_curve`` adds it per block of trials).  A
    non-finite entry of ``s`` raises ``ParameterError``.
    """
    check_type(cfg, AfdmConfig, "cfg")
    check_type(target, SensingTarget, "target")
    s = check_finite(check_stack(s, cfg.n_sub, "symbols"), "symbols")
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
    return _echo(s, cfg, gain, tau, nu)


def _echo(s: np.ndarray, cfg: AfdmConfig, gain: np.ndarray, tau: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """``sensing_echo`` of a finite complex128 symbol stack, unchecked: the target's
    gain, delay (in [0, n_cpp]) and Doppler are arrays that broadcast over its leading axes."""
    echo = gain[..., None] * waveform_samples(s, cfg, tau[..., None])[..., 0, :]
    echo *= _doppler_ramp(nu, cfg)
    return echo


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
    check_type(cfg, AfdmConfig, "cfg")
    r = SPEED_OF_LIGHT * check_reals(tau_hat, "tau_hat") * cfg.t_s / 2.0
    v = SPEED_OF_LIGHT * check_reals(nu_hat, "nu_hat") * cfg.delta_f / (2.0 * cfg.f_c)
    return r, v
