"""Dense N x N channel matrices and waveform sums, kept only as test oracles.

Each path is built as the explicit time-domain matrix Gamma * Pi^tau * Delta_nu
of the channel model, its Doppler ramp on the receive index, and mapped to the
DAFT domain with the dense matrix A, independently of the structured
``PathChannel`` and the FFT routes ``apply_basis`` and ``apply_channel_time``
it checks.  The fractional-delay waveform is the explicit frequency-wrapped
subcarrier sum, independently of the FFT closed form of ``waveform_samples``.
The Fisher ``frac`` kernel is the explicit Nc x Nc array whose row sums
``analysis._fim_sums`` computes from one table of Nc values.  The ambiguity
moments are read in the time domain, by synthesizing every frame and
correlating it with its delayed copy, which ``analysis.ambiguity_moments_mc``
answers in the DAFT domain instead; their data symbols are unpacked bit by bit
from the random bytes, where the Monte Carlo gathers them through a 256-row
byte table.  The delay-Doppler correlation builds a contiguous (..., delays,
Nc) stack of delayed symbols, at whole delays from the explicit chirp-periodic
extension s[(n - tau) mod Nc] * (-1)^(K*Nc*floor((n - tau)/Nc)) in Python
integers, where ``sensing._correlate`` reads windows of the extension through
``waveform_samples`` (often a strided view).  The pilot's Gram over a list of
basis pairs is built directly, as the rows of the pilot's images times their
conjugates, where ``analysis.verify_theorem_4`` reads it from the estimator's
cached pilot model.  The equalizer's band is read off the dense time-domain
normal matrix, where ``PathChannel._band`` forms its cyclic diagonals in closed
form.  The dense-route iterative estimator forms its own posterior by an
explicit inverse, its own interference level sigma_d^2 * sum(g) + N0 and its
own 3-sigma test.  ``mmse_estimate`` hands the Psi^H y and Psi^H Psi of a
dense Psi to the estimator's posterior kernel, which the link feeds from its
cached pilot model.  The iterative estimator's loop is kept as it was before
each channel estimate was pushed through the frame once: three
``PathChannel`` products per estimate and the public ``equalize_demod``.
"""

import math
from fractions import Fraction

import numpy as np

from afdm_isac import AfdmConfig, build_daft_matrix, idaft, waveform_samples
from afdm_isac.analysis import cross_ambiguity
from afdm_isac.channel import ChannelPath, ChannelRealization, PathChannel, _doppler_ramp
from afdm_isac.errors import ParameterError
from afdm_isac import estimator
from afdm_isac.estimator import PriorModel, build_psi, equalize_demod
from afdm_isac.modem import demap_symbols, map_bits


def time_matrix(cfg: AfdmConfig, tau: int, nu: float) -> np.ndarray:
    """Unit-gain time-domain path matrix on the prefix-free window.

    The chirp-periodic-prefix model,
    h[n, <n - tau>_Nc] = prefix * exp(j*2*pi*nu*(n - tau)/Nc): the Doppler
    ramp on the receive index, continuous over the window at any real nu; at
    an integer nu it equals the ramp at the source index <n - tau>_Nc.
    """
    nc = cfg.n_sub
    n = np.arange(nc)
    src = (n - tau) % nc
    prefix = np.where(
        n < tau, np.exp(-2j * np.pi * cfg.c1 * (nc * nc + 2.0 * nc * (n - tau))), 1.0
    )
    h = np.zeros((nc, nc), dtype=np.complex128)
    h[n, src] = prefix * np.exp(2j * np.pi * nu * (n - tau) / nc)
    return h


def waveform_dense(x, cfg: AfdmConfig, instants) -> np.ndarray:
    """The chirp waveform of DAFT-domain ``x`` at real sample instants, O(len * Nc).

    Sums the subcarriers with frequency-wrapped instantaneous phase
    c1 t^2 + m t/Nc - floor(2 c1 t + m/Nc) t + c2 m^2, its terms in t reduced
    mod 1 exactly, so the phase holds its digits at any |t|.  Each instant is
    split exactly, in Python fractions, into an integer i and g = t - i, and
    K*g (K = 2 c1 Nc) into a = floor(K g) and a rest in [0, 1), as
    ``analysis._frac_table`` splits K*tau.  The wrap index floor((K t + m)/Nc)
    is then W + d_m with W = (K i + a) // Nc and d_m = 1 where
    (K i + a) mod Nc + m >= Nc, else 0, exact at ties (K t an integer).  So
    m t/Nc - wrap*t is (m i mod Nc)/Nc + (m/Nc - d_m) g - W g mod 1, and
    c1 t^2 - W g, one number per instant, is reduced in fractions.
    """
    nc, k = cfg.n_sub, cfg.two_c1_n
    parts = []
    for t in np.asarray(instants, dtype=np.float64).ravel():
        t = Fraction(float(t))
        i = round(t)
        g = t - i
        whole, start = divmod(k * i + math.floor(k * g), nc)
        parts.append((float((k * t * t / (2 * nc) - whole * g) % 1), i % nc, float(g), start))
    turns, i, g, start = (np.array(part).reshape(-1, 1) for part in zip(*parts))
    m = np.arange(nc)
    phase = turns + i * m % nc / nc + (m / nc - (start + m >= nc)) * g
    chirp = np.exp(2j * np.pi * cfg.c2 * m * m)
    return np.exp(2j * np.pi * phase) * chirp @ np.asarray(x, dtype=np.complex128) / math.sqrt(nc)


def frac_kernel(cfg: AfdmConfig, tau_bar: float) -> np.ndarray:
    """frac(2*c1*(n - tau_bar) + m/Nc) with shape (Nc subcarriers, Nc samples).

    K*tau_bar (K = 2*c1*Nc) is split exactly, by integer arithmetic on the
    ratio of the float tau_bar, into an integer w and a fraction f in [0, 1).
    With the integer j = <K*n + m - w>_Nc an entry is (j - f)/Nc, or
    (Nc - f)/Nc when j = 0 < f: 0 at a tie and just below 1 just past one.
    """
    nc, k = cfg.n_sub, cfg.two_c1_n
    num, den = float(tau_bar).as_integer_ratio()
    whole, rest = divmod(k * num, den)
    f = rest / den
    j = (k * np.arange(nc) - whole % nc)[None, :] + np.arange(nc)[:, None]
    j %= nc
    return (np.where((j == 0) & (f > 0), nc, j) - f) / nc


def delayed_stack(b, cfg: AfdmConfig, tau_axis) -> np.ndarray:
    """b(n - tau) for each delay of the 1-D ``tau_axis``, a contiguous (..., delays, Nc) stack.

    A whole delay reads s[(n - tau) mod Nc] * (-1)^(K*Nc*floor((n - tau)/Nc)),
    the index and the sign worked out in Python integers, so any whole delay
    is exact; a fractional one is the closed form of ``waveform_samples``.
    """
    b = np.asarray(b, dtype=np.complex128)
    taus = np.asarray(tau_axis, dtype=np.float64)
    nc = cfg.n_sub
    frac = taus != np.round(taus)
    ref = np.empty(b.shape[:-1] + (taus.size, nc), dtype=np.complex128)
    if np.any(frac):
        ref[..., frac, :] = waveform_samples(b, cfg, taus[frac])
    for j in np.flatnonzero(~frac):
        lag = [k - int(taus[j]) for k in range(nc)]
        vals = b[..., [i % nc for i in lag]]
        flip = np.array([cfg.two_c1_n * nc * (i // nc) % 2 for i in lag], dtype=bool)
        ref[..., j, :] = np.where(flip, -vals, vals)
    return ref


def correlate_by_gather(a, b, tau_axis, nu_axis, cfg: AfdmConfig) -> np.ndarray:
    """``sensing._correlate`` on the contiguous stack of ``delayed_stack``.

    The same product on a (..., delays, Nc) stack of b(n - tau) built for
    every delay, whole or fractional.
    """
    comp = np.conj(a)[..., None, :] * _doppler_ramp(nu_axis, cfg)
    ref = delayed_stack(b, cfg, tau_axis)
    return np.swapaxes(comp @ np.swapaxes(ref, -1, -2), -1, -2)


def symbol_draws(rng, constellation, n_frames: int, n_sub: int) -> np.ndarray:
    """Symbol indices, (n_frames, n_sub), of the frames ``ambiguity_moments_mc`` draws.

    One ``rng.bytes`` call; each frame takes ceil(n_sub*k/32) whole 32-bit
    words for k bits per symbol, and its bits, least significant first within
    each byte, are read k at a time, each group least significant bit first.
    """
    k = constellation.bits_per_symbol
    words = -(-n_sub * k // 32)
    raw = np.frombuffer(rng.bytes(n_frames * 4 * words), np.uint8).reshape(n_frames, 4 * words)
    bits = np.unpackbits(raw, axis=1, bitorder="little")[:, : n_sub * k]
    return bits.reshape(n_frames, n_sub, k).astype(np.int64) @ (1 << np.arange(k))


def ambiguity_moments_time_domain(x_pilot, spec, cfg: AfdmConfig, points, n_frames, rng) -> dict:
    """``ambiguity_moments_mc`` on the time-domain route, with the same draws.

    Synthesizes the frame stack with ``idaft`` and evaluates each point with
    ``cross_ambiguity``, which delays the whole stack.
    """
    data = spec.constellation.points[symbol_draws(rng, spec.constellation, n_frames, cfg.n_sub)]
    data *= spec.sigma_d
    s_all = idaft(data + np.asarray(x_pilot, dtype=np.complex128), cfg)
    values = np.array(
        [cross_ambiguity(s_all, s_all, [tau], [nu], cfg)[:, 0, 0] for tau, nu in points]
    )
    mean = values.mean(axis=1)
    centered = values - mean[:, None]
    var = np.mean(np.abs(centered) ** 2, axis=1)
    m4 = np.mean(np.abs(centered) ** 4, axis=1)
    return {
        "mean": mean,
        "variance": var,
        "se_mean": np.sqrt(var / n_frames),
        "se_variance": np.sqrt(np.maximum(m4 - var**2, 0.0) / n_frames),
    }


def basis_matrix(cfg: AfdmConfig, tau: int, nu: float) -> np.ndarray:
    """Dense unit-gain DAFT-domain path matrix A*Gamma*Pi^tau*Delta_nu*A^H."""
    a = build_daft_matrix(cfg)
    return a @ time_matrix(cfg, tau, nu) @ a.conj().T


def effective_channel_matrix(path: ChannelPath, cfg: AfdmConfig) -> np.ndarray:
    """DAFT-domain matrix of one path (gain included)."""
    if path.delay != int(path.delay):
        raise ParameterError("effective channel matrices support integer delays only")
    if not (0 <= path.delay < cfg.n_sub):
        raise ParameterError(f"delay {path.delay} outside [0, Nc)")
    return path.gain * basis_matrix(cfg, int(path.delay), path.doppler)


def channel_matrix(realization: ChannelRealization, cfg: AfdmConfig) -> np.ndarray:
    """Sum of per-path DAFT-domain matrices."""
    out = np.zeros((cfg.n_sub, cfg.n_sub), dtype=np.complex128)
    for p in realization.paths:
        out += effective_channel_matrix(p, cfg)
    return out


def path_sum(h, path_matrix=basis_matrix) -> np.ndarray:
    """Dense matrix of a PathChannel: its gain-weighted path matrices summed."""
    out = np.zeros((h.cfg.n_sub, h.cfg.n_sub), dtype=np.complex128)
    for tau, nu, gain in zip(h.delays, h.dopplers, h.gains):
        out += gain * path_matrix(h.cfg, int(tau), float(nu))
    return out


def daft_solve(h, r, lam: float) -> np.ndarray:
    """Dense DAFT-domain normal equations (H^H H + lam I)^{-1} H^H r of a PathChannel, H its path sum."""
    dense = path_sum(h)
    normal = dense.conj().T @ dense + lam * np.eye(h.cfg.n_sub)
    return np.linalg.solve(normal, dense.conj().T @ r)


def normal_band(h, lam: float) -> np.ndarray:
    """Lower band of the dense H_t^H H_t + lam I of a PathChannel, unknowns ordered [0, Nc-1, 1, Nc-2, ...].

    Row k holds the k-th subdiagonal of the reordered matrix, its last k
    entries 0 (LAPACK's lower band storage), for k up to
    min(2*min(spread, Nc // 2), Nc - 1).
    """
    n = h.cfg.n_sub
    h_t = path_sum(h, time_matrix)
    order = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    reordered = (h_t.conj().T @ h_t + lam * np.eye(n))[np.ix_(order, order)]
    spread = int(h.delays.max() - h.delays.min()) if h.delays.size else 0
    width = min(2 * min(spread, n // 2), n - 1)
    band = np.zeros((width + 1, n), dtype=np.complex128)
    for k in range(width + 1):
        band[k, : n - k] = reordered.diagonal(-k)
    return band


def equalize(y, h, x_pilot, lam: float) -> np.ndarray:
    """Dense DAFT-domain regularized least squares (H^H H + lam I)^{-1} H^H (y - H x_p)."""
    h = np.asarray(h)
    normal = h.conj().T @ h + lam * np.eye(h.shape[0])
    return np.linalg.solve(normal, h.conj().T @ (y - h @ x_pilot))


def mmse_estimate(y, psi_p, prior: PriorModel, noise_variance: float) -> tuple[np.ndarray, np.ndarray]:
    """(gain estimate, posterior variances) of the estimator's posterior kernel at the
    white interference level ``noise_variance``, fed the Psi^H y and Psi^H Psi of a
    dense ``psi_p``, formed on every call; the kernel's route is decided from this Gram."""
    psi_p = np.asarray(psi_p, dtype=np.complex128)
    psi_h = psi_p.conj().T
    gram = psi_h @ psi_p
    corr = psi_h @ np.asarray(y, dtype=np.complex128)
    return estimator._posterior(corr, gram, estimator._gram_diagonal(gram), prior.gain_variances, noise_variance)


def iterative_estimate(y, x_pilot, spec, grid, cfg, noise_power, n_iter=2):
    """The iterative estimator on the dense route: dense channel, dense equalizer.

    Under the uniform prior g = 1/L the first level is sigma_d^2 * sum(g) + N0;
    each posterior is the explicit inverse S = (Psi^H Psi / c + diag(1/g))^{-1},
    the estimate S Psi^H y / c, and a gain is kept above 3 sqrt(S_ii).
    Returns (alpha_hat, indicator, dense channel estimate, last bits).
    """
    stack = np.stack([basis_matrix(cfg, tau, float(nu)) for tau, nu in grid.pairs])
    psi_p = build_psi(x_pilot, grid, cfg)
    g = np.full(len(grid), 1.0 / len(grid))
    c_it = spec.data_symbol_power * g.sum() + noise_power
    feedback = np.zeros(cfg.n_sub, dtype=np.complex128)
    h = np.zeros((cfg.n_sub, cfg.n_sub), dtype=np.complex128)
    for _ in range(n_iter):
        cov = np.linalg.inv(psi_p.conj().T @ psi_p / c_it + np.diag(1.0 / g))
        alpha = cov @ psi_p.conj().T @ (y - h @ feedback) / c_it
        indicator = (np.abs(alpha) > 3.0 * np.sqrt(cov.diagonal().real)).astype(np.int8)
        h = np.tensordot(alpha * indicator, stack, axes=(0, 0))
        x_d = equalize(y, h, x_pilot, noise_power / spec.data_symbol_power)
        bits = demap_symbols(x_d, spec)
        feedback = map_bits(bits, spec)
        resid = float(np.linalg.norm(y - h @ (x_pilot + feedback)))
        dof = max(cfg.n_sub - int(indicator.sum()), cfg.n_sub // 4)
        c_it = max(noise_power, resid * resid / dof)
    return alpha, indicator, h, bits


def iterative_loop(y, x_pilot, spec, grid, cfg, noise_power, n_iter=2, prior=None, known_data=None):
    """``estimator.iterative_estimate``'s loop with three products per channel estimate.

    Each iteration equalizes with the public ``equalize_demod``, which pushes
    the pilot through the estimate, forms the residual from the estimate
    times pilot plus data, and the next iteration pushes the fed-back data
    through it again.  The interference level and the posterior are the
    estimator's own, from its cached pilot model, and each channel estimate is
    built by the checked ``PathChannel`` constructor.  Returns (alpha_hat,
    indicator, residual norms, last bits).
    """
    x_pilot = np.asarray(x_pilot, dtype=np.complex128)
    model = estimator._pilot_model(cfg, grid.pairs, x_pilot.tobytes())
    prior = PriorModel.uniform(grid) if prior is None else prior
    c_it = estimator._interference(prior.gain_variances, spec.data_symbol_power, noise_power)
    residuals = []
    for it in range(n_iter):
        observation = y if it == 0 else y - h_hat @ feedback
        corr = model.psi_h @ observation
        alpha, post = estimator._posterior(corr, model.gram, model.diagonal, prior.gain_variances, c_it)
        indicator = (np.abs(alpha) > 3.0 * np.sqrt(np.maximum(post, 0.0))).astype(np.int8)
        h_hat = kept_channel(alpha, indicator, grid, cfg)
        x_d, bits = equalize_demod(y, h_hat, x_pilot, spec, noise_power)
        if spec.data_symbol_power > 0 and bits.size:
            x_d = map_bits(bits, spec)
        feedback = x_d if known_data is None else known_data
        resid = float(np.linalg.norm(y - h_hat @ (x_pilot + x_d)))
        residuals.append(resid)
        dof = max(cfg.n_sub - int(indicator.sum()), cfg.n_sub // 4)
        c_it = max(noise_power, resid * resid / dof)
    return alpha, indicator, residuals, bits


def kept_channel(alpha, indicator, grid, cfg: AfdmConfig) -> PathChannel:
    """The ``PathChannel`` of the grid pairs whose 0/1 ``indicator`` is set, with their gains ``alpha``."""
    kept = np.flatnonzero(indicator)
    taus, nus = np.array(grid.pairs, dtype=np.int64)[kept].T
    return PathChannel(cfg, taus, nus, np.asarray(alpha)[kept])


def demap_by_distance(y_eq, spec) -> np.ndarray:
    """Hard demapping by the smallest complex distance to every scaled point,
    the lowest symbol value on a tie: an (N, M) distance matrix and its argmin."""
    y_eq = np.asarray(y_eq, dtype=np.complex128).ravel()
    k = spec.constellation.bits_per_symbol
    pts = spec.constellation.points * (spec.sigma_d if spec.sigma_d > 0 else 1.0)
    idx = np.argmin(np.abs(y_eq[:, None] - pts[None, :]), axis=1)
    shifts = np.arange(k - 1, -1, -1)
    return ((idx[:, None] >> shifts) & 1).astype(np.int64).ravel()


def pilot_gram(x_pilot, cfg: AfdmConfig, pairs) -> np.ndarray:
    """Psi_p^H Psi_p over integer (delay, Doppler) ``pairs``, built on every call:
    row i of the pilot's images through the unit-gain channel of the pairs is
    column i of Psi_p."""
    taus, nus = np.asarray(pairs).T
    rows = PathChannel(cfg, taus, nus, np.ones(len(taus))).images(x_pilot)
    return rows.conj() @ rows.T
