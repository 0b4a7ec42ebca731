"""Dense N x N channel matrices and waveform sums, kept only as test oracles.

Each path is built as the explicit time-domain matrix Gamma * Pi^tau * Delta_nu
of the channel model and mapped to the DAFT domain with the dense matrix A,
independently of the structured ``PathChannel`` it checks.  The fractional-delay
waveform is the explicit frequency-wrapped subcarrier sum, independently of
the FFT closed form of ``waveform_samples``.
"""

import math

import numpy as np

from afdm_isac import AfdmConfig, build_daft_matrix
from afdm_isac.channel import ChannelPath, ChannelRealization
from afdm_isac.errors import ParameterError
from afdm_isac.estimator import (
    PriorModel,
    build_psi,
    effective_noise_covariance,
    mmse_estimate,
    posterior_variances,
    threshold_paths,
)
from afdm_isac.modem import demap_symbols, map_bits


def time_matrix(cfg: AfdmConfig, tau: int, nu: float) -> np.ndarray:
    """Unit-gain time-domain path matrix on the prefix-free window."""
    nc = cfg.n_sub
    n = np.arange(nc)
    src = (n - tau) % nc
    prefix = np.where(
        n < tau, np.exp(-2j * np.pi * cfg.c1 * (nc * nc + 2.0 * nc * (n - tau))), 1.0
    )
    h = np.zeros((nc, nc), dtype=np.complex128)
    h[n, src] = prefix * np.exp(2j * np.pi * nu * src / nc)
    return h


def waveform_dense(x, cfg: AfdmConfig, instants) -> np.ndarray:
    """The chirp waveform of DAFT-domain ``x`` at real sample instants, O(len * Nc).

    Sums the subcarriers with frequency-wrapped instantaneous phase
    c1 t^2 + m t/Nc - floor(2 c1 t + m/Nc) t + c2 m^2.  The wrap index is
    evaluated as floor((K t + m)/Nc) with the integer K = 2 c1 Nc, which is
    exact at ties (K t an integer) where 2 c1 t + m/Nc can round below one.
    """
    t = np.asarray(instants, dtype=np.float64).reshape(-1, 1)
    m = np.arange(cfg.n_sub, dtype=np.float64).reshape(1, -1)
    wrap = np.floor((cfg.two_c1_n * t + m) / cfg.n_sub)
    phase = cfg.c1 * t * t + m * t / cfg.n_sub - wrap * t + cfg.c2 * m * m
    return np.exp(2j * np.pi * phase) @ np.asarray(x, dtype=np.complex128) / math.sqrt(cfg.n_sub)


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


def equalize(y, h, x_pilot, lam: float) -> np.ndarray:
    """Dense DAFT-domain regularized least squares (H^H H + lam I)^{-1} H^H (y - H x_p)."""
    h = np.asarray(h)
    normal = h.conj().T @ h + lam * np.eye(h.shape[0])
    return np.linalg.solve(normal, h.conj().T @ (y - h @ x_pilot))


def iterative_estimate(y, x_pilot, spec, grid, cfg, noise_power, n_iter=2):
    """The iterative estimator on the dense route: dense channel, dense equalizer.

    Returns (alpha_hat, indicator, dense channel estimate, last bits).
    """
    stack = np.stack([basis_matrix(cfg, tau, float(nu)) for tau, nu in grid.pairs])
    psi_p = build_psi(x_pilot, grid, cfg)
    prior = PriorModel.uniform(grid, noise_variance=0.0)
    c_it = effective_noise_covariance([1.0], spec.data_symbol_power, noise_power)
    feedback = np.zeros(cfg.n_sub, dtype=np.complex128)
    h = np.zeros((cfg.n_sub, cfg.n_sub), dtype=np.complex128)
    for _ in range(n_iter):
        prior_it = PriorModel(prior.gain_variances, c_it)
        alpha = mmse_estimate(y - h @ feedback, psi_p, prior_it)
        indicator = threshold_paths(alpha, 3.0 * np.sqrt(posterior_variances(psi_p, prior_it)))
        h = np.tensordot(alpha * indicator, stack, axes=(0, 0))
        x_d = equalize(y, h, x_pilot, noise_power / spec.data_symbol_power)
        bits = demap_symbols(x_d, spec)
        feedback = map_bits(bits, spec)
        resid = float(np.linalg.norm(y - h @ (x_pilot + feedback)))
        dof = max(cfg.n_sub - int(indicator.sum()), cfg.n_sub // 4)
        c_it = max(noise_power, resid * resid / dof)
    return alpha, indicator, h, bits
