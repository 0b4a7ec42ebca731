"""Channel estimation over the integer delay-Doppler basis.

The received DAFT-domain frame is y = Psi_p a + (Psi_d a + w), where column i
of Psi_p is the pilot pushed through basis path i.  Because every basis path
matrix is unitary, the data-plus-noise term is white with per-sample variance

    c = sigma_d^2 * sum_i prior_var_i + sigma_cn^2

(the data covariance sigma_d^2 I is preserved by each unitary path, and the
path gains are uncorrelated under the prior), so the MMSE estimate reduces to
a ridge-regularized least squares over Psi_p.  Detected paths are kept by
magnitude thresholding, and the channel estimate is the structured
``PathChannel`` of the surviving (tau, nu, gain) triples: O(P*Nc) to apply,
never a dense matrix.  The data are equalized by regularized least squares
in the time domain, where the channel is a cyclic band of width tau_m, with
one banded Cholesky solve.  This is exact: the DAFT matrix A is unitary, so
with H = A H_t A^H the DAFT-domain solution (H^H H + lam I)^{-1} H^H r equals
A (H_t^H H_t + lam I)^{-1} H_t^H A^H r.  Pilot-data interference can be
peeled iteratively: demodulate with the current estimate, subtract the
rebuilt data contribution, and re-estimate against the smaller residual
noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import BasisGrid, PathChannel, apply_basis
from .daft import AfdmConfig, daft, idaft
from .errors import NumericalError, ParameterError
from .modem import FrameSpec, demap_symbols, map_bits

__all__ = [
    "PriorModel",
    "EstimationResult",
    "build_psi",
    "effective_noise_covariance",
    "mmse_estimate",
    "posterior_variances",
    "threshold_paths",
    "reconstruct_channel",
    "equalize_demod",
    "iterative_estimate",
    "channel_mse",
]


@dataclass(frozen=True)
class PriorModel:
    """Diagonal gain prior and the white effective-noise variance.

    A gain variance of 0 means the coefficient is known to be 0: the
    estimators pin it to 0 and give it posterior variance 0.  An infinite
    variance is a flat prior (no regularization of that coefficient).
    """

    gain_variances: np.ndarray
    noise_variance: float

    def __post_init__(self):
        g = np.asarray(self.gain_variances, dtype=np.float64)
        if np.any(g < 0):
            raise ParameterError("prior variances must be non-negative")
        if self.noise_variance < 0:
            raise ParameterError("noise variance must be non-negative")
        object.__setattr__(self, "gain_variances", g)

    @staticmethod
    def uniform(grid: BasisGrid, noise_variance: float, total_gain_power: float = 1.0):
        """Spread a total gain power uniformly over the basis."""
        n = len(grid)
        return PriorModel(np.full(n, total_gain_power / n), noise_variance)


@dataclass
class EstimationResult:
    """Output of the (iterative) estimator."""

    alpha_hat: np.ndarray
    indicator: np.ndarray
    h_eff_hat: PathChannel  # kept paths; np.asarray gives the dense DAFT-domain matrix
    residual_norms: list[float]
    monotone: bool
    metadata: dict = field(default_factory=dict)


def build_psi(x, grid: BasisGrid, cfg: AfdmConfig) -> np.ndarray:
    """Nc x L matrix whose column i is the basis-path-i image of x."""
    x = np.asarray(x, dtype=np.complex128)
    return np.stack(
        [apply_basis(x, cfg, tau, float(nu)) for tau, nu in grid.pairs], axis=1
    )


def effective_noise_covariance(
    gain_variances, data_symbol_power: float, noise_power: float
) -> float:
    """Scalar variance of the data-interference-plus-noise term.

    The model covariance is this scalar times the identity; each basis path
    is unitary so random data contributes sigma_d^2 * sum(prior variances)
    per received sample.
    """
    total = float(np.sum(np.asarray(gain_variances, dtype=np.float64)))
    return data_symbol_power * total + noise_power


_LS_NOISE_FLOOR = 1e-30


def _free_columns(psi_p, prior: PriorModel) -> tuple[np.ndarray, np.ndarray]:
    """Columns with positive prior variance; zero-variance gains stay pinned at 0."""
    psi_p = np.asarray(psi_p, dtype=np.complex128)
    if prior.gain_variances.shape != (psi_p.shape[1],):
        raise ParameterError(
            f"{prior.gain_variances.shape} prior variances for {psi_p.shape[1]} columns"
        )
    free = prior.gain_variances > 0
    return free, psi_p[:, free]


def mmse_estimate(y, psi_p, prior: PriorModel) -> np.ndarray:
    """Linear MMSE gain estimate; degrades gracefully to least squares.

    With white effective noise c the estimate is
    (Psi^H Psi / c + diag(1/prior))^{-1} Psi^H y / c over the columns of
    positive prior variance; the others are 0.  A vanishing c (or an
    infinite prior) removes the corresponding regularization.
    """
    y = np.asarray(y, dtype=np.complex128)
    free, psi_f = _free_columns(psi_p, prior)
    out = np.zeros(free.size, dtype=np.complex128)
    if np.linalg.norm(y) == 0.0 or not free.any():
        return out
    c = prior.noise_variance
    if c <= _LS_NOISE_FLOOR:
        out[free], *_ = np.linalg.lstsq(psi_f, y, rcond=None)
        return out
    normal = psi_f.conj().T @ psi_f / c + np.diag(1.0 / prior.gain_variances[free])
    rhs = psi_f.conj().T @ y / c
    try:
        sol = np.linalg.solve(normal, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular normal matrix (cond={np.linalg.cond(normal):.3e})"
        ) from exc
    if not np.all(np.isfinite(sol)):
        raise NumericalError(
            f"non-finite estimate (cond={np.linalg.cond(normal):.3e})"
        )
    out[free] = sol
    return out


def posterior_variances(psi_p, prior: PriorModel) -> np.ndarray:
    """Diagonal of the posterior covariance of the gain estimate (0 where pinned)."""
    free, psi_f = _free_columns(psi_p, prior)
    c = max(prior.noise_variance, _LS_NOISE_FLOOR)
    normal = psi_f.conj().T @ psi_f / c + np.diag(1.0 / prior.gain_variances[free])
    out = np.zeros(free.size)
    if free.any():
        out[free] = np.real(np.diag(np.linalg.inv(normal)))
    return out


def threshold_paths(alpha_hat, eps) -> np.ndarray:
    """Binary path indicator: keep coefficients with |alpha| above eps."""
    eps_arr = np.asarray(eps, dtype=np.float64)
    if np.any(eps_arr < 0):
        raise ParameterError("threshold must be non-negative")
    return (np.abs(np.asarray(alpha_hat)) > eps_arr).astype(np.int8)


def reconstruct_channel(alpha_hat, indicator, grid: BasisGrid, cfg: AfdmConfig) -> PathChannel:
    """The structured channel estimate: the basis paths whose indicator is set,
    with gains alpha_hat * indicator."""
    weights = np.asarray(alpha_hat, dtype=np.complex128) * np.asarray(indicator)
    if weights.shape != (len(grid),):
        raise ParameterError(f"expected {len(grid)} coefficients, got {weights.shape}")
    kept = np.flatnonzero(indicator)
    pairs = np.asarray(grid.pairs, dtype=np.int64).reshape(-1, 2)[kept]
    return PathChannel(cfg, pairs[:, 0], pairs[:, 1], weights[kept])


def equalize_demod(
    y, h_hat: PathChannel, x_pilot, spec: FrameSpec, noise_power: float
) -> tuple[np.ndarray, np.ndarray]:
    """Regularized linear (LMMSE) equalizer plus hard demapping.

    Returns (equalized data symbols, bits).  The pilot contribution through
    the estimated channel is removed, then the DAFT-domain solution
    (H^H H + lam I)^{-1} H^H r, lam = noise power / data symbol power, is
    computed as daft((H_t^H H_t + lam I)^{-1} H_t^H idaft(r)) with the
    banded time-domain solve of ``PathChannel.regularized_solve``; the two
    agree because A is unitary.  A matrix that is not positive definite
    (lam = 0 on a singular channel) raises ``NumericalError``.
    """
    if not isinstance(h_hat, PathChannel):
        raise ParameterError("h_hat must be a PathChannel")
    y = np.asarray(y, dtype=np.complex128)
    if spec.data_symbol_power <= 0:
        return np.zeros(y.shape, dtype=np.complex128), np.zeros(0, dtype=np.int64)
    lam = noise_power / spec.data_symbol_power
    resid = y - h_hat @ x_pilot
    try:
        z = h_hat.regularized_solve(idaft(resid, h_hat.cfg), lam)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular equalizer matrix") from exc
    x_d = daft(z, h_hat.cfg)
    bits = demap_symbols(x_d, spec)
    return x_d, bits


def iterative_estimate(
    y,
    x_pilot,
    spec: FrameSpec,
    grid: BasisGrid,
    cfg: AfdmConfig,
    noise_power: float,
    n_iter: int = 2,
    prior: PriorModel | None = None,
    eps_scale: float = 3.0,
    eps: float | None = None,
    channel_power: float = 1.0,
    known_data=None,
) -> EstimationResult:
    """Estimate, demodulate, cancel, and re-estimate.

    Iteration 1 models the data as white interference of power
    sigma_d^2 * channel_power per sample; each later iteration subtracts the
    demodulated data pushed through the current channel estimate and sets the
    interference model from the measured residual of the previous fit (so a
    failed cancellation does not make the next pass overconfident).  The
    ``monotone`` flag reports whether the fit residual never increased.
    ``known_data`` replaces the demodulated feedback with a given data vector
    (diagnostic genie for isolating the cancellation algebra).
    """
    if n_iter < 1:
        raise ParameterError("n_iter must be >= 1")
    y = np.asarray(y, dtype=np.complex128)
    x_pilot = np.asarray(x_pilot, dtype=np.complex128)
    psi_p = build_psi(x_pilot, grid, cfg)
    if prior is None:
        prior = PriorModel.uniform(grid, noise_variance=0.0)
    c_it = effective_noise_covariance(
        np.asarray([channel_power]), spec.data_symbol_power, noise_power
    )
    residuals: list[float] = []
    feedback = np.zeros(cfg.n_sub, dtype=np.complex128)
    for it in range(n_iter):
        prior_it = PriorModel(prior.gain_variances, c_it)
        observation = y if it == 0 else y - h_hat @ feedback
        alpha_hat = mmse_estimate(observation, psi_p, prior_it)
        if eps is None:
            post = posterior_variances(psi_p, prior_it)
            eps_it = eps_scale * np.sqrt(np.maximum(post, 0.0))
        else:
            eps_it = eps
        indicator = threshold_paths(alpha_hat, eps_it)
        h_hat = reconstruct_channel(alpha_hat, indicator, grid, cfg)
        x_d_hat, bits = equalize_demod(y, h_hat, x_pilot, spec, noise_power)
        if spec.data_symbol_power > 0 and bits.size:
            x_d_hat = map_bits(bits, spec)
        feedback = x_d_hat if known_data is None else np.asarray(known_data, dtype=np.complex128)
        resid = float(np.linalg.norm(y - h_hat @ (x_pilot + x_d_hat)))
        residuals.append(resid)
        # unexplained power per sample, corrected for the fitted coefficients
        dof = max(cfg.n_sub - int(indicator.sum()), cfg.n_sub // 4)
        c_it = max(noise_power, resid * resid / dof)
    monotone = all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
    return EstimationResult(
        alpha_hat=alpha_hat,
        indicator=indicator,
        h_eff_hat=h_hat,
        residual_norms=residuals,
        monotone=monotone,
        metadata={"equalizer": "regularized-linear", "n_iter": n_iter, "eps_scale": eps_scale},
    )


def channel_mse(h_true, h_hat) -> float:
    """Frobenius norm of the channel matrix error (single run, unsquared).

    Either argument may be a ``PathChannel``; it is compared as its dense
    DAFT-domain matrix.
    """
    h_true = np.asarray(h_true)
    h_hat = np.asarray(h_hat)
    if h_true.shape != h_hat.shape:
        raise ParameterError(f"shape mismatch: {h_true.shape} vs {h_hat.shape}")
    return float(np.linalg.norm(h_true - h_hat))
