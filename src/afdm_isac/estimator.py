"""Channel estimation over the integer delay-Doppler basis.

The received DAFT-domain frame is y = Psi_p a + (Psi_d a + w), where column i
of Psi_p is the pilot pushed through basis path i.  Because every basis path
matrix is unitary, the data-plus-noise term is white with per-sample variance

    c = sigma_d^2 * sum_i prior_var_i + sigma_cn^2

(the data covariance sigma_d^2 I is preserved by each unitary path, and the
path gains are uncorrelated under the prior), so the MMSE estimate reduces to
a ridge-regularized least squares over Psi_p.  One inverse of its normal
matrix gives both the estimate and the posterior variances (for the proposed
pilot Psi_p^H Psi_p = sigma_p^2 I, Theorem 4, so the matrix is diagonal).
Psi_p^H is the conjugate of ``PathChannel.images`` of the pilot through the
unit-gain basis channel, one gather and no transform; it and its Gram depend
only on the pilot, the grid and the config, so ``iterative_estimate`` builds
them once per pilot: a bounded cache keyed on (cfg, grid, pilot bytes) holds
the last 4 pilot models (Psi_p^H and the Gram), read-only, each about L*Nc*16
bytes (45*Nc*16 B on the 45-path grid, 368 KB at Nc = 512), and a frame only
multiplies its observation by Psi_p^H.  A path is kept when its gain lies more
than 3 posterior standard deviations from 0, and the channel estimate is the
structured ``PathChannel`` of the surviving (tau, nu, gain) triples: O(P*Nc)
to apply, never a dense matrix.
The data are equalized by regularized least squares in the time domain,
where the channel is a cyclic band of width tau_m, with one banded Cholesky
solve.  This is exact: the DAFT matrix A is unitary, so with
H = A H_t A^H the DAFT-domain solution (H^H H + lam I)^{-1} H^H r equals
A (H_t^H H_t + lam I)^{-1} H_t^H A^H r.  The channel estimate factors its
banded matrix once per lam and keeps only that factor, (2*spread + 1)*Nc*16
bytes (140 KB at Nc = 512 and a spread of 8, 71 MB at Nc = 2^18), so a repeat
costs two triangular solves; the solve reports its own failures.  Pilot-data
interference can be peeled iteratively: demodulate with the current
estimate, subtract the rebuilt data contribution, and re-estimate against
the smaller residual noise.  Each iteration's residual norm and effective
noise c are returned with the estimate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import BasisGrid, PathChannel, apply_basis
from .daft import AfdmConfig, daft, idaft
from .errors import (
    NumericalError,
    ParameterError,
    check_count,
    check_nonnegative,
    check_stack,
    check_vector,
)
from .modem import FrameSpec, demap_symbols, map_bits

__all__ = [
    "PriorModel",
    "EstimationResult",
    "build_psi",
    "effective_noise_covariance",
    "mmse_estimate",
    "threshold_paths",
    "reconstruct_channel",
    "equalize_demod",
    "iterative_estimate",
]


@dataclass(frozen=True)
class PriorModel:
    """Diagonal gain prior and the white effective-noise variance.

    A gain variance of 0 means the coefficient is known to be 0: the
    estimators pin it to 0 and give it posterior variance 0.  An infinite
    variance is a flat prior (no regularization of that coefficient); NaN is refused.
    """

    gain_variances: np.ndarray
    noise_variance: float

    def __post_init__(self):
        g = np.asarray(self.gain_variances)
        if g.dtype.kind not in "biuf" or not np.all(g >= 0):
            raise ParameterError(f"prior variances must be real numbers >= 0, not NaN, got {g!r}")
        check_nonnegative(self.noise_variance, "noise variance")
        object.__setattr__(self, "gain_variances", g.astype(np.float64, copy=False))

    @staticmethod
    def uniform(grid: BasisGrid, noise_variance: float):
        """Spread a unit total gain power uniformly over the basis."""
        n = len(grid)
        return PriorModel(np.full(n, 1.0 / n), noise_variance)


@dataclass
class EstimationResult:
    """Output of the (iterative) estimator, with one residual norm and one
    effective noise c per iteration."""

    alpha_hat: np.ndarray
    indicator: np.ndarray
    h_eff_hat: PathChannel  # kept paths; np.asarray gives the dense DAFT-domain matrix
    residual_norms: list[float]
    noise_levels: list[float]  # effective noise c of each iteration, before the 1e-30 floor


def build_psi(x, grid: BasisGrid, cfg: AfdmConfig) -> np.ndarray:
    """Nc x L matrix whose column i is the basis-path-i image of x, by FFT: the reference
    for the closed-form Psi_p of ``_pilot_model``, kept because the benchmark pins it."""
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
    per received sample.  The variances and ``noise_power`` are checked as a
    ``PriorModel``'s, and ``data_symbol_power`` is finite and >= 0.
    """
    check_nonnegative(data_symbol_power, "data_symbol_power")
    total = float(np.sum(PriorModel(gain_variances, noise_power).gain_variances))
    return data_symbol_power * total + noise_power


# c is floored here so that a noiseless model (or c = 0) keeps the normal
# matrix finite; the regularization then vanishes against Psi^H Psi / c.
_NOISE_FLOOR = 1e-30
# a gain is kept when it lies this many posterior standard deviations from 0
_EPS_SCALE = 3.0


# at most 4 pilot models, each about L*Nc*16 bytes (Psi_p^H)
@functools.lru_cache(maxsize=4)
def _pilot_model(cfg: AfdmConfig, grid: BasisGrid, pilot: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Psi_p^H of the complex128 pilot with these bytes and its Gram Psi_p^H Psi_p, read-only.

    Row i of the pilot's ``images`` through the unit-gain basis channel is
    column i of Psi_p.  The pilot is rebuilt from the key, so a caller's
    later write to its own array cannot reach an entry.
    """
    ones = np.ones(len(grid))
    rows = reconstruct_channel(ones, ones, grid, cfg).images(np.frombuffer(pilot, dtype=np.complex128))
    psi_h = rows.conj()
    gram = psi_h @ rows.T
    psi_h.flags.writeable = False
    gram.flags.writeable = False
    return psi_h, gram


def _posterior(corr, gram, prior: PriorModel) -> tuple[np.ndarray, np.ndarray]:
    """Gain estimate and posterior variances from corr = Psi^H y and gram = Psi^H Psi."""
    g = prior.gain_variances
    if g.shape != corr.shape:
        raise ParameterError(f"{g.shape} prior variances for {corr.size} columns")
    free = g > 0
    alpha = np.zeros(free.size, dtype=np.complex128)
    variances = np.zeros(free.size)
    if not free.any():
        return alpha, variances
    c = max(prior.noise_variance, _NOISE_FLOOR)
    normal = gram[np.ix_(free, free)] / c + np.diag(1.0 / g[free])
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular normal matrix (cond={np.linalg.cond(normal):.3e})"
        ) from exc
    alpha[free] = cov @ (corr[free] / c)
    variances[free] = cov.diagonal().real
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(variances))):
        raise NumericalError("non-finite posterior of the gains")
    return alpha, variances


def mmse_estimate(y, psi_p, prior: PriorModel) -> tuple[np.ndarray, np.ndarray]:
    """Linear MMSE gain estimate and its posterior variances.

    Over the columns of positive prior variance g, with the white effective
    noise c floored at 1e-30, the posterior covariance is
    S = (Psi^H Psi / c + diag(1/g))^{-1}; the estimate is S Psi^H y / c and
    the variances are diag(S).  Pinned gains (g = 0) come out as 0 with
    variance 0, and an infinite g drops that gain's regularization.  A
    singular normal matrix or a non-finite result raises ``NumericalError``;
    a ``y`` or ``psi_p`` that is not numbers (a vector, an array) raises
    ``ConfigurationError``, and a ``psi_p`` that is no matrix or whose row
    count is not the length of ``y`` ``ParameterError``.  This forms
    Psi^H y and Psi^H Psi on every call; ``iterative_estimate`` instead
    reuses the Psi_p^H and Gram it caches per pilot (at most 4 pilots,
    about L*Nc*16 bytes each).
    """
    y = check_vector(y, None, "y")
    psi_p = check_stack(psi_p, None, "Psi")
    if psi_p.ndim != 2 or y.shape != psi_p.shape[:1]:
        raise ParameterError(f"y of shape {y.shape} for a Psi of shape {psi_p.shape}")
    psi_h = psi_p.conj().T
    return _posterior(psi_h @ y, psi_h @ psi_p, prior)


def threshold_paths(alpha_hat, eps) -> np.ndarray:
    """Binary path indicator: keep |alpha| above eps, one real >= 0 (inf keeps none) or one per path."""
    alpha_hat, eps = check_stack(alpha_hat, None, "alpha_hat"), np.asarray(eps)
    if eps.dtype.kind not in "biuf" or eps.shape not in ((), alpha_hat.shape) or not np.all(eps >= 0):
        raise ParameterError(f"threshold must be non-negative reals, not NaN, got {eps!r}")
    return (np.abs(alpha_hat) > eps).astype(np.int8)


def reconstruct_channel(alpha_hat, indicator, grid: BasisGrid, cfg: AfdmConfig) -> PathChannel:
    """The structured channel estimate: the basis paths whose indicator is set,
    with gains alpha_hat * indicator.  ``alpha_hat`` holds one gain per grid
    pair (else ``ConfigurationError``) and ``indicator`` one 0 or 1 per pair
    (else ``ParameterError``)."""
    alpha_hat, indicator = check_vector(alpha_hat, len(grid), "alpha_hat"), np.asarray(indicator)
    binary = indicator.dtype.kind in "biuf" and not np.any((indicator != 0) & (indicator != 1))
    if not (indicator.shape == (len(grid),) and binary):
        raise ParameterError(f"need {len(grid)} 0/1 indicators, got {indicator!r}")
    kept = np.flatnonzero(indicator)
    pairs = np.asarray(grid.pairs, dtype=np.int64).reshape(-1, 2)[kept]
    return PathChannel(cfg, pairs[:, 0], pairs[:, 1], (alpha_hat * indicator)[kept])


def equalize_demod(
    y, h_hat: PathChannel, x_pilot, spec: FrameSpec, noise_power: float
) -> tuple[np.ndarray, np.ndarray]:
    """Regularized linear (LMMSE) equalizer plus hard demapping.

    Returns (equalized data symbols, bits).  The pilot contribution through
    the estimated channel is removed, then the DAFT-domain solution
    (H^H H + lam I)^{-1} H^H r, lam = noise power / data symbol power, is
    computed as daft((H_t^H H_t + lam I)^{-1} H_t^H idaft(r)) with the
    banded time-domain solve of ``PathChannel.regularized_solve``; the two
    agree because A is unitary.  The channel keeps the Cholesky factor of
    its last lam, so equalizing a second frame with the same channel and
    noise power makes no new factorization.  The solve raises
    ``NumericalError`` for a matrix that is not positive definite (lam = 0
    on a singular channel).  Before any work, a ``y`` or ``x_pilot`` not of
    shape (Nc,) raises ``ConfigurationError``, and a non-finite ``y`` or a
    ``noise_power`` that is not finite and >= 0 raises ``ParameterError``.
    """
    if not isinstance(h_hat, PathChannel):
        raise ParameterError("h_hat must be a PathChannel")
    check_nonnegative(noise_power, "noise_power")
    y = check_vector(y, h_hat.cfg.n_sub, "y")
    x_pilot = check_vector(x_pilot, h_hat.cfg.n_sub, "x_pilot")
    if not np.all(np.isfinite(y)):
        raise ParameterError("y must be finite")
    if spec.data_symbol_power <= 0:
        return np.zeros(y.shape, dtype=np.complex128), np.zeros(0, dtype=np.int64)
    lam = noise_power / spec.data_symbol_power
    z = h_hat.regularized_solve(idaft(y - h_hat @ x_pilot, h_hat.cfg), lam)
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
    eps: float | None = None,
    known_data=None,
) -> EstimationResult:
    """Estimate, demodulate, cancel, and re-estimate.

    Each iteration makes one posterior solve, keeps the gains more than 3
    posterior standard deviations from 0 (or above ``eps`` when it is
    given), and equalizes with the channel they form.  Psi_p^H and the Gram are
    built once per (cfg, grid, pilot) and cached, at most 4 pilot models of
    about L*Nc*16 bytes each, so a frame with a known pilot makes no
    ``build_psi`` call and no Gram product: each iteration only forms
    Psi_p^H times its observation.  Iteration 1 models the
    data as white interference of power sigma_d^2 * sum(prior variances) per
    sample (``effective_noise_covariance``); each later iteration subtracts
    the demodulated data pushed through the current channel estimate and sets
    the interference model from the measured residual of the previous fit
    (so a failed cancellation does not make the next pass overconfident).
    The prior defaults to a unit gain power spread uniformly over the grid.
    ``known_data`` replaces the demodulated feedback with a given data vector
    (diagnostic genie for isolating the cancellation algebra).  The result
    carries, per iteration, the residual norm of the fit and the effective
    noise c the posterior used (before its 1e-30 floor).  ``y`` and
    ``x_pilot`` must have shape (Nc,) (else ``ConfigurationError``),
    ``noise_power`` must be finite and >= 0 and ``n_iter`` an integer >= 1
    (else ``ParameterError``).
    """
    check_count(n_iter, "n_iter")
    check_nonnegative(noise_power, "noise_power")
    y = check_vector(y, cfg.n_sub, "y")
    x_pilot = check_vector(x_pilot, cfg.n_sub, "x_pilot")
    psi_h, gram = _pilot_model(cfg, grid, x_pilot.tobytes())
    if prior is None:
        prior = PriorModel.uniform(grid, noise_variance=0.0)
    c_it = effective_noise_covariance(prior.gain_variances, spec.data_symbol_power, noise_power)
    residuals: list[float] = []
    noise_levels: list[float] = []
    feedback = np.zeros(cfg.n_sub, dtype=np.complex128)
    for it in range(n_iter):
        noise_levels.append(float(c_it))
        observation = y if it == 0 else y - h_hat @ feedback
        alpha_hat, post = _posterior(
            psi_h @ observation, gram, PriorModel(prior.gain_variances, c_it)
        )
        eps_it = _EPS_SCALE * np.sqrt(np.maximum(post, 0.0)) if eps is None else eps
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
    return EstimationResult(
        alpha_hat=alpha_hat,
        indicator=indicator,
        h_eff_hat=h_hat,
        residual_norms=residuals,
        noise_levels=noise_levels,
    )
