"""Channel estimation over the integer delay-Doppler basis.

The received DAFT-domain frame is y = Psi_p a + (Psi_d a + w), where column i
of Psi_p is the pilot pushed through basis path i.  Because every basis path
matrix is unitary, the data-plus-noise term is white with per-sample variance

    c = sigma_d^2 * sum_i g_i + N0

for prior gain variances g and noise power N0 (the data covariance
sigma_d^2 I is preserved by each unitary path, and the path gains are
uncorrelated under the prior), so the MMSE estimate reduces to a
ridge-regularized least squares over Psi_p.  Its posterior takes one of
two routes, decided by the Gram G = Psi_p^H Psi_p alone.  G counts as
diagonal when no off-diagonal entry exceeds 1e-12 times its largest diagonal
entry; the posterior is then elementwise, S_ii = 1/(d_i/c + 1/g_i) and
alpha_i = S_ii (Psi_p^H y)_i / c (for the proposed pilot G = sigma_p^2 I,
Theorem 4).  Any other Gram goes through one inverse of the normal matrix,
which gives both the estimate and the posterior variances.
Psi_p^H is the conjugate of ``PathChannel.images`` of the pilot through the
unit-gain basis channel, one gather and no transform, conjugated in place.
The Gram is not formed from it: by Theorem 4 it is the pilot's ambiguity
function at the pair differences times a twiddle (``sensing._gram``, one
``idaft`` and one correlation), with no L^2*Nc product.  Both depend only
on the pilot, the basis pairs and the config, so they are built once:
a bounded cache keyed on (cfg, pairs, pilot bytes) holds the last 4 pilot
models (Psi_p^H, the Gram, its diagonal when it is diagonal and its
condition number), read-only, each about L*Nc*16 bytes, for both
``iterative_estimate`` and Theorem 4 (``analysis.verify_theorem_4``), and a
frame only multiplies its observation by Psi_p^H.  A path is kept when its
gain lies more than 3 posterior standard deviations from 0, and the channel
estimate is the structured ``PathChannel`` of the surviving
(tau, nu, gain) triples: O(P*Nc) to apply, never a dense matrix.
The data are equalized by regularized least squares in the time domain,
where the channel is a cyclic band of width tau_m, with one banded Cholesky
solve.  This is exact: the DAFT matrix A is unitary, so with
H = A H_t A^H the DAFT-domain solution (H^H H + lam I)^{-1} H^H r equals
A (H_t^H H_t + lam I)^{-1} H_t^H A^H r.  The channel estimate keeps one
tap table, P*Nc*24 bytes built on its first product or solve, which gives
H^H r, and the factor of its banded matrix at its last lam,
(2*spread + 1)*Nc*16 bytes, so a repeat costs two triangular solves; the
solve reports its own failures.  Pilot-data interference can be peeled
iteratively: demodulate with the current estimate, subtract the rebuilt
data contribution, and re-estimate against the smaller residual noise.
Each iteration pushes its estimate through the frame once: the pilot's
image through it is Psi_p (alpha_hat * indicator), one conjugate product
with the cached Psi_p^H, so the equalizer starts from the pilot-free
observation; and the one product of the estimate with the demodulated data
serves both the iteration's residual and the next iteration's observation.
Each iteration's residual norm and effective noise c are returned with the
estimate.  The receiver has one public entry per stage:
``iterative_estimate`` (posterior, 3-sigma support test and channel
estimate) and ``equalize_demod`` check their typed arguments (``FrameSpec``,
``BasisGrid``, ``AfdmConfig``, ``PriorModel``, ``PathChannel``) and the
finiteness of their vectors once, before any work, and the iterations
re-check nothing they built.  The default prior is checked once per frame,
the 3-sigma threshold is applied inline, each channel estimate is built by
``PathChannel._trusted`` from its own fresh arrays, the equalizer is
``PathChannel._daft_solve`` (the transforms' and the banded solve's
unchecked kernels) and the demodulated bits are remapped by
``modem._map``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import BasisGrid, PathChannel, _grid_pairs, apply_basis
from .daft import AfdmConfig
from .errors import (
    NumericalError,
    ParameterError,
    check_count,
    check_finite,
    check_nonnegative,
    check_type,
    check_vector,
)
from .modem import FrameSpec, _demap, _map
from .sensing import _gram

__all__ = [
    "PriorModel",
    "EstimationResult",
    "build_psi",
    "equalize_demod",
    "iterative_estimate",
]


@dataclass(frozen=True)
class PriorModel:
    """Diagonal gain prior.

    A gain variance of 0 means the coefficient is known to be 0: the
    estimator pins it to 0 and gives it posterior variance 0.  An infinite
    variance is a flat prior (no regularization of that coefficient); NaN is
    refused.  The interference level is the receiver's (``iterative_estimate``).
    """

    gain_variances: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gain_variances)
        if g.dtype.kind not in "biuf" or not np.all(g >= 0):
            raise ParameterError(f"prior variances must be real numbers >= 0, not NaN, got {g!r}")
        object.__setattr__(self, "gain_variances", g.astype(np.float64, copy=False))

    @staticmethod
    def uniform(grid: BasisGrid):
        """Spread a unit total gain power uniformly over the basis."""
        n = len(grid)
        return PriorModel(np.full(n, 1.0 / n))


@dataclass
class EstimationResult:
    """Output of the (iterative) estimator, with one residual norm and one
    effective noise c per iteration."""

    alpha_hat: np.ndarray
    indicator: np.ndarray
    h_eff_hat: PathChannel  # kept paths, applied structured; np.asarray (dense N x N) is for checks only
    residual_norms: list[float]
    noise_levels: list[float]  # effective noise c of each iteration, before the 1e-30 floor
    gram_condition: float  # 2-norm condition number of the pilot's Gram, computed once per pilot model


def build_psi(x, grid: BasisGrid, cfg: AfdmConfig) -> np.ndarray:
    """Nc x L matrix whose column i is the basis-path-i image of x, by FFT: the reference
    for the closed-form Psi_p of ``_pilot_model``, kept because the benchmark pins it.
    A ``grid`` that is no ``BasisGrid`` raises ``ParameterError``."""
    check_type(grid, BasisGrid, "grid")
    x = np.asarray(x, dtype=np.complex128)
    return np.stack(
        [apply_basis(x, cfg, tau, float(nu)) for tau, nu in grid.pairs], axis=1
    )


def _interference(g: np.ndarray, data_symbol_power: float, noise_power: float) -> float:
    """The white interference level sigma_d^2 * sum(g) + N0 of a ``PriorModel``'s
    checked variances ``g`` and checked powers: ``noise_power`` exactly when there
    are no data, under any prior, and ``ParameterError`` for a flat (inf) prior
    with data, whose interference would be infinite."""
    if data_symbol_power == 0:
        return float(noise_power)
    if np.isinf(g).any():
        raise ParameterError(
            "prior variances must be finite when data_symbol_power > 0: a flat prior (inf) "
            "makes the data interference infinite"
        )
    return data_symbol_power * float(np.sum(g)) + noise_power


# c is floored here so that a noiseless model (or c = 0) keeps the normal
# matrix finite; the regularization then vanishes against Psi^H Psi / c.
_NOISE_FLOOR = 1e-30
# a gain is kept when it lies this many posterior standard deviations from 0
_EPS_SCALE = 3.0


# a Gram is diagonal when no off-diagonal entry exceeds this share of its largest
# diagonal entry, far from the 8.4e-16 of the three pilot families on the grid
# and from the 1.1e-2 of a random unit-modulus pilot
_DIAGONAL_BOUND = 1e-12


def _gram_diagonal(gram: np.ndarray) -> np.ndarray | None:
    """The real diagonal d of a Gram whose other entries are all at most
    ``_DIAGONAL_BOUND`` * max(d), else None (also for a non-finite Gram)."""
    d = gram.diagonal().real.copy()
    scale = d.max(initial=0.0)
    if math.isfinite(scale) and np.abs(gram - np.diag(d)).max(initial=0.0) <= _DIAGONAL_BOUND * scale:
        return d
    return None


class _PilotModel(NamedTuple):
    """What a frame needs of its pilot, read-only: Psi_p^H, the Gram Psi_p^H Psi_p
    by Theorem 4's identity (``sensing._gram``), the Gram's diagonal when
    ``_gram_diagonal`` finds it diagonal (else None) and the Gram's 2-norm
    condition number from its singular values, on either route; inf for a
    singular Gram and NaN for a non-finite one."""

    psi_h: np.ndarray
    gram: np.ndarray
    diagonal: np.ndarray | None
    condition: float


# at most 4 pilot models, each about L*Nc*16 bytes (Psi_p^H), shared by the link
# (``iterative_estimate``) and Theorem 4 (``analysis.verify_theorem_4``)
@functools.lru_cache(maxsize=4)
def _pilot_model(cfg: AfdmConfig, pairs: tuple[tuple[int, int], ...], pilot: bytes) -> _PilotModel:
    """The ``_PilotModel`` of the complex128 pilot with these bytes over the
    integer (delay, Doppler) ``pairs``, a tuple of int pairs.

    Row i of the pilot's ``images`` through the unit-gain channel of the
    pairs is column i of Psi_p, and the table of those images is conjugated
    in place into Psi_p^H.  The Gram is the pilot's ambiguity function on
    the pair differences (``sensing._gram``), not the product of the images,
    and ``analysis.verify_theorem_4`` checks the one against the other.
    The pilot is rebuilt from the key, so a caller's later write to its own
    array cannot reach an entry.  The route
    of the posterior and the condition number are decided here, once per
    pilot.  Its two callers validate the pairs: ``iterative_estimate``
    passes ``grid.pairs``, ``verify_theorem_4`` its checked pairs.
    """
    x, (taus, nus) = np.frombuffer(pilot, dtype=np.complex128), np.array(pairs).T
    rows = PathChannel(cfg, taus, nus, np.ones(len(pairs))).images(x)
    psi_h = np.conj(rows, out=rows)
    gram = _gram(x, taus, nus, cfg)
    diagonal = _gram_diagonal(gram)
    condition = float(np.linalg.cond(gram)) if np.isfinite(gram).all() else math.nan
    for arr in (psi_h, gram) if diagonal is None else (psi_h, gram, diagonal):
        arr.flags.writeable = False
    return _PilotModel(psi_h, gram, diagonal, condition)


def _posterior(corr, gram, diagonal, g: np.ndarray, noise_variance: float) -> tuple[np.ndarray, np.ndarray]:
    """Gain estimate and posterior variances from corr = Psi^H y and gram = Psi^H Psi.

    ``g`` holds a checked ``PriorModel`` variance per column; ``noise_variance``,
    the interference level c, is checked here, since the iterations compute it.
    ``diagonal`` is the Gram's ``_gram_diagonal``: when it is not None the
    posterior is elementwise, else it inverts the normal matrix.
    """
    check_nonnegative(noise_variance, "noise variance")
    free = g > 0
    alpha = np.zeros(free.size, dtype=np.complex128)
    variances = np.zeros(free.size)
    if not free.any():
        return alpha, variances
    c = max(noise_variance, _NOISE_FLOOR)
    if diagonal is not None:
        precision = diagonal[free] / c + 1.0 / g[free]
        if not (precision > 0).all():
            raise NumericalError("singular normal matrix: a gain under a flat prior has no pilot energy")
        cov = 1.0 / precision
        alpha[free] = cov * (corr[free] / c)
        variances[free] = cov
    else:
        normal = gram[np.ix_(free, free)] / c + np.diag(1.0 / g[free])
        try:
            cov = np.linalg.inv(normal)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"singular normal matrix (cond={np.linalg.cond(normal):.3e})"
            ) from exc
        alpha[free] = cov @ (corr[free] / c)
        variances[free] = cov.diagonal().real
    if not (np.isfinite(alpha).all() and np.isfinite(variances).all()):
        raise NumericalError("non-finite posterior of the gains")
    return alpha, variances


def _equalize(r: np.ndarray, h_hat: PathChannel, spec: FrameSpec, noise_power: float):
    """(equalized data symbols, bits) of the pilot-free DAFT-domain observation r:
    the one equalizer, behind ``equalize_demod`` and each iteration of
    ``iterative_estimate``, which have checked its arguments."""
    if spec.data_symbol_power <= 0:
        return np.zeros(r.shape, dtype=np.complex128), np.zeros(0, dtype=np.int64)
    x_d = h_hat._daft_solve(r, noise_power / spec.data_symbol_power)
    return x_d, _demap(x_d, spec)


def equalize_demod(
    y, h_hat: PathChannel, x_pilot, spec: FrameSpec, noise_power: float
) -> tuple[np.ndarray, np.ndarray]:
    """Regularized linear (LMMSE) equalizer plus hard demapping.

    Returns (equalized data symbols, bits).  The pilot contribution through
    the estimated channel is removed, then the DAFT-domain solution
    (H^H H + lam I)^{-1} H^H r, lam = noise power / data symbol power, is
    computed as daft((H_t^H H_t + lam I)^{-1} H_t^H idaft(r)) with the
    channel's banded time-domain solve (``PathChannel._daft_solve``); the two
    agree because A is unitary.  The channel keeps the Cholesky factor of
    its last lam, so equalizing a second frame with the same channel and
    noise power makes no new factorization.  The solve raises
    ``NumericalError`` for a matrix that is not positive definite (lam = 0
    on a singular channel).  Before any work, a ``y`` or ``x_pilot`` not of
    shape (Nc,) raises ``ConfigurationError``, and an ``h_hat`` that is no
    ``PathChannel``, a ``spec`` that is no ``FrameSpec``, a non-finite
    entry of ``y`` or ``x_pilot`` or a ``noise_power`` that is not finite
    and >= 0 raises ``ParameterError``.
    """
    check_type(h_hat, PathChannel, "h_hat")
    check_type(spec, FrameSpec, "spec")
    check_nonnegative(noise_power, "noise_power")
    y = check_finite(check_vector(y, h_hat.cfg.n_sub, "y"), "y")
    x_pilot = check_finite(check_vector(x_pilot, h_hat.cfg.n_sub, "x_pilot"), "x_pilot")
    return _equalize(y - h_hat @ x_pilot, h_hat, spec, noise_power)


def iterative_estimate(
    y,
    x_pilot,
    spec: FrameSpec,
    grid: BasisGrid,
    cfg: AfdmConfig,
    noise_power: float,
    n_iter: int = 2,
    prior: PriorModel | None = None,
    known_data=None,
) -> EstimationResult:
    """Estimate, demodulate, cancel, and re-estimate.

    Each iteration makes one posterior solve, keeps the gains more than 3
    posterior standard deviations from 0, and equalizes with the channel
    they form.  It pushes that
    channel through the frame once: the pilot's image through it is
    Psi_p (alpha_hat * indicator), read from the pilot model with no
    product with the channel, and its one product with the demodulated data
    gives both the iteration's residual and the next observation, so a
    frame makes one channel product per iteration (a given ``known_data``
    adds its own product in each later iteration).  Psi_p^H and the Gram are
    built once per (cfg, grid.pairs, pilot) and cached, at most 4 pilot
    models of about L*Nc*16 bytes each, shared with Theorem 4
    (``analysis.verify_theorem_4``), so a frame with a known pilot makes no
    Gram product: each iteration only forms Psi_p^H times its observation.
    The posterior's route is decided with the model: a Gram with no
    off-diagonal entry above 1e-12 times its largest diagonal entry (the
    proposed, single and traditional pilots on the grid) is read
    elementwise, any other inverted once per iteration.
    Iteration 1 models the data plus noise as white interference of level
    c = sigma_d^2 * sum(g) + N0 per sample, for prior gain variances g and
    N0 = ``noise_power``; each later iteration subtracts
    the demodulated data pushed through the current channel estimate and sets
    the interference model from the measured residual of the previous fit
    (so a failed cancellation does not make the next pass overconfident).
    The prior defaults to a unit gain power spread uniformly over the grid;
    a flat (infinite) gain variance is taken only when the frame has no data,
    and with data it raises ``ParameterError``, since c would be infinite.
    ``known_data`` replaces the demodulated feedback with a given data vector
    (diagnostic genie for isolating the cancellation algebra).  The result
    carries, per iteration, the residual norm of the fit and the effective
    noise c the posterior used (before its 1e-30 floor), and the Gram's
    condition number, computed once per pilot model.  ``y``, ``x_pilot``
    and a given ``known_data`` must have shape (Nc,) (else
    ``ConfigurationError``) and finite entries, ``spec``, ``grid``, ``cfg``
    and a given ``prior`` must be a ``FrameSpec``, ``BasisGrid``,
    ``AfdmConfig`` and ``PriorModel``, a given prior must hold one variance
    per grid pair, ``noise_power`` must be finite and >= 0 and ``n_iter`` an
    integer >= 1 (else ``ParameterError``), all checked once, before any
    work.
    """
    check_type(spec, FrameSpec, "spec")
    check_type(grid, BasisGrid, "grid")
    check_type(cfg, AfdmConfig, "cfg")
    if prior is not None:
        check_type(prior, PriorModel, "prior")
    check_count(n_iter, "n_iter")
    check_nonnegative(noise_power, "noise_power")
    y = check_finite(check_vector(y, cfg.n_sub, "y"), "y")
    x_pilot = check_finite(check_vector(x_pilot, cfg.n_sub, "x_pilot"), "x_pilot")
    if known_data is not None:
        known_data = check_finite(check_vector(known_data, cfg.n_sub, "known_data"), "known_data")
    if prior is None:
        prior = PriorModel.uniform(grid)
    elif prior.gain_variances.shape != (len(grid),):
        raise ParameterError(f"{prior.gain_variances.shape} prior variances for {len(grid)} columns")
    c_it = _interference(prior.gain_variances, spec.data_symbol_power, noise_power)
    model = _pilot_model(cfg, grid.pairs, x_pilot.tobytes())
    residuals: list[float] = []
    noise_levels: list[float] = []
    observation = y
    for it in range(n_iter):
        if it:
            # the previous estimate's image of the fed-back data
            observation = y - (data_image if known_data is None else h_hat @ known_data)
        noise_levels.append(float(c_it))
        corr = model.psi_h @ observation
        alpha_hat, post = _posterior(corr, model.gram, model.diagonal, prior.gain_variances, c_it)
        indicator = (np.abs(alpha_hat) > _EPS_SCALE * np.sqrt(np.maximum(post, 0.0))).astype(np.int8)
        kept = np.flatnonzero(indicator)
        h_hat = PathChannel._trusted(cfg, *_grid_pairs(kept, grid.nu_m), alpha_hat[kept])
        # the pilot through the estimate, h_hat @ x_pilot, is Psi_p (alpha_hat * indicator)
        pilot_free = y - np.conj(np.conj(alpha_hat * indicator) @ model.psi_h)
        x_d_hat, bits = _equalize(pilot_free, h_hat, spec, noise_power)
        if spec.data_symbol_power > 0 and bits.size:
            x_d_hat = _map(bits, spec)
        data_image = h_hat @ x_d_hat
        resid = float(np.linalg.norm(pilot_free - data_image))
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
        gram_condition=model.condition,
    )
