"""Closed-form sensing bounds, ambiguity-function machinery, and checks.

Fisher information / lower bounds
---------------------------------
For a single point target observed in white complex Gaussian noise the
information matrix over (gain, delay, Doppler) is assembled from three
power-weighted sums.  The delay sensitivity of subcarrier m at sample n is
the fractional part

    frac_kernel(n, m) = frac(2*c1*(n - tau_bar) + m/Nc)

which is what makes the chirp rate c1 shape the delay bound.  With
a = sum_m p_m sum_n frac^2, b = sum_m p_m sum_n frac*(n/Nc) and
c = sum_m p_m sum_n (n/Nc)^2, the delay and Doppler bounds are the exact
2x2 inverse of that block, front*c/D and front*a/D with D = a*c - b^2.  One
private evaluator computes them for every public function (``fim``, ``crb``,
``sensing_weights``, ``crb_distribution``) and rejects D <= 0 with
``NumericalError``; range and velocity bounds follow by the unit conversion
of ``channel.delay_doppler_to_range_velocity``.  The sensing weights are the
closed-form gradient of the delay bound, not finite differences.  Note: the
gain-gain information entry is 2*Pt/sigma_s^2, i.e. twice the waveform
energy over the noise power, as the likelihood dictates (finite-difference
tests pin this down).

Ambiguity functions
-------------------
All ambiguity functions here are cyclic: delays act modulo Nc, consistent
with the chirp-periodic prefix.  ``ambiguity_function`` evaluates the
correlation sums directly; ``interference_coefficient`` provides the
closed-form DAFT-domain route (a single cyclic ridge at subcarrier offset
2*c1*tau*Nc - nu), and the tests cross-check the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import (
    SensingTarget,
    _integers,
    apply_basis,
    delay_doppler_to_range_velocity,
    subcarrier_offset,
)
from .daft import AfdmConfig, build_daft_matrix, idaft
from .errors import NumericalError, ParameterError
from .modem import Constellation, FrameSpec

__all__ = [
    "PowerAllocation",
    "SensingBounds",
    "AmbiguitySurface",
    "ambiguity_region",
    "ambiguity_function",
    "cross_ambiguity",
    "ambiguity_decomposition",
    "interference_coefficient",
    "subcarrier_offset",
    "af_statistics_closed_form",
    "ambiguity_moments_mc",
    "verify_theorem_2",
    "verify_theorem_3",
    "verify_theorem_4",
    "fim",
    "crb",
    "sensing_weights",
    "crb_distribution",
    "equal_allocation",
    "frame_power_profile",
]


# ---------------------------------------------------------------------------
# ambiguity functions


@dataclass(frozen=True)
class AmbiguitySurface:
    """Cyclic ambiguity values on a delay-Doppler grid (delays x Dopplers)."""

    values: np.ndarray
    tau_axis: np.ndarray
    nu_axis: np.ndarray
    parts: Optional[dict] = None

    def at(self, tau: int, nu: int) -> complex:
        ti = int(np.flatnonzero(self.tau_axis == tau)[0])
        vi = int(np.flatnonzero(self.nu_axis == nu)[0])
        return complex(self.values[ti, vi])

    def max_off_origin(self) -> float:
        mag = np.abs(self.values).copy()
        ti = np.flatnonzero(self.tau_axis == 0)
        vi = np.flatnonzero(self.nu_axis == 0)
        if ti.size and vi.size:
            mag[int(ti[0]), int(vi[0])] = 0.0
        return float(mag.max())


def ambiguity_region(tau_m: int, nu_m: int) -> tuple[np.ndarray, np.ndarray]:
    """Delay/Doppler axes [-tau_m, tau_m] x [-2*nu_m, 2*nu_m]."""
    return np.arange(-tau_m, tau_m + 1), np.arange(-2 * nu_m, 2 * nu_m + 1)


def cross_ambiguity(a, b, tau_axis, nu_axis) -> np.ndarray:
    """sum_n a*[n] b[<n-tau>] exp(j*2*pi*nu*n/N) on the given integer axes."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    n = a.shape[0]
    if b.shape != (n,):
        raise ParameterError("signals must have equal length")
    tau_axis = _integers(tau_axis, "delay axis")
    nu_axis = _integers(nu_axis, "Doppler axis")
    idx = np.arange(n)
    shifted = b[(idx[None, :] - tau_axis[:, None]) % n]
    lag_products = np.conj(a)[None, :] * shifted
    phases = np.exp(2j * np.pi * np.outer(idx, nu_axis) / n)
    return lag_products @ phases


def ambiguity_function(s, region, cfg: AfdmConfig) -> AmbiguitySurface:
    """Cyclic auto-ambiguity surface of a time-domain signal over ``region``.

    ``region`` is a (tau_axis, nu_axis) pair of integer arrays, e.g. from
    ``ambiguity_region``.
    """
    tau_axis, nu_axis = region
    s = np.asarray(s, dtype=np.complex128)
    if s.shape != (cfg.n_sub,):
        raise ParameterError(f"signal must have length {cfg.n_sub}")
    values = cross_ambiguity(s, s, tau_axis, nu_axis)
    return AmbiguitySurface(
        values=values,
        tau_axis=np.asarray(tau_axis, dtype=np.int64),
        nu_axis=np.asarray(nu_axis, dtype=np.int64),
    )


def ambiguity_decomposition(x_pilot, x_data, region, cfg: AfdmConfig) -> AmbiguitySurface:
    """Ambiguity surface of a superimposed frame with its four bilinear parts.

    values = pilot + data + data_pilot + pilot_data, where the mixed terms
    conjugate the first-named component.
    """
    tau_axis, nu_axis = region
    s_p = idaft(np.asarray(x_pilot, dtype=np.complex128), cfg)
    s_d = idaft(np.asarray(x_data, dtype=np.complex128), cfg)
    parts = {
        "pilot": cross_ambiguity(s_p, s_p, tau_axis, nu_axis),
        "data": cross_ambiguity(s_d, s_d, tau_axis, nu_axis),
        "data_pilot": cross_ambiguity(s_d, s_p, tau_axis, nu_axis),
        "pilot_data": cross_ambiguity(s_p, s_d, tau_axis, nu_axis),
    }
    values = parts["pilot"] + parts["data"] + parts["data_pilot"] + parts["pilot_data"]
    return AmbiguitySurface(
        values=values,
        tau_axis=np.asarray(tau_axis, dtype=np.int64),
        nu_axis=np.asarray(nu_axis, dtype=np.int64),
        parts=parts,
    )


def interference_coefficient(m1: int, m2: int, tau: int, nu: int, cfg: AfdmConfig) -> complex:
    """Closed-form inter-subcarrier coupling for integer (tau, nu).

    Nonzero (magnitude Nc) only when <m2 - m1> equals the subcarrier offset of
    the (tau, nu) pair.
    """
    if (m2 - m1) % cfg.n_sub != subcarrier_offset(tau, nu, cfg):
        return 0.0 + 0.0j
    phase = cfg.c2 * (m2 * m2 - m1 * m1)
    return cfg.n_sub * complex(np.exp(2j * np.pi * phase))


# ---------------------------------------------------------------------------
# ambiguity statistics


def _require_symmetric_constellation(constellation) -> None:
    if abs(constellation.squared_symbol_mean) > 1e-12:
        raise ParameterError(
            "constellation has a nonzero squared-symbol mean; the ambiguity "
            "statistics require symmetric constellations such as QPSK/16-QAM"
        )


def af_statistics_closed_form(
    spec: FrameSpec, cfg: AfdmConfig, at_origin: bool, pilot_af: complex = 0.0
) -> tuple[complex, float]:
    """Closed-form mean and variance of the frame ambiguity value at a point.

    Mean is the total power at the origin and the pilot ambiguity value
    elsewhere (pass it via ``pilot_af``).  Variance is
    2*sigma_d^2*sigma_p^2 + (E|xd|^4 - sigma_d^4)*Nc at the origin and
    2*sigma_d^2*sigma_p^2 + sigma_d^4*Nc elsewhere.
    """
    _require_symmetric_constellation(spec.constellation)
    sd2 = spec.data_symbol_power
    sp2 = spec.pilot_power
    fourth = spec.constellation.fourth_moment * sd2 * sd2
    if at_origin:
        mean = complex(spec.total_power(cfg.n_sub))
        variance = 2 * sd2 * sp2 + (fourth - sd2 * sd2) * cfg.n_sub
    else:
        mean = complex(pilot_af)
        variance = 2 * sd2 * sp2 + sd2 * sd2 * cfg.n_sub
    return mean, variance


def ambiguity_moments_mc(
    x_pilot, spec: FrameSpec, cfg: AfdmConfig, points: Sequence[tuple[int, int]], n_frames: int, rng
) -> dict:
    """Monte Carlo mean/variance of the frame ambiguity at integer points.

    Returns arrays aligned with ``points`` plus standard errors of both
    estimates (the variance SE uses the empirical fourth central moment).
    """
    x_pilot = np.asarray(x_pilot, dtype=np.complex128)
    n = cfg.n_sub
    a = build_daft_matrix(cfg)
    symbols = spec.constellation.points
    sd = spec.sigma_d
    k = symbols.shape[0]
    data = symbols[rng.integers(0, k, size=(n_frames, n))] * sd
    frames = data + x_pilot[None, :]
    s_all = frames @ np.conj(a)  # rows are time-domain signals
    idx = np.arange(n)
    values = np.empty((len(points), n_frames), dtype=np.complex128)
    for j, (tau, nu) in enumerate(points):
        shifted = s_all[:, (idx - tau) % n]
        values[j] = np.sum(
            np.conj(s_all) * shifted * np.exp(2j * np.pi * nu * idx / n)[None, :], axis=1
        )
    mean = values.mean(axis=1)
    centered = values - mean[:, None]
    var = np.mean(np.abs(centered) ** 2, axis=1)
    m4 = np.mean(np.abs(centered) ** 4, axis=1)
    se_mean = np.sqrt(var / n_frames)
    se_var = np.sqrt(np.maximum(m4 - var**2, 0.0) / n_frames)
    return {"mean": mean, "variance": var, "se_mean": se_mean, "se_variance": se_var}


# ---------------------------------------------------------------------------
# theorem reports


# Acceptance windows of the theorem checks: the Monte Carlo log-log slope of
# Theorem 3 and the relative Gram-identity residual of Theorem 4.
_SLOPE_WINDOW = (-1.1, -0.9)
_IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class TheoremReport:
    passed: bool
    details: dict


def verify_theorem_2(
    cfg: AfdmConfig,
    pilot_power: float,
    total_data_power: float,
    n_frames: int = 0,
    rng=None,
    x_pilot=None,
) -> TheoremReport:
    """Constant-modulus data minimizes the origin ambiguity variance.

    Compares QPSK against 16-QAM at matched pilot power and total data power:
    strict inequality at the origin, equality elsewhere.  With ``n_frames``
    positive the origin inequality is also checked by simulation.
    """
    sd2 = total_data_power / cfg.n_sub
    spec_q = FrameSpec(pilot_power, sd2, Constellation.QPSK)
    spec_16 = FrameSpec(pilot_power, sd2, Constellation.QAM16)
    _, var_q_origin = af_statistics_closed_form(spec_q, cfg, at_origin=True)
    _, var_16_origin = af_statistics_closed_form(spec_16, cfg, at_origin=True)
    _, var_q_off = af_statistics_closed_form(spec_q, cfg, at_origin=False)
    _, var_16_off = af_statistics_closed_form(spec_16, cfg, at_origin=False)
    details = {
        "origin": {"qpsk": var_q_origin, "qam16": var_16_origin},
        "off_origin": {"qpsk": var_q_off, "qam16": var_16_off},
    }
    passed = var_q_origin < var_16_origin and math.isclose(var_q_off, var_16_off)
    degenerate_equal = math.isclose(
        *(af_statistics_closed_form(FrameSpec(pilot_power, 0.0, c), cfg, True)[1] for c in Constellation)
    )
    details["degenerate_equal"] = degenerate_equal
    passed = passed and degenerate_equal
    if n_frames > 0:
        if x_pilot is None or rng is None:
            raise ParameterError("Monte Carlo check needs x_pilot and rng")
        mc_q = ambiguity_moments_mc(x_pilot, spec_q, cfg, [(0, 0)], n_frames, rng)
        mc_16 = ambiguity_moments_mc(x_pilot, spec_16, cfg, [(0, 0)], n_frames, rng)
        details["mc_origin"] = {
            "qpsk": float(mc_q["variance"][0]),
            "qam16": float(mc_16["variance"][0]),
        }
        passed = passed and mc_q["variance"][0] < mc_16["variance"][0]
    return TheoremReport(passed=passed, details=details)


def verify_theorem_3(
    cfgs: Sequence[AfdmConfig],
    pilot_power: float,
    total_data_power: float,
    n_frames: int = 0,
    rng=None,
    pilot_builder=None,
) -> TheoremReport:
    """Origin ambiguity variance decays like 1/Nc for constant-modulus data.

    Closed-form values are exactly 2*Pd*sigma_p^2/Nc; with ``n_frames`` the
    Monte Carlo log-log slope across the configs must fall in
    ``_SLOPE_WINDOW``.
    """
    n_subs = np.array([cfg.n_sub for cfg in cfgs], dtype=float)
    specs = [FrameSpec(pilot_power, total_data_power / cfg.n_sub, Constellation.QPSK) for cfg in cfgs]
    closed, closed_off = np.array(
        [
            [af_statistics_closed_form(spec, cfg, at_origin)[1] for at_origin in (True, False)]
            for spec, cfg in zip(specs, cfgs)
        ]
    ).T
    expected = 2 * total_data_power * pilot_power / n_subs
    expected_off = (2 * total_data_power * pilot_power + total_data_power**2) / n_subs
    closed_ok = np.allclose(closed, expected, rtol=1e-12) and np.allclose(
        closed_off, expected_off, rtol=1e-12
    )
    slope_closed = np.polyfit(np.log(n_subs), np.log(closed), 1)[0]
    details = {
        "n_subs": n_subs.tolist(),
        "closed_form": closed.tolist(),
        "closed_form_off_origin": closed_off.tolist(),
        "slope_closed": float(slope_closed),
    }
    passed = closed_ok and abs(slope_closed + 1.0) < 1e-9
    if n_frames > 0:
        if rng is None or pilot_builder is None:
            raise ParameterError("Monte Carlo check needs rng and pilot_builder")
        mc_vars = []
        for spec, cfg in zip(specs, cfgs):
            mc = ambiguity_moments_mc(pilot_builder(cfg), spec, cfg, [(0, 0)], n_frames, rng)
            mc_vars.append(float(mc["variance"][0]))
        slope_mc = float(np.polyfit(np.log(n_subs), np.log(mc_vars), 1)[0])
        details["mc_variances"] = mc_vars
        details["slope_mc"] = slope_mc
        passed = passed and _SLOPE_WINDOW[0] <= slope_mc <= _SLOPE_WINDOW[1]
    return TheoremReport(passed=passed, details=details)


def verify_theorem_4(
    x_pilot,
    cfg: AfdmConfig,
    pairs: Sequence[tuple[int, int]],
) -> TheoremReport:
    """Check the pilot Gram structure against the pilot ambiguity function.

    Builds the Nc x L matrix of path-shifted pilots and verifies, entry by
    entry, that the (i, j) Gram element equals
    exp(-j*2*pi*nu_j*(tau_j - tau_i)/Nc) * chi_p(tau_j - tau_i, nu_j - nu_i);
    an ideal pilot therefore yields a scaled-identity Gram.  ``passed``
    reflects only the identity residual (relative tolerance
    ``_IDENTITY_TOL``); consumers judge the off-diagonal magnitudes via the
    report.
    """
    x_pilot = np.asarray(x_pilot, dtype=np.complex128)
    pilot_power = float(np.linalg.norm(x_pilot) ** 2)
    cols = np.stack([apply_basis(x_pilot, cfg, t, float(v)) for t, v in pairs], axis=1)
    gram = cols.conj().T @ cols
    taus, nus = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    tau_diff = taus[None, :] - taus[:, None]  # [i, j] = tau_j - tau_i
    tau_hats, t_idx = np.unique(tau_diff % cfg.n_sub, return_inverse=True)
    nu_hats, v_idx = np.unique(nus[None, :] - nus[:, None], return_inverse=True)
    s_p = idaft(x_pilot, cfg)
    chi = cross_ambiguity(s_p, s_p, tau_hats, nu_hats)
    chi_pairs = chi[t_idx.reshape(tau_diff.shape), v_idx.reshape(tau_diff.shape)]
    predicted = np.exp(-2j * np.pi * nus[None, :] * tau_diff / cfg.n_sub) * chi_pairs
    offdiag = ~np.eye(len(taus), dtype=bool)
    max_identity = float(np.max(np.abs(gram - predicted)))
    max_offdiag = float(np.max(np.abs(gram[offdiag]), initial=0.0))
    diag_err = float(np.max(np.abs(np.diag(gram) - pilot_power)))
    details = {
        "max_identity_residual": max_identity,
        "max_offdiagonal": max_offdiag,
        "diag_error": diag_err,
        "pilot_power": pilot_power,
    }
    scale = max(pilot_power, 1.0)
    passed = max_identity <= _IDENTITY_TOL * scale and diag_err <= 1e-9 * scale
    return TheoremReport(passed=passed, details=details)


# ---------------------------------------------------------------------------
# Fisher information and lower bounds


@dataclass(frozen=True)
class PowerAllocation:
    """Per-subcarrier expected powers."""

    powers: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.powers, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ParameterError("powers must be a non-empty vector")
        if not np.all((p >= 0) & np.isfinite(p)):
            raise ParameterError("powers must be finite and non-negative")
        if p.sum() <= 0:
            raise ParameterError("total power must be positive")
        object.__setattr__(self, "powers", p)

    @property
    def total(self) -> float:
        return float(self.powers.sum())


@dataclass(frozen=True)
class SensingBounds:
    """Information matrix and the derived lower bounds."""

    fim: np.ndarray
    crb_tau: float
    crb_nu: float
    crb_range: float
    crb_velocity: float


def equal_allocation(total: float, n_sub: int) -> PowerAllocation:
    return PowerAllocation(np.full(n_sub, total / n_sub))


def frame_power_profile(x_pilot, data_symbol_power: float) -> PowerAllocation:
    """Expected per-subcarrier power of a superimposed frame."""
    x_pilot = np.asarray(x_pilot, dtype=np.complex128)
    return PowerAllocation(np.abs(x_pilot) ** 2 + data_symbol_power)


def _frac_kernel(cfg: AfdmConfig, tau_bar: float) -> np.ndarray:
    """frac(2*c1*(n - tau_bar) + m/Nc) with shape (Nc subcarriers, Nc samples)."""
    n = np.arange(cfg.n_sub, dtype=np.float64)[None, :]
    m = np.arange(cfg.n_sub, dtype=np.float64)[:, None]
    val = 2.0 * cfg.c1 * (n - tau_bar) + m / cfg.n_sub
    return val - np.floor(val)


def _fim_sums(powers, target: SensingTarget, cfg: AfdmConfig):
    """Validated kernels (a_m, b_m, c0) and power-weighted sums (a, b, c).

    a_m = sum_n frac^2, b_m = sum_n frac*(n/Nc), c0 = sum_n (n/Nc)^2;
    a = p.a_m, b = p.b_m, c = sum(p)*c0.  ``powers`` is one allocation of
    length Nc or a (draws, Nc) stack, and a, b, c follow its leading shape.
    """
    p = np.asarray(powers, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] != cfg.n_sub:
        raise ParameterError(f"allocation must have length n_sub={cfg.n_sub}, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ParameterError("powers must be finite and non-negative")
    total = p.sum(axis=-1)
    if np.any(total <= 0):
        raise ParameterError("total power must be positive")
    if not 0 < target.noise_power < np.inf:
        raise ParameterError("target noise power must be positive and finite")
    if not 0 < abs(target.gain) < np.inf:
        raise ParameterError("target gain must be nonzero and finite")
    if not np.isfinite(target.delay_samples):
        raise ParameterError("target delay must be finite")
    kern = _frac_kernel(cfg, target.delay_samples)
    ramp = np.arange(cfg.n_sub, dtype=np.float64) / cfg.n_sub
    a_m = np.sum(kern * kern, axis=1)
    b_m = kern @ ramp
    c0 = float(np.sum(ramp * ramp))
    return a_m, b_m, c0, p @ a_m, p @ b_m, total * c0


def _crb_from_sums(a, b, c, target: SensingTarget, cfg: AfdmConfig):
    """Delay and Doppler bounds front*c/D and front*a/D, elementwise in the sums.

    D = a*c - b^2 is the delay-Doppler determinant up to scale; a block with
    D <= 0 or non-finite D has no bound and raises ``NumericalError``.
    """
    det = a * c - b * b
    if np.any(~np.isfinite(det) | (det <= 0)):
        raise NumericalError(
            f"degenerate delay-Doppler information block (a*c - b^2 = {np.min(det)})"
        )
    front = target.noise_power * cfg.n_sub / (8.0 * np.pi**2 * abs(target.gain) ** 2)
    return front * c / det, front * a / det


def _fim_matrix(total: float, a: float, b: float, c: float, target: SensingTarget, cfg: AfdmConfig):
    """(gain, delay, Doppler) information matrix from the total power and the sums."""
    scale = 2.0 / target.noise_power
    g = scale * abs(target.gain) ** 2 * (2.0 * np.pi) ** 2 / cfg.n_sub
    return np.array([[scale * total, 0.0, 0.0], [0.0, g * a, -g * b], [0.0, -g * b, g * c]])


def fim(power: PowerAllocation, target: SensingTarget, cfg: AfdmConfig) -> np.ndarray:
    """3x3 information matrix for (gain, delay, Doppler)."""
    *_, a, b, c = _fim_sums(power.powers, target, cfg)
    return _fim_matrix(power.total, a, b, c, target, cfg)


def crb(power: PowerAllocation, target: SensingTarget, cfg: AfdmConfig) -> SensingBounds:
    """Delay/Doppler lower bounds and their range/velocity conversions."""
    *_, a, b, c = _fim_sums(power.powers, target, cfg)
    crb_tau, crb_nu = _crb_from_sums(a, b, c, target, cfg)
    metres_per_sample, mps_per_bin = delay_doppler_to_range_velocity(1.0, 1.0, cfg)
    return SensingBounds(
        fim=_fim_matrix(power.total, a, b, c, target, cfg),
        crb_tau=float(crb_tau),
        crb_nu=float(crb_nu),
        crb_range=float(metres_per_sample**2 * crb_tau),
        crb_velocity=float(mps_per_bin**2 * crb_nu),
    )


def sensing_weights(power: PowerAllocation, target: SensingTarget, cfg: AfdmConfig) -> np.ndarray:
    """Per-subcarrier sensitivities dCRB_tau/dp_m of the delay bound.

    Plain partial derivatives (total power is not held fixed), in closed
    form: with D = a*c - b^2, dD/dp_m = a_m*c + a*c0 - 2*b*b_m and
    dCRB_tau/dp_m = CRB_tau * (c0/c - (dD/dp_m)/D).
    """
    a_m, b_m, c0, a, b, c = _fim_sums(power.powers, target, cfg)
    crb_tau, _ = _crb_from_sums(a, b, c, target, cfg)
    return crb_tau * (c0 / c - (a_m * c + a * c0 - 2.0 * b * b_m) / (a * c - b * b))


def crb_distribution(
    cfg: AfdmConfig,
    target: SensingTarget,
    total_power: float,
    n_draws: int,
    rng,
    n_bins: int = 60,
    allocations: Optional[np.ndarray] = None,
) -> dict:
    """Delay-bound statistics under symmetric-Dirichlet random allocations.

    Draws allocations uniformly on the power simplex (scaled to the total),
    evaluates the delay bound for each, and reports the empirical
    distribution.  ``tail_mass`` is the fraction of draws exceeding twice the
    equal-allocation baseline at ``total_power``.  Pass ``allocations`` (one
    allocation per row, each bounded at its own total) to evaluate a fixed
    set instead of drawing.
    """
    if not 0 < total_power < np.inf:
        raise ParameterError("total_power must be positive and finite")
    if allocations is None:
        if n_draws < 1:
            raise ParameterError("n_draws must be >= 1")
        allocations = rng.dirichlet(np.ones(cfg.n_sub), size=n_draws) * total_power
    a_m, b_m, c0, a, b, c = _fim_sums(allocations, target, cfg)
    values, _ = _crb_from_sums(a, b, c, target, cfg)
    equal = np.full(cfg.n_sub, total_power / cfg.n_sub)
    baseline, _ = _crb_from_sums(equal @ a_m, equal @ b_m, total_power * c0, target, cfg)
    hist, edges = np.histogram(values, bins=n_bins, density=True)
    return {
        "values": values,
        "mean": float(values.mean()),
        "variance": float(values.var()),
        "tail_mass": float(np.mean(values > 2.0 * baseline)),
        "equal_allocation": float(baseline),
        "density": hist,
        "bin_edges": edges,
    }
