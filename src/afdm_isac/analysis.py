"""Closed-form sensing bounds, ambiguity-function machinery, and checks.

Fisher information / lower bounds
---------------------------------
For a single point target observed in white complex Gaussian noise the
information matrix over (gain, delay, Doppler) is assembled from three
power-weighted sums.  The delay sensitivity of subcarrier m at sample n is
the fractional part

    frac_kernel(n, m) = frac(2*c1*(n - tau_bar) + m/Nc)

which is what makes the chirp rate c1 shape the delay bound.  The delay and
Doppler bounds are the exact 2x2 inverse of that block; range and velocity
bounds follow by unit conversion.  Note: the gain-gain information entry is
2*Pt/sigma_s^2, i.e. twice the waveform energy over the noise power, as the
likelihood dictates (finite-difference tests pin this down).

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
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .channel import SensingTarget, apply_basis, subcarrier_offset
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
    "sensing_weight",
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
    tau_axis = np.asarray(tau_axis, dtype=np.int64)
    nu_axis = np.asarray(nu_axis, dtype=np.int64)
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
    slope_window: tuple[float, float] = (-1.1, -0.9),
) -> TheoremReport:
    """Origin ambiguity variance decays like 1/Nc for constant-modulus data.

    Closed-form values are exactly 2*Pd*sigma_p^2/Nc; with ``n_frames`` the
    Monte Carlo log-log slope across the configs must fall in
    ``slope_window``.
    """
    n_subs = np.array([cfg.n_sub for cfg in cfgs], dtype=float)
    closed = np.array(
        [
            af_statistics_closed_form(
                FrameSpec(pilot_power, total_data_power / cfg.n_sub, Constellation.QPSK),
                cfg,
                at_origin=True,
            )[1]
            for cfg in cfgs
        ]
    )
    closed_off = np.array(
        [
            af_statistics_closed_form(
                FrameSpec(pilot_power, total_data_power / cfg.n_sub, Constellation.QPSK),
                cfg,
                at_origin=False,
            )[1]
            for cfg in cfgs
        ]
    )
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
        for cfg in cfgs:
            spec = FrameSpec(pilot_power, total_data_power / cfg.n_sub, Constellation.QPSK)
            mc = ambiguity_moments_mc(pilot_builder(cfg), spec, cfg, [(0, 0)], n_frames, rng)
            mc_vars.append(float(mc["variance"][0]))
        slope_mc = float(np.polyfit(np.log(n_subs), np.log(mc_vars), 1)[0])
        details["mc_variances"] = mc_vars
        details["slope_mc"] = slope_mc
        passed = passed and slope_window[0] <= slope_mc <= slope_window[1]
    return TheoremReport(passed=passed, details=details)


def verify_theorem_4(
    x_pilot,
    cfg: AfdmConfig,
    pairs: Sequence[tuple[int, int]],
    gram_tol: float = 1e-10,
    identity_tol: float = 1e-9,
) -> TheoremReport:
    """Check the pilot Gram structure against the pilot ambiguity function.

    Builds the Nc x L matrix of path-shifted pilots and verifies, entry by
    entry, that the (i, j) Gram element equals
    exp(-j*2*pi*nu_j*(tau_j - tau_i)/Nc) * chi_p(tau_j - tau_i, nu_j - nu_i);
    an ideal pilot therefore yields a scaled-identity Gram.  ``passed``
    reflects only the identity residual; consumers judge the off-diagonal
    magnitudes via the report.
    """
    x_pilot = np.asarray(x_pilot, dtype=np.complex128)
    pilot_power = float(np.linalg.norm(x_pilot) ** 2)
    cols = np.stack([apply_basis(x_pilot, cfg, t, float(v)) for t, v in pairs], axis=1)
    gram = cols.conj().T @ cols
    s_p = idaft(x_pilot, cfg)
    tau_hats = sorted({(tj - ti) % cfg.n_sub for ti, _ in pairs for tj, _ in pairs})
    nu_hats = sorted({vj - vi for _, vi in pairs for _, vj in pairs})
    chi = cross_ambiguity(s_p, s_p, np.array(tau_hats), np.array(nu_hats))
    t_index = {t: i for i, t in enumerate(tau_hats)}
    v_index = {v: i for i, v in enumerate(nu_hats)}
    max_identity = 0.0
    max_offdiag = 0.0
    for i, (ti, vi) in enumerate(pairs):
        for j, (tj, vj) in enumerate(pairs):
            tau_hat = (tj - ti) % cfg.n_sub
            chi_val = chi[t_index[tau_hat], v_index[vj - vi]]
            predicted = np.exp(-2j * np.pi * vj * (tj - ti) / cfg.n_sub) * chi_val
            max_identity = max(max_identity, abs(gram[i, j] - predicted))
            if i != j:
                max_offdiag = max(max_offdiag, abs(gram[i, j]))
    diag_err = float(np.max(np.abs(np.diag(gram) - pilot_power)))
    details = {
        "max_identity_residual": max_identity,
        "max_offdiagonal": max_offdiag,
        "diag_error": diag_err,
        "pilot_power": pilot_power,
        "gram_tol": gram_tol,
        "identity_tol": identity_tol,
    }
    passed = max_identity <= identity_tol * max(pilot_power, 1.0) and diag_err <= 1e-9 * max(
        pilot_power, 1.0
    )
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
        if np.any(p < 0):
            raise ParameterError("powers must be non-negative")
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


def _fim_sums(cfg: AfdmConfig, tau_bar: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-subcarrier kernels: (sum_n frac^2, sum_n frac*(n/Nc), sum_n (n/Nc)^2)."""
    kern = _frac_kernel(cfg, tau_bar)
    ramp = np.arange(cfg.n_sub, dtype=np.float64) / cfg.n_sub
    a_m = np.sum(kern * kern, axis=1)
    b_m = kern @ ramp
    c0 = float(np.sum(ramp * ramp))
    return a_m, b_m, c0


def fim(power: PowerAllocation, target: SensingTarget, cfg: AfdmConfig) -> np.ndarray:
    """3x3 information matrix for (gain, delay, Doppler)."""
    if target.noise_power <= 0:
        raise ParameterError("target noise power must be positive")
    a_m, b_m, c0 = _fim_sums(cfg, target.delay_samples)
    p = power.powers
    if p.size != cfg.n_sub:
        raise ParameterError("allocation length must equal n_sub")
    a = float(p @ a_m)
    b = float(p @ b_m)
    c = power.total * c0
    beta2 = abs(target.gain) ** 2
    four_pi2 = (2.0 * np.pi) ** 2
    scale = 2.0 / target.noise_power
    out = np.zeros((3, 3))
    out[0, 0] = scale * power.total
    out[1, 1] = scale * beta2 * four_pi2 * a / cfg.n_sub
    out[2, 2] = scale * beta2 * four_pi2 * c / cfg.n_sub
    out[1, 2] = out[2, 1] = -scale * beta2 * four_pi2 * b / cfg.n_sub
    return out


def _crb_from_sums(a: float, b: float, c: float, beta2: float, noise_power: float, n_sub: int):
    det = a * c - b * b
    if det <= 0 or not np.isfinite(det):
        raise NumericalError(
            f"degenerate delay-Doppler information block (a={a}, b={b}, c={c})"
        )
    front = noise_power * n_sub / (8.0 * np.pi**2 * beta2)
    return front * c / det, front * a / det


def crb(power: PowerAllocation, target: SensingTarget, cfg: AfdmConfig) -> SensingBounds:
    """Delay/Doppler lower bounds and their range/velocity conversions."""
    a_m, b_m, c0 = _fim_sums(cfg, target.delay_samples)
    p = power.powers
    a = float(p @ a_m)
    b = float(p @ b_m)
    c = power.total * c0
    beta2 = abs(target.gain) ** 2
    crb_tau, crb_nu = _crb_from_sums(a, b, c, beta2, target.noise_power, cfg.n_sub)
    from .channel import SPEED_OF_LIGHT

    crb_range = (SPEED_OF_LIGHT * cfg.t_s / 2.0) ** 2 * crb_tau
    crb_velocity = (SPEED_OF_LIGHT * cfg.delta_f / (2.0 * cfg.f_c)) ** 2 * crb_nu
    return SensingBounds(
        fim=fim(power, target, cfg),
        crb_tau=crb_tau,
        crb_nu=crb_nu,
        crb_range=crb_range,
        crb_velocity=crb_velocity,
    )


def sensing_weight(
    power: PowerAllocation,
    target: SensingTarget,
    cfg: AfdmConfig,
    m: int,
    rel_step: float = 1e-4,
) -> float:
    """Central-difference sensitivity of the delay bound to subcarrier m's power.

    Evaluated as a plain partial derivative (total power is not held fixed),
    with step rel_step * Pt / Nc.
    """
    return float(sensing_weights(power, target, cfg, rel_step=rel_step)[m])


def sensing_weights(
    power: PowerAllocation, target: SensingTarget, cfg: AfdmConfig, rel_step: float = 1e-4
) -> np.ndarray:
    """Vector of per-subcarrier delay-bound sensitivities (central differences)."""
    a_m, b_m, c0 = _fim_sums(cfg, target.delay_samples)
    p = power.powers
    a = float(p @ a_m)
    b = float(p @ b_m)
    c = power.total * c0
    beta2 = abs(target.gain) ** 2
    h = rel_step * power.total / cfg.n_sub
    out = np.empty(cfg.n_sub)
    for m in range(cfg.n_sub):
        hi, _ = _crb_from_sums(
            a + h * a_m[m], b + h * b_m[m], c + h * c0, beta2, target.noise_power, cfg.n_sub
        )
        lo, _ = _crb_from_sums(
            a - h * a_m[m], b - h * b_m[m], c - h * c0, beta2, target.noise_power, cfg.n_sub
        )
        out[m] = (hi - lo) / (2.0 * h)
    return out


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
    equal-allocation baseline.  Pass ``allocations`` (rows summing to the
    total) to evaluate a fixed set instead of drawing.
    """
    if n_draws < 1 and allocations is None:
        raise ParameterError("n_draws must be >= 1")
    a_m, b_m, c0 = _fim_sums(cfg, target.delay_samples)
    if allocations is not None:
        alloc = np.asarray(allocations, dtype=np.float64)
    else:
        alloc = rng.dirichlet(np.ones(cfg.n_sub), size=n_draws) * total_power
    a = alloc @ a_m
    b = alloc @ b_m
    c = total_power * c0
    beta2 = abs(target.gain) ** 2
    det = a * c - b * b
    front = target.noise_power * cfg.n_sub / (8.0 * np.pi**2 * beta2)
    values = front * c / det
    baseline, _ = _crb_from_sums(
        float(np.full(cfg.n_sub, total_power / cfg.n_sub) @ a_m),
        float(np.full(cfg.n_sub, total_power / cfg.n_sub) @ b_m),
        c,
        beta2,
        target.noise_power,
        cfg.n_sub,
    )
    hist, edges = np.histogram(values, bins=n_bins, density=True)
    return {
        "values": values,
        "mean": float(values.mean()),
        "variance": float(values.var()),
        "tail_mass": float(np.mean(values > 2.0 * baseline)),
        "equal_allocation": baseline,
        "density": hist,
        "bin_edges": edges,
    }
