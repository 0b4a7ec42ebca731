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
2x2 inverse of that block, front*c/D and front*a/D with D = a*c - b^2.  No
Nc x Nc kernel is built: it reads one length-Nc table,
frac_kernel(n, m) = h[<u_n + m>_Nc] with u_n = <K*n - w>_Nc (K = 2*c1*Nc, w the
integer part of K*tau_bar).  So b_m = sum_k wt[k]*h[<k + m>_Nc], with wt[k]
the summed n/Nc of the samples n with u_n = k, is a cyclic correlation of
length Nc, evaluated by FFT at O(Nc log Nc).  The same form holds for a_m
with h^2 and the sample counts, but u_n hits every j = u_0 (mod g),
g = gcd(K, Nc), exactly g times, so a_m is g times the sum of h^2 over one
residue class mod g: O(Nc), and exactly 0 where the kernel is.  One
private evaluator computes them for every public function (``fim``,
``crb``, ``sensing_weights``, ``crb_distribution``).  D is a
Cauchy-Schwarz gap, 0 exactly when every loaded column frac(., m) is one
multiple of n/Nc; that is decided in integers on the table, so at any Nc,
and such a singular block raises ``NumericalError``.  Range and velocity
bounds follow by the unit conversion of
``channel.delay_doppler_to_range_velocity``.  The
sensing weights are the closed-form gradient of the delay bound, not finite
differences.  Note: the gain-gain information entry is 2*Pt/sigma_s^2, i.e.
twice the waveform energy over the noise power, as the likelihood dictates
(finite-difference tests pin this down).

Ambiguity functions
-------------------
The ambiguity function is the receiver's range-Doppler correlation taken
between two known symbols, so ``cross_ambiguity`` checks its integer axes
and calls the one correlation in ``sensing``, and the surfaces come back as
a ``sensing.RangeDopplerMap``.  At integer delays that correlation reads
the chirp-periodic prefix rule of ``daft``,
s[n - tau] = s[<n - tau>_Nc] * (-1)^(K*Nc*floor((n - tau)/Nc)): cyclic when
K = 2*c1*Nc makes K*Nc even, Nc-antiperiodic when it is odd.  It is the
channel's shift, so Theorem 4 holds at either parity.  Leading axes batch.
The Monte Carlo moments never leave the DAFT domain: the transform is unitary
and an integer (tau, nu) is one channel path, so each point is x^H H x with H
that path.  One ``channel.PathChannel`` holds the paths of all points, and a
block of frames costs one ``images`` call and one batched row dot; the origin
is the frame energy.  ``interference_coefficient`` provides the closed-form
DAFT-domain route (a single cyclic ridge at subcarrier offset
2*c1*tau*Nc - nu), and the tests cross-check the two.  Theorem 4 reads the
pilot's Gram from the estimator's cached pilot model.

Monte Carlo
-----------
``ambiguity_moments_mc`` and ``crb_distribution`` stream over their leading
axis in blocks sized by the package's one byte budget,
``sensing._BLOCK_BYTES`` (1 MiB), so no (frames or draws) x Nc stack is
built: each holds about one budget of temporaries.  The random stream does
not depend on the block size.  A block of frames draws its data symbols as
one ``rng.bytes`` call and reads them through ``modem._PackedFrames``, the
package's one packed-byte rule (a 256-row table, 8/k symbols per byte for k
bits per symbol, each frame whole 32-bit words), which ``sensing.roc_curve``
reads too.  Dirichlet(1, ..., 1) allocations are drawn as the
normalised unit exponentials that ``rng.dirichlet`` itself draws.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import (
    PathChannel,
    SensingTarget,
    delay_doppler_to_range_velocity,
    subcarrier_offset,
)
from .daft import AfdmConfig, idaft
# build_daft_matrix is unused here; the benchmark's tracer test requires this binding
from .daft import build_daft_matrix  # noqa: F401
from .errors import (
    NumericalError,
    ParameterError,
    check_count,
    check_integers,
    check_nonnegative,
    check_number,
    check_pair,
    check_positive,
    check_reals,
    check_stack,
    check_type,
    check_vector,
)
from .estimator import _pilot_model
from .modem import Constellation, FrameSpec, _PackedFrames
from .pilots import proposed_pilot
from .sensing import _BLOCK_BYTES, RangeDopplerMap, _correlate

__all__ = [
    "PowerAllocation",
    "SensingBounds",
    "ambiguity_region",
    "ambiguity_function",
    "cross_ambiguity",
    "ambiguity_decomposition",
    "interference_coefficient",
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


def ambiguity_region(tau_m: int, nu_m: int) -> tuple[np.ndarray, np.ndarray]:
    """Delay/Doppler axes [-tau_m, tau_m] x [-2*nu_m, 2*nu_m] of integers tau_m, nu_m >= 0."""
    check_count(tau_m, "tau_m", least=0)
    check_count(nu_m, "nu_m", least=0)
    return np.arange(-tau_m, tau_m + 1), np.arange(-2 * nu_m, 2 * nu_m + 1)


def cross_ambiguity(a, b, tau_axis, nu_axis, cfg: AfdmConfig) -> np.ndarray:
    """sum_n a*[n] b[n - tau] exp(j*2*pi*nu*n/Nc) on the given integer axes.

    b[n - tau] reads the chirp-periodic extension of ``b``.  ``a`` and ``b``
    are two symbols of length Nc or two stacks of equal shape (..., Nc); the
    result has shape (..., delays, Dopplers).
    """
    check_type(cfg, AfdmConfig, "cfg")
    a = check_stack(a, cfg.n_sub, "signals")
    b = check_stack(b, cfg.n_sub, "signals")
    if a.shape != b.shape:
        raise ParameterError(
            f"signals must share a shape (..., {cfg.n_sub}), got {a.shape} and {b.shape}"
        )
    tau_axis = check_integers(tau_axis, "delay axis")
    nu_axis = check_integers(nu_axis, "Doppler axis")
    return _correlate(a, b, tau_axis, nu_axis, cfg)


def ambiguity_function(s, region, cfg: AfdmConfig) -> RangeDopplerMap:
    """Auto-ambiguity surface of a time-domain signal over ``region``.

    ``region`` is a (tau_axis, nu_axis) pair of integer arrays, e.g. from
    ``ambiguity_region``; anything else raises ``ParameterError``.
    """
    tau_axis, nu_axis = (check_integers(axis, "ambiguity axis") for axis in check_pair(region, "region"))
    return RangeDopplerMap(cross_ambiguity(s, s, tau_axis, nu_axis, cfg), tau_axis, nu_axis)


def ambiguity_decomposition(
    x_pilot, x_data, region, cfg: AfdmConfig
) -> tuple[RangeDopplerMap, dict]:
    """Ambiguity surface of a superimposed frame and its four bilinear parts.

    Returns (surface, parts) with surface values = pilot + data + data_pilot
    + pilot_data, where the mixed terms conjugate the first-named component.
    ``region`` is a (tau_axis, nu_axis) pair of integer arrays, as for
    ``ambiguity_function``.
    """
    tau_axis, nu_axis = (check_integers(axis, "ambiguity axis") for axis in check_pair(region, "region"))
    s_p, s_d = idaft(x_pilot, cfg), idaft(x_data, cfg)
    stack = cross_ambiguity(
        np.stack([s_p, s_d, s_d, s_p]), np.stack([s_p, s_d, s_p, s_d]), tau_axis, nu_axis, cfg
    )
    parts = dict(zip(("pilot", "data", "data_pilot", "pilot_data"), stack))
    return RangeDopplerMap(stack.sum(axis=0), tau_axis, nu_axis), parts


def interference_coefficient(m1: int, m2: int, tau: int, nu: int, cfg: AfdmConfig) -> complex:
    """Closed-form inter-subcarrier coupling for integer (tau, nu).

    Nc*c2_chirp[m1]*conj(c2_chirp[m2]) when <m2 - m1> equals the subcarrier
    offset of the (tau, nu) pair, else 0; m1 and m2 must lie in [0, Nc).
    """
    m1, m2 = (check_integers([m], "subcarrier indices")[0] for m in (m1, m2))
    tau, nu = (check_integers([v], "path delay and Doppler")[0] for v in (tau, nu))
    offset = subcarrier_offset(tau, nu, cfg)  # checks cfg
    if min(m1, m2) < 0 or max(m1, m2) >= cfg.n_sub:
        raise ParameterError(f"subcarrier indices must lie in [0, {cfg.n_sub}), got {m1}, {m2}")
    if (m2 - m1) % cfg.n_sub != offset:
        return 0.0 + 0.0j
    return cfg.n_sub * complex(cfg.c2_chirp[m1] * np.conj(cfg.c2_chirp[m2]))


# ---------------------------------------------------------------------------
# ambiguity statistics


def af_statistics_closed_form(
    spec: FrameSpec, cfg: AfdmConfig, at_origin: bool, pilot_af: complex = 0.0
) -> tuple[complex, float]:
    """Closed-form mean and variance of the frame ambiguity value at a point.

    Mean is the total power at the origin and the pilot ambiguity value
    elsewhere (pass it via ``pilot_af``).  Variance is
    2*sigma_d^2*sigma_p^2 + (E|xd|^4 - sigma_d^4)*Nc at the origin and
    2*sigma_d^2*sigma_p^2 + sigma_d^4*Nc elsewhere.  Both constellations
    have E{u^2} = 0, which these forms assume.  A ``pilot_af`` that is no
    finite number raises ``ParameterError``.
    """
    check_type(spec, FrameSpec, "spec")
    check_type(cfg, AfdmConfig, "cfg")
    check_number(pilot_af, "pilot_af")
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


def _delay_doppler_pairs(pairs, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Integer delays and Dopplers of a non-empty list of (delay, Doppler) pairs."""
    try:
        arr = np.asarray(pairs)
    except (TypeError, ValueError):  # ragged pairs
        arr = np.empty(0)
    if arr.dtype.kind not in "biuf" or arr.ndim != 2 or arr.shape[1] != 2 or not len(arr):
        raise ParameterError(f"{what} must be a non-empty list of (delay, Doppler), got {pairs!r}")
    return check_integers(arr[:, 0], "pair delays"), check_integers(arr[:, 1], "pair Dopplers")


def ambiguity_moments_mc(
    x_pilot, spec: FrameSpec, cfg: AfdmConfig, points: Sequence[tuple[int, int]], n_frames: int, rng
) -> dict:
    """Monte Carlo mean/variance of the frame ambiguity at integer points.

    Returns arrays aligned with ``points`` plus standard errors of both
    estimates (the variance SE uses the empirical fourth central moment).
    Each point is read in the DAFT domain, with no synthesis and no delayed
    frame stack.  The DAFT is unitary and s[n - tau] * exp(j*2*pi*nu*n/Nc)
    is the channel path s[n - tau] * exp(j*2*pi*nu*<n - tau>_Nc/Nc) times
    exp(j*2*pi*nu*tau/Nc), so with t = <tau>_Nc and w = floor(tau/Nc)

        A(tau, nu) = sum_n conj(s[n]) s[n - tau] exp(j*2*pi*nu*n/Nc) = x^H H x,

    H the path (t, nu) with gain (-1)^(K*Nc*w) * exp(j*2*pi*nu*t/Nc): the
    chirp-periodic extension flips sign once per whole symbol of delay when
    K*Nc is odd (K = 2*c1*Nc), and the phase is the config's ``dft_twiddle``
    at (nu mod Nc)*t mod Nc, reduced in int64 without overflow.  One
    ``PathChannel`` holds the paths of every point but the origin, where H
    is the identity and the value is the frame energy, read as such; with
    no other point there is no channel and no ``images`` call.

    The data symbols are packed random bytes read by ``modem._PackedFrames``
    (k bits per symbol must divide 8), one ``rng.bytes`` call per block of
    frames, so the draws do not depend on the block size and the generator
    ends where one call for all frames would leave it.  The frames are
    built and read in blocks of rows, as many per block as a complex block
    and its (block, points, Nc) images fit in ``sensing._BLOCK_BYTES`` (at
    least one frame), each by one ``images`` call and one batched row dot.
    Every frame's value is bit for bit the same at any block size.

    ``cfg``, ``spec`` and ``rng`` must be an ``AfdmConfig``, a ``FrameSpec``
    and a numpy ``Generator``, ``x_pilot`` have shape (Nc,), ``points`` be a
    non-empty list of integer (delay, Doppler) pairs and ``n_frames`` an
    integer >= 1; all are checked before any draw.
    """
    check_type(cfg, AfdmConfig, "cfg")
    check_type(spec, FrameSpec, "spec")
    check_type(rng, np.random.Generator, "rng")
    n = cfg.n_sub
    x_pilot = check_vector(x_pilot, n, "pilot")
    check_count(n_frames, "n_frames")
    taus, nus = _delay_doppler_pairs(points, "ambiguity points")
    off = (taus != 0) | (nus != 0)  # the origin reads the frame energy
    paths = int(off.sum())
    if paths:
        whole, t = np.divmod(taus[off], n)
        sign = np.where(cfg.prefix_flips & (whole % 2 == 1), -1.0, 1.0)
        h = PathChannel(cfg, t, nus[off], sign * np.conj(cfg.dft_twiddle[nus[off] % n * t % n]))
    block = max(1, _BLOCK_BYTES // (16 * n * (1 + paths)))
    packed = _PackedFrames(spec, n, min(block, n_frames))
    values = np.empty((len(taus), n_frames), dtype=np.complex128)
    for start in range(0, n_frames, block):
        count = min(block, n_frames - start)
        frames = packed.read(packed.draw(rng, count))
        frames += x_pilot
        if paths:
            values[off, start : start + count] = np.vecdot(frames[:, None], h.images(frames)).T
        values[~off, start : start + count] = np.vecdot(frames, frames)
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
    positive the origin inequality is also checked by simulation; it must
    be an integer >= 0 and ``total_data_power`` finite and >= 0 (else
    ``ParameterError``).
    """
    check_type(cfg, AfdmConfig, "cfg")
    check_nonnegative(total_data_power, "total_data_power")
    check_count(n_frames, "n_frames", least=0)
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
) -> TheoremReport:
    """Origin ambiguity variance decays like 1/Nc for constant-modulus data.

    Closed-form values are exactly 2*Pd*sigma_p^2/Nc; with ``n_frames`` the
    Monte Carlo log-log slope across the configs must fall in
    ``_SLOPE_WINDOW``, with the frames of each config carrying its
    ``proposed_pilot(cfg, pilot_power)``.  A slope needs a sequence of
    configs of at least two subcarrier counts, ``total_data_power`` is
    finite and >= 0 and ``n_frames`` an integer >= 0 (else
    ``ParameterError``).
    """
    check_nonnegative(total_data_power, "total_data_power")
    check_count(n_frames, "n_frames", least=0)
    if not isinstance(cfgs, Sequence):
        raise ParameterError(f"cfgs must be a sequence of AfdmConfig, got {cfgs!r}")
    for cfg in cfgs:
        check_type(cfg, AfdmConfig, "each of cfgs")
    n_subs = np.array([cfg.n_sub for cfg in cfgs], dtype=float)
    if np.unique(n_subs).size < 2:
        raise ParameterError(f"need configs of at least two subcarrier counts, got {n_subs.tolist()}")
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
        if rng is None:
            raise ParameterError("Monte Carlo check needs rng")
        mc_vars = []
        for spec, cfg in zip(specs, cfgs):
            mc = ambiguity_moments_mc(proposed_pilot(cfg, pilot_power), spec, cfg, [(0, 0)], n_frames, rng)
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

    The Gram Psi_p^H Psi_p is read from the estimator's cached Psi_p^H and
    Gram of (cfg, pairs, pilot bytes), shared with the link: at most 4
    models of L*Nc*16 bytes.  The check verifies, entry by entry, that the
    (i, j) Gram element equals
    exp(-j*2*pi*nu_j*(tau_j - tau_i)/Nc) * chi_p(tau_j - tau_i, nu_j - nu_i);
    an ideal pilot therefore yields a scaled-identity Gram.  ``passed``
    reflects only the identity residual (relative tolerance
    ``_IDENTITY_TOL``); consumers judge the off-diagonal magnitudes via the
    report.  ``pairs`` is a non-empty list of integer (delay, Doppler)
    pairs, each delay in [0, Nc), checked before the model is read.
    """
    check_type(cfg, AfdmConfig, "cfg")
    n = cfg.n_sub
    x_pilot = check_vector(x_pilot, n, "pilot")
    taus, nus = _delay_doppler_pairs(pairs, "pairs")
    if taus.min() < 0 or taus.max() >= n:
        raise ParameterError(f"pair delays must lie in [0, {n}), got {pairs!r}")
    pilot_power = float(np.linalg.norm(x_pilot) ** 2)
    gram = _pilot_model(cfg, tuple(zip(taus.tolist(), nus.tolist())), x_pilot.tobytes()).gram
    # integer Dopplers act mod Nc: centred, their differences fit in int64
    nus = (nus % n + n // 2) % n - n // 2
    tau_diff = taus[None, :] - taus[:, None]  # [i, j] = tau_j - tau_i
    tau_hats, t_idx = np.unique(tau_diff, return_inverse=True)  # t_idx, v_idx: (L, L)
    nu_hats, v_idx = np.unique(nus[None, :] - nus[:, None], return_inverse=True)
    chi = ambiguity_function(idaft(x_pilot, cfg), (tau_hats, nu_hats), cfg).values
    predicted = cfg.dft_twiddle[nus[None, :] % n * tau_diff % n] * chi[t_idx, v_idx]
    max_identity = float(np.max(np.abs(gram - predicted)))
    diag_err = float(np.max(np.abs(np.diag(gram) - pilot_power)))
    details = {
        "max_identity_residual": max_identity,
        "max_offdiagonal": float(np.max(np.abs(gram[~np.eye(len(taus), dtype=bool)]), initial=0.0)),
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
    """Per-subcarrier expected powers: a non-empty vector of finite reals >= 0, not all 0."""

    powers: np.ndarray

    def __post_init__(self):
        p = check_reals(self.powers, "powers")
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
    check_nonnegative(total, "total")
    check_count(n_sub, "n_sub")
    return PowerAllocation(np.full(n_sub, total / n_sub))


def frame_power_profile(x_pilot, data_symbol_power: float) -> PowerAllocation:
    """Expected per-subcarrier power of a superimposed frame.

    ``x_pilot`` is a vector of numbers of any length (else
    ``ConfigurationError``) and ``data_symbol_power`` finite and >= 0.
    """
    x_pilot = check_vector(x_pilot, None, "pilot")
    check_nonnegative(data_symbol_power, "data_symbol_power")
    return PowerAllocation(np.abs(x_pilot) ** 2 + data_symbol_power)


def _frac_table(cfg: AfdmConfig, tau_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Table h and index map u with frac(2*c1*(n - tau_bar) + m/Nc) = h[<u_n + m>_Nc].

    K*tau_bar (K = 2*c1*Nc) is split exactly, by integer arithmetic on the
    ratio of the float tau_bar, into an integer w and a fraction f in [0, 1).
    Then u_n = <K*n - w>_Nc and h[j] = (j - f)/Nc, or (Nc - f)/Nc at
    j = 0 < f, so h vanishes only at j = 0 with f = 0.  So every kernel
    entry is the exact value for the float tau_bar to about an ulp: 0 at a
    tie, and just past one (tau_bar slightly above a tie) the value just
    below 1, which reads 1.0 when it lies within about an ulp of 1.  The
    table lies in [0, 1].
    """
    nc, k = cfg.n_sub, cfg.two_c1_n
    num, den = float(tau_bar).as_integer_ratio()
    whole, rest = divmod(k * num, den)
    f = rest / den
    j = np.arange(nc)
    h = (np.where((j == 0) & (f > 0), nc, j) - f) / nc
    return h, (k % nc * j - whole % nc) % nc


def _ramp_column(h: np.ndarray, u: np.ndarray) -> int:
    """The subcarrier whose kernel column is an exact multiple of n/Nc, else -1.

    Column m is h[<u_n + m>_Nc].  It can be a multiple of n/Nc only if it
    vanishes at n = 0, and h vanishes only at index 0 with f = 0, so only
    m = <-u_0> with h[0] = 0 qualifies.  That column reads
    h[i_n] = i_n/Nc with the integers i_n = <u_n - u_0>_Nc, a multiple of
    n/Nc exactly when i_n = i_1*n for every n.
    """
    n = u.size
    i = (u - u[0]) % n
    if n < 2 or h[0] != 0 or not np.array_equal(i, i[1] * np.arange(n)):
        return -1
    return int(-u[0] % n)


def _fim_kernels(target: SensingTarget, cfg: AfdmConfig):
    """Kernels (a_m, b_m, c0) of a validated target and the ramp column: no allocation.

    a_m = sum_n frac^2, b_m = sum_n frac*(n/Nc), c0 = sum_n (n/Nc)^2.  The
    ramp column is ``_ramp_column`` of the kernel.  Every bound checks its
    ``target`` and ``cfg`` here.
    """
    check_type(target, SensingTarget, "target")
    check_type(cfg, AfdmConfig, "cfg")
    if any(np.ndim(v) for v in (target.gain, target.delay_samples, target.doppler_norm)):
        raise ParameterError("the bounds take one target: scalar gain, delay and Doppler")
    check_positive(target.noise_power, "target noise power")
    if not 0 < abs(target.gain) < np.inf:
        raise ParameterError("target gain must be nonzero and finite")
    n = cfg.n_sub
    h, u = _frac_table(cfg, target.delay_samples)
    ramp = np.arange(n, dtype=np.float64) / n
    # a_m = g * sum_{j = u_0 + m (mod g)} h[j]^2 is a sum of squares, exactly 0
    # where the kernel is, which the determinant check needs (a correlation by
    # FFT leaves about 1e-15 there, and D > 0 at a delta allocation with c1 = 0)
    g = math.gcd(cfg.two_c1_n, n)
    a_m = g * (h * h).reshape(-1, g).sum(axis=0)[(u[0] + np.arange(n)) % g]
    wt = np.bincount(u, weights=ramp, minlength=n)
    b_m = np.fft.irfft(np.conj(np.fft.rfft(wt)) * np.fft.rfft(h), n)
    c0 = float(np.sum(ramp * ramp))
    return a_m, b_m, c0, _ramp_column(h, u)


def _fim_sums(power: PowerAllocation, target: SensingTarget, cfg: AfdmConfig):
    """Validated kernels (a_m, b_m, c0), power-weighted sums (a, b, c) and the ramp column.

    The kernels and the ramp column are those of ``_fim_kernels``;
    a = p.a_m, b = p.b_m, c = sum(p)*c0 for the allocation's powers p, which
    must number Nc.  Every bound of one allocation checks its ``power`` here.
    """
    check_type(power, PowerAllocation, "power")
    a_m, b_m, c0, ramp = _fim_kernels(target, cfg)
    p = power.powers
    if p.size != cfg.n_sub:
        raise ParameterError(f"allocation must have length n_sub={cfg.n_sub}, got shape {p.shape}")
    return a_m, b_m, c0, p @ a_m, p @ b_m, power.total * c0, ramp


def _crb_from_sums(a, b, c, powers, ramp: int, target: SensingTarget, cfg: AfdmConfig):
    """Delay and Doppler bounds front*c/D and front*a/D, and D, elementwise in the sums.

    D = a*c - b^2 is the delay-Doppler determinant up to scale.  It is 0
    exactly when every subcarrier the allocation ``powers`` loads has its
    kernel column equal to one multiple of n/Nc (Cauchy-Schwarz): for
    Nc = 1, where n/Nc is 0, or for an allocation whose only load is the
    ``ramp`` column.  Such a block, a non-finite D, or a D that rounding
    leaves non-positive raises ``NumericalError``.
    """
    p = np.asarray(powers)
    det = a * c - b * b
    singular = cfg.n_sub == 1 or (
        ramp >= 0 and np.any((np.count_nonzero(p, axis=-1) == 1) & (p[..., ramp] > 0))
    )
    if singular or np.any(~np.isfinite(det) | (det <= 0)):
        raise NumericalError(
            f"degenerate delay-Doppler information block (a*c - b^2 = {np.min(det)})"
        )
    front = target.noise_power * cfg.n_sub / (8.0 * np.pi**2 * abs(target.gain) ** 2)
    return front * c / det, front * a / det, det


def _fim_matrix(total: float, a: float, b: float, c: float, target: SensingTarget, cfg: AfdmConfig):
    """(gain, delay, Doppler) information matrix from the total power and the sums."""
    scale = 2.0 / target.noise_power
    g = scale * abs(target.gain) ** 2 * (2.0 * np.pi) ** 2 / cfg.n_sub
    return np.array([[scale * total, 0.0, 0.0], [0.0, g * a, -g * b], [0.0, -g * b, g * c]])


def fim(power: PowerAllocation, target: SensingTarget, cfg: AfdmConfig) -> np.ndarray:
    """3x3 information matrix for (gain, delay, Doppler)."""
    *_, a, b, c, _ = _fim_sums(power, target, cfg)
    return _fim_matrix(power.total, a, b, c, target, cfg)


def crb(power: PowerAllocation, target: SensingTarget, cfg: AfdmConfig) -> SensingBounds:
    """Delay/Doppler lower bounds and their range/velocity conversions."""
    *_, a, b, c, ramp = _fim_sums(power, target, cfg)
    crb_tau, crb_nu, _ = _crb_from_sums(a, b, c, power.powers, ramp, target, cfg)
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
    a_m, b_m, c0, a, b, c, ramp = _fim_sums(power, target, cfg)
    crb_tau, _, det = _crb_from_sums(a, b, c, power.powers, ramp, target, cfg)
    return crb_tau * (c0 / c - (a_m * c + a * c0 - 2.0 * b * b_m) / det)


# histogram bins of the delay-bound density reported by crb_distribution
_CRB_BINS = 60


def crb_distribution(
    cfg: AfdmConfig,
    target: SensingTarget,
    total_power: float,
    n_draws: int,
    rng,
) -> dict:
    """Delay-bound statistics under symmetric-Dirichlet random allocations.

    Draws allocations uniformly on the power simplex (scaled to the total),
    evaluates the delay bound for each, and reports the empirical
    distribution.  ``tail_mass`` is the fraction of draws exceeding twice the
    equal-allocation baseline at ``total_power``.  ``density`` is a 60-bin
    histogram of the bounds (one bin holds them all when ``n_draws`` is 1);
    bounds that agree to below float resolution are binned as numpy bins
    equal values, over their range widened by 0.5 on each side (or by 1e-9
    relative, where that is wider).

    A Dirichlet(1, ..., 1) draw is Nc i.i.d. unit exponentials divided by
    their sum, and ``rng.dirichlet`` at alpha = 1 draws exactly those
    exponentials in the same order, so the draws are read from
    ``rng.standard_exponential`` and leave ``rng`` as ``rng.dirichlet``
    would.  A delay bound needs only a = p.a_m, b = p.b_m and the total, so
    each block of draws, as many as fit in ``sensing._BLOCK_BYTES`` (at
    least one), is reduced by one product against the kernels and scaled by
    total_power over its sum: no (n_draws, Nc) allocation matrix is built.
    ``n_draws`` is an integer >= 1 and ``rng`` a numpy ``Generator``, both
    checked before any draw.  ``crb`` bounds one fixed allocation.
    """
    check_positive(total_power, "total_power")
    check_count(n_draws, "n_draws")
    check_type(rng, np.random.Generator, "rng")
    a_m, b_m, c0, ramp = _fim_kernels(target, cfg)
    kernels = np.column_stack([a_m, b_m])
    block = max(1, _BLOCK_BYTES // (8 * cfg.n_sub))
    buffer = np.empty((min(block, n_draws), cfg.n_sub))
    values = np.empty(n_draws)
    for start in range(0, n_draws, block):
        draws = rng.standard_exponential(out=buffer[: min(block, n_draws - start)])
        # draws are >= 0; an all-zero row leaves a NaN determinant (after numpy's
        # division warning), which _crb_from_sums refuses with NumericalError
        a, b = (draws @ kernels).T * (total_power / draws.sum(axis=-1))
        # the draws load the subcarriers their allocations load, which is
        # all the degeneracy test reads of them
        values[start : start + len(draws)], *_ = _crb_from_sums(
            a, b, total_power * c0, draws, ramp, target, cfg
        )
    equal = np.full(cfg.n_sub, total_power / cfg.n_sub)
    baseline, *_ = _crb_from_sums(
        equal @ a_m, equal @ b_m, total_power * c0, equal, ramp, target, cfg
    )
    lo, hi = values.min(), values.max()
    span = None  # numpy's own range, unless its bins would not be increasing
    if not np.all(np.diff(np.linspace(lo, hi, _CRB_BINS + 1)) > 0):
        pad = max(0.5, 1e-9 * abs(hi))
        span = (lo - pad, hi + pad)
    hist, edges = np.histogram(values, bins=_CRB_BINS, range=span, density=True)
    return {
        "values": values,
        "mean": float(values.mean()),
        "variance": float(values.var()),
        "tail_mass": float(np.mean(values > 2.0 * baseline)),
        "equal_allocation": float(baseline),
        "density": hist,
        "bin_edges": edges,
    }
