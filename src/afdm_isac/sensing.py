"""Range-Doppler correlation, detection, and target parameter estimation.

The range-Doppler function correlates the conjugated echo against
delay-shifted, Doppler-compensated copies of the known transmit signal:

    E(tau, nu) = sum_n conj(r[n]) * s[n - tau] * exp(j*2*pi*nu*n/Nc)

(the echo is the conjugated factor, so a target of gain beta peaks with
value conj(beta) * total power; magnitude-based detection is unaffected).
Delayed references come from the prefixed transmit record for integer lags
and from the chirp waveform model for fractional lags, so oversampled grids
stay consistent with the channel's fractional-delay convention.  Detection
normalizes |E|^2 by a local noise floor (cell-averaging window with a guard
box, cyclic wrap) and thresholds the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import SensingTarget, sensing_echo
from .daft import AfdmConfig, add_cpp, idaft, waveform_samples
from .errors import ParameterError
from .modem import FrameSpec, random_data_vector
from .pilots import PilotScheme, pilot_vector

__all__ = [
    "RangeDopplerMap",
    "DetectionConfig",
    "TransmitRecord",
    "transmit_record",
    "sensing_grid",
    "rdf",
    "noise_floor",
    "detect",
    "estimate_target",
    "SensingScenario",
    "roc_curve",
    "pd_at_pfa",
]


@dataclass(frozen=True)
class TransmitRecord:
    """A transmitted frame in all three forms the sensor needs."""

    x: np.ndarray
    s: np.ndarray
    s_cpp: np.ndarray


def transmit_record(x, cfg: AfdmConfig) -> TransmitRecord:
    x = np.asarray(x, dtype=np.complex128)
    s = idaft(x, cfg)
    return TransmitRecord(x=x, s=s, s_cpp=add_cpp(s, cfg))


@dataclass(frozen=True)
class RangeDopplerMap:
    """Correlation values on a delay-Doppler grid (delays x Dopplers)."""

    values: np.ndarray
    tau_axis: np.ndarray
    nu_axis: np.ndarray


@dataclass(frozen=True)
class DetectionConfig:
    """Threshold and noise-averaging window (all widths in cells).

    The noise floor at a cell averages |E|^2 over the box of half-widths
    ``train`` minus the guard box of half-widths ``guard``, with cyclic wrap
    on both axes.
    """

    gamma: float = 10.0
    guard: tuple[int, int] = (2, 1)
    train: tuple[int, int] = (5, 2)

    def __post_init__(self):
        if self.gamma <= 0:
            raise ParameterError("gamma must be positive")
        if any(g < 0 for g in self.guard):
            raise ParameterError(f"guard half-widths must be non-negative, got {self.guard}")
        if any(t <= 0 for t in self.train):
            raise ParameterError(f"train half-widths must be positive, got {self.train}")


def sensing_grid(
    tau_m: int, nu_m: int, os_tau: int = 1, os_nu: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Delay axis [0, tau_m] and Doppler axis [-nu_m, nu_m] with oversampling."""
    taus = np.arange(0, tau_m * os_tau + 1) / os_tau
    nus = np.arange(-nu_m * os_nu, nu_m * os_nu + 1) / os_nu
    return taus, nus


def _delayed_reference(record: TransmitRecord, cfg: AfdmConfig, taus: np.ndarray) -> np.ndarray:
    """Matrix s[n - tau] with shape (Nc, len(taus))."""
    n = np.arange(cfg.n_sub)
    out = np.empty((cfg.n_sub, taus.size), dtype=np.complex128)
    frac_mask = ~np.isclose(taus, np.round(taus))
    for j in np.flatnonzero(~frac_mask):
        tau = int(round(taus[j]))
        if tau < -cfg.n_sub or tau > cfg.n_cpp:
            raise ParameterError(f"delay {tau} outside the prefixed record")
        out[:, j] = record.s_cpp[cfg.n_cpp + n - tau]
    if np.any(frac_mask):
        frac_taus = taus[frac_mask]
        vals = np.stack(
            [waveform_samples(record.x, cfg, n - tau) for tau in frac_taus], axis=1
        )
        out[:, frac_mask] = vals
    return out


def rdf(r_s, record: TransmitRecord, grid, cfg: AfdmConfig) -> RangeDopplerMap:
    """Range-Doppler correlation of an echo against the transmit record.

    ``grid`` is a (tau_axis, nu_axis) pair; both axes may be fractional
    (oversampled).  The echo must cover the prefix-free window.
    """
    r_s = np.asarray(r_s, dtype=np.complex128)
    if r_s.shape != (cfg.n_sub,):
        raise ParameterError(f"echo must have length {cfg.n_sub}")
    tau_axis = np.asarray(grid[0], dtype=np.float64)
    nu_axis = np.asarray(grid[1], dtype=np.float64)
    ref = _delayed_reference(record, cfg, tau_axis)
    n = np.arange(cfg.n_sub)
    comp = np.conj(r_s)[None, :] * np.exp(
        2j * np.pi * nu_axis[:, None] * n[None, :] / cfg.n_sub
    )
    values = (comp @ ref).T
    return RangeDopplerMap(values=values, tau_axis=tau_axis, nu_axis=nu_axis)


def _window_offsets(half: tuple[int, int], shape: tuple[int, int]) -> set:
    dt_range = range(-half[0], half[0] + 1)
    dv_range = range(-half[1], half[1] + 1)
    return {(dt % shape[0], dv % shape[1]) for dt in dt_range for dv in dv_range}


def noise_floor(rd_map: RangeDopplerMap, det: DetectionConfig) -> np.ndarray:
    """Local average of |E|^2 around each cell, guard box excluded, cyclic wrap.

    On axes shorter than the training window the wrap collapses the window to
    whole-axis averaging, which is the intended degenerate behavior.
    """
    power = np.abs(rd_map.values) ** 2
    shape = power.shape
    offsets = _window_offsets(det.train, shape) - _window_offsets(det.guard, shape)
    if not offsets:
        raise ParameterError(
            f"guard {det.guard} swallows the whole {shape} grid: no training cells"
        )
    acc = np.zeros_like(power)
    for dt, dv in offsets:
        acc += np.roll(power, (-dt, -dv), axis=(0, 1))
    return acc / len(offsets)


def detect(rd_map: RangeDopplerMap, noise: np.ndarray, gamma: float) -> list:
    """Cells whose |E|^2 / noise ratio exceeds gamma, strongest first.

    Returns (tau, nu, statistic) triples.  The statistic is invariant to any
    global phase of the echo.
    """
    stat = np.abs(rd_map.values) ** 2 / noise
    hits = np.argwhere(stat > gamma)
    out = [
        (float(rd_map.tau_axis[i]), float(rd_map.nu_axis[j]), float(stat[i, j]))
        for i, j in hits
    ]
    out.sort(key=lambda t: -t[2])
    return out


def estimate_target(rd_map: RangeDopplerMap) -> tuple[float, float]:
    """Delay/Doppler location of the strongest correlation magnitude."""
    if rd_map.values.size == 0:
        raise ParameterError("empty range-Doppler map")
    i, j = np.unravel_index(np.argmax(np.abs(rd_map.values)), rd_map.values.shape)
    return float(rd_map.tau_axis[i]), float(rd_map.nu_axis[j])


@dataclass(frozen=True)
class SensingScenario:
    """Monostatic single-target detection setting for Monte Carlo runs.

    The target's delay is drawn uniformly over [margin, tau_m - margin] and
    its Doppler over [-nu_m + margin, nu_m - margin] (continuous), with a
    uniformly random gain phase; the gain magnitude realizes
    ``receive_snr_db`` = |beta|^2 * Pt / (Nc * noise_power) in dB.
    """

    cfg: AfdmConfig
    frame_spec: FrameSpec
    pilot: PilotScheme
    tau_m: int
    nu_m: int
    receive_snr_db: float
    noise_power: float = 1.0
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    edge_margin: float = 0.5
    integer_targets: bool = False

    def draw_target(self, rng, total_power: float) -> SensingTarget:
        snr = 10.0 ** (self.receive_snr_db / 10.0)
        beta_mag = math.sqrt(snr * self.cfg.n_sub * self.noise_power / total_power)
        if self.integer_targets:
            tau = float(rng.integers(0, self.tau_m + 1))
            nu = float(rng.integers(-self.nu_m, self.nu_m + 1))
        else:
            tau = rng.uniform(self.edge_margin, self.tau_m - self.edge_margin)
            nu = rng.uniform(-self.nu_m + self.edge_margin, self.nu_m - self.edge_margin)
        gain = beta_mag * np.exp(2j * np.pi * rng.uniform())
        return SensingTarget(
            gain=complex(gain),
            delay_samples=tau,
            doppler_norm=nu,
            noise_power=self.noise_power,
        )


def _detection_trial(scenario: SensingScenario, rng) -> tuple[float, bool, float]:
    """One Monte Carlo detection trial.

    Returns (statistic at the global argmax, whether the argmax lies within
    one cell of the truth in both coordinates, maximum statistic outside that
    neighborhood).
    """
    cfg = scenario.cfg
    x_p = pilot_vector(scenario.pilot, cfg)
    _, x_d = random_data_vector(cfg.n_sub, scenario.frame_spec, rng)
    record = transmit_record(x_p + x_d, cfg)
    total_power = float(np.linalg.norm(record.x) ** 2)
    target = scenario.draw_target(rng, total_power)
    echo = sensing_echo(record.s_cpp, cfg, target, rng)
    grid = sensing_grid(scenario.tau_m, scenario.nu_m)
    rd_map = rdf(echo, record, grid, cfg)
    noise = noise_floor(rd_map, scenario.detection)
    stat = np.abs(rd_map.values) ** 2 / noise
    i, j = np.unravel_index(np.argmax(stat), stat.shape)
    near = (
        abs(rd_map.tau_axis[i] - target.delay_samples) <= 1.0
        and abs(rd_map.nu_axis[j] - target.doppler_norm) <= 1.0
    )
    near_mask = (
        np.abs(rd_map.tau_axis[:, None] - target.delay_samples) <= 1.0
    ) & (np.abs(rd_map.nu_axis[None, :] - target.doppler_norm) <= 1.0)
    outside = stat[~near_mask]
    max_outside = float(outside.max()) if outside.size else 0.0
    return float(stat[i, j]), bool(near), max_outside


def roc_curve(scenario: SensingScenario, gamma_grid, n_trials: int, rng) -> np.ndarray:
    """Empirical (gamma, false-alarm probability, detection probability) rows.

    A trial detects when the strongest cell exceeds gamma and lies within one
    cell of the true target in both delay and Doppler; a false alarm fires
    when any cell outside that neighborhood exceeds gamma.
    """
    if n_trials < 100:
        raise ParameterError("n_trials must be >= 100 for a usable curve")
    gamma_grid = np.asarray(gamma_grid, dtype=np.float64)
    peak = np.empty(n_trials)
    near = np.empty(n_trials, dtype=bool)
    out_max = np.empty(n_trials)
    for t in range(n_trials):
        peak[t], near[t], out_max[t] = _detection_trial(scenario, rng)
    rows = np.empty((gamma_grid.size, 3))
    for k, gamma in enumerate(gamma_grid):
        pd = float(np.mean((peak > gamma) & near))
        pfa = float(np.mean(out_max > gamma))
        rows[k] = (gamma, pfa, pd)
    return rows


def pd_at_pfa(curve: np.ndarray, pfa_targets) -> np.ndarray:
    """Interpolate detection probability at given false-alarm levels."""
    order = np.argsort(curve[:, 1])
    pfa = curve[order, 1]
    pd = curve[order, 2]
    return np.interp(np.asarray(pfa_targets, dtype=np.float64), pfa, pd)
