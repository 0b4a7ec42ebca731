"""Range-Doppler correlation, detection, and target parameter estimation.

The range-Doppler function correlates the conjugated echo against
delay-shifted, Doppler-compensated copies of the known transmit signal:

    E(tau, nu) = sum_n conj(r[n]) * s[n - tau] * exp(j*2*pi*nu*n/Nc)

(the echo is the conjugated factor, so a target of gain beta peaks with
value conj(beta) * total power; magnitude-based detection is unaffected).
Delayed references come from the chirp waveform model (``waveform_samples``,
the prefixed transmit record at whole-sample lags), so oversampled grids
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


def rdf(r_s, record: TransmitRecord, grid, cfg: AfdmConfig) -> RangeDopplerMap:
    """Range-Doppler correlation of an echo against the transmit record.

    ``grid`` is a (tau_axis, nu_axis) pair; both axes may be fractional
    (oversampled) and every delay must lie in [0, n_cpp].  The echo must
    cover the prefix-free window.
    """
    r_s = np.asarray(r_s, dtype=np.complex128)
    if r_s.shape != (cfg.n_sub,):
        raise ParameterError(f"echo must have length {cfg.n_sub}")
    tau_axis = np.asarray(grid[0], dtype=np.float64)
    nu_axis = np.asarray(grid[1], dtype=np.float64)
    if np.any((tau_axis < 0) | (tau_axis > cfg.n_cpp)):
        raise ParameterError(f"delays {tau_axis} outside the prefixed record [0, {cfg.n_cpp}]")
    ref = waveform_samples(record.s, cfg, tau_axis).T
    n = np.arange(cfg.n_sub)
    comp = np.conj(r_s)[None, :] * np.exp(
        2j * np.pi * nu_axis[:, None] * n[None, :] / cfg.n_sub
    )
    values = (comp @ ref).T
    return RangeDopplerMap(values=values, tau_axis=tau_axis, nu_axis=nu_axis)


def _window(half: int, size: int) -> np.ndarray:
    """0/1 indicator of the offsets -half..half modulo ``size``."""
    hit = np.zeros(size)
    hit[np.arange(-half, half + 1) % size] = 1.0
    return hit


def _circulant(hit: np.ndarray) -> np.ndarray:
    """0/1 matrix C with C[i, <i + d>] = hit[d], so (C @ p)[i] sums p over the offsets."""
    i = np.arange(hit.size)
    return hit[(i[None, :] - i[:, None]) % hit.size]


def noise_floor(rd_map: RangeDopplerMap, det: DetectionConfig) -> np.ndarray:
    """Local average of |E|^2 around each cell, guard box excluded, cyclic wrap.

    Per axis, the training offsets T and the guard offsets G are taken
    modulo the axis length, so offsets that wrap onto the same cell count
    once, and the window is (T0 x T1) minus (G0 x G1).  That is the disjoint
    union (T0 - G0) x T1 plus (T0 & G0) x (T1 - G1), so the window sum is
    two products with circulant 0/1 matrices per axis,
    C(T0 - G0) P C(T1)^T + C(T0 & G0) P C(T1 - G1)^T.  Both are sums of
    non-negative terms, so nothing cancels and a cell whose window holds no
    power gets a floor of exactly 0.  On axes shorter than the training
    window the wrap collapses the window to whole-axis averaging, which is
    the intended degenerate behavior.
    """
    power = np.abs(rd_map.values) ** 2
    train = [_window(h, size) for h, size in zip(det.train, power.shape)]
    guard = [t * _window(h, size) for t, h, size in zip(train, det.guard, power.shape)]
    count = train[0].sum() * train[1].sum() - guard[0].sum() * guard[1].sum()
    if count == 0:
        raise ParameterError(
            f"guard {det.guard} swallows the whole {power.shape} grid: no training cells"
        )
    acc = _circulant(train[0] - guard[0]) @ power @ _circulant(train[1]).T
    acc += _circulant(guard[0]) @ power @ _circulant(train[1] - guard[1]).T
    return acc / count


def _statistic(values: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """|E|^2 / noise floor: 0 where |E| vanishes, inf where only the floor does."""
    power = np.abs(values) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = power / noise
    return np.where(power == 0, 0.0, stat)


def detect(rd_map: RangeDopplerMap, noise: np.ndarray, gamma: float) -> list:
    """Cells whose |E|^2 / noise ratio exceeds gamma, strongest first.

    Returns (tau, nu, statistic) triples.  The statistic is invariant to any
    global phase of the echo; a cell with no power has statistic 0 and one
    with power over a zero floor has statistic inf.
    """
    stat = _statistic(rd_map.values, noise)
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


# distance in cells between a drawn target and the edge of the search region
_EDGE_MARGIN = 0.5


@dataclass(frozen=True)
class SensingScenario:
    """Monostatic single-target detection setting for Monte Carlo runs.

    The target's delay is drawn uniformly over [0.5, tau_m - 0.5] and its
    Doppler over [-nu_m + 0.5, nu_m - 0.5] (continuous), with a uniformly
    random gain phase; the gain magnitude realizes
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

    def draw_target(self, rng, total_power: float) -> SensingTarget:
        snr = 10.0 ** (self.receive_snr_db / 10.0)
        beta_mag = math.sqrt(snr * self.cfg.n_sub * self.noise_power / total_power)
        tau = rng.uniform(_EDGE_MARGIN, self.tau_m - _EDGE_MARGIN)
        nu = rng.uniform(-self.nu_m + _EDGE_MARGIN, self.nu_m - _EDGE_MARGIN)
        gain = beta_mag * np.exp(2j * np.pi * rng.uniform())
        return SensingTarget(
            gain=complex(gain),
            delay_samples=tau,
            doppler_norm=nu,
            noise_power=self.noise_power,
        )


def _detection_trial(
    scenario: SensingScenario, x_p: np.ndarray, grid, rng
) -> tuple[float, bool, float]:
    """One Monte Carlo detection trial with pilot vector ``x_p`` on ``grid``.

    Returns (statistic at the global argmax, whether the argmax lies within
    one cell of the truth in both coordinates, maximum statistic outside that
    neighborhood).
    """
    cfg = scenario.cfg
    _, x_d = random_data_vector(cfg.n_sub, scenario.frame_spec, rng)
    record = transmit_record(x_p + x_d, cfg)
    total_power = float(np.linalg.norm(record.x) ** 2)
    target = scenario.draw_target(rng, total_power)
    echo = sensing_echo(record.s_cpp, cfg, target, rng)
    rd_map = rdf(echo, record, grid, cfg)
    stat = _statistic(rd_map.values, noise_floor(rd_map, scenario.detection))
    i, j = np.unravel_index(np.argmax(stat), stat.shape)
    near_mask = (
        np.abs(rd_map.tau_axis[:, None] - target.delay_samples) <= 1.0
    ) & (np.abs(rd_map.nu_axis[None, :] - target.doppler_norm) <= 1.0)
    outside = stat[~near_mask]
    max_outside = float(outside.max()) if outside.size else 0.0
    return float(stat[i, j]), bool(near_mask[i, j]), max_outside


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
    x_p = pilot_vector(scenario.pilot, scenario.cfg)
    grid = sensing_grid(scenario.tau_m, scenario.nu_m)
    for t in range(n_trials):
        peak[t], near[t], out_max[t] = _detection_trial(scenario, x_p, grid, rng)
    gammas = gamma_grid[:, None]
    pfa = np.mean(out_max > gammas, axis=1)
    pd = np.mean((peak > gammas) & near, axis=1)
    return np.column_stack([gamma_grid, pfa, pd])


def pd_at_pfa(curve: np.ndarray, pfa_targets) -> np.ndarray:
    """Interpolate detection probability at given false-alarm levels."""
    order = np.argsort(curve[:, 1])
    pfa = curve[order, 1]
    pd = curve[order, 2]
    return np.interp(np.asarray(pfa_targets, dtype=np.float64), pfa, pd)
