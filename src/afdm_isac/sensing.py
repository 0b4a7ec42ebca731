"""Delay-Doppler correlation, detection, and target parameter estimation.

One correlation serves the receiver and the ambiguity analysis:

    E(tau, nu) = sum_n conj(a[n]) * b(n - tau) * exp(j*2*pi*nu*n/Nc)

with b(n - tau) the chirp waveform of the prefix-free symbol ``b``
(``waveform_samples``), so oversampled grids follow the channel's
fractional-delay convention, and the ramp is the channel's one
``_doppler_ramp``, 2*sqrt(Nc) exponentials per Doppler.  ``rdf`` takes
a = echo and b = transmitted symbol (a target of gain beta peaks at
conj(beta) * total power), ``analysis.cross_ambiguity`` any two symbols on
integer axes; both give a ``RangeDopplerMap``.  Detection normalizes |E|^2
by a local noise floor (cell-averaging window with a guard box, cyclic
wrap) and thresholds it.

``rdf`` and ``noise_floor`` batch over leading axes: echoes and symbols
(..., Nc) give maps (..., delays, Dopplers).  ``roc_curve`` runs its trials
in blocks on that axis, as many as fit the byte budget ``_BLOCK_BYTES`` with
the largest stack a block builds, ``_correlate``'s (trials, Dopplers, Nc)
Doppler-ramped echo.  Its delays are a run of whole delays, so
``waveform_samples`` reads the delayed symbols as a window view of one
chirp-periodic extension and builds no (trials, delays, Nc) stack.  The
random draws are made per call and per block, not per trial: every trial's
data bytes, then every trial's target uniforms, then each block's noise, so
a seed gives the same curve at any block size.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channel import SensingTarget, _doppler_ramp, sensing_echo
from .daft import AfdmConfig, idaft, waveform_samples
from .errors import (
    ConfigurationError,
    ParameterError,
    check_count,
    check_nonnegative,
    check_pair,
    check_reals,
    check_stack,
    check_type,
    is_integer,
    is_real,
)
from .modem import FrameSpec, _PackedFrames
from .pilots import PilotScheme, pilot_vector

__all__ = [
    "RangeDopplerMap",
    "DetectionConfig",
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
class RangeDopplerMap:
    """Correlation values on a delay-Doppler grid (delays x Dopplers), or a stack of them.

    The values must be numbers of shape (..., delays, Dopplers), one delay
    per entry of ``tau_axis`` and one Doppler per entry of ``nu_axis``, else
    ``ConfigurationError``; they are checked, not copied.
    """

    values: np.ndarray
    tau_axis: np.ndarray
    nu_axis: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        grid = (np.size(self.tau_axis), np.size(self.nu_axis))
        if values.dtype.kind not in "biufc" or values.ndim < 2 or values.shape[-2:] != grid:
            raise ConfigurationError(
                f"map values must be numbers of shape (..., {grid[0]}, {grid[1]}), "
                f"got {values.dtype} {values.shape}"
            )
        object.__setattr__(self, "values", values)

    def _single(self) -> np.ndarray:
        """The values of a single map; ``ParameterError`` for a stack of maps."""
        if self.values.ndim != 2:
            raise ParameterError(
                f"need a single map, got a stack of shape {self.values.shape}"
            )
        return self.values

    def at(self, tau, nu) -> complex:
        """The value at the grid point (tau, nu); ``ParameterError`` off the axes."""
        values = self._single()
        ti, vi = np.flatnonzero(self.tau_axis == tau), np.flatnonzero(self.nu_axis == nu)
        if not (ti.size and vi.size):
            raise ParameterError(f"({tau}, {nu}) is not a point of the map's axes")
        return complex(values[ti[0], vi[0]])

    def max_off_origin(self) -> float:
        """Largest magnitude on the grid outside the point (0, 0)."""
        mag = np.abs(self._single())
        ti = np.flatnonzero(self.tau_axis == 0)
        vi = np.flatnonzero(self.nu_axis == 0)
        if ti.size and vi.size:
            mag[int(ti[0]), int(vi[0])] = 0.0
        return float(mag.max())


def _correlate(a, b, tau_axis, nu_axis, cfg: AfdmConfig) -> np.ndarray:
    """sum_n conj(a[..., n]) * b(n - tau) * exp(j*2*pi*nu*n/Nc), shape (..., delays, Dopplers).

    b(n - tau) is ``waveform_samples`` of ``b``: a window view on a run of
    consecutive whole delays, otherwise a (..., delays, Nc) stack of picked
    windows or, on a fractional axis, of closed-form samples.  The ramped
    ``conj(a)`` is a (..., Dopplers, Nc) stack, the one that ``_BLOCK_BYTES``
    bounds in ``roc_curve``.  Leading axes of ``a`` and ``b`` broadcast.
    """
    comp = np.conj(a)[..., None, :] * _doppler_ramp(nu_axis, cfg)
    ref = waveform_samples(b, cfg, tau_axis)
    if nu_axis.size == 1:
        # numpy multiplies a lone row by a strided matrix in its own loop, not by BLAS
        # as for a contiguous stack; the copy keeps the product bit for bit the same
        ref = np.ascontiguousarray(ref)
    return np.swapaxes(comp @ np.swapaxes(ref, -1, -2), -1, -2)


@dataclass(frozen=True)
class DetectionConfig:
    """Noise-averaging window (all widths in cells).

    The noise floor at a cell averages |E|^2 over the box of half-widths
    ``train`` minus the guard box of half-widths ``guard``, with cyclic wrap
    on both axes.  The thresholds are the callers': ``detect`` takes one
    gamma and ``roc_curve`` a grid of them.
    """

    guard: tuple[int, int] = (2, 1)
    train: tuple[int, int] = (5, 2)

    def __post_init__(self):
        for name in ("guard", "train"):
            widths = getattr(self, name)
            if np.ndim(widths) != 1 or len(widths) != 2 or not all(map(is_integer, widths)):
                raise ParameterError(f"{name} must be two integer half-widths, got {widths!r}")
        if any(g < 0 for g in self.guard):
            raise ParameterError(f"guard half-widths must be non-negative, got {self.guard}")
        if any(t <= 0 for t in self.train):
            raise ParameterError(f"train half-widths must be positive, got {self.train}")


def sensing_grid(
    tau_m: int, nu_m: int, os_tau: int = 1, os_nu: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Delay axis [0, tau_m] and Doppler axis [-nu_m, nu_m] with integer oversampling.

    All four parameters are integers (numpy integers too, bools and whole
    floats not), the rule of every integer budget in this module, read as
    Python integers before any arithmetic; an axis of 2^63 cells or more
    raises ``ParameterError``.
    """
    check_count(tau_m, "tau_m", least=0)
    check_count(nu_m, "nu_m", least=0)
    check_count(os_tau, "os_tau")
    check_count(os_nu, "os_nu")
    tau_m, nu_m, os_tau, os_nu = map(operator.index, (tau_m, nu_m, os_tau, os_nu))
    cells = (tau_m * os_tau + 1, 2 * nu_m * os_nu + 1)
    if max(cells) > np.iinfo(np.int64).max:
        raise ParameterError(f"grid axes must have fewer than 2^63 cells, got {cells}")
    taus = np.arange(0, tau_m * os_tau + 1) / os_tau
    nus = np.arange(-nu_m * os_nu, nu_m * os_nu + 1) / os_nu
    return taus, nus


def rdf(r_s, s, grid, cfg: AfdmConfig) -> RangeDopplerMap:
    """Range-Doppler correlation of an echo against the transmitted symbol ``s``.

    ``s`` is the prefix-free symbol (``idaft`` output) and the echo covers
    the prefix-free window.  ``grid`` is a (tau_axis, nu_axis) pair of
    finite 1-D axes; both may be fractional (oversampled) and every delay
    must lie in [0, n_cpp], the delays the prefix covers.  Echo and symbol
    may be stacks of equal shape (..., Nc), each echo correlated with its
    own symbol, and the map's values then have shape (..., delays, Dopplers).
    An echo or symbol that is not numbers of shape (..., Nc) raises
    ``ConfigurationError``; a ``cfg`` that is no ``AfdmConfig``, unequal
    shapes, a ``grid`` that is no pair and bad axes ``ParameterError``.
    """
    check_type(cfg, AfdmConfig, "cfg")
    r_s = check_stack(r_s, cfg.n_sub, "echo")
    s = check_stack(s, cfg.n_sub, "symbol")
    if r_s.shape != s.shape:
        raise ParameterError(
            f"echo and symbol must share a shape (..., {cfg.n_sub}), got {r_s.shape} and {s.shape}"
        )
    tau_axis, nu_axis = (check_reals(axis, "grid axes") for axis in check_pair(grid, "grid"))
    if any(axis.ndim != 1 for axis in (tau_axis, nu_axis)):
        raise ParameterError(f"grid axes must be finite 1-D arrays, got {grid!r}")
    if np.any((tau_axis < 0) | (tau_axis > cfg.n_cpp)):
        raise ParameterError(f"delays {tau_axis} outside the prefix budget [0, {cfg.n_cpp}]")
    return RangeDopplerMap(_correlate(r_s, s, tau_axis, nu_axis, cfg), tau_axis, nu_axis)


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
    the intended degenerate behavior.  A stack of maps (..., delays,
    Dopplers) gets one floor per map.  An ``rd_map`` that is no
    ``RangeDopplerMap`` or a ``det`` that is no ``DetectionConfig`` raises
    ``ParameterError``.
    """
    check_type(rd_map, RangeDopplerMap, "rd_map")
    check_type(det, DetectionConfig, "det")
    power = np.abs(rd_map.values) ** 2
    shape = power.shape[-2:]
    train = [_window(h, size) for h, size in zip(det.train, shape)]
    guard = [t * _window(h, size) for t, h, size in zip(train, det.guard, shape)]
    count = train[0].sum() * train[1].sum() - guard[0].sum() * guard[1].sum()
    if count == 0:
        raise ParameterError(
            f"guard {det.guard} swallows the whole {shape} grid: no training cells"
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
    with power over a zero floor has statistic inf.  ``noise`` has the
    map's shape; an ``rd_map`` that is no ``RangeDopplerMap`` or a
    ``gamma`` that is not a real number, or is NaN, raises ``ParameterError``.
    """
    check_type(rd_map, RangeDopplerMap, "rd_map")
    values = rd_map._single()
    noise = np.asarray(noise)
    if noise.shape != values.shape:
        raise ParameterError(
            f"noise floor of shape {noise.shape} for a map of shape {values.shape}"
        )
    if not is_real(gamma) or math.isnan(gamma):
        raise ParameterError(f"gamma must be a real number, not NaN, got {gamma!r}")
    stat = _statistic(values, noise)
    hits = np.argwhere(stat > gamma)
    out = [
        (float(rd_map.tau_axis[i]), float(rd_map.nu_axis[j]), float(stat[i, j]))
        for i, j in hits
    ]
    out.sort(key=lambda t: -t[2])
    return out


def estimate_target(rd_map: RangeDopplerMap) -> tuple[float, float]:
    """Delay/Doppler location of the strongest correlation magnitude of a ``RangeDopplerMap``."""
    check_type(rd_map, RangeDopplerMap, "rd_map")
    values = rd_map._single()
    if values.size == 0:
        raise ParameterError("empty range-Doppler map")
    i, j = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    return float(rd_map.tau_axis[i]), float(rd_map.nu_axis[j])


# distance in cells between a drawn target and the edge of the search region
_EDGE_MARGIN = 0.5


@dataclass(frozen=True)
class SensingScenario:
    """Monostatic single-target detection setting for Monte Carlo runs.

    The target's delay is drawn uniformly over [0.5, tau_m - 0.5] and its
    Doppler over [-nu_m + 0.5, nu_m - 0.5] (continuous), with a uniformly
    random gain phase; the gain magnitude realizes
    ``receive_snr_db`` = |beta|^2 * Pt / (Nc * noise_power) in dB.  The
    budgets are integers with 1 <= tau_m <= cfg.n_cpp, so every delay of the
    search grid lies within the prefix; the SNR is finite and the noise power
    finite and non-negative (0 is a noiseless scenario).  The traditional
    comb's footprint is the (tau_m, nu_m) the receiver searches.
    """

    cfg: AfdmConfig
    frame_spec: FrameSpec
    pilot: PilotScheme
    tau_m: int
    nu_m: int
    receive_snr_db: float
    noise_power: float = 1.0
    detection: DetectionConfig = field(default_factory=DetectionConfig)

    def __post_init__(self):
        for name, kind in (("cfg", AfdmConfig), ("frame_spec", FrameSpec), ("pilot", PilotScheme),
                           ("detection", DetectionConfig)):
            check_type(getattr(self, name), kind, name)
        check_count(self.tau_m, "tau_m")
        check_count(self.nu_m, "nu_m")
        if self.tau_m > self.cfg.n_cpp:
            raise ParameterError(
                f"tau_m ({self.tau_m}) exceeds the prefix budget n_cpp ({self.cfg.n_cpp})"
            )
        if not (is_real(self.receive_snr_db) and math.isfinite(self.receive_snr_db)):
            raise ParameterError(f"receive_snr_db must be finite, got {self.receive_snr_db!r}")
        check_nonnegative(self.noise_power, "noise_power")

    def _draw_uniforms(self, rng, count: int) -> np.ndarray:
        """The (3, count) target draws, one call per row: delays, Dopplers, gain phases (cycles)."""
        return np.array([
            rng.uniform(_EDGE_MARGIN, self.tau_m - _EDGE_MARGIN, count),
            rng.uniform(-self.nu_m + _EDGE_MARGIN, self.nu_m - _EDGE_MARGIN, count),
            rng.uniform(size=count),
        ])

    def _target(self, tau, nu, phase, total_power) -> SensingTarget:
        """One target per frame of a stack, from its draws and the frames' energies."""
        snr = 10.0 ** (self.receive_snr_db / 10.0)
        beta_mag = np.sqrt(snr * self.cfg.n_sub * self.noise_power / total_power)
        gain = beta_mag * np.exp(2j * np.pi * phase)
        return SensingTarget(
            gain=gain, delay_samples=tau, doppler_norm=nu, noise_power=self.noise_power
        )


# the package's one byte budget for a block of a Monte Carlo loop, sized to stay
# in cache.  Here it bounds the largest stack one block of ROC trials builds,
# the (trials, Dopplers, Nc) ramped echo of ``_correlate``; ``analysis`` sizes
# the blocks of its frame and allocation draws by it too.
_BLOCK_BYTES = 1 << 20


def _detection_block(
    scenario: SensingScenario, x_p: np.ndarray, grid, packed: _PackedFrames, raw: np.ndarray,
    uniforms: np.ndarray, noise: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detection trials with pilot ``x_p`` on ``grid``, one per row of the symbol bytes ``raw``.

    Each trial's draws are given: its bytes, read into ``packed``'s buffer,
    its (delay, Doppler, phase) column of ``uniforms`` and its (2, Nc) real
    and imaginary ``noise``, scaled and added in place (None when noiseless).
    Per trial: the statistic at the global argmax, whether that argmax lies
    within one cell of the truth in both coordinates, and the maximum
    statistic outside that neighborhood.
    """
    cfg, size = scenario.cfg, raw.shape[0]
    x = packed.read(raw)
    x += x_p
    target = scenario._target(*uniforms, np.linalg.norm(x, axis=-1) ** 2)
    s = idaft(x, cfg)
    echo = sensing_echo(s, cfg, target)
    if noise is not None:
        noise *= math.sqrt(scenario.noise_power / 2.0)
        echo.real += noise[:, 0]
        echo.imag += noise[:, 1]
    rd_map = rdf(echo, s, grid, cfg)
    stat = _statistic(rd_map.values, noise_floor(rd_map, scenario.detection)).reshape(size, -1)
    near_mask = (
        np.abs(rd_map.tau_axis[:, None] - target.delay_samples[:, None, None]) <= 1.0
    ) & (np.abs(rd_map.nu_axis - target.doppler_norm[:, None, None]) <= 1.0)
    near_mask = near_mask.reshape(size, -1)
    best = (np.arange(size), np.argmax(stat, axis=1))
    return stat[best], near_mask[best], np.where(near_mask, 0.0, stat).max(axis=1)


def roc_curve(scenario: SensingScenario, gamma_grid, n_trials: int, rng) -> np.ndarray:
    """Empirical (gamma, false-alarm probability, detection probability) rows.

    A trial detects when the strongest cell exceeds gamma and lies within one
    cell of the true target in both delay and Doppler; a false alarm fires
    when any cell outside that neighborhood exceeds gamma.  Trials run in
    blocks on a leading batch axis, as many per block (at least one) as fit
    ``_BLOCK_BYTES`` with a complex (trials, Dopplers, Nc) stack, the largest
    one ``rdf`` builds: its delays are a run of whole delays, whose delayed
    symbols ``waveform_samples`` reads as a window view.

    Draws from ``rng``, in order: one ``rng.bytes`` call for every trial's
    data symbols (``modem._PackedFrames``), one ``uniform`` call each for
    every trial's delay, Doppler and gain phase, then one ``standard_normal``
    fill of each block's noise in trial order (none when noiseless), so the
    curve and the generator's final state do not depend on the block size.
    The up-front draws hold n_trials*(Nc*k/8 + 24) bytes, k bits per symbol
    (8.8 KB for 100 QPSK trials at Nc = 256).
    ``n_trials`` is an integer >= 100, ``gamma_grid`` a non-empty finite
    1-D array, ``scenario`` a ``SensingScenario`` and ``rng`` a numpy
    ``Generator``, all checked before any draw.
    """
    check_count(n_trials, "n_trials", least=100)
    gamma_grid = check_reals(gamma_grid, "gamma_grid")
    if gamma_grid.ndim != 1 or gamma_grid.size == 0:
        raise ParameterError(f"gamma_grid must be a non-empty 1-D array, got shape {gamma_grid.shape}")
    check_type(scenario, SensingScenario, "scenario")
    check_type(rng, np.random.Generator, "rng")
    cfg = scenario.cfg
    x_p = pilot_vector(scenario.pilot, cfg, scenario.tau_m, scenario.nu_m)
    grid = sensing_grid(scenario.tau_m, scenario.nu_m)
    block = min(n_trials, max(1, _BLOCK_BYTES // (16 * grid[1].size * cfg.n_sub)))
    packed = _PackedFrames(scenario.frame_spec, cfg.n_sub, block)
    raw = packed.draw(rng, n_trials)
    uniforms = scenario._draw_uniforms(rng, n_trials)
    noise = np.empty((block, 2, cfg.n_sub)) if scenario.noise_power > 0 else None
    blocks = []
    for start in range(0, n_trials, block):
        stop = min(start + block, n_trials)
        trial_noise = None if noise is None else rng.standard_normal(out=noise[: stop - start])
        blocks.append(_detection_block(
            scenario, x_p, grid, packed, raw[start:stop], uniforms[:, start:stop], trial_noise
        ))
    peak, near, out_max = (np.concatenate(part) for part in zip(*blocks))
    gammas = gamma_grid[:, None]
    pfa = np.mean(out_max > gammas, axis=1)
    pd = np.mean((peak > gammas) & near, axis=1)
    return np.column_stack([gamma_grid, pfa, pd])


def pd_at_pfa(curve: np.ndarray, pfa_targets) -> np.ndarray:
    """Interpolate detection probability at given false-alarm levels.

    ``curve`` holds finite (gamma, Pfa, Pd) rows, as ``roc_curve`` returns them.
    """
    curve = check_reals(curve, "curve")
    if curve.ndim != 2 or curve.shape[0] < 1 or curve.shape[1] != 3:
        raise ParameterError(f"curve must be (gamma, Pfa, Pd) rows, got shape {curve.shape}")
    order = np.argsort(curve[:, 1])
    pfa = curve[order, 1]
    pd = curve[order, 2]
    return np.interp(check_reals(pfa_targets, "pfa_targets"), pfa, pd)
