"""Delay-Doppler correlation, detection, and target parameter estimation.

One correlation serves the receiver, the ambiguity analysis and the
pilot model's Gram:

    E(tau, nu) = sum_n conj(a[n]) * b(n - tau) * exp(j*2*pi*nu*n/Nc)

with b(n - tau) the chirp waveform of the prefix-free symbol ``b``
(``waveform_samples``), so oversampled grids follow the channel's
fractional-delay convention, and the ramp is the channel's one
``_doppler_ramp``, 2*sqrt(Nc) exponentials per Doppler.  ``rdf`` takes
a = echo and b = transmitted symbol (a target of gain beta peaks at
conj(beta) * total power), ``analysis.cross_ambiguity`` any two symbols on
integer axes; both give a ``RangeDopplerMap``.  ``_gram`` reads a frame's
ambiguity function on the distinct differences of integer basis pairs and
forms the frame's Gram over those pairs from it (Theorem 4), with no image
of the frame through the paths; the estimator takes its pilot model's Gram
from it.  Detection normalizes |E|^2 by a local noise floor (cell-averaging
window with a guard box, cyclic wrap) and thresholds it.

``rdf`` and ``noise_floor`` batch over leading axes: echoes and symbols
(..., Nc) give maps (..., delays, Dopplers).  Both are checked wrappers over
unchecked kernels (``_correlate`` with ``_ramped_correlate``, and
``_floor``), and ``channel.sensing_echo`` over ``channel._echo``;
``roc_curve`` checks its arguments once and runs its trials on the
kernels, in blocks on that axis, as many as fit the byte budget
``_BLOCK_BYTES`` with the largest stack a block builds, the (trials,
Dopplers, Nc) Doppler-ramped echo.  Two routes of a block stay checked
public calls: ``idaft`` for its symbols and ``waveform_samples`` for the
delayed symbols the echo is correlated with, as only ``channel`` reads
the private names of ``daft`` and a benchmark trace counts the public
name as sensing work.  The search grid's delays are a run of whole
delays, so ``waveform_samples`` reads those as a window view of one
chirp-periodic extension and builds no (trials, delays, Nc) stack.  What
the calls on one scenario share is the scenario's plan (``_RocPlan``),
built on its first call and kept as long as the scenario: the pilot, the
grid, its Doppler ramp, the averaging window and the buffers of one
block, its frames, its noise and its ramped echo (1.3 MB at the ``roc``
benchmark's settings).  A call holds the plan's lock, so two
threads on one scenario take turns with the buffers.  The random draws are
made per call and per block, not per trial: every trial's data bytes, then
every trial's target uniforms, then each block's noise, so a seed gives
the same curve at any block size.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from .channel import _doppler_ramp, _echo
from .daft import AfdmConfig, idaft, waveform_samples
from .errors import (
    ConfigurationError,
    ParameterError,
    check_cells,
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

    The ramped ``conj(a)`` is a (..., Dopplers, Nc) stack, correlated by
    ``_ramped_correlate``.  Leading axes of ``a`` and ``b`` broadcast.
    """
    return _ramped_correlate(np.conj(a)[..., None, :] * _doppler_ramp(nu_axis, cfg), b, tau_axis, cfg)


def _gram(x: np.ndarray, taus: np.ndarray, nus: np.ndarray, cfg: AfdmConfig) -> np.ndarray:
    """The L x L Gram Psi^H Psi of the DAFT-domain frame ``x`` over the L integer
    basis pairs (taus[i], nus[i]), delays in [0, Nc), by Theorem 4, unchecked:

        G[i, j] = exp(-j*2*pi*nu_j*(tau_j - tau_i)/Nc) * chi(tau_j - tau_i, nu_j - nu_i)

    with chi the frame's ambiguity function, one ``_correlate`` of its
    ``idaft`` on the distinct pair differences, then the twiddle and the
    (i, j) gather.  Integer Dopplers act mod Nc, so they are centred first
    and their differences fit in int64.
    """
    n, s = cfg.n_sub, idaft(x, cfg)
    nus = (nus % n + n // 2) % n - n // 2
    tau_diff = taus[None, :] - taus[:, None]  # [i, j] = tau_j - tau_i
    tau_hats, t_idx = np.unique(tau_diff, return_inverse=True)  # t_idx, v_idx: (L, L)
    nu_hats, v_idx = np.unique(nus[None, :] - nus[:, None], return_inverse=True)
    chi = _correlate(s, s, tau_hats, nu_hats, cfg)
    return cfg.dft_twiddle[nus[None, :] % n * tau_diff % n] * chi[t_idx, v_idx]


def _ramped_correlate(comp: np.ndarray, b, tau_axis, cfg: AfdmConfig) -> np.ndarray:
    """sum_n comp[..., nu, n] * b(n - tau), shape (..., delays, Dopplers), unchecked.

    ``comp`` is ``_correlate``'s ramped conj(a), (..., Dopplers, Nc); in
    ``roc_curve`` it is the plan's buffer, the stack ``_BLOCK_BYTES``
    bounds.  b(n - tau) is ``waveform_samples`` of ``b``: a window view on
    a run of consecutive whole delays, otherwise a (..., delays, Nc) stack
    of picked windows or, on a fractional axis, of closed-form samples.
    """
    ref = waveform_samples(b, cfg, tau_axis)
    if comp.shape[-2] == 1:
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
    Python integers before any arithmetic; an axis past numpy's array limit
    (``check_cells``) raises ``ParameterError``.
    """
    check_count(tau_m, "tau_m", least=0)
    check_count(nu_m, "nu_m", least=0)
    check_count(os_tau, "os_tau")
    check_count(os_nu, "os_nu")
    tau_m, nu_m, os_tau, os_nu = map(operator.index, (tau_m, nu_m, os_tau, os_nu))
    for cells in (tau_m * os_tau + 1, 2 * nu_m * os_nu + 1):
        check_cells(cells, "a grid axis")
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


def _training_window(det: DetectionConfig, shape: tuple[int, int]):
    """The window of ``det`` on a (delays, Dopplers) grid: the circulant matrices
    (C(T0 - G0), C(T1)^T, C(T0 & G0), C(T1 - G1)^T) of ``noise_floor``'s two
    products and the training cell count; ``ParameterError`` when no training
    cell is left."""
    train = [_window(h, size) for h, size in zip(det.train, shape)]
    guard = [t * _window(h, size) for t, h, size in zip(train, det.guard, shape)]
    count = train[0].sum() * train[1].sum() - guard[0].sum() * guard[1].sum()
    if count == 0:
        raise ParameterError(
            f"guard {det.guard} swallows the whole {shape} grid: no training cells"
        )
    circulants = (
        _circulant(train[0] - guard[0]), _circulant(train[1]).T,
        _circulant(guard[0]), _circulant(train[1] - guard[1]).T,
    )
    return circulants, count


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
    return _floor(power, _training_window(det, power.shape[-2:]))


def _floor(power: np.ndarray, window) -> np.ndarray:
    """``noise_floor`` of the powers |E|^2 (..., delays, Dopplers) on the
    ``_training_window`` of their grid, unchecked."""
    (rest, train, guard, side), count = window
    acc = rest @ power @ train
    acc += guard @ power @ side
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
    search grid lies within the prefix, and 1 <= nu_m, so the Doppler range
    is not empty; the SNR is finite, the noise power finite and non-negative
    (0 is a noiseless scenario), and the pilot scheme's power the frame
    spec's.  The traditional comb's footprint is the (tau_m, nu_m) searched.
    The first ``roc_curve`` call builds the plan that later calls reuse
    (``_RocPlan``); a copy or a pickle of the scenario leaves it out.
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
        if self.pilot.pilot_power != self.frame_spec.pilot_power:
            raise ParameterError(
                f"pilot scheme power {self.pilot.pilot_power!r} differs from "
                f"frame_spec pilot_power {self.frame_spec.pilot_power!r}"
            )

    def _draw_uniforms(self, rng, count: int) -> np.ndarray:
        """The (3, count) target draws, one call per row: delays, Dopplers, gain phases (cycles)."""
        return np.array([
            rng.uniform(_EDGE_MARGIN, self.tau_m - _EDGE_MARGIN, count),
            rng.uniform(-self.nu_m + _EDGE_MARGIN, self.nu_m - _EDGE_MARGIN, count),
            rng.uniform(size=count),
        ])

    def _target(self, phase, total_power) -> np.ndarray:
        """The target gain of each frame of a stack, from its gain phase draw
        (cycles) and the frame's energy."""
        snr = 10.0 ** (self.receive_snr_db / 10.0)
        beta_mag = np.sqrt(snr * self.cfg.n_sub * self.noise_power / total_power)
        return beta_mag * np.exp(2j * np.pi * phase)

    @functools.cached_property
    def _plan(self) -> _RocPlan:
        """What every ``roc_curve`` call on this scenario reuses, built on the first."""
        return _RocPlan(self)

    def __getstate__(self) -> dict:
        # a copy or an unpickled scenario builds its own plan, whose lock cannot be pickled
        state = dict(self.__dict__)
        state.pop("_plan", None)
        return state


# the package's one byte budget for a block of a Monte Carlo loop, sized to stay
# in cache.  Here it bounds the largest stack one block of ROC trials builds,
# the (trials, Dopplers, Nc) ramped echo, which a scenario's plan keeps with
# its other block buffers from call to call; ``analysis`` sizes the blocks of
# its frame and allocation draws by it too: a block of frames with the one
# reused image row that reads every ambiguity point, a block of draws alone.
_BLOCK_BYTES = 1 << 20


class _RocPlan:
    """What the ``roc_curve`` calls on one scenario share: its invariants and one block's buffers.

    The invariants are the pilot, the search grid, its delay and Doppler
    axes as the columns of the trials' near masks, the grid's (Dopplers,
    Nc) Doppler ramp and the averaging window of ``_training_window``,
    checked first, before the pilot is built.  The buffers hold one block
    of trials: the ``_PackedFrames`` reader's frames, the block's (trials,
    2, Nc) noise draws (none when noiseless) and its (trials, Dopplers, Nc)
    ramped echo stack, 1.3 MB in all at the ``roc`` benchmark's settings
    (blocks of 36 trials, N = 256, 7 Dopplers).  ``fit`` sizes them for the block that
    ``_BLOCK_BYTES`` gives and builds them afresh when it gives another.
    The plan lives as long as its scenario; ``roc_curve`` holds ``lock`` for
    a whole call, so calls on one scenario from two threads take turns.
    """

    def __init__(self, scenario: SensingScenario):
        self.grid = sensing_grid(scenario.tau_m, scenario.nu_m)
        self.window = _training_window(scenario.detection, (self.grid[0].size, self.grid[1].size))
        self.x_p = pilot_vector(scenario.pilot, scenario.cfg, scenario.tau_m, scenario.nu_m)
        self.ramp = _doppler_ramp(self.grid[1], scenario.cfg)
        # the grid as (1, delays, 1) and (1, 1, Dopplers) columns, against a block's targets
        self.cells = (self.grid[0][None, :, None], self.grid[1][None, None, :])
        self.spec, self.noisy = scenario.frame_spec, scenario.noise_power > 0
        self.lock = threading.Lock()
        self.rows = 0

    def fit(self, rows: int) -> None:
        """Buffers for blocks of up to ``rows`` trials: the ones held if they are that size, else new ones."""
        if rows == self.rows:
            return
        n_sub = self.ramp.shape[-1]
        self.packed = _PackedFrames(self.spec, n_sub, rows)
        self.noise = np.empty((rows, 2, n_sub)) if self.noisy else None
        self.stack = np.empty((rows,) + self.ramp.shape, dtype=np.complex128)
        self.rows = rows


def _detection_block(
    scenario: SensingScenario, plan: _RocPlan, raw: np.ndarray, uniforms: np.ndarray,
    noise: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detection trials of ``scenario`` on its ``plan``, one per row of the symbol bytes ``raw``.

    Each trial's draws are given: its bytes, read into the plan's frame
    buffer, its (delay, Doppler, phase) column of ``uniforms`` and its
    (2, Nc) real and imaginary ``noise``, scaled and added in place (None
    when noiseless).  The echo, the map and its floor come from the
    unchecked kernels of ``sensing_echo`` (``channel._echo``, whose delayed
    copy is ``daft``'s unchecked ``_waveform``), ``rdf`` and
    ``noise_floor``, run on arrays built here.  Two routes stay checked
    public calls, as only ``channel`` reads the private names of ``daft``:
    the symbols come from ``idaft``, and the delayed symbols that the map
    correlates against from ``waveform_samples`` (in ``_ramped_correlate``),
    a window view of one extension per block.  The grid and its near-mask
    columns are the plan's.  Per trial: the statistic at the global argmax,
    whether that argmax lies within one cell of the truth in both
    coordinates, and the maximum statistic outside that neighborhood.
    """
    cfg, size = scenario.cfg, raw.shape[0]
    x = plan.packed.read(raw)
    x += plan.x_p
    tau, nu, phase = uniforms
    gain = scenario._target(phase, np.linalg.norm(x, axis=-1) ** 2)
    s = idaft(x, cfg)
    echo = _echo(s, cfg, gain, tau, nu)
    if noise is not None:
        noise *= math.sqrt(scenario.noise_power / 2.0)
        echo.real += noise[:, 0]
        echo.imag += noise[:, 1]
    comp = np.multiply(np.conj(echo, out=echo)[:, None, :], plan.ramp, out=plan.stack[:size])
    values = _ramped_correlate(comp, s, plan.grid[0], cfg)
    stat = _statistic(values, _floor(np.abs(values) ** 2, plan.window)).reshape(size, -1)
    taus, nus = plan.cells
    near = ((np.abs(taus - tau[:, None, None]) <= 1.0) & (np.abs(nus - nu[:, None, None]) <= 1.0)).reshape(size, -1)
    best = (np.arange(size), np.argmax(stat, axis=1))
    return stat[best], near[best], np.where(near, 0.0, stat).max(axis=1)


def roc_curve(scenario: SensingScenario, gamma_grid, n_trials: int, rng) -> np.ndarray:
    """Empirical (gamma, false-alarm probability, detection probability) rows.

    A trial detects when the strongest cell exceeds gamma and lies within one
    cell of the true target in both delay and Doppler; a false alarm fires
    when any cell outside that neighborhood exceeds gamma.  Trials run in
    blocks on a leading batch axis, as many per block (at least one) as fit
    ``_BLOCK_BYTES`` with a complex (trials, Dopplers, Nc) stack, the largest
    one a block builds: its delays are a run of whole delays, whose delayed
    symbols ``waveform_samples`` reads as a window view.

    The first call on a scenario builds its plan (``_RocPlan``): the pilot,
    the search grid, its Doppler ramp, the averaging window and the buffers
    of one block, the frames, the noise and the ramped echo stack (1.3 MB
    at the ``roc`` benchmark's settings).  Later calls on the scenario reuse
    it, and it lives as long as the scenario; a call holds the plan's lock
    throughout, so calls from two threads on one scenario take turns, each
    with its own ``rng``.

    Draws from ``rng``, in order: one ``rng.bytes`` call for every trial's
    data symbols (``modem._PackedFrames``), one ``uniform`` call each for
    every trial's delay, Doppler and gain phase, then one ``standard_normal``
    fill of each block's noise in trial order (none when noiseless), so the
    curve and the generator's final state do not depend on the block size.
    The up-front draws hold n_trials*(Nc*k/8 + 24) bytes, k bits per symbol
    (8.8 KB for 100 QPSK trials at Nc = 256).
    ``n_trials`` is an integer >= 100, ``gamma_grid`` a non-empty finite
    1-D array, ``scenario`` a ``SensingScenario`` and ``rng`` a numpy
    ``Generator``, and the scenario's window must leave training cells on
    its search grid, all checked before any draw.
    """
    check_count(n_trials, "n_trials", least=100)
    gamma_grid = check_reals(gamma_grid, "gamma_grid")
    if gamma_grid.ndim != 1 or gamma_grid.size == 0:
        raise ParameterError(f"gamma_grid must be a non-empty 1-D array, got shape {gamma_grid.shape}")
    check_type(scenario, SensingScenario, "scenario")
    check_type(rng, np.random.Generator, "rng")
    plan = scenario._plan
    rows = max(1, _BLOCK_BYTES // (16 * plan.ramp.size))
    block = min(n_trials, rows)
    with plan.lock:
        plan.fit(rows)
        raw = plan.packed.draw(rng, n_trials)
        uniforms = scenario._draw_uniforms(rng, n_trials)
        blocks = []
        for start in range(0, n_trials, block):
            stop = min(start + block, n_trials)
            noise = None if plan.noise is None else rng.standard_normal(out=plan.noise[: stop - start])
            blocks.append(_detection_block(scenario, plan, raw[start:stop], uniforms[:, start:stop], noise))
    peak, near, out_max = (np.concatenate(part) for part in zip(*blocks))
    gammas = gamma_grid[:, None]
    pfa = np.mean(out_max > gammas, axis=1)
    pd = np.mean((peak > gammas) & near, axis=1)
    return np.column_stack([gamma_grid, pfa, pd])


def pd_at_pfa(curve: np.ndarray, pfa_targets) -> np.ndarray:
    """Interpolate detection probability at given false-alarm levels.

    ``curve`` holds finite (gamma, Pfa, Pd) rows, as ``roc_curve`` returns them,
    in any order.  They are read by rising Pfa and, where rows share a Pfa,
    by falling gamma, so a level between two Pfa values interpolates between
    the two adjacent thresholds, the last row of the tie and the next one.
    """
    curve = check_reals(curve, "curve")
    if curve.ndim != 2 or curve.shape[0] < 1 or curve.shape[1] != 3:
        raise ParameterError(f"curve must be (gamma, Pfa, Pd) rows, got shape {curve.shape}")
    order = np.lexsort((-curve[:, 0], curve[:, 1]))
    pfa = curve[order, 1]
    pd = curve[order, 2]
    return np.interp(check_reals(pfa_targets, "pfa_targets"), pfa, pd)
