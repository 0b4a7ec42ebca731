"""Every public entry point answers malformed arguments with an ``AfdmError``.

One table lists each site of the shared argument checks in ``errors``.  Each
site is fed the same malformed values, skipping those it legitimately takes,
and must raise its own ``AfdmError`` subclass with a message that names the
argument.  The regression tests below pin the inputs that were accepted, or
raised a bare exception or a warning, before each was checked.
"""

import math

import numpy as np
import pytest

from afdm_isac import AfdmConfig, add_cpp, daft, idaft, remove_cpp, waveform_samples
from afdm_isac.analysis import (
    PowerAllocation,
    ambiguity_function,
    ambiguity_moments_mc,
    ambiguity_region,
    crb,
    crb_distribution,
    cross_ambiguity,
    equal_allocation,
    frame_power_profile,
    interference_coefficient,
    sensing_weights,
    verify_theorem_2,
    verify_theorem_3,
    verify_theorem_4,
)
from afdm_isac.channel import (
    ChannelPath,
    ChannelRealization,
    PathChannel,
    SensingTarget,
    apply_channel_time,
    basis_grid,
    delay_doppler_to_range_velocity,
    sample_channel,
    sensing_echo,
)
from afdm_isac.errors import ConfigurationError, ParameterError
from afdm_isac.estimator import (
    PriorModel,
    effective_noise_covariance,
    equalize_demod,
    iterative_estimate,
    mmse_estimate,
    reconstruct_channel,
    threshold_paths,
)
from afdm_isac.modem import FrameSpec, demap_symbols, map_bits, random_data_vector
from afdm_isac.pilots import (
    PilotScheme,
    ZcParams,
    proposed_delay_limit,
    select_c1_q,
    single_pilot,
    traditional_spi_pilot,
)
from afdm_isac.sensing import (
    DetectionConfig,
    RangeDopplerMap,
    SensingScenario,
    noise_floor,
    pd_at_pfa,
    rdf,
    roc_curve,
)

CFG = AfdmConfig(n_sub=16, n_cpp=4, c1=1 / 8)
CFG32 = AfdmConfig(n_sub=32, n_cpp=4, c1=1 / 16)
SPEC = FrameSpec(16.0, 1.0)
GRID = basis_grid(2, 1)
H = PathChannel(CFG, [0, 1], [0, 1], [1.0, 0.2j])
X_P = single_pilot(CFG, 16.0)
ONES = np.ones(CFG.n_sub, dtype=complex)
TARGET = SensingTarget(1.0, 1.0, 0.0, 1.0)
ROW_TARGETS = SensingTarget(np.ones(2), 1.0, 0.0, 1.0)  # one target per row of a symbol stack
PATH = ChannelPath(1.0, 0, 0.0)
CURVE = np.array([[1.0, 0.5, 0.9], [10.0, 0.01, 0.6]])  # (gamma, Pfa, Pd) rows
SMALL_WINDOW = DetectionConfig(guard=(0, 0), train=(1, 1))  # leaves training cells on a 2 x 3 map

# the malformed values fed to every site
VALUES = {
    "wrong shape": np.ones((2, 3)),
    "-1": -1,
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
    "None": None,
    "'1'": "1",
    "1j": 1j,
    "2 elements": np.ones(2),
    "2.5": 2.5,
    "True": True,
    "16 letters": np.array(["a"] * 16),
}


def scenario(**change):
    kwargs = dict(tau_m=2, nu_m=1, receive_snr_db=10.0, noise_power=1.0)
    return SensingScenario(CFG, SPEC, PilotScheme("single", 16.0), **{**kwargs, **change})


def rng():
    return np.random.default_rng(7)


# (site, call with the value in place, error class, message pattern, values the site takes)
NONNEGATIVE = {"2.5"}
SITES = [
    # a complex (n,) vector
    ("add_cpp", lambda v: add_cpp(v, CFG), ConfigurationError, "^time-domain vector", set()),
    ("remove_cpp", lambda v: remove_cpp(v, CFG), ConfigurationError, "^prefixed signal", set()),
    ("apply_channel_time", lambda v: apply_channel_time(v, ChannelRealization((PATH,), 0.0, 2, 1), CFG),
     ConfigurationError, "^prefixed signal", set()),
    ("regularized_solve.r", lambda v: H.regularized_solve(v, 0.1), ConfigurationError, "^r must", set()),
    ("ambiguity_moments_mc.x_pilot", lambda v: ambiguity_moments_mc(v, SPEC, CFG, [(0, 0)], 4, rng()),
     ConfigurationError, "^pilot", set()),
    ("verify_theorem_4.x_pilot", lambda v: verify_theorem_4(v, CFG, [(0, 0)]),
     ConfigurationError, "^pilot", set()),
    ("equalize_demod.y", lambda v: equalize_demod(v, H, X_P, SPEC, 0.1), ConfigurationError, "^y must", set()),
    ("equalize_demod.x_pilot", lambda v: equalize_demod(ONES, H, v, SPEC, 0.1),
     ConfigurationError, "^x_pilot", set()),
    ("iterative_estimate.y", lambda v: iterative_estimate(v, X_P, SPEC, GRID, CFG, 0.1),
     ConfigurationError, "^y must", set()),
    ("iterative_estimate.x_pilot", lambda v: iterative_estimate(ONES, v, SPEC, GRID, CFG, 0.1),
     ConfigurationError, "^x_pilot", set()),
    ("reconstruct_channel.alpha_hat", lambda v: reconstruct_channel(v, np.ones(len(GRID)), GRID, CFG),
     ConfigurationError, "^alpha_hat", set()),
    # a complex vector of any length
    ("frame_power_profile.x_pilot", lambda v: frame_power_profile(v, 1.0), ConfigurationError, "^pilot",
     {"2 elements"}),
    ("mmse_estimate.y", lambda v: mmse_estimate(v, np.ones((2, 1)), PriorModel(np.ones(1), 1.0)),
     ConfigurationError, "^y must", {"2 elements"}),
    # a complex (..., n) stack
    ("idaft", lambda v: idaft(v, CFG), ConfigurationError, "^DAFT-domain vector", set()),
    ("daft", lambda v: daft(v, CFG), ConfigurationError, "^time-domain vector", set()),
    ("waveform_samples", lambda v: waveform_samples(v, CFG, 1.0), ConfigurationError, "^signals", set()),
    ("PathChannel @", lambda v: H @ v, ConfigurationError, "^DAFT-domain vector", set()),
    ("sensing_echo", lambda v: sensing_echo(v, CFG, TARGET), ConfigurationError, "^symbols", set()),
    ("cross_ambiguity.a", lambda v: cross_ambiguity(v, ONES, [0], [0], CFG), ConfigurationError, "^signals",
     set()),
    ("cross_ambiguity.b", lambda v: cross_ambiguity(ONES, v, [0], [0], CFG), ConfigurationError, "^signals",
     set()),
    ("rdf.echo", lambda v: rdf(v, ONES, ([1.0], [0.0]), CFG), ConfigurationError, "^echo", set()),
    ("rdf.symbol", lambda v: rdf(ONES, v, ([1.0], [0.0]), CFG), ConfigurationError, "^symbol", set()),
    # a complex (..., delays, Dopplers) stack of maps
    ("noise_floor", lambda v: noise_floor(RangeDopplerMap(v, np.arange(2), np.arange(3)), SMALL_WINDOW),
     ConfigurationError, "^map values", {"wrong shape"}),
    # an array of numbers of any shape
    ("threshold_paths.alpha_hat", lambda v: threshold_paths(v, 0.1), ConfigurationError, "^alpha_hat",
     {"wrong shape", "2 elements"}),
    ("demap_symbols", lambda v: demap_symbols(v, SPEC), ConfigurationError, "^equalized symbols",
     {"wrong shape", "2 elements"}),
    # a finite, non-negative real scalar
    ("FrameSpec.pilot_power", lambda v: FrameSpec(v, 1.0), ParameterError, "^pilot_power", NONNEGATIVE),
    ("FrameSpec.data_symbol_power", lambda v: FrameSpec(1.0, v), ParameterError,
     "^data_symbol_power", NONNEGATIVE),
    ("single_pilot.pilot_power", lambda v: single_pilot(CFG, v), ParameterError, "^pilot_power", NONNEGATIVE),
    ("SensingTarget.noise_power", lambda v: SensingTarget(1.0, 1.0, 0.0, v), ParameterError,
     "^target noise power", NONNEGATIVE),
    ("SensingScenario.noise_power", lambda v: scenario(noise_power=v), ParameterError,
     "^noise_power", NONNEGATIVE),
    ("ChannelRealization.noise_power", lambda v: ChannelRealization((PATH,), v, 2, 1), ParameterError,
     "^noise_power", NONNEGATIVE),
    ("PriorModel.noise_variance", lambda v: PriorModel(np.ones(2), v), ParameterError,
     "^noise variance", NONNEGATIVE),
    ("regularized_solve.lam", lambda v: H.regularized_solve(ONES, v), ParameterError, "^lam", NONNEGATIVE),
    ("equalize_demod.noise_power", lambda v: equalize_demod(ONES, H, X_P, SPEC, v), ParameterError,
     "^noise_power", NONNEGATIVE),
    ("iterative_estimate.noise_power", lambda v: iterative_estimate(ONES, X_P, SPEC, GRID, CFG, v),
     ParameterError, "^noise_power", NONNEGATIVE),
    ("frame_power_profile.data_symbol_power", lambda v: frame_power_profile(ONES, v), ParameterError,
     "^data_symbol_power", NONNEGATIVE),
    ("effective_noise_covariance.data_symbol_power", lambda v: effective_noise_covariance(np.ones(2), v, 1.0),
     ParameterError, "^data_symbol_power", NONNEGATIVE),
    ("equal_allocation.total", lambda v: equal_allocation(v, 16), ParameterError, "^total", NONNEGATIVE),
    # an integer >= k
    ("iterative_estimate.n_iter", lambda v: iterative_estimate(ONES, X_P, SPEC, GRID, CFG, 0.1, n_iter=v),
     ParameterError, "^n_iter", set()),
    ("ambiguity_moments_mc.n_frames", lambda v: ambiguity_moments_mc(X_P, SPEC, CFG, [(0, 0)], v, rng()),
     ParameterError, "^n_frames", set()),
    ("verify_theorem_2.n_frames", lambda v: verify_theorem_2(CFG, 16.0, 16.0, n_frames=v), ParameterError,
     "^n_frames", set()),
    ("verify_theorem_3.n_frames", lambda v: verify_theorem_3([CFG, CFG32], 16.0, 16.0, n_frames=v),
     ParameterError, "^n_frames", set()),
    ("crb_distribution.n_draws", lambda v: crb_distribution(CFG, TARGET, 16.0, v, rng()),
     ParameterError, "^n_draws", set()),
    ("roc_curve.n_trials", lambda v: roc_curve(scenario(), [1.0], v, rng()), ParameterError,
     "^n_trials", set()),
    ("equal_allocation.n_sub", lambda v: equal_allocation(16.0, v), ParameterError, "^n_sub", set()),
    ("random_data_vector.n_sub", lambda v: random_data_vector(v, SPEC, rng()), ParameterError, "^n_sub",
     set()),
    ("SensingScenario.tau_m", lambda v: scenario(tau_m=v), ParameterError, "^tau_m", set()),
    ("SensingScenario.nu_m", lambda v: scenario(nu_m=v), ParameterError, "^nu_m", set()),
    ("ChannelRealization.tau_m", lambda v: ChannelRealization((PATH,), 0.0, v, 1), ParameterError,
     "^tau_m", set()),
    ("ChannelRealization.nu_m", lambda v: ChannelRealization((PATH,), 0.0, 2, v), ParameterError,
     "^nu_m", set()),
    ("basis_grid.tau_m", lambda v: basis_grid(v, 1), ParameterError, "^tau_m", set()),
    ("basis_grid.nu_m", lambda v: basis_grid(2, v), ParameterError, "^nu_m", set()),
    ("sample_channel.L", lambda v: sample_channel(v, 2, 1, rng()), ParameterError, "^L must", set()),
    ("ZcParams.length", lambda v: ZcParams(v), ParameterError, "^ZC length", set()),
    ("select_c1_q.nu_m", lambda v: select_c1_q(v, CFG), ParameterError, "^nu_m", set()),
    ("traditional_spi_pilot.n_pilots", lambda v: traditional_spi_pilot(CFG, 16.0, spacing=4, n_pilots=v),
     ParameterError, "^pilot count", {"None"}),
    ("traditional_spi_pilot.spacing", lambda v: traditional_spi_pilot(CFG, 16.0, spacing=v),
     ParameterError, "^spacing", {"None"}),
    # an int64 integer array
    ("PathChannel.delays", lambda v: PathChannel(CFG, v, [0], [1.0]), ParameterError, "delays", set()),
    ("PathChannel.dopplers", lambda v: PathChannel(CFG, [0], v, [1.0]), ParameterError, "(?i)dopplers", set()),
    ("ambiguity_function.region", lambda v: ambiguity_function(idaft(X_P, CFG), (v, [0]), CFG),
     ParameterError, "^ambiguity axis", {"2 elements"}),
    ("interference_coefficient.m1", lambda v: interference_coefficient(v, 0, 0, 0, CFG), ParameterError,
     "^subcarrier indices", set()),
    ("interference_coefficient.tau", lambda v: interference_coefficient(0, 0, v, 0, CFG), ParameterError,
     "^path delay", {"-1"}),
    ("interference_coefficient.nu", lambda v: interference_coefficient(0, 0, 0, v, CFG), ParameterError,
     "^path delay and Doppler", {"-1"}),
    ("ChannelPath.delay", lambda v: ChannelPath(1.0, v, 0.0), ParameterError, "^path delay", set()),
    ("ambiguity_region.tau_m", lambda v: ambiguity_region(v, 0), ParameterError, "^tau_m", set()),
    ("ambiguity_region.nu_m", lambda v: ambiguity_region(0, v), ParameterError, "^nu_m", set()),
    # a finite real scalar
    ("AfdmConfig.c1", lambda v: AfdmConfig(n_sub=16, c1=v), ConfigurationError, "^c1", {"-1", "2.5"}),
    ("AfdmConfig.delta_f", lambda v: AfdmConfig(n_sub=16, delta_f=v), ConfigurationError, "^delta_f", {"2.5"}),
    ("DetectionConfig.gamma", lambda v: DetectionConfig(gamma=v), ParameterError, "^gamma", {"2.5"}),
    ("PilotScheme.pilot_power", lambda v: PilotScheme("single", v), ParameterError, "^pilot_power", {"2.5"}),
    ("SensingScenario.receive_snr_db", lambda v: scenario(receive_snr_db=v), ParameterError,
     "^receive_snr_db", {"-1", "2.5"}),
    # finite numbers, scalars or one target per row: a complex gain, a real delay and Doppler
    ("SensingTarget.gain", lambda v: SensingTarget(v, 1.0, 0.0, 1.0), ParameterError, "^target gain",
     {"wrong shape", "-1", "1j", "2 elements", "2.5", "True"}),
    ("SensingTarget.delay", lambda v: SensingTarget(1.0, v, 0.0, 1.0), ParameterError, "^target delay",
     {"wrong shape", "-1", "2 elements", "2.5", "True"}),
    ("SensingTarget.doppler", lambda v: SensingTarget(1.0, 1.0, v, 1.0), ParameterError, "^target doppler",
     {"wrong shape", "-1", "2 elements", "2.5", "True"}),
    # the path contracts: a finite complex gain and a finite real Doppler
    ("ChannelPath.gain", lambda v: ChannelPath(v, 0, 0.0), ParameterError, "^path gain", {"-1", "1j", "2.5"}),
    ("ChannelPath.doppler", lambda v: ChannelPath(1.0, 0, v), ParameterError, "^path Doppler", {"-1", "2.5"}),
    # a member of the Constellation enum
    ("FrameSpec.constellation", lambda v: FrameSpec(1.0, 1.0, v), ParameterError, "^constellation", set()),
    # 0/1 numbers: a bit stream whose length is a multiple of the bits per symbol
    ("map_bits", lambda v: map_bits(v, SPEC), ParameterError, "^bit", {"wrong shape", "2 elements"}),
    # one 0/1 indicator per grid pair
    ("reconstruct_channel.indicator", lambda v: reconstruct_channel(np.ones(len(GRID)), v, GRID, CFG),
     ParameterError, "0/1 indicators", set()),
    # finite gains, one per path: the value is the one path's gain
    ("PathChannel.gains", lambda v: PathChannel(CFG, [0], [0], [v]), ParameterError, "gains",
     {"-1", "1j", "2.5", "True"}),
    # finite real numbers of any shape the call allows: delays and grid axes
    ("waveform_samples.tau", lambda v: waveform_samples(ONES, CFG, v), ParameterError, "^delays",
     {"-1", "2 elements", "2.5", "True"}),
    ("rdf.grid", lambda v: rdf(ONES, ONES, (v, [0.0]), CFG), ParameterError, "^grid axes", {"2 elements"}),
    ("pd_at_pfa.pfa_targets", lambda v: pd_at_pfa(CURVE, v), ParameterError, "^pfa_targets",
     {"wrong shape", "-1", "2 elements", "2.5", "True"}),
    ("delay_doppler_to_range_velocity.tau_hat", lambda v: delay_doppler_to_range_velocity(v, 1.0, CFG),
     ParameterError, "^tau_hat", {"wrong shape", "-1", "2 elements", "2.5", "True"}),
    ("delay_doppler_to_range_velocity.nu_hat", lambda v: delay_doppler_to_range_velocity(1.0, v, CFG),
     ParameterError, "^nu_hat", {"wrong shape", "-1", "2 elements", "2.5", "True"}),
    # real numbers >= 0 of any shape, inf (a flat prior) too
    ("PriorModel.gain_variances", lambda v: PriorModel(v, 1.0), ParameterError, "^prior variances",
     {"wrong shape", "+inf", "2 elements", "2.5", "True"}),
    ("effective_noise_covariance.gain_variances", lambda v: effective_noise_covariance(v, 1.0, 1.0),
     ParameterError, "^prior variances", {"wrong shape", "+inf", "2 elements", "2.5", "True"}),
    # finite reals of a fixed layout: a curve of (gamma, Pfa, Pd) rows, a non-empty power vector
    ("pd_at_pfa.curve", lambda v: pd_at_pfa(v, [0.1]), ParameterError, "^curve", {"wrong shape"}),
    ("PowerAllocation.powers", lambda v: PowerAllocation(v), ParameterError, "^powers", {"2 elements"}),
    ("crb_distribution.allocations", lambda v: crb_distribution(CFG, TARGET, 16.0, 4, rng(), allocations=v),
     ParameterError, "^allocation", {"None"}),  # None draws the allocations
    # one threshold >= 0 (infinity too) or one per coefficient
    ("threshold_paths.eps", lambda v: threshold_paths(np.ones(2), v), ParameterError, "^threshold",
     {"+inf", "2 elements", "2.5", "True"}),
]


CASES = [
    pytest.param(call, error, message, VALUES[label], id=f"{site}-{label}")
    for site, call, error, message, takes in SITES
    for label in VALUES
    if label not in takes
]


@pytest.mark.parametrize("call, error, message, value", CASES)
def test_malformed_argument_is_refused(call, error, message, value):
    with pytest.raises(error, match=message):
        call(value)


def test_table_values_are_taken_where_listed():
    # a site's skipped values are valid arguments there, so the skips hide no defect
    for site, call, _, _, takes in SITES:
        for label in takes:
            call(VALUES[label])


DEFECTS = {
    # accepted, then an all-NaN signal
    "path gain NaN": lambda: ChannelPath(complex(math.nan, 0.0), 1, 0.0),
    "path Doppler NaN": lambda: ChannelPath(1.0, 1, math.nan),
    # accepted, then NaN and a RuntimeWarning
    "path Doppler inf": lambda: ChannelPath(1.0, 1, math.inf),
    # accepted, then an all-NaN h @ x
    "PathChannel gain NaN": lambda: PathChannel(CFG, [1], [0], [math.nan]),
    # accepted, then no noise added
    "realization noise -1": lambda: ChannelRealization((PATH,), -1.0, 2, 1),
    # accepted, max_paths 7.5
    "realization tau_m 1.5": lambda: ChannelRealization((PATH,), 0.0, 1.5, 1),
    # an empty grid, then ZeroDivisionError in PriorModel.uniform
    "grid tau_m -1": lambda: basis_grid(-1, 0),
    # bare TypeError
    "grid tau_m 1.5": lambda: basis_grid(1.5, 0),
    "sample_channel L 2.5": lambda: sample_channel(2.5, 2, 1, rng()),
    "sample_channel L True": lambda: sample_channel(True, 2, 1, rng()),
    # accepted, then the gain pinned to 0 without a word
    "prior variance NaN": lambda: PriorModel(np.array([math.nan, 1.0]), 1.0),
    "prior noise variance NaN": lambda: PriorModel(np.ones(2), math.nan),
    # accepted, then no path kept
    "threshold NaN": lambda: threshold_paths(np.array([1.0, 2.0]), math.nan),
    # bare TypeError
    "FrameSpec pilot_power '1'": lambda: FrameSpec("1", 1.0),
    "FrameSpec pilot_power 1j": lambda: FrameSpec(1j, 1.0),
    "equalize_demod noise_power None": lambda: equalize_demod(ONES, H, X_P, SPEC, None),
    "regularized_solve lam None": lambda: H.regularized_solve(ONES, None),
    "iterative_estimate noise_power '1'": lambda: iterative_estimate(ONES, X_P, SPEC, GRID, CFG, "1"),
    # bare ValueError
    "equalize_demod noise_power 2 elements": lambda: equalize_demod(ONES, H, X_P, SPEC, np.ones(2)),
    "SensingTarget noise_power 2 elements": lambda: SensingTarget(1.0, 1.0, 0.0, np.ones(2)),
    # bare ValueError ("truth value of an array is ambiguous")
    "crb of a target stack": lambda: crb(equal_allocation(16.0, 16), ROW_TARGETS, CFG),
    "sensing_weights of a target stack": lambda: sensing_weights(equal_allocation(16.0, 16), ROW_TARGETS, CFG),
    "crb_distribution of a target stack": lambda: crb_distribution(CFG, ROW_TARGETS, 16.0, 4, rng()),
    # accepted, a fraction read as bit 0
    "map_bits 0.5": lambda: map_bits([0.5, 1.0], SPEC),
    # a RuntimeWarning from the cast, then bit 0
    "map_bits NaN": lambda: map_bits([math.nan, 1.0], SPEC),
    # bare ValueError
    "map_bits letters": lambda: map_bits(["a", "b"], SPEC),
    # accepted, the kept path's gain doubled
    "reconstruct_channel indicator 2": lambda: reconstruct_channel(
        np.ones(len(GRID)), [2] + [0] * (len(GRID) - 1), GRID, CFG
    ),
    # accepted, then only the first grid pair kept
    "reconstruct_channel indicator 1": lambda: reconstruct_channel(np.ones(len(GRID)), 1, GRID, CFG),
    # accepted, a coefficient of a fractional delay
    "interference_coefficient delay 1.5": lambda: interference_coefficient(
        0, 3, 1.5, 0, AfdmConfig(n_sub=16, c1=1 / 16)
    ),
    # accepted, the Monte Carlo skipped and the check passed
    "verify_theorem_2 n_frames -1": lambda: verify_theorem_2(CFG, 1.0, 16.0, n_frames=-1),
    # a RankWarning, then a slope through one point
    "verify_theorem_3 one config": lambda: verify_theorem_3([CFG], 1.0, 16.0),
    "verify_theorem_3 one subcarrier count": lambda: verify_theorem_3([CFG, CFG], 1.0, 16.0),
    # bare ValueError
    "verify_theorem_3 no config": lambda: verify_theorem_3([], 1.0, 16.0),
    # accepted, then a bare AttributeError on first use
    "FrameSpec constellation 'qpsk'": lambda: FrameSpec(1.0, 1.0, "qpsk"),
    # bare ZeroDivisionError
    "traditional_spi_pilot spacing 0": lambda: traditional_spi_pilot(CFG, 1.0, spacing=0),
    "proposed_delay_limit K 0": lambda: proposed_delay_limit(AfdmConfig(n_sub=16)),
    # bare ValueError from scipy
    "regularized_solve r NaN": lambda: H.regularized_solve(np.full(16, math.nan), 0.1),
    # accepted, a numeric string read as a number
    "threshold '1'": lambda: threshold_paths(np.ones(2), "1"),
    "PowerAllocation numeric strings": lambda: PowerAllocation(["1", "2"]),
    "crb_distribution numeric strings": lambda: crb_distribution(
        CFG, TARGET, 16.0, 0, None, allocations=np.full((2, 16), "1")
    ),
    "prior numeric strings": lambda: PriorModel(["1", "1"], 1.0),
    # accepted, then a NaN noise level
    "effective noise NaN variance": lambda: effective_noise_covariance([math.nan, 1.0], 1.0, 1.0),
}


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_defect_is_refused(defect):
    with pytest.raises(ParameterError):
        DEFECTS[defect]()

