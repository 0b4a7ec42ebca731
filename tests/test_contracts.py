"""Every public entry point answers malformed arguments with an ``AfdmError``.

One table lists each site of the shared argument checks in ``errors``.  Each
site is fed the same malformed values, skipping those it legitimately takes,
and must raise its own ``AfdmError`` subclass with a message that names the
argument.  The regression tests below pin the inputs that were accepted, or
raised a bare exception or a warning, before each was checked.
"""

import importlib
import math

import numpy as np
import pytest

from afdm_isac import (
    AfdmConfig,
    add_cpp,
    analysis,
    channel,
    daft,
    estimator,
    idaft,
    modem,
    pilots,
    remove_cpp,
    sensing,
    waveform_samples,
)
from afdm_isac.analysis import (
    PowerAllocation,
    af_statistics_closed_form,
    ambiguity_decomposition,
    ambiguity_function,
    ambiguity_moments_mc,
    ambiguity_region,
    crb,
    crb_distribution,
    cross_ambiguity,
    equal_allocation,
    fim,
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
    apply_basis,
    apply_channel_time,
    basis_grid,
    delay_doppler_to_range_velocity,
    sample_channel,
    sensing_echo,
    subcarrier_offset,
)
from afdm_isac.errors import AfdmError, ConfigurationError, ParameterError, check_integers
from afdm_isac.estimator import PriorModel, build_psi, equalize_demod, iterative_estimate
from afdm_isac.modem import FrameSpec, random_data_vector
from afdm_isac.pilots import (
    PilotScheme,
    max_unambiguous_delay,
    pilot_vector,
    proposed_delay_limit,
    proposed_pilot,
    proposed_spacing,
    select_c1_q,
    single_pilot,
    traditional_spacing,
    traditional_spi_pilot,
    zc_sequence,
)
from afdm_isac.sensing import (
    DetectionConfig,
    RangeDopplerMap,
    SensingScenario,
    detect,
    estimate_target,
    noise_floor,
    pd_at_pfa,
    rdf,
    roc_curve,
    sensing_grid,
)

# the package binds the name ``daft`` to the transform
DAFT = importlib.import_module("afdm_isac.daft")
CFG = AfdmConfig(n_sub=16, n_cpp=4, c1=1 / 8)
CFG32 = AfdmConfig(n_sub=32, n_cpp=4, c1=1 / 16)
CFG128 = AfdmConfig(n_sub=128, c1=1 / 32)  # K = 8
SPEC = FrameSpec(16.0, 1.0)
GRID = basis_grid(2, 1)
H = PathChannel(CFG, [0, 1], [0, 1], [1.0, 0.2j])
X_P = single_pilot(CFG, 16.0)
ONES = np.ones(CFG.n_sub, dtype=complex)
NAN_PILOT = np.where(np.arange(CFG.n_sub) == 3, math.nan, X_P)
S_CPP = np.ones(CFG.n_sub + CFG.n_cpp, dtype=complex)  # a prefixed signal
TARGET = SensingTarget(1.0, 1.0, 0.0, 1.0)
POWER = equal_allocation(16.0, 16)
ROW_TARGETS = SensingTarget(np.ones(2), 1.0, 0.0, 1.0)  # one target per row of a symbol stack
PATH = ChannelPath(1.0, 0, 0.0)
CURVE = np.array([[1.0, 0.5, 0.9], [10.0, 0.01, 0.6]])  # (gamma, Pfa, Pd) rows
SMALL_WINDOW = DetectionConfig(guard=(0, 0), train=(1, 1))  # leaves training cells on a 2 x 3 map
MAP_AXES = (np.arange(2), np.arange(3))  # a 2 x 3 map: "wrong shape" is its valid values
MAP = RangeDopplerMap(np.ones((2, 3)), *MAP_AXES)

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
    kwargs = dict(cfg=CFG, frame_spec=SPEC, pilot=PilotScheme("single", 16.0), tau_m=2, nu_m=1,
                  receive_snr_db=10.0, noise_power=1.0)
    return SensingScenario(**{**kwargs, **change})


def rng():
    return np.random.default_rng(7)


def theorem_2_mc(**change):
    """Theorem 2's Monte Carlo arguments: 4 frames of ``X_P`` from a fresh generator."""
    return {"n_frames": 4, "rng": rng(), "x_pilot": X_P, **change}


def undrawn(call):
    """A site that feeds ``call(v, g)`` a fresh generator ``g`` and asserts that a refusal leaves it undrawn."""
    def site(v):
        g = rng()
        state = g.bit_generator.state
        try:
            return call(v, g)
        except AfdmError:
            assert g.bit_generator.state == state
            raise
    return site


# (site, call with the value in place, error class, message pattern, values the site takes)
NONNEGATIVE = {"2.5"}
SITES = [
    # a complex (n,) vector
    ("add_cpp", lambda v: add_cpp(v, CFG), ConfigurationError, "^time-domain vector", set()),
    ("remove_cpp", lambda v: remove_cpp(v, CFG), ConfigurationError, "^prefixed signal", set()),
    ("apply_channel_time", lambda v: apply_channel_time(v, ChannelRealization((PATH,), 0.0, 2, 1), CFG, rng()),
     ConfigurationError, "^prefixed signal", set()),
    ("apply_basis.x", lambda v: apply_basis(v, CFG, 0, 0.0), ConfigurationError, "^DAFT-domain vector", set()),
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
    # None runs without the genie
    ("iterative_estimate.known_data", lambda v: iterative_estimate(ONES, X_P, SPEC, GRID, CFG, 0.1, known_data=v),
     ConfigurationError, "^known_data", {"None"}),
    # a complex vector of any length
    ("frame_power_profile.x_pilot", lambda v: frame_power_profile(v, 1.0), ConfigurationError, "^pilot",
     {"2 elements"}),
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
    ("noise_floor", lambda v: noise_floor(RangeDopplerMap(v, *MAP_AXES), SMALL_WINDOW),
     ConfigurationError, "^map values", {"wrong shape"}),
    ("RangeDopplerMap.at", lambda v: RangeDopplerMap(v, *MAP_AXES).at(0, 0), ConfigurationError,
     "^map values", {"wrong shape"}),
    ("RangeDopplerMap.max_off_origin", lambda v: RangeDopplerMap(v, *MAP_AXES).max_off_origin(),
     ConfigurationError, "^map values", {"wrong shape"}),
    ("estimate_target", lambda v: estimate_target(RangeDopplerMap(v, *MAP_AXES)), ConfigurationError,
     "^map values", {"wrong shape"}),
    ("detect.rd_map", lambda v: detect(RangeDopplerMap(v, *MAP_AXES), np.ones((2, 3)), 1.0),
     ConfigurationError, "^map values", {"wrong shape"}),
    # a finite, non-negative real scalar
    ("FrameSpec.pilot_power", lambda v: FrameSpec(v, 1.0), ParameterError, "^pilot_power", NONNEGATIVE),
    ("FrameSpec.data_symbol_power", lambda v: FrameSpec(1.0, v), ParameterError,
     "^data_symbol_power", NONNEGATIVE),
    ("single_pilot.pilot_power", lambda v: single_pilot(CFG, v), ParameterError, "^pilot_power", NONNEGATIVE),
    ("proposed_pilot.pilot_power", lambda v: proposed_pilot(CFG, v), ParameterError, "^pilot_power",
     NONNEGATIVE),
    ("traditional_spi_pilot.pilot_power", lambda v: traditional_spi_pilot(CFG, v, 1, 1), ParameterError,
     "^pilot_power", NONNEGATIVE),
    ("SensingTarget.noise_power", lambda v: SensingTarget(1.0, 1.0, 0.0, v), ParameterError,
     "^target noise power", NONNEGATIVE),
    ("SensingScenario.noise_power", lambda v: scenario(noise_power=v), ParameterError,
     "^noise_power", NONNEGATIVE),
    ("ChannelRealization.noise_power", lambda v: ChannelRealization((PATH,), v, 2, 1), ParameterError,
     "^noise_power", NONNEGATIVE),
    ("equalize_demod.noise_power", lambda v: equalize_demod(ONES, H, X_P, SPEC, v), ParameterError,
     "^noise_power", NONNEGATIVE),
    ("iterative_estimate.noise_power", lambda v: iterative_estimate(ONES, X_P, SPEC, GRID, CFG, v),
     ParameterError, "^noise_power", NONNEGATIVE),
    ("frame_power_profile.data_symbol_power", lambda v: frame_power_profile(ONES, v), ParameterError,
     "^data_symbol_power", NONNEGATIVE),
    ("equal_allocation.total", lambda v: equal_allocation(v, 16), ParameterError, "^total", NONNEGATIVE),
    ("verify_theorem_2.total_data_power", lambda v: verify_theorem_2(CFG, 16.0, v, **theorem_2_mc()),
     ParameterError, "^total_data_power", NONNEGATIVE),
    ("verify_theorem_3.total_data_power", lambda v: verify_theorem_3([CFG, CFG32], 16.0, v, n_frames=4, rng=rng()),
     ParameterError, "^total_data_power", NONNEGATIVE),
    # a finite number, real or complex: the pilot's own ambiguity value off the origin
    ("af_statistics_closed_form.pilot_af", lambda v: af_statistics_closed_form(SPEC, CFG, False, v),
     ParameterError, "^pilot_af", {"-1", "1j", "2.5"}),
    # an integer >= k
    ("iterative_estimate.n_iter", lambda v: iterative_estimate(ONES, X_P, SPEC, GRID, CFG, 0.1, n_iter=v),
     ParameterError, "^n_iter", set()),
    ("ambiguity_moments_mc.n_frames", lambda v: ambiguity_moments_mc(X_P, SPEC, CFG, [(0, 0)], v, rng()),
     ParameterError, "^n_frames", set()),
    ("verify_theorem_2.n_frames", lambda v: verify_theorem_2(CFG, 16.0, 16.0, **theorem_2_mc(n_frames=v)),
     ParameterError, "^n_frames", set()),
    ("verify_theorem_3.n_frames", lambda v: verify_theorem_3([CFG, CFG32], 16.0, 16.0, n_frames=v, rng=rng()),
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
    ("zc_sequence.length", lambda v: zc_sequence(v), ParameterError, "^ZC length", set()),
    ("select_c1_q.nu_m", lambda v: select_c1_q(v, CFG), ParameterError, "^nu_m", set()),
    ("proposed_spacing.r", lambda v: proposed_spacing(CFG, v), ParameterError, "^r must", set()),
    ("traditional_spacing.tau_m", lambda v: traditional_spacing(CFG, v, 1), ParameterError, "^tau_m", set()),
    ("traditional_spacing.nu_m", lambda v: traditional_spacing(CFG, 1, v), ParameterError, "^nu_m", set()),
    ("traditional_spi_pilot.tau_m", lambda v: traditional_spi_pilot(CFG, 16.0, v, 1), ParameterError,
     "^tau_m", set()),
    # the footprint reaches only the traditional comb, but every family checks it
    ("pilot_vector.tau_m", lambda v: pilot_vector(PilotScheme("traditional_spi", 16.0), CFG, v, 1),
     ParameterError, "^tau_m", set()),
    ("pilot_vector.nu_m", lambda v: pilot_vector(PilotScheme("traditional_spi", 16.0), CFG, 1, v),
     ParameterError, "^nu_m", set()),
    ("pilot_vector.tau_m proposed", lambda v: pilot_vector(PilotScheme("proposed", 16.0), CFG, v, 1),
     ParameterError, "^tau_m", set()),
    ("pilot_vector.nu_m proposed", lambda v: pilot_vector(PilotScheme("proposed", 16.0), CFG, 1, v),
     ParameterError, "^nu_m", set()),
    ("pilot_vector.tau_m single", lambda v: pilot_vector(PilotScheme("single", 16.0), CFG, v, 1),
     ParameterError, "^tau_m", set()),
    ("pilot_vector.nu_m single", lambda v: pilot_vector(PilotScheme("single", 16.0), CFG, 1, v),
     ParameterError, "^nu_m", set()),
    ("max_unambiguous_delay.spacing", lambda v: max_unambiguous_delay(v, 1, CFG), ParameterError,
     "^spacing", set()),
    ("max_unambiguous_delay.nu_m", lambda v: max_unambiguous_delay(8, v, CFG), ParameterError, "^nu_m",
     set()),
    # an integer coprime with the ZC length 8
    ("zc_sequence.root", lambda v: zc_sequence(8, v), ParameterError, "^ZC root", {"-1"}),
    # an int64 integer array
    ("PathChannel.delays", lambda v: PathChannel(CFG, v, [0], [1.0]), ParameterError, "delays", set()),
    ("PathChannel.dopplers", lambda v: PathChannel(CFG, [0], v, [1.0]), ParameterError, "(?i)dopplers", set()),
    ("ambiguity_function.region", lambda v: ambiguity_function(idaft(X_P, CFG), (v, [0]), CFG),
     ParameterError, "^ambiguity axis", {"2 elements"}),
    ("ambiguity_decomposition.region", lambda v: ambiguity_decomposition(X_P, ONES, (v, [0]), CFG),
     ParameterError, "^ambiguity axis", {"2 elements"}),
    ("interference_coefficient.m1", lambda v: interference_coefficient(v, 0, 0, 0, CFG), ParameterError,
     "^subcarrier indices", set()),
    ("interference_coefficient.tau", lambda v: interference_coefficient(0, 0, v, 0, CFG), ParameterError,
     "^path delay", {"-1"}),
    ("interference_coefficient.nu", lambda v: interference_coefficient(0, 0, 0, v, CFG), ParameterError,
     "^path delay and Doppler", {"-1"}),
    ("ChannelPath.delay", lambda v: ChannelPath(1.0, v, 0.0), ParameterError, "^path delay", set()),
    # one integer delay in [0, Nc), or a 1-D array of them
    ("apply_basis.tau", lambda v: apply_basis(ONES, CFG, v, 0.0), ParameterError, "delays", set()),
    # whole delays and Dopplers of any shape, any sign (a cyclic shift)
    ("subcarrier_offset.tau", lambda v: subcarrier_offset(v, 0, CFG), ParameterError, "^delays",
     {"wrong shape", "-1", "2 elements"}),
    ("subcarrier_offset.nu", lambda v: subcarrier_offset(0, v, CFG), ParameterError, "^Dopplers",
     {"wrong shape", "-1", "2 elements"}),
    ("sensing_grid.tau_m", lambda v: sensing_grid(v, 1), ParameterError, "^tau_m", set()),
    ("sensing_grid.nu_m", lambda v: sensing_grid(1, v), ParameterError, "^nu_m", set()),
    ("sensing_grid.os_tau", lambda v: sensing_grid(1, 1, v, 1), ParameterError, "^os_tau", set()),
    ("sensing_grid.os_nu", lambda v: sensing_grid(1, 1, 1, v), ParameterError, "^os_nu", set()),
    ("ambiguity_region.tau_m", lambda v: ambiguity_region(v, 0), ParameterError, "^tau_m", set()),
    ("ambiguity_region.nu_m", lambda v: ambiguity_region(0, v), ParameterError, "^nu_m", set()),
    # a finite real scalar
    ("AfdmConfig.c1", lambda v: AfdmConfig(n_sub=16, c1=v), ConfigurationError, "^c1", {"-1", "2.5"}),
    ("AfdmConfig.delta_f", lambda v: AfdmConfig(n_sub=16, delta_f=v), ConfigurationError, "^delta_f", {"2.5"}),
    # a positive, finite real scalar
    ("PilotScheme.pilot_power", lambda v: PilotScheme("single", v), ParameterError, "^pilot_power", {"2.5"}),
    # two integer half-widths
    ("DetectionConfig.guard", lambda v: DetectionConfig(guard=v), ParameterError, "^guard", set()),
    ("DetectionConfig.train", lambda v: DetectionConfig(train=v), ParameterError, "^train", set()),
    ("crb_distribution.total_power", lambda v: crb_distribution(CFG, TARGET, v, 4, rng()), ParameterError,
     "^total_power", {"2.5"}),
    # a real scalar, not NaN
    ("detect.gamma", lambda v: detect(MAP, np.ones((2, 3)), v), ParameterError, "^gamma",
     {"-1", "+inf", "-inf", "2.5"}),
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
    # one real Doppler per delay
    ("apply_basis.nu", lambda v: apply_basis(ONES, CFG, 0, v), ParameterError, "(?i)doppler", {"-1", "2.5", "True"}),
    # a tuple or list of ChannelPath
    ("ChannelRealization.paths", lambda v: ChannelRealization(v, 0.0, 2, 1), ParameterError, "^paths must", set()),
    # an instance of the package's own type
    ("SensingScenario.cfg", lambda v: scenario(cfg=v), ParameterError, "^cfg must be of type", set()),
    ("SensingScenario.frame_spec", lambda v: scenario(frame_spec=v), ParameterError,
     "^frame_spec must be of type", set()),
    ("SensingScenario.pilot", lambda v: scenario(pilot=v), ParameterError, "^pilot must be of type", set()),
    ("SensingScenario.detection", lambda v: scenario(detection=v), ParameterError,
     "^detection must be of type", set()),
    ("iterative_estimate.spec", lambda v: iterative_estimate(ONES, X_P, v, GRID, CFG, 0.1), ParameterError,
     "^spec must be of type", set()),
    ("iterative_estimate.grid", lambda v: iterative_estimate(ONES, X_P, SPEC, v, CFG, 0.1), ParameterError,
     "^grid must be of type", set()),
    ("iterative_estimate.cfg", lambda v: iterative_estimate(ONES, X_P, SPEC, GRID, v, 0.1), ParameterError,
     "^cfg must be of type", set()),
    # None spreads a unit gain power over the grid
    ("iterative_estimate.prior", lambda v: iterative_estimate(ONES, X_P, SPEC, GRID, CFG, 0.1, prior=v),
     ParameterError, "^prior must be of type", {"None"}),
    ("equalize_demod.spec", lambda v: equalize_demod(ONES, H, X_P, v, 0.1), ParameterError,
     "^spec must be of type", set()),
    ("equalize_demod.h_hat", lambda v: equalize_demod(ONES, v, X_P, SPEC, 0.1), ParameterError,
     "^h_hat must be of type", set()),
    ("apply_basis.cfg", lambda v: apply_basis(ONES, v, 0, 0.0), ParameterError, "^cfg must be of type", set()),
    ("subcarrier_offset.cfg", lambda v: subcarrier_offset(0, 0, v), ParameterError, "^cfg must be of type", set()),
    ("PathChannel.cfg", lambda v: PathChannel(v, [0], [0], [1.0]), ParameterError, "^cfg must be of type", set()),
    ("apply_channel_time.realization", lambda v: apply_channel_time(S_CPP, v, CFG, rng()), ParameterError,
     "^realization must be of type", set()),
    ("apply_channel_time.cfg", lambda v: apply_channel_time(S_CPP, ChannelRealization((PATH,), 0.0, 2, 1), v, rng()),
     ParameterError, "^cfg must be of type", set()),
    ("sensing_echo.cfg", lambda v: sensing_echo(ONES, v, TARGET), ParameterError, "^cfg must be of type", set()),
    ("sensing_echo.target", lambda v: sensing_echo(ONES, CFG, v), ParameterError, "^target must be of type", set()),
    ("sample_channel.rng", lambda v: sample_channel(2, 2, 1, v), ParameterError, "^rng must be of type", set()),
    ("apply_channel_time.rng", lambda v: apply_channel_time(S_CPP, ChannelRealization((PATH,), 1.0, 2, 1), CFG, v),
     ParameterError, "^rng must be of type", set()),
    ("af_statistics_closed_form.spec", lambda v: af_statistics_closed_form(v, CFG, True), ParameterError,
     "^spec must be of type", set()),
    ("af_statistics_closed_form.cfg", lambda v: af_statistics_closed_form(SPEC, v, True), ParameterError,
     "^cfg must be of type", set()),
    ("ambiguity_decomposition.cfg", lambda v: ambiguity_decomposition(X_P, ONES, ([0], [0]), v),
     ParameterError, "^cfg must be of type", set()),
    # the three bounds of one allocation share the kernels' target and cfg checks
    ("fim.power", lambda v: fim(v, TARGET, CFG), ParameterError, "^power must be of type", set()),
    ("fim.target", lambda v: fim(POWER, v, CFG), ParameterError, "^target must be of type", set()),
    ("fim.cfg", lambda v: fim(POWER, TARGET, v), ParameterError, "^cfg must be of type", set()),
    ("crb.power", lambda v: crb(v, TARGET, CFG), ParameterError, "^power must be of type", set()),
    ("crb.target", lambda v: crb(POWER, v, CFG), ParameterError, "^target must be of type", set()),
    ("crb.cfg", lambda v: crb(POWER, TARGET, v), ParameterError, "^cfg must be of type", set()),
    ("sensing_weights.power", lambda v: sensing_weights(v, TARGET, CFG), ParameterError,
     "^power must be of type", set()),
    ("sensing_weights.target", lambda v: sensing_weights(POWER, v, CFG), ParameterError,
     "^target must be of type", set()),
    ("sensing_weights.cfg", lambda v: sensing_weights(POWER, TARGET, v), ParameterError,
     "^cfg must be of type", set()),
    ("idaft.cfg", lambda v: idaft(ONES, v), ParameterError, "^cfg must be of type", set()),
    ("daft.cfg", lambda v: daft(ONES, v), ParameterError, "^cfg must be of type", set()),
    ("add_cpp.cfg", lambda v: add_cpp(ONES, v), ParameterError, "^cfg must be of type", set()),
    ("remove_cpp.cfg", lambda v: remove_cpp(S_CPP, v), ParameterError, "^cfg must be of type", set()),
    ("waveform_samples.cfg", lambda v: waveform_samples(ONES, v, 1.0), ParameterError, "^cfg must be of type",
     set()),
    ("build_daft_matrix.cfg", lambda v: DAFT.build_daft_matrix(v), ParameterError, "^cfg must be of type", set()),
    ("delay_doppler_to_range_velocity.cfg", lambda v: delay_doppler_to_range_velocity(1.0, 1.0, v),
     ParameterError, "^cfg must be of type", set()),
    ("random_data_vector.spec", lambda v: random_data_vector(16, v, rng()), ParameterError,
     "^spec must be of type", set()),
    ("random_data_vector.rng", lambda v: random_data_vector(16, SPEC, v), ParameterError,
     "^rng must be of type", set()),
    ("rdf.cfg", lambda v: rdf(ONES, ONES, ([1.0], [0.0]), v), ParameterError, "^cfg must be of type", set()),
    ("noise_floor.rd_map", lambda v: noise_floor(v, SMALL_WINDOW), ParameterError, "^rd_map must be of type",
     set()),
    ("noise_floor.det", lambda v: noise_floor(MAP, v), ParameterError, "^det must be of type", set()),
    ("detect.rd_map type", lambda v: detect(v, np.ones((2, 3)), 1.0), ParameterError, "^rd_map must be of type",
     set()),
    ("estimate_target.rd_map", lambda v: estimate_target(v), ParameterError, "^rd_map must be of type", set()),
    # both before any draw
    ("roc_curve.scenario", lambda v: roc_curve(v, [1.0], 100, rng()), ParameterError,
     "^scenario must be of type", set()),
    ("roc_curve.rng", lambda v: roc_curve(scenario(), [1.0], 100, v), ParameterError, "^rng must be of type",
     set()),
    # checked by the Monte Carlo before any draw: a refused pilot leaves the
    # generator as it was, and a refused rng is no generator to draw from
    ("verify_theorem_2.x_pilot",
     undrawn(lambda v, g: verify_theorem_2(CFG, 16.0, 16.0, **theorem_2_mc(rng=g, x_pilot=v))),
     ConfigurationError, "^pilot", set()),
    ("verify_theorem_2.rng", lambda v: verify_theorem_2(CFG, 16.0, 16.0, **theorem_2_mc(rng=v)), ParameterError,
     "^rng must be of type", set()),
    ("verify_theorem_3.rng", lambda v: verify_theorem_3([CFG, CFG32], 16.0, 16.0, n_frames=4, rng=v),
     ParameterError, "^rng must be of type", set()),
    ("pilot_vector.scheme", lambda v: pilot_vector(v, CFG, 1, 1), ParameterError, "^scheme must be of type",
     set()),
    # checked by the family's own function
    ("pilot_vector.cfg", lambda v: pilot_vector(PilotScheme("proposed", 16.0), v, 1, 1), ParameterError,
     "^cfg must be of type", set()),
    ("proposed_pilot.cfg", lambda v: proposed_pilot(v, 16.0), ParameterError, "^cfg must be of type", set()),
    ("proposed_spacing.cfg", lambda v: proposed_spacing(v, 0), ParameterError, "^cfg must be of type", set()),
    ("proposed_delay_limit.cfg", lambda v: proposed_delay_limit(v), ParameterError, "^cfg must be of type",
     set()),
    ("select_c1_q.cfg", lambda v: select_c1_q(1, v), ParameterError, "^cfg must be of type", set()),
    ("traditional_spacing.cfg", lambda v: traditional_spacing(v, 1, 1), ParameterError, "^cfg must be of type",
     set()),
    ("traditional_spi_pilot.cfg", lambda v: traditional_spi_pilot(v, 16.0, 1, 1), ParameterError,
     "^cfg must be of type", set()),
    ("single_pilot.cfg", lambda v: single_pilot(v, 16.0), ParameterError, "^cfg must be of type", set()),
    ("max_unambiguous_delay.cfg", lambda v: max_unambiguous_delay(8, 1, v), ParameterError,
     "^cfg must be of type", set()),
    ("build_psi.grid", lambda v: build_psi(X_P, v, CFG), ParameterError, "^grid must be of type", set()),
    # a member of the Constellation enum, a pilot family's name
    ("FrameSpec.constellation", lambda v: FrameSpec(1.0, 1.0, v), ParameterError, "^constellation", set()),
    ("PilotScheme.variant", lambda v: PilotScheme(v, 1.0), ParameterError, "^unknown pilot variant", set()),
    # finite gains, one per path: the value is the one path's gain
    ("PathChannel.gains", lambda v: PathChannel(CFG, [0], [0], [v]), ParameterError, "gains",
     {"-1", "1j", "2.5", "True"}),
    # finite real numbers of any shape the call allows: delays and grid axes
    ("waveform_samples.tau", lambda v: waveform_samples(ONES, CFG, v), ParameterError, "^delays",
     {"-1", "2 elements", "2.5", "True"}),
    ("rdf.grid", lambda v: rdf(ONES, ONES, (v, [0.0]), CFG), ParameterError, "^grid axes", {"2 elements"}),
    ("roc_curve.gamma_grid", lambda v: roc_curve(scenario(detection=SMALL_WINDOW), v, 100, rng()),
     ParameterError, "^gamma_grid", {"2 elements"}),
    ("pd_at_pfa.pfa_targets", lambda v: pd_at_pfa(CURVE, v), ParameterError, "^pfa_targets",
     {"wrong shape", "-1", "2 elements", "2.5", "True"}),
    ("delay_doppler_to_range_velocity.tau_hat", lambda v: delay_doppler_to_range_velocity(v, 1.0, CFG),
     ParameterError, "^tau_hat", {"wrong shape", "-1", "2 elements", "2.5", "True"}),
    ("delay_doppler_to_range_velocity.nu_hat", lambda v: delay_doppler_to_range_velocity(1.0, v, CFG),
     ParameterError, "^nu_hat", {"wrong shape", "-1", "2 elements", "2.5", "True"}),
    # real numbers >= 0 of any shape, inf (a flat prior) too
    ("PriorModel.gain_variances", lambda v: PriorModel(v), ParameterError, "^prior variances",
     {"wrong shape", "+inf", "2 elements", "2.5", "True"}),
    # finite reals of a fixed layout: a curve of (gamma, Pfa, Pd) rows, a non-empty power vector
    ("pd_at_pfa.curve", lambda v: pd_at_pfa(v, [0.1]), ParameterError, "^curve", {"wrong shape"}),
    ("PowerAllocation.powers", lambda v: PowerAllocation(v), ParameterError, "^powers", {"2 elements"}),
    # a non-empty list of integer (delay, Doppler) pairs, each delay in [0, Nc):
    # the whole list, then one pair's delay or Doppler (numpy reads a bool
    # among integers as 0 or 1, and any integer Doppler is a path)
    ("verify_theorem_4.pairs", lambda v: verify_theorem_4(X_P, CFG, v), ParameterError, "^pairs", set()),
    ("verify_theorem_4.pairs delay", lambda v: verify_theorem_4(X_P, CFG, [(0, 0), (v, 0)]), ParameterError,
     "^pair", {"True"}),
    ("verify_theorem_4.pairs Doppler", lambda v: verify_theorem_4(X_P, CFG, [(0, 0), (1, v)]),
     ParameterError, "^pair", {"-1", "True"}),
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
    "prior variance NaN": lambda: PriorModel(np.array([math.nan, 1.0])),
    # bare TypeError
    "FrameSpec pilot_power '1'": lambda: FrameSpec("1", 1.0),
    "FrameSpec pilot_power 1j": lambda: FrameSpec(1j, 1.0),
    "equalize_demod noise_power None": lambda: equalize_demod(ONES, H, X_P, SPEC, None),
    "iterative_estimate noise_power '1'": lambda: iterative_estimate(ONES, X_P, SPEC, GRID, CFG, "1"),
    # bare ValueError
    "equalize_demod noise_power 2 elements": lambda: equalize_demod(ONES, H, X_P, SPEC, np.ones(2)),
    "SensingTarget noise_power 2 elements": lambda: SensingTarget(1.0, 1.0, 0.0, np.ones(2)),
    # bare ValueError ("truth value of an array is ambiguous")
    "crb of a target stack": lambda: crb(equal_allocation(16.0, 16), ROW_TARGETS, CFG),
    "sensing_weights of a target stack": lambda: sensing_weights(equal_allocation(16.0, 16), ROW_TARGETS, CFG),
    "crb_distribution of a target stack": lambda: crb_distribution(CFG, ROW_TARGETS, 16.0, 4, rng()),
    # accepted, a coefficient of a fractional delay
    "interference_coefficient delay 1.5": lambda: interference_coefficient(
        0, 3, 1.5, 0, AfdmConfig(n_sub=16, c1=1 / 16)
    ),
    # accepted, the Monte Carlo skipped and the check passed
    "verify_theorem_2 n_frames -1": lambda: verify_theorem_2(CFG, 1.0, 16.0, **theorem_2_mc(n_frames=-1)),
    "verify_theorem_2 pilot 'abc'": lambda: verify_theorem_2(CFG, 16.0, 16.0, **theorem_2_mc(x_pilot="abc")),
    # a RankWarning, then a slope through one point
    "verify_theorem_3 one config": lambda: verify_theorem_3([CFG], 1.0, 16.0, n_frames=4, rng=rng()),
    "verify_theorem_3 one subcarrier count": lambda: verify_theorem_3([CFG, CFG], 1.0, 16.0, n_frames=4, rng=rng()),
    # bare ValueError
    "verify_theorem_3 no config": lambda: verify_theorem_3([], 1.0, 16.0, n_frames=4, rng=rng()),
    # accepted, then a bare AttributeError on first use
    "FrameSpec constellation 'qpsk'": lambda: FrameSpec(1.0, 1.0, "qpsk"),
    # bare ZeroDivisionError
    "proposed_delay_limit K 0": lambda: proposed_delay_limit(AfdmConfig(n_sub=16)),
    # accepted, a numeric string read as a number
    "PowerAllocation numeric strings": lambda: PowerAllocation(["1", "2"]),
    "prior numeric strings": lambda: PriorModel(["1", "1"]),
    # accepted, an infinite noise level (with no data, a NaN one)
    "effective noise flat prior with data": lambda: iterative_estimate(
        ONES, X_P, SPEC, GRID, CFG, 0.1, prior=PriorModel(np.full(len(GRID), math.inf))
    ),
    # bare AttributeError or TypeError from the first use of the argument
    "iterative_estimate spec None": lambda: iterative_estimate(ONES, X_P, None, GRID, CFG, 0.1),
    "iterative_estimate grid as pairs": lambda: iterative_estimate(ONES, X_P, SPEC, GRID.pairs, CFG, 0.1),
    "iterative_estimate cfg as n_sub": lambda: iterative_estimate(ONES, X_P, SPEC, GRID, 16, 0.1),
    "iterative_estimate prior as variances": lambda: iterative_estimate(
        ONES, X_P, SPEC, GRID, CFG, 0.1, prior=np.ones(len(GRID))
    ),
    "equalize_demod spec None": lambda: equalize_demod(ONES, H, X_P, None, 0.1),
    # accepted, a float spacing (17.0, 7.0); a negative Doppler budget's comb (3, 42)
    "traditional_spacing tau_m 1.5": lambda: traditional_spacing(CFG128, 1.5, 2),
    "traditional_spacing nu_m -3": lambda: traditional_spacing(CFG128, 1, -3),
    # accepted, a delay budget of 2 from a fractional Doppler budget or spacing
    "max_unambiguous_delay nu_m 1.5": lambda: max_unambiguous_delay(21, 1.5, CFG128),
    "max_unambiguous_delay spacing 21.7": lambda: max_unambiguous_delay(21.7, 2, CFG128),
    # accepted as r = 1
    "proposed_spacing r True": lambda: proposed_spacing(CFG128, True),
    # bare TypeError from math.gcd
    "zc_sequence root 1.5": lambda: zc_sequence(8, 1.5),
    "zc_sequence root 'a'": lambda: zc_sequence(8, "a"),
    # accepted as a total power of 1; bare TypeError
    "crb_distribution total_power True": lambda: crb_distribution(CFG, TARGET, True, 4, rng()),
    "crb_distribution total_power '1'": lambda: crb_distribution(CFG, TARGET, "1", 4, rng()),
    # accepted, then a bare AttributeError in roc_curve
    "SensingScenario pilot 'proposed'": lambda: scenario(pilot="proposed"),
    "SensingScenario frame_spec None": lambda: scenario(frame_spec=None),
    # accepted, then roc_curve built the pilot from the scheme's power alone
    "SensingScenario pilot power 16 and frame pilot power 0": lambda: scenario(frame_spec=FrameSpec(0.0, 1.0)),
    # bare ValueError ("truth value of an array is ambiguous")
    "PilotScheme variant array": lambda: PilotScheme(np.array(["proposed", "single"]), 1.0),
    # bare ValueError from numpy
    "roc_curve gamma_grid letters": lambda: roc_curve(scenario(), ["a"], 100, rng()),
    # a RuntimeWarning from the int64 product, then a 1-cell delay axis
    "sensing_grid delay cells beyond int64": lambda: sensing_grid(np.int64(2**62), 1, 4, 1),
    # an empty axis, returned without a word: 2^63 - 1 cells, or 2^63 + 1 that wrap in int64
    "sensing_grid delay cells 2^63 - 1": lambda: sensing_grid(2**63 - 2, 1),
    "ambiguity_region Doppler cells 2^63 + 1": lambda: ambiguity_region(0, 2**61),
    "ambiguity_region delay cells 2^63 + 1": lambda: ambiguity_region(2**62, 0),
    # a bare ValueError from numpy: the axis or the grid passes its 2^63 - 1 bytes
    "sensing_grid delay bytes past numpy's limit": lambda: sensing_grid(2**61, 1),
    "ambiguity_region delay bytes past numpy's limit": lambda: ambiguity_region(2**61, 0),
    "basis_grid pairs past numpy's limit": lambda: basis_grid(2**40, 2**40),
    "basis_grid numpy-integer pairs past numpy's limit": lambda: basis_grid(np.int64(2**40), np.int64(2**40)),
    "zc_sequence bytes past numpy's limit": lambda: zc_sequence(2**61),
    # accepted, then a bare ValueError from numpy at the config's first table
    "AfdmConfig n_sub 2^59 past numpy's limit": lambda: AfdmConfig(n_sub=2**59),
    "AfdmConfig n_sub 2^61 past numpy's limit": lambda: AfdmConfig(n_sub=2**61),
    # a bare OverflowError from the Generator's choice
    "sample_channel grid past int64": lambda: sample_channel(2, 2**62, 2**62, rng()),
    # accepted, numeric strings read as the pairs (0, 0) and (1, 0)
    "verify_theorem_4 numeric strings": lambda: verify_theorem_4(X_P, CFG, [("0", "0"), ("1", "0")]),
    "ambiguity_moments_mc numeric strings": lambda: ambiguity_moments_mc(
        X_P, SPEC, CFG, [("1", "0")], 4, rng()
    ),
    # all-NaN moments; a failed report; a NaN pilot model cached before the error
    "ambiguity_moments_mc pilot NaN": lambda: ambiguity_moments_mc(NAN_PILOT, SPEC, CFG, [(0, 0)], 4, rng()),
    "verify_theorem_2 pilot NaN": lambda: verify_theorem_2(CFG, 16.0, 16.0, **theorem_2_mc(x_pilot=NAN_PILOT)),
    "verify_theorem_4 pilot NaN": lambda: verify_theorem_4(NAN_PILOT, CFG, [(0, 0), (1, 0)]),
    # bare AttributeError from the first use of the argument
    "apply_channel_time cfg as n_sub": lambda: apply_channel_time(
        S_CPP, ChannelRealization((PATH,), 0.0, 2, 1), 16, rng()
    ),
    "apply_channel_time realization as paths": lambda: apply_channel_time(S_CPP, (PATH,), CFG, rng()),
    "sensing_echo cfg None": lambda: sensing_echo(ONES, None, TARGET),
    "sensing_echo target as a tuple": lambda: sensing_echo(ONES, CFG, (1.0, 1.0, 0.0, 1.0)),
    "subcarrier_offset cfg None": lambda: subcarrier_offset(1, 0, None),
    "PathChannel cfg as n_sub": lambda: PathChannel(16, [0], [0], [1.0]),
    "delay_doppler_to_range_velocity cfg None": lambda: delay_doppler_to_range_velocity(1.0, 1.0, None),
    "sample_channel rng None": lambda: sample_channel(2, 2, 1, None),
    # bare AttributeError from the noise draw; with no noise to draw, accepted
    "apply_channel_time rng 'x'": lambda: apply_channel_time(S_CPP, ChannelRealization((PATH,), 1.0, 2, 1), CFG, "x"),
    "apply_channel_time rng 'x' without noise": lambda: apply_channel_time(
        S_CPP, ChannelRealization((PATH,), 0.0, 2, 1), CFG, "x"
    ),
    # bare AttributeError from the first use of the argument
    "idaft cfg None": lambda: idaft(ONES, None),
    "daft cfg as n_sub": lambda: daft(ONES, 16),
    "add_cpp cfg None": lambda: add_cpp(ONES, None),
    "remove_cpp cfg as n_sub": lambda: remove_cpp(S_CPP, 16),
    "waveform_samples cfg None": lambda: waveform_samples(ONES, None, 1.0),
    "build_daft_matrix cfg as n_sub": lambda: DAFT.build_daft_matrix(16),
    # a NaN and a fractional shift, then a bare TypeError
    "subcarrier_offset delay NaN": lambda: subcarrier_offset(math.nan, 0, CFG),
    "subcarrier_offset delay 1.5": lambda: subcarrier_offset(1.5, 0, CFG),
    "subcarrier_offset delay '1'": lambda: subcarrier_offset("1", 0, CFG),
    # accepted, then a bare AttributeError on first use
    "realization of numbers": lambda: ChannelRealization([1, 2], 0.0, 3, 1),
    # a RuntimeWarning from the ramp's cast; a bare ValueError; accepted as 1.0
    "apply_basis Doppler NaN": lambda: apply_basis(ONES, CFG, 1, math.nan),
    "apply_basis Doppler 'a'": lambda: apply_basis(ONES, CFG, 1, "a"),
    "apply_basis Doppler '1'": lambda: apply_basis(ONES, CFG, 1, "1"),
    # bare AttributeError from the first use of the argument
    "random_data_vector spec None": lambda: random_data_vector(16, None, rng()),
    "random_data_vector rng 'x'": lambda: random_data_vector(16, SPEC, "x"),
    "random_data_vector rng None": lambda: random_data_vector(16, SPEC, None),
    # bare ValueError ("Maximum allowed dimension exceeded")
    "random_data_vector n_sub 2^62": lambda: random_data_vector(2**62, SPEC, rng()),
    # bare AttributeError from the first use of the argument
    "cross_ambiguity cfg as n_sub": lambda: cross_ambiguity(ONES, ONES, [0], [0], 16),
    "ambiguity_function cfg None": lambda: ambiguity_function(ONES, ([0], [0]), None),
    "af_statistics_closed_form cfg as n_sub": lambda: af_statistics_closed_form(SPEC, 16, True),
    "af_statistics_closed_form spec None": lambda: af_statistics_closed_form(None, CFG, True),
    "ambiguity_moments_mc cfg None": lambda: ambiguity_moments_mc(X_P, SPEC, None, [(0, 0)], 4, rng()),
    "ambiguity_moments_mc spec as a constellation": lambda: ambiguity_moments_mc(
        X_P, SPEC.constellation, CFG, [(0, 0)], 4, rng()
    ),
    "verify_theorem_2 cfg as n_sub": lambda: verify_theorem_2(16, 16.0, 16.0, **theorem_2_mc()),
    "verify_theorem_3 cfgs entry None": lambda: verify_theorem_3([CFG, None], 16.0, 16.0, n_frames=4, rng=rng()),
    "verify_theorem_4 cfg None": lambda: verify_theorem_4(X_P, None, [(0, 0)]),
    "fim cfg as n_sub": lambda: fim(POWER, TARGET, 16),
    "fim power as powers": lambda: fim(POWER.powers, TARGET, CFG),
    "fim target as a tuple": lambda: fim(POWER, (1.0, 1.0, 0.0, 1.0), CFG),
    "crb cfg None": lambda: crb(POWER, TARGET, None),
    "sensing_weights target None": lambda: sensing_weights(POWER, None, CFG),
    "crb_distribution cfg as n_sub": lambda: crb_distribution(16, TARGET, 16.0, 4, rng()),
    "crb_distribution target None": lambda: crb_distribution(CFG, None, 16.0, 4, rng()),
    "interference_coefficient cfg None": lambda: interference_coefficient(0, 0, 0, 0, None),
    # bare AttributeError from the first draw
    "ambiguity_moments_mc rng 'x'": lambda: ambiguity_moments_mc(X_P, SPEC, CFG, [(0, 0)], 4, "x"),
    "verify_theorem_2 rng 'x'": lambda: verify_theorem_2(CFG, 16.0, 16.0, **theorem_2_mc(rng="x")),
    "verify_theorem_3 rng 'x'": lambda: verify_theorem_3([CFG, CFG32], 16.0, 16.0, n_frames=4, rng="x"),
    "crb_distribution rng None": lambda: crb_distribution(CFG, TARGET, 16.0, 4, None),
    # bare TypeError
    "verify_theorem_2 total_data_power None": lambda: verify_theorem_2(CFG, 16.0, None, **theorem_2_mc()),
    "verify_theorem_2 total_data_power '16'": lambda: verify_theorem_2(CFG, 16.0, "16", **theorem_2_mc()),
    "verify_theorem_3 total_data_power None": lambda: verify_theorem_3([CFG, CFG32], 16.0, None, n_frames=4,
                                                                       rng=rng()),
    "verify_theorem_3 total_data_power '16'": lambda: verify_theorem_3([CFG, CFG32], 16.0, "16", n_frames=4,
                                                                       rng=rng()),
    "af_statistics_closed_form pilot_af None": lambda: af_statistics_closed_form(SPEC, CFG, False, None),
    # accepted, a numeric string read as a number; a NaN mean
    "af_statistics_closed_form pilot_af '1'": lambda: af_statistics_closed_form(SPEC, CFG, False, "1"),
    "af_statistics_closed_form pilot_af NaN": lambda: af_statistics_closed_form(SPEC, CFG, False, math.nan),
    # bare TypeError ("not iterable")
    "verify_theorem_3 cfgs None": lambda: verify_theorem_3(None, 16.0, 16.0, n_frames=4, rng=rng()),
    "verify_theorem_3 cfgs 16": lambda: verify_theorem_3(16, 16.0, 16.0, n_frames=4, rng=rng()),
    # bare TypeError ("not iterable"), or a bare ValueError from unpacking three axes
    "ambiguity_function region None": lambda: ambiguity_function(ONES, None, CFG),
    "ambiguity_function region 16": lambda: ambiguity_function(ONES, 16, CFG),
    "ambiguity_function region of three axes": lambda: ambiguity_function(ONES, ([0], [0], [0]), CFG),
    "ambiguity_decomposition region None": lambda: ambiguity_decomposition(X_P, ONES, None, CFG),
    "ambiguity_decomposition region 16": lambda: ambiguity_decomposition(X_P, ONES, 16, CFG),
    "ambiguity_decomposition region of three axes": lambda: ambiguity_decomposition(
        X_P, ONES, ([0], [0], [0]), CFG
    ),
    "rdf grid None": lambda: rdf(ONES, ONES, None, CFG),
    "rdf grid 16": lambda: rdf(ONES, ONES, 16, CFG),
    "rdf grid of three axes": lambda: rdf(ONES, ONES, ([0.0], [0.0], [0.0]), CFG),
    # bare AttributeError from the first use of the argument
    "rdf cfg None": lambda: rdf(ONES, ONES, ([0.0], [0.0]), None),
    "noise_floor rd_map as values": lambda: noise_floor(np.ones((2, 3)), SMALL_WINDOW),
    "noise_floor det None": lambda: noise_floor(MAP, None),
    "detect rd_map as values": lambda: detect(np.ones((2, 3)), np.ones((2, 3)), 1.0),
    "estimate_target rd_map None": lambda: estimate_target(None),
    "roc_curve scenario None": lambda: roc_curve(None, [1.0], 100, rng()),
    "pilot_vector scheme as a name": lambda: pilot_vector("proposed", CFG, 1, 1),
    "pilot_vector cfg None": lambda: pilot_vector(PilotScheme("single", 16.0), None, 1, 1),
    "proposed_pilot cfg as n_sub": lambda: proposed_pilot(16, 16.0),
    "proposed_spacing cfg None": lambda: proposed_spacing(None, 0),
    "proposed_delay_limit cfg None": lambda: proposed_delay_limit(None),
    "select_c1_q cfg as n_sub": lambda: select_c1_q(1, 16),
    "traditional_spacing cfg None": lambda: traditional_spacing(None, 1, 1),
    "traditional_spi_pilot cfg as n_sub": lambda: traditional_spi_pilot(16, 16.0, 1, 1),
    "single_pilot cfg None": lambda: single_pilot(None, 16.0),
    "max_unambiguous_delay cfg None": lambda: max_unambiguous_delay(8, 1, None),
    "build_psi grid as pairs": lambda: build_psi(X_P, GRID.pairs, CFG),
    # bare AttributeError from the first draw, after the symbols were built
    "roc_curve rng 'x'": lambda: roc_curve(scenario(), [1.0], 100, "x"),
}


# the defects that a shape check refuses; every other one raises ParameterError
DEFECT_ERRORS = {"verify_theorem_2 pilot 'abc'": ConfigurationError}


@pytest.mark.parametrize("defect", list(DEFECTS))
def test_defect_is_refused(defect):
    with pytest.raises(DEFECT_ERRORS.get(defect, ParameterError)):
        DEFECTS[defect]()


# the entry points of a module that no SITES row feeds, each with the reason
UNFED = {
    DAFT: set(),
    analysis: {
        # the bounds record, which its one producer (crb) fills with checked values
        "SensingBounds",
    },
    modem: {
        # the Enum of the two constellations, fed through the FrameSpec.constellation rows
        "Constellation",
    },
    pilots: set(),
    sensing: set(),
    channel: {
        # the grid type, built through basis_grid, whose rows feed both of its fields
        "BasisGrid",
    },
    estimator: {
        # the result record, which its one producer fills with checked values
        "EstimationResult",
    },
}


# one non-finite entry inside a signal, refused before the FFT or the channel
# sees it (a bare "invalid value encountered" RuntimeWarning before)
NON_FINITE_SITES = {
    "idaft": (lambda v: idaft(v, CFG), "^DAFT-domain vector must be finite", CFG.n_sub),
    "daft": (lambda v: daft(v, CFG), "^time-domain vector must be finite", CFG.n_sub),
    # from idaft itself: the benchmark pins apply_basis's refusals of x to that span
    "apply_basis": (lambda v: apply_basis(v, CFG, [0, 1], [0.0, 0.5]), "^DAFT-domain vector must be finite",
                    CFG.n_sub),
    "apply_channel_time": (lambda v: apply_channel_time(v, ChannelRealization((PATH,), 0.0, 2, 1), CFG, rng()),
                           "^prefixed signal must be finite", CFG.n_sub + CFG.n_cpp),
    "sensing_echo": (lambda v: sensing_echo(v, CFG, TARGET), "^symbols must be finite", CFG.n_sub),
}


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)],
                         ids=["+inf", "-inf", "nan", "inf imaginary part"])
@pytest.mark.parametrize("site", list(NON_FINITE_SITES))
def test_non_finite_entry_is_refused(site, entry):
    call, message, size = NON_FINITE_SITES[site]
    signal = np.ones(size, dtype=complex)
    signal[size // 2] = entry
    with pytest.raises(ParameterError, match=message):
        call(signal)


@pytest.mark.parametrize("module", list(UNFED), ids=lambda module: module.__name__)
def test_every_entry_point_is_fed(module):
    # a site is named "<entry point>.<argument>" or "<entry point> <operator>"
    fed = {site.split(".")[0].split(" ")[0] for site, *_ in SITES}
    entry_points = {name for name in module.__all__ if callable(getattr(module, name))}
    assert entry_points - fed == UNFED[module]



# malformed Theorem 4 pairs, each refused before the pilot model is keyed on them
PAIRS_REFUSED = {
    "NaN delay": [(0, 0), (math.nan, 0)],
    "+inf Doppler": [(0, 0), (1, math.inf)],
    "-inf delay": [(-math.inf, 0)],
    "ragged": [(0, 0), (1, 0, 2)],
    "numeric strings": [("0", "0"), ("1", "0")],
    "letters": [("a", "b")],
    "fractional Doppler": [(0, 0), (1, 0.5)],
    "fractional delay": [(1.5, 0)],
    "negative delay": [(0, 0), (-1, 0)],
    "delay Nc": [(0, 0), (16, 0)],
    "empty": [],
    "3 columns": np.zeros((2, 3), dtype=int),
}


@pytest.mark.parametrize("label", list(PAIRS_REFUSED))
def test_theorem_4_pairs_are_refused_before_the_model(monkeypatch, label):
    def unreachable(*key):
        raise AssertionError(f"the pilot model was reached with {key[1]!r}")

    monkeypatch.setattr(analysis, "_pilot_model", unreachable)
    with pytest.raises(AssertionError):  # the stand-in is the one the report reads
        verify_theorem_4(X_P, CFG, [(0, 0), (15, -1)])
    with pytest.raises(ParameterError, match="^pair"):
        verify_theorem_4(X_P, CFG, PAIRS_REFUSED[label])


INT64 = np.iinfo(np.int64)


# int64 arrays are decided in integers: a float round trip refused 2^63 - 1 and -2^63 + 1
@pytest.mark.parametrize("values", [
    [INT64.max, INT64.min + 1],
    np.array([INT64.min + 1, 0, INT64.max]),
    np.array([INT64.max], dtype=np.uint64),
    np.array([-128, 127], dtype=np.int8),
])
def test_int64_extremes_are_taken(values):
    out = check_integers(values, "x")
    assert out.dtype == np.int64
    assert out.tolist() == [int(v) for v in values]
    assert not np.shares_memory(out, np.asarray(values))


@pytest.mark.parametrize("values", [
    [INT64.min],
    np.array([INT64.min, 0]),
    np.array([INT64.max + 1], dtype=np.uint64),
    np.array([2**64 - 1], dtype=np.uint64),
    [2**63],
    np.array([-(2.0**63)]),
])
def test_beyond_int64_is_refused(values):
    with pytest.raises(ParameterError, match="^x must be a 1-D array of int64 integers"):
        check_integers(values, "x")


def test_integers_are_copied_before_a_path_channel_freezes_them():
    delays = np.array([0, 1])
    PathChannel(CFG, delays, delays, [1.0, 1.0])
    delays[0] = 1  # the caller's array stays writeable
