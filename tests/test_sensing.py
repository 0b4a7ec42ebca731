import collections
import dataclasses
import importlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from afdm_isac import AfdmConfig, idaft, sensing, waveform_samples
from afdm_isac.analysis import ambiguity_function, ambiguity_region, cross_ambiguity
from afdm_isac.channel import SensingTarget, sensing_echo
from afdm_isac.errors import ParameterError
from afdm_isac.modem import Constellation, FrameSpec, map_bits, random_data_vector
from afdm_isac.pilots import PilotScheme, pilot_vector, proposed_pilot
from afdm_isac.sensing import (
    _correlate,
    _statistic,
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

from conftest import CountingNumpy, random_unit_symbols

# the benchmark's workloads, read as they are: the repository root holds ``perfbench``
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import RocParams, roc  # noqa: E402


CFG = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)


def pilot_symbol(pilot_power=100.0, r=0):
    return idaft(proposed_pilot(CFG, pilot_power, r=r), CFG)


def noisy_echo(s, cfg, target, rng):
    """``sensing_echo`` plus circularly symmetric Gaussian noise of the target's
    power, drawn for the whole stack, real parts first (none when it is 0)."""
    echo = sensing_echo(s, cfg, target)
    if target.noise_power == 0:
        return echo
    scale = math.sqrt(target.noise_power / 2.0)
    return echo + scale * (rng.standard_normal(echo.shape) + 1j * rng.standard_normal(echo.shape))


class TestRdf:
    def test_zero_target_peak_is_total_power(self, rng):
        x = random_unit_symbols(rng, 64) * 1.3
        s = idaft(x, CFG)
        pt = np.linalg.norm(x) ** 2
        rd = rdf(s, s, sensing_grid(3, 2), CFG)
        assert abs(rd.values[0, rd.nu_axis.size // 2]) == pytest.approx(pt, rel=1e-10)

    def test_pilot_only_single_cell(self):
        # clean comb pilot: the only grid response is at the true target cell
        s = pilot_symbol()
        target = SensingTarget(1.0, 3.0, 1.0, 0.0)
        echo = sensing_echo(s, CFG, target)
        rd = rdf(echo, s, sensing_grid(3, 2), CFG)
        mags = np.abs(rd.values)
        ti = int(np.flatnonzero(rd.tau_axis == 3.0)[0])
        vi = int(np.flatnonzero(rd.nu_axis == 1.0)[0])
        assert mags[ti, vi] == pytest.approx(100.0, rel=1e-10)
        mags[ti, vi] = 0.0
        assert mags.max() <= 1e-10 * 100.0

    def test_shift_property_matches_ambiguity_surface(self, rng):
        # the map is the frame ambiguity surface translated to the target
        # and scaled by the conjugate gain, up to a unit-modulus constant
        x = random_unit_symbols(rng, 64) * 2.0
        s = idaft(x, CFG)
        beta = 0.8 * np.exp(0.4j)
        target = SensingTarget(beta, 2.0, -1.0, 0.0)
        echo = sensing_echo(s, CFG, target)
        rd = rdf(echo, s, sensing_grid(3, 2), CFG)
        surf = ambiguity_function(s, ambiguity_region(5, 2), CFG)
        for ti, tau in enumerate(rd.tau_axis):
            for vi, nu in enumerate(rd.nu_axis):
                expect = np.conj(beta) * surf.at(int(tau - 2), int(nu + 1))
                assert abs(rd.values[ti, vi]) == pytest.approx(abs(expect), abs=1e-9 * 100)

    def test_noise_only_mean_power(self, rng):
        spec = FrameSpec(16.0, 1.0, Constellation.QPSK)
        sigma_s2 = 0.5
        n_trials = 10_000
        acc = []
        x_p = proposed_pilot(CFG, 16.0, r=0)
        for _ in range(n_trials):
            _, x_d = random_data_vector(64, spec, rng)
            s = idaft(x_p + x_d, CFG)
            w = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * math.sqrt(sigma_s2 / 2)
            rd = rdf(w, s, (np.array([2.0]), np.array([1.0])), CFG)
            acc.append(abs(rd.values[0, 0]) ** 2)
        pt = spec.total_power(64)
        se = np.std(acc) / math.sqrt(n_trials)
        assert abs(np.mean(acc) - pt * sigma_s2) < 3 * se

    def test_statistic_phase_invariance(self, rng):
        s = pilot_symbol()
        target = SensingTarget(1.0, 2.0, 0.0, 0.05)
        echo = noisy_echo(s, CFG, target, rng)
        grid = sensing_grid(3, 2)
        det = DetectionConfig()
        rd1 = rdf(echo, s, grid, CFG)
        rd2 = rdf(echo * np.exp(1.23j), s, grid, CFG)
        s1 = np.abs(rd1.values) ** 2 / noise_floor(rd1, det)
        s2 = np.abs(rd2.values) ** 2 / noise_floor(rd2, det)
        assert np.allclose(s1, s2, rtol=1e-9)

    def test_data_sidelobe_variance_matches_prediction(self, rng):
        # off-peak map cells inherit the frame ambiguity variance
        from afdm_isac.analysis import af_statistics_closed_form
        from afdm_isac.modem import random_data_vector

        spec = FrameSpec(16.0, 0.5, Constellation.QPSK)
        x_p = proposed_pilot(CFG, 16.0, r=0)
        n_frames = 4000
        vals = np.empty(n_frames, dtype=complex)
        for i in range(n_frames):
            _, x_d = random_data_vector(64, spec, rng)
            s = idaft(x_p + x_d, CFG)
            echo = sensing_echo(s, CFG, SensingTarget(1.0, 0.0, 0.0, 0.0))
            rd = rdf(echo, s, (np.array([2.0]), np.array([1.0])), CFG)
            vals[i] = rd.values[0, 0]
        _, var_cf = af_statistics_closed_form(spec, CFG, at_origin=False)
        var_mc = np.mean(np.abs(vals - vals.mean()) ** 2)
        m4 = np.mean(np.abs(vals - vals.mean()) ** 4)
        se = math.sqrt(max(m4 - var_mc**2, 0.0) / n_frames)
        assert abs(var_mc - var_cf) < 3 * se

    def test_fractional_reference_continuity(self, rng):
        x = random_unit_symbols(rng, 64)
        s = idaft(x, CFG)
        echo = sensing_echo(s, CFG, SensingTarget(1.0, 2.0, 0.0, 0.0))
        grid_c = (np.array([2.0]), np.array([0.0]))
        grid_f = (np.array([2.0 + 1e-9]), np.array([0.0]))
        v_int = rdf(echo, s, grid_c, CFG).values[0, 0]
        v_frac = rdf(echo, s, grid_f, CFG).values[0, 0]
        assert abs(v_int - v_frac) < 1e-5 * abs(v_int)

    def test_fractional_grid_matches_single_delays(self, rng):
        # the batched reference equals one map per delay
        s = idaft(random_unit_symbols(rng, 64), CFG)
        echo = sensing_echo(s, CFG, SensingTarget(1.0, 2.3, 0.4, 0.0))
        taus, nus = np.array([0.25, 1.0, 2.3, 3.75]), np.array([0.0, 0.4])
        rd = rdf(echo, s, (taus, nus), CFG)
        for i in range(taus.size):
            one = rdf(echo, s, (taus[i : i + 1], nus), CFG).values[0]
            assert np.allclose(rd.values[i], one, rtol=0, atol=1e-12 * np.abs(one).max())

    def test_near_integer_lag_is_not_snapped(self, rng):
        # lag 2 + 1e-6 correlates against the waveform at that lag, not the lag-2 record
        s = idaft(random_unit_symbols(rng, 64), CFG)
        echo = sensing_echo(s, CFG, SensingTarget(1.0, 2.3, 0.0, 0.0))
        lag = 2.0 + 1e-6
        value = rdf(echo, s, (np.array([lag]), np.array([0.0])), CFG).values[0, 0]
        expect = np.conj(echo) @ waveform_samples(s, CFG, lag)
        assert abs(value - expect) <= 1e-12 * abs(expect)
        at_two = rdf(echo, s, (np.array([2.0]), np.array([0.0])), CFG).values[0, 0]
        assert abs(value - at_two) > 1e-9 * abs(at_two)

    @pytest.mark.parametrize("tau", [-1.0, 17.0, 16.5])
    def test_lag_outside_record_rejected(self, rng, tau):
        s = idaft(random_unit_symbols(rng, 64), CFG)
        with pytest.raises(ParameterError):
            rdf(s, s, (np.array([tau]), np.array([0.0])), CFG)


    @pytest.mark.parametrize("nus", [[np.nan], [0.0, np.inf], [[0.0]]])
    def test_bad_doppler_axis_rejected(self, rng, nus):
        s = idaft(random_unit_symbols(rng, 64), CFG)
        with pytest.raises(ParameterError):
            rdf(s, s, (np.array([1.0]), np.array(nus)), CFG)


class TestOneCorrelation:
    @settings(max_examples=60, deadline=None)
    @given(
        n_sub=st.integers(1, 64),
        two_c1_n=st.integers(-16, 48),
        cpp_share=st.floats(0.0, 1.0),
        batch=st.integers(1, 3),
        delay_shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        whole=st.lists(st.integers(0, 63), max_size=3),
        nus=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
        lags=st.lists(st.integers(-64, 64), min_size=1, max_size=4),
        bins=st.lists(st.integers(-8, 8), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rdf_ambiguity_and_waveform_share_one_sum(
        self, n_sub, two_c1_n, cpp_share, batch, delay_shares, whole, nus, lags, bins, seed
    ):
        # N odd or even, K of either sign and parity, delays anywhere in [0, n_cpp]
        rng = np.random.default_rng(seed)
        n_cpp = min(int(cpp_share * n_sub), n_sub - 1)
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=n_cpp, c1=two_c1_n / (2 * n_sub))
        taus = np.array([f * n_cpp for f in delay_shares] + [w % (n_cpp + 1) for w in whole])
        nus = np.array(nus)
        x = rng.standard_normal((batch, n_sub)) + 1j * rng.standard_normal((batch, n_sub))
        r = rng.standard_normal((batch, n_sub)) + 1j * rng.standard_normal((batch, n_sub))
        s = np.stack([idaft(row, cfg) for row in x])
        n = np.arange(n_sub)
        doppler = np.exp(2j * np.pi * np.outer(nus, n) / n_sub)
        for x_i, s_i, r_i in zip(x, s, r):
            ref = np.stack([dense_oracle.waveform_dense(x_i, cfg, n - tau) for tau in taus])
            expect = np.einsum("n,tn,vn->tv", np.conj(r_i), ref, doppler)
            got = rdf(r_i, s_i, (taus, nus), cfg).values
            assert np.max(np.abs(got - expect)) <= 1e-10 * np.abs(r_i).sum() * np.abs(ref).max()

        waves = waveform_samples(s, cfg, taus)
        chi = cross_ambiguity(r, s, lags, bins, cfg)
        whole_delay = taus == np.round(taus)
        for i in range(batch):
            one = waveform_samples(s[i], cfg, taus)
            assert np.array_equal(waves[i, whole_delay], one[whole_delay])
            assert np.max(np.abs(waves[i] - one)) <= 1e-12 * np.abs(s[i]).max()
            assert np.array_equal(chi[i], cross_ambiguity(r[i], s[i], lags, bins, cfg))


class TestWindowedDelays:
    """Whole delays read windows of one extension, bit for bit the gathered stack."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_sub=st.integers(1, 64),
        two_c1_n=st.integers(-16, 48),
        cpp_share=st.floats(0.0, 1.0),
        rows=st.integers(0, 3),
        start=st.integers(-200, 200),
        length=st.integers(1, 8),
        scattered=st.lists(st.integers(-200, 200), min_size=1, max_size=5),
        nus=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
        bins=st.lists(st.integers(-8, 8), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_gathered_stack(
        self, n_sub, two_c1_n, cpp_share, rows, start, length, scattered, nus, bins, seed
    ):
        # N odd or even, K of either sign and parity; rows 0 is a lone symbol, else a
        # stack.  Delays: a consecutive run, and an unsorted set with a duplicate, both
        # anywhere in [-200, 207], so negative and beyond +-Nc and +-2Nc
        rng = np.random.default_rng(seed)
        n_cpp = min(int(cpp_share * n_sub), n_sub - 1)
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=n_cpp, c1=two_c1_n / (2 * n_sub))
        shape = (rows, n_sub) if rows else (n_sub,)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        nus, bins = np.array(nus), np.array(bins, dtype=np.int64)
        run = np.arange(start, start + length)
        scattered = np.array(scattered + scattered[:1])
        gather = dense_oracle.correlate_by_gather
        for taus in (run, scattered):
            for axis in (taus, taus.astype(np.float64)):
                got = _correlate(a, b, axis, nus, cfg)
                assert np.array_equal(got, gather(a, b, axis, nus, cfg))
            chi = cross_ambiguity(a, b, taus, bins, cfg)
            assert np.array_equal(chi, gather(a, b, taus, bins, cfg))
        # rdf's delays lie in [0, n_cpp]: a run from the same start, and the set wrapped
        lo = start % (n_cpp + 1)
        for taus in (np.arange(lo, min(lo + length, n_cpp + 1)), scattered % (n_cpp + 1)):
            taus = taus.astype(np.float64)
            got = rdf(a, b, (taus, nus), cfg).values
            assert np.array_equal(got, gather(a, b, taus, nus, cfg))

    @pytest.mark.parametrize("axis", [
        sensing_grid(7, 2)[0],
        ambiguity_region(7, 2)[0],
        ambiguity_region(70, 1)[0],
        np.arange(-200, -190),
        np.arange(126, 131),
    ])
    def test_runs_read_reversed_windows(self, rng, axis):
        # a run crossing zero or a multiple of 2Nc is still read as one view:
        # consecutive windows of one extension, walked backwards, read-only
        b = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        ref = waveform_samples(b, CFG, axis)
        assert ref.strides[-2] == -ref.itemsize
        assert not ref.flags.writeable
        assert np.array_equal(ref, dense_oracle.delayed_stack(b, CFG, axis))

    def test_integer_axes_match_the_explicit_extension(self, rng):
        # the search grid, a scattered lag set and an oversampled grid, each
        # against the contiguous stack of the explicit formula
        s = idaft(random_unit_symbols(rng, 2 * 64).reshape(2, 64), CFG)
        echo = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        grid, lags, bins = sensing_grid(7, 2), [3, -70, 3, 200, 0], [-2, 0, 5]
        expect_chi = dense_oracle.correlate_by_gather(echo, s, np.array(lags), np.array(bins), CFG)
        for axes in (grid, sensing_grid(7, 2, os_tau=2)):
            expect_map = dense_oracle.correlate_by_gather(echo, s, *axes, CFG)
            assert np.array_equal(rdf(echo, s, axes, CFG).values, expect_map)
        assert np.array_equal(cross_ambiguity(echo, s, lags, bins, CFG), expect_chi)

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("n_sub, pilot", [(64, "proposed"), (63, "single")])
    def test_roc_curve_matches_gathered_correlation(self, monkeypatch, seed, n_sub, pilot):
        scenario = parity_scenario(n_sub, pilot)
        gammas = np.logspace(0.0, 3.0, 25)
        curve = roc_curve(scenario, gammas, 150, np.random.default_rng(seed))
        monkeypatch.setattr(sensing, "_correlate", dense_oracle.correlate_by_gather)
        expect = roc_curve(scenario, gammas, 150, np.random.default_rng(seed))
        assert np.array_equal(curve, expect)


class TestCorrelationCost:
    @pytest.mark.parametrize("n_sub", [256, 1024])
    def test_integer_map_evaluates_exponentials_per_doppler_not_per_sample(self, monkeypatch, rng, n_sub):
        # a map of a (4, Nc) stack on 16 whole delays x 17 whole Dopplers evaluates
        # O(Dopplers*sqrt(Nc) + Nc) exponentials (the config's tables once, then the ramps),
        # not one per Doppler and sample, O(Dopplers*Nc)
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=16, c1=7 / (2 * n_sub))
        s = idaft(rng.standard_normal((4, n_sub)) + 1j * rng.standard_normal((4, n_sub)), cfg)
        echo = rng.standard_normal((4, n_sub)) + 1j * rng.standard_normal((4, n_sub))
        grid = sensing_grid(15, 8)
        counter = CountingNumpy()
        for module in ("afdm_isac.daft", "afdm_isac.channel", "afdm_isac.sensing"):
            # the package binds the name ``daft`` to the transform, so fetch the modules
            monkeypatch.setattr(importlib.import_module(module), "np", counter)
        rd = rdf(echo, s, grid, cfg)
        assert rd.values.shape == (4, 16, 17)
        assert 0 < counter.evaluated <= 4 * (grid[1].size * math.isqrt(n_sub) + n_sub)


class TestBatchedMaps:
    """Stacks of echoes and symbols give stacks of maps, row for row the single calls."""

    def make_stack(self, rng, rows=3):
        s = idaft(random_unit_symbols(rng, rows * 64).reshape(rows, 64), CFG)
        delays = rng.uniform(0.0, 7.0, rows)
        dopplers = rng.uniform(-2.0, 2.0, rows)
        gains = np.exp(2j * np.pi * rng.uniform(size=rows))
        echo = noisy_echo(s, CFG, SensingTarget(gains, delays, dopplers, 1.0), rng)
        return echo, s

    @pytest.mark.parametrize("os_tau", [1, 2])
    def test_rows_match_single_calls(self, rng, os_tau):
        echo, s = self.make_stack(rng)
        grid = sensing_grid(7, 2, os_tau=os_tau)
        det = DetectionConfig()
        rd = rdf(echo, s, grid, CFG)
        floor = noise_floor(rd, det)
        assert rd.values.shape == floor.shape == (3, grid[0].size, grid[1].size)
        for i in range(3):
            one = rdf(echo[i], s[i], grid, CFG)
            assert np.max(np.abs(rd.values[i] - one.values)) <= 1e-12 * np.max(np.abs(one.values))
            one_floor = noise_floor(one, det)
            assert np.max(np.abs(floor[i] - one_floor)) <= 1e-12 * np.max(one_floor)

    @pytest.mark.parametrize("echo_shape, symbol_shape", [
        ((3, 64), (2, 64)), ((64,), (2, 64)), ((2, 64), (64,)), ((2, 1, 64), (2, 64)),
    ])
    def test_mismatched_stacks_rejected(self, rng, echo_shape, symbol_shape):
        echo = np.ones(echo_shape, dtype=complex)
        s = np.ones(symbol_shape, dtype=complex)
        with pytest.raises(ParameterError, match="share a shape"):
            rdf(echo, s, sensing_grid(3, 2), CFG)

    @pytest.mark.parametrize("ask", [
        lambda rd: rd.at(0.0, 0.0),
        lambda rd: rd.max_off_origin(),
        estimate_target,
        lambda rd: detect(rd, noise_floor(rd, DetectionConfig()), 1.0),
    ])
    def test_single_map_questions_refuse_a_stack(self, rng, ask):
        echo, s = self.make_stack(rng)
        with pytest.raises(ParameterError, match="single map"):
            ask(rdf(echo, s, sensing_grid(7, 2), CFG))


class TestSensingGrid:
    @pytest.mark.parametrize("args", [
        (-3, 2), (3, -1), (3, 2, 0), (3, 2, 1, 0), (2.5, 1), (7.0, 2), (3, True), (3, 2, 2.0)
    ])
    def test_invalid_budget_or_oversampling_rejected(self, args):
        with pytest.raises(ParameterError):
            sensing_grid(*args)

    def test_numpy_integers_accepted(self):
        got = sensing_grid(np.int64(3), np.int32(2), os_tau=np.int64(2))
        for axis, expect in zip(got, sensing_grid(3, 2, os_tau=2)):
            assert np.array_equal(axis, expect)

    def test_budgets_are_read_as_python_integers(self):
        # -nu_m * os_nu in uint8 arithmetic raised a bare OverflowError
        got = sensing_grid(3, 1, 1, np.uint8(2))
        for axis, expect in zip(got, sensing_grid(3, 1, 1, 2)):
            assert np.array_equal(axis, expect)


class TestDetectionConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"guard": (-1, 1)}, "guard half-widths must be non-negative"),
            ({"train": (0, 2)}, "train half-widths must be positive"),
            ({"train": (5, -1)}, "train half-widths must be positive"),
            ({"guard": (2.5, 1)}, "guard must be two integer half-widths"),
            ({"guard": (True, 1)}, "guard must be two integer half-widths"),
            ({"train": (5.0, 2)}, "train must be two integer half-widths"),
            ({"train": (5,)}, "train must be two integer half-widths"),
            ({"train": (5, 2, 1)}, "train must be two integer half-widths"),
        ],
    )
    def test_invalid_window_message(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            DetectionConfig(**kwargs)

    def test_zero_guard_accepted(self):
        assert DetectionConfig(guard=(0, 0), train=(1, 1)).guard == (0, 0)


def roll_noise_floor(power, det):
    """The window average as a loop of cyclic shifts over the offset set."""
    shape = power.shape

    def offsets(half):
        return {
            (dt % shape[0], dv % shape[1])
            for dt in range(-half[0], half[0] + 1)
            for dv in range(-half[1], half[1] + 1)
        }

    window = offsets(det.train) - offsets(det.guard)
    acc = np.zeros_like(power)
    for dt, dv in window:
        acc += np.roll(power, (-dt, -dv), axis=(0, 1))
    return acc / len(window)


class TestNoiseFloor:
    @pytest.mark.parametrize(
        "shape, guard, train",
        [
            ((16, 7), (2, 1), (5, 2)),
            ((16, 5), (0, 0), (1, 1)),
            ((6, 5), (1, 1), (5, 2)),
            ((3, 2), (0, 0), (5, 2)),
            ((9, 4), (4, 0), (2, 3)),
        ],
    )
    def test_matches_roll_loop(self, rng, shape, guard, train):
        # includes grids shorter than the window and guards wider than it
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rd = RangeDopplerMap(values, np.arange(float(shape[0])), np.arange(float(shape[1])))
        det = DetectionConfig(guard=guard, train=train)
        ref = roll_noise_floor(np.abs(values) ** 2, det)
        assert np.max(np.abs(noise_floor(rd, det) - ref)) <= 1e-12 * np.max(ref)

    def test_flat_map_constant(self):
        values = np.full((16, 5), 2.0, dtype=complex)
        rd = RangeDopplerMap(values, np.arange(16.0), np.arange(-2.0, 3.0))
        floor = noise_floor(rd, DetectionConfig())
        assert np.allclose(floor, 4.0)

    def test_spike_excluded_by_guard(self):
        values = np.full((16, 5), 1.0, dtype=complex)
        values[8, 2] = 100.0
        rd = RangeDopplerMap(values, np.arange(16.0), np.arange(-2.0, 3.0))
        floor = noise_floor(rd, DetectionConfig())
        assert floor[8, 2] == pytest.approx(1.0)

    def test_matches_direct_oracle(self, rng):
        # brute-force windowed mean with cyclic wrap
        values = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        rd = RangeDopplerMap(values, np.arange(16.0), np.arange(-2.0, 3.0))
        det = DetectionConfig(guard=(2, 1), train=(5, 2))
        floor = noise_floor(rd, det)
        power = np.abs(values) ** 2
        guard = {(dt % 16, dv % 5) for dt in range(-2, 3) for dv in range(-1, 2)}
        train = {
            (dt % 16, dv % 5) for dt in range(-5, 6) for dv in range(-2, 3)
        } - guard
        for i in range(16):
            for j in range(5):
                cells = [power[(i + dt) % 16, (j + dv) % 5] for dt, dv in train]
                assert floor[i, j] == pytest.approx(np.mean(cells), rel=1e-12)

    def test_fully_guarded_grid_rejected(self):
        values = np.ones((4, 3), dtype=complex)
        rd = RangeDopplerMap(values, np.arange(4.0), np.arange(3.0))
        with pytest.raises(ParameterError):
            noise_floor(rd, DetectionConfig(guard=(2, 1), train=(5, 2)))

    def test_small_grid_wraps_to_whole_axis_average(self, rng):
        # a training window wider than the axis degrades to whole-region
        # averaging minus the guard box
        values = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        rd = RangeDopplerMap(values, np.arange(6.0), np.arange(-2.0, 3.0))
        floor = noise_floor(rd, DetectionConfig(guard=(1, 1), train=(5, 2)))
        power = np.abs(values) ** 2
        guard = {(dt % 6, dv % 5) for dt in range(-1, 2) for dv in range(-1, 2)}
        train = {(dt % 6, dv % 5) for dt in range(-5, 6) for dv in range(-2, 3)} - guard
        ref = np.mean([power[(0 + dt) % 6, (0 + dv) % 5] for dt, dv in train])
        assert floor[0, 0] == pytest.approx(ref, rel=1e-12)


class TestDetect:
    def make_map_and_floor(self, rng):
        s = pilot_symbol()
        target = SensingTarget(1.0, 2.0, 1.0, 0.02)
        echo = noisy_echo(s, CFG, target, rng)
        rd = rdf(echo, s, sensing_grid(5, 2), CFG)
        return rd, noise_floor(rd, DetectionConfig())

    def test_all_zero_echo_detects_nothing_without_warning(self):
        s = pilot_symbol()
        rd = rdf(np.zeros(64), s, sensing_grid(5, 2), CFG)
        floor = noise_floor(rd, DetectionConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert detect(rd, floor, gamma=1e-12) == []

    def test_power_over_zero_floor_is_infinite(self):
        values = np.zeros((16, 5), dtype=complex)
        values[8, 2] = 3.0
        rd = RangeDopplerMap(values, np.arange(16.0), np.arange(-2.0, 3.0))
        floor = noise_floor(rd, DetectionConfig())
        assert floor[8, 2] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = detect(rd, floor, gamma=1e12)
        assert hits == [(8.0, 0.0, math.inf)]

    def test_zero_gamma_returns_all_cells(self, rng):
        rd, floor = self.make_map_and_floor(rng)
        hits = detect(rd, floor, gamma=1e-12)
        assert len(hits) == rd.values.size

    def test_infinite_gamma_returns_none(self, rng):
        rd, floor = self.make_map_and_floor(rng)
        assert detect(rd, floor, gamma=1e12) == []

    def test_nan_gamma_rejected(self, rng):
        rd, floor = self.make_map_and_floor(rng)
        with pytest.raises(ParameterError, match="NaN"):
            detect(rd, floor, gamma=math.nan)

    @pytest.mark.parametrize("shape", [(6, 4), (6,), (1, 6, 5)])
    def test_floor_of_another_shape_rejected(self, rng, shape):
        rd, _ = self.make_map_and_floor(rng)
        with pytest.raises(ParameterError, match="noise floor of shape"):
            detect(rd, np.ones(shape), gamma=1.0)

    def test_strong_target_detected_at_calibrated_threshold(self, rng):
        # calibrate gamma for ~1% false alarms on noise-only maps, then
        # check >= 99% detection at 0 dB receive SNR
        s = pilot_symbol()
        det = DetectionConfig()
        grid = sensing_grid(5, 2)
        noise_power = 1.0
        fa_stats = []
        for _ in range(400):
            w = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * math.sqrt(noise_power / 2)
            rd = rdf(w, s, grid, CFG)
            stat = np.abs(rd.values) ** 2 / noise_floor(rd, det)
            fa_stats.append(stat.max())
        gamma = float(np.quantile(fa_stats, 0.99))
        pt = 100.0
        snr = 1.0  # 0 dB
        beta = math.sqrt(snr * 64 * noise_power / pt)
        detected = 0
        n_trials = 1000
        for _ in range(n_trials):
            target = SensingTarget(beta, 3.0, 1.0, noise_power)
            echo = noisy_echo(s, CFG, target, rng)
            rd = rdf(echo, s, grid, CFG)
            hits = detect(rd, noise_floor(rd, det), gamma)
            if hits and abs(hits[0][0] - 3.0) <= 1 and abs(hits[0][1] - 1.0) <= 1:
                detected += 1
        assert detected >= 0.99 * n_trials


class TestEstimateTarget:
    def test_noiseless_integer_recovery(self):
        s = pilot_symbol()
        target = SensingTarget(1.0, 4.0, -2.0, 0.0)
        echo = sensing_echo(s, CFG, target)
        rd = rdf(echo, s, sensing_grid(5, 2), CFG)
        assert estimate_target(rd) == (4.0, -2.0)

    def test_fractional_recovery_with_oversampling(self):
        s = pilot_symbol()
        target = SensingTarget(1.0, 2.5, 0.25, 0.0)
        echo = sensing_echo(s, CFG, target)
        rd = rdf(echo, s, sensing_grid(5, 2, os_tau=8, os_nu=8), CFG)
        tau_hat, nu_hat = estimate_target(rd)
        assert abs(tau_hat - 2.5) <= 1 / 16
        assert abs(nu_hat - 0.25) <= 1 / 16

    def test_rmse_decreases_with_snr(self, rng):
        s = pilot_symbol()
        grid = sensing_grid(5, 2, os_tau=4, os_nu=4)
        rmse = []
        for snr_db in (0.0, 10.0, 20.0):
            snr = 10 ** (snr_db / 10)
            beta = math.sqrt(snr * 64 / 100.0)
            errs = []
            for _ in range(150):
                tau = rng.uniform(1.0, 4.0)
                target = SensingTarget(beta, tau, 0.0, 1.0)
                echo = noisy_echo(s, CFG, target, rng)
                tau_hat, _ = estimate_target(rdf(echo, s, grid, CFG))
                errs.append((tau_hat - tau) ** 2)
            rmse.append(math.sqrt(np.mean(errs)))
        assert rmse[0] > rmse[1] > rmse[2] or rmse[0] > rmse[2]

    def test_empty_map(self):
        rd = RangeDopplerMap(np.zeros((0, 0)), np.array([]), np.array([]))
        with pytest.raises(ParameterError):
            estimate_target(rd)


def per_trial_roc(scenario, gamma_grid, n_trials, rng):
    """``roc_curve`` one trial at a time, in the stated draw order.

    The reference for the blocked form: the data bytes of every trial, then
    every trial's delay, Doppler and phase uniforms, then each trial's noise
    in trial order, drawn by ``noisy_echo``; the bytes are read bit by bit
    through ``map_bits`` and each trial's statistics are computed alone.
    """
    cfg, spec = scenario.cfg, scenario.frame_spec
    x_p = pilot_vector(scenario.pilot, cfg, scenario.tau_m, scenario.nu_m)
    grid = sensing_grid(scenario.tau_m, scenario.nu_m)
    snr = 10.0 ** (scenario.receive_snr_db / 10.0)
    k = spec.constellation.bits_per_symbol
    # each trial's symbols fill whole 32-bit words, low bits of a byte first
    frame_bytes = 4 * -(-cfg.n_sub * k // 32)
    raw = np.frombuffer(rng.bytes(n_trials * frame_bytes), np.uint8).reshape(n_trials, frame_bytes)
    taus = rng.uniform(0.5, scenario.tau_m - 0.5, n_trials)
    nus = rng.uniform(-scenario.nu_m + 0.5, scenario.nu_m - 0.5, n_trials)
    phases = rng.uniform(size=n_trials)
    rows = []
    for trial, tau, nu, phase in zip(raw, taus, nus, phases):
        # a symbol's value is its k bits read low bit first; map_bits takes them high bit first
        bits = np.unpackbits(trial, bitorder="little").reshape(-1, k)[: cfg.n_sub, ::-1]
        x = x_p + map_bits(bits, spec)
        s = idaft(x, cfg)
        beta_mag = math.sqrt(snr * cfg.n_sub * scenario.noise_power / np.linalg.norm(x) ** 2)
        gain = beta_mag * np.exp(2j * np.pi * phase)
        echo = noisy_echo(s, cfg, SensingTarget(gain, tau, nu, scenario.noise_power), rng)
        rd_map = rdf(echo, s, grid, cfg)
        stat = _statistic(rd_map.values, noise_floor(rd_map, scenario.detection))
        i, j = np.unravel_index(np.argmax(stat), stat.shape)
        near = (np.abs(grid[0][:, None] - tau) <= 1.0) & (np.abs(grid[1][None, :] - nu) <= 1.0)
        outside = stat[~near]
        rows.append((stat[i, j], near[i, j], outside.max() if outside.size else 0.0))
    peak, hit, out_max = (np.array(column) for column in zip(*rows))
    gammas = np.asarray(gamma_grid, dtype=np.float64)[:, None]
    pfa = np.mean(out_max > gammas, axis=1)
    pd = np.mean((peak > gammas) & hit, axis=1)
    return np.column_stack([gammas[:, 0], pfa, pd])


def parity_scenario(n_sub, pilot):
    """A scenario with K*Nc even (8*64) at n_sub 64 and odd (1*63) at n_sub 63."""
    cfg = AfdmConfig(n_sub=n_sub, n_cpp=16, c1=(8 if n_sub == 64 else 1) / (2 * n_sub))
    return SensingScenario(
        cfg=cfg,
        frame_spec=FrameSpec(float(n_sub), 1.0, Constellation.QPSK),
        pilot=PilotScheme(pilot, float(n_sub)),
        tau_m=15,
        nu_m=2,
        receive_snr_db=-5.0,
    )


def roc_settings_scenario(pilot):
    """The roc benchmark's settings: N = 256, K = 8, tau_m = 15, nu_m = 3, -10 dB."""
    return SensingScenario(
        cfg=AfdmConfig(n_sub=256, n_cpp=16, c1=1 / 64),
        frame_spec=FrameSpec(256.0, 1.0, Constellation.QPSK),
        pilot=PilotScheme(pilot, 256.0),
        tau_m=15,
        nu_m=3,
        receive_snr_db=-10.0,
    )


def recording_blocks(monkeypatch):
    """Records the (pilot, trials) of every ``_detection_block`` call."""
    calls = []
    block = sensing._detection_block

    def recording_block(scenario, x_p, grid, packed, raw, *draws):
        calls.append((x_p, raw.shape[0]))
        return block(scenario, x_p, grid, packed, raw, *draws)

    monkeypatch.setattr(sensing, "_detection_block", recording_block)
    return calls


class CountingGenerator(np.random.Generator):
    """A numpy ``Generator`` that counts the calls of its public methods made from
    outside it (``bytes`` calls ``integers`` itself, which is not counted)."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = collections.Counter()
        self.depth = 0

    def __getattribute__(self, name):
        method = super().__getattribute__(name)
        if name.startswith("_") or name in ("calls", "depth", "bit_generator") or not callable(method):
            return method

        def counted(*args, **kwargs):
            self.calls[name] += self.depth == 0
            self.depth += 1
            try:
                return method(*args, **kwargs)
            finally:
                self.depth -= 1

        return counted


class TestRoc:
    def make_scenario(self, snr_db):
        return SensingScenario(
            cfg=CFG,
            frame_spec=FrameSpec(100.0, 1.0, Constellation.QPSK),
            pilot=PilotScheme("proposed", 100.0),
            tau_m=7,
            nu_m=2,
            receive_snr_db=snr_db,
            noise_power=1.0,
        )

    def test_gamma_limits(self, rng):
        curve = roc_curve(self.make_scenario(5.0), [1e-6, 1e9], 150, rng)
        assert curve[0, 1] == pytest.approx(1.0)  # tiny gamma fires everywhere
        assert curve[1, 2] == pytest.approx(0.0)  # huge gamma detects nothing

    def test_monotone_in_gamma(self, rng):
        gammas = np.logspace(-1, 3, 12)
        curve = roc_curve(self.make_scenario(0.0), gammas, 200, rng)
        assert np.all(np.diff(curve[:, 1]) <= 1e-12)
        assert np.all(np.diff(curve[:, 2]) <= 1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_sub, pilot", [(64, "proposed"), (63, "single")])
    @pytest.mark.parametrize("budget", [None, 5 << 16, 1])
    def test_blocks_match_per_trial_oracle(self, monkeypatch, seed, n_sub, pilot, budget):
        # K*Nc is 8*64 (even) and 1*63 (odd).  The default budget runs the 150
        # trials in one block; 5 << 16 bytes hold 64 and 65 trials of the
        # (trials, 5 Dopplers, Nc) stack, so 150 trials end on a partial block;
        # budget 1 makes blocks of one trial.  Curves and the generator's final
        # state agree.
        if budget is not None:
            monkeypatch.setattr("afdm_isac.sensing._BLOCK_BYTES", budget)
        scenario = parity_scenario(n_sub, pilot)
        gammas = np.logspace(0.0, 3.0, 25)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        curve = roc_curve(scenario, gammas, 150, rng)
        assert np.array_equal(curve, per_trial_roc(scenario, gammas, 150, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("budget", [None, 1])
    def test_roc_settings_match_per_trial_oracle(self, monkeypatch, budget):
        # N = 256: blocks of 36, 36 and 28 trials, or of one trial each
        if budget is not None:
            monkeypatch.setattr("afdm_isac.sensing._BLOCK_BYTES", budget)
        scenario = roc_settings_scenario("proposed")
        gammas = np.logspace(0.0, 3.0, 25)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        curve = roc_curve(scenario, gammas, 100, rng)
        assert np.array_equal(curve, per_trial_roc(scenario, gammas, 100, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_draws_are_made_per_call_and_per_block(self):
        # 100 trials in blocks of 36, 36 and 28: one byte draw for every trial's
        # symbols, the target uniforms as arrays, one noise fill per block
        rng = CountingGenerator(1)
        roc_curve(roc_settings_scenario("proposed"), [1.0, 10.0], 100, rng)
        assert rng.calls["bytes"] == 1
        assert rng.calls["uniform"] <= 3
        assert rng.calls["standard_normal"] == 3
        assert rng.calls["integers"] == 0

    def test_block_holds_the_ramped_echo_stack(self, monkeypatch):
        # the roc benchmark's settings: 7 Dopplers x 256 subcarriers of complex
        # numbers, 28 KiB a trial, so the 1 MiB budget runs 100 trials in blocks
        # of 36; the 16 delays are a window view and set no size
        calls = recording_blocks(monkeypatch)
        roc_curve(roc_settings_scenario("proposed"), [1.0, 10.0], 100, np.random.default_rng(1))
        assert [size for _, size in calls] == [36, 36, 28]

    def test_traditional_comb_takes_the_scenario_footprint(self, monkeypatch):
        # the comb is the scenario's footprint's, K*tau_m + 2*nu_m + 1 = 8*15 + 7
        # = 127: two pilots at spacing 127 fit in 256 subcarriers, where a (0, 0)
        # footprint would put one on every subcarrier
        calls = recording_blocks(monkeypatch)
        roc_curve(roc_settings_scenario("traditional_spi"), [1.0, 10.0], 100, np.random.default_rng(1))
        assert len(calls) == 3
        for x_p, _ in calls:
            assert np.array_equal(np.flatnonzero(x_p), [0, 127])
            assert np.linalg.norm(x_p) ** 2 == pytest.approx(256.0, rel=1e-12)

    def test_noiseless_scenario_draws_no_noise(self):
        scenario = dataclasses.replace(self.make_scenario(0.0), noise_power=0.0)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        curve = roc_curve(scenario, [0.5, 2.0], 100, rng)
        assert np.array_equal(curve, per_trial_roc(scenario, [0.5, 2.0], 100, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_trial_floor(self, rng):
        with pytest.raises(ParameterError):
            roc_curve(self.make_scenario(0.0), [1.0], 10, rng)

    @pytest.mark.parametrize("n_trials, gammas", [
        (100.5, [1.0]), (100.0, [1.0]), (True, [1.0]), (99, [1.0]),
        (150, [math.nan]), (150, [1.0, math.inf]), (150, [[1.0]]), (150, []), (150, 1.0),
    ])
    def test_bad_inputs_rejected_before_any_draw(self, n_trials, gammas):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="n_trials|gamma_grid"):
            roc_curve(self.make_scenario(0.0), gammas, n_trials, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("change, message", [
        ({"tau_m": 0}, "tau_m must be an integer >= 1"),
        ({"nu_m": 0}, "nu_m must be an integer >= 1"),
        ({"tau_m": 2.5}, "tau_m must be an integer"),
        ({"tau_m": 7.0}, "tau_m must be an integer"),
        ({"nu_m": True}, "nu_m must be an integer"),
        ({"tau_m": 17}, "exceeds the prefix budget"),
        ({"receive_snr_db": math.nan}, "receive_snr_db must be finite"),
        ({"receive_snr_db": -math.inf}, "receive_snr_db must be finite"),
        ({"noise_power": -1.0}, "noise_power must be finite and non-negative"),
        ({"noise_power": math.nan}, "noise_power must be finite and non-negative"),
        ({"noise_power": math.inf}, "noise_power must be finite and non-negative"),
    ])
    def test_scenario_checked_at_construction(self, change, message):
        with pytest.raises(ParameterError, match=message):
            dataclasses.replace(self.make_scenario(0.0), **change)

    def test_scenario_edges_accepted(self):
        scenario = dataclasses.replace(
            self.make_scenario(0.0), tau_m=np.int64(16), nu_m=1, noise_power=0.0
        )
        assert scenario.tau_m == CFG.n_cpp

    def test_pd_at_pfa_interpolation(self):
        curve = np.array([[10.0, 0.01, 0.5], [3.0, 0.1, 0.8], [1.0, 1.0, 1.0]])
        out = pd_at_pfa(curve, [0.01, 0.1, 1.0])
        assert out == pytest.approx([0.5, 0.8, 1.0])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 2), (3,), (2, 3, 1)])
    def test_pd_at_pfa_rejects_a_non_curve(self, shape):
        with pytest.raises(ParameterError, match="rows"):
            pd_at_pfa(np.zeros(shape), [0.1])


class TestRocQuality:
    def test_seed_1_quality_lines_are_pinned(self):
        # the benchmark's roc trials, seed 1: its quality lines at their printed precision
        session = roc(RocParams(), 1)
        quality = session.quality([session.call() for _ in range(session.quality_calls)])
        assert {name: f"{value:.6g}" for name, value in quality.items()} == {
            "pd_at_pfa_0.01": "0.481111",
            "argmax_hit_ratio": "0.972",
        }
