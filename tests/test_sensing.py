import math
import warnings

import numpy as np
import pytest

from afdm_isac import AfdmConfig, idaft
from afdm_isac.analysis import ambiguity_function, ambiguity_region
from afdm_isac.channel import SensingTarget, sensing_echo
from afdm_isac.errors import ParameterError
from afdm_isac.modem import Constellation, FrameSpec
from afdm_isac.pilots import PilotScheme, proposed_pilot
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
    transmit_record,
)

from conftest import random_unit_symbols


CFG = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)


def pilot_record(pilot_power=100.0, r=0):
    return transmit_record(proposed_pilot(CFG, pilot_power, r=r), CFG)


class TestRdf:
    def test_zero_target_peak_is_total_power(self, rng):
        x = random_unit_symbols(rng, 64) * 1.3
        record = transmit_record(x, CFG)
        pt = np.linalg.norm(x) ** 2
        rd = rdf(record.s, record, sensing_grid(3, 2), CFG)
        assert abs(rd.values[0, rd.nu_axis.size // 2]) == pytest.approx(pt, rel=1e-10)

    def test_pilot_only_single_cell(self):
        # clean comb pilot: the only grid response is at the true target cell
        record = pilot_record()
        target = SensingTarget(1.0, 3.0, 1.0, 0.0)
        echo = sensing_echo(record.s_cpp, CFG, target)
        rd = rdf(echo, record, sensing_grid(3, 2), CFG)
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
        record = transmit_record(x, CFG)
        beta = 0.8 * np.exp(0.4j)
        target = SensingTarget(beta, 2.0, -1.0, 0.0)
        echo = sensing_echo(record.s_cpp, CFG, target)
        rd = rdf(echo, record, sensing_grid(3, 2), CFG)
        surf = ambiguity_function(record.s, ambiguity_region(5, 2), CFG)
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
        from afdm_isac.modem import random_data_vector

        for _ in range(n_trials):
            _, x_d = random_data_vector(64, spec, rng)
            record = transmit_record(x_p + x_d, CFG)
            w = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * math.sqrt(sigma_s2 / 2)
            rd = rdf(w, record, (np.array([2.0]), np.array([1.0])), CFG)
            acc.append(abs(rd.values[0, 0]) ** 2)
        pt = spec.total_power(64)
        se = np.std(acc) / math.sqrt(n_trials)
        assert abs(np.mean(acc) - pt * sigma_s2) < 3 * se

    def test_statistic_phase_invariance(self, rng):
        record = pilot_record()
        target = SensingTarget(1.0, 2.0, 0.0, 0.05)
        echo = sensing_echo(record.s_cpp, CFG, target, rng)
        grid = sensing_grid(3, 2)
        det = DetectionConfig(gamma=1.0)
        rd1 = rdf(echo, record, grid, CFG)
        rd2 = rdf(echo * np.exp(1.23j), record, grid, CFG)
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
            record = transmit_record(x_p + x_d, CFG)
            echo = sensing_echo(record.s_cpp, CFG, SensingTarget(1.0, 0.0, 0.0, 0.0))
            rd = rdf(echo, record, (np.array([2.0]), np.array([1.0])), CFG)
            vals[i] = rd.values[0, 0]
        _, var_cf = af_statistics_closed_form(spec, CFG, at_origin=False)
        var_mc = np.mean(np.abs(vals - vals.mean()) ** 2)
        m4 = np.mean(np.abs(vals - vals.mean()) ** 4)
        se = math.sqrt(max(m4 - var_mc**2, 0.0) / n_frames)
        assert abs(var_mc - var_cf) < 3 * se

    def test_fractional_reference_continuity(self, rng):
        x = random_unit_symbols(rng, 64)
        record = transmit_record(x, CFG)
        echo = sensing_echo(record.s_cpp, CFG, SensingTarget(1.0, 2.0, 0.0, 0.0))
        grid_c = (np.array([2.0]), np.array([0.0]))
        grid_f = (np.array([2.0 + 1e-9]), np.array([0.0]))
        v_int = rdf(echo, record, grid_c, CFG).values[0, 0]
        v_frac = rdf(echo, record, grid_f, CFG).values[0, 0]
        assert abs(v_int - v_frac) < 1e-5 * abs(v_int)

    def test_fractional_grid_matches_single_delays(self, rng):
        # the batched reference equals one map per delay
        record = transmit_record(random_unit_symbols(rng, 64), CFG)
        echo = sensing_echo(record.s_cpp, CFG, SensingTarget(1.0, 2.3, 0.4, 0.0))
        taus, nus = np.array([0.25, 1.0, 2.3, 3.75]), np.array([0.0, 0.4])
        rd = rdf(echo, record, (taus, nus), CFG)
        for i in range(taus.size):
            one = rdf(echo, record, (taus[i : i + 1], nus), CFG).values[0]
            assert np.allclose(rd.values[i], one, rtol=0, atol=1e-12 * np.abs(one).max())

    @pytest.mark.parametrize("tau", [-1.0, 17.0])
    def test_lag_outside_record_rejected(self, rng, tau):
        record = transmit_record(random_unit_symbols(rng, 64), CFG)
        with pytest.raises(ParameterError):
            rdf(record.s, record, (np.array([tau]), np.array([0.0])), CFG)


class TestDetectionConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"guard": (-1, 1)}, "guard half-widths must be non-negative"),
            ({"train": (0, 2)}, "train half-widths must be positive"),
            ({"train": (5, -1)}, "train half-widths must be positive"),
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
        det = DetectionConfig(gamma=1.0, guard=guard, train=train)
        ref = roll_noise_floor(np.abs(values) ** 2, det)
        assert np.max(np.abs(noise_floor(rd, det) - ref)) <= 1e-12 * np.max(ref)

    def test_flat_map_constant(self):
        values = np.full((16, 5), 2.0, dtype=complex)
        rd = RangeDopplerMap(values, np.arange(16.0), np.arange(-2.0, 3.0))
        floor = noise_floor(rd, DetectionConfig(gamma=1.0))
        assert np.allclose(floor, 4.0)

    def test_spike_excluded_by_guard(self):
        values = np.full((16, 5), 1.0, dtype=complex)
        values[8, 2] = 100.0
        rd = RangeDopplerMap(values, np.arange(16.0), np.arange(-2.0, 3.0))
        floor = noise_floor(rd, DetectionConfig(gamma=1.0))
        assert floor[8, 2] == pytest.approx(1.0)

    def test_matches_direct_oracle(self, rng):
        # brute-force windowed mean with cyclic wrap
        values = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        rd = RangeDopplerMap(values, np.arange(16.0), np.arange(-2.0, 3.0))
        det = DetectionConfig(gamma=1.0, guard=(2, 1), train=(5, 2))
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
            noise_floor(rd, DetectionConfig(gamma=1.0, guard=(2, 1), train=(5, 2)))

    def test_small_grid_wraps_to_whole_axis_average(self, rng):
        # a training window wider than the axis degrades to whole-region
        # averaging minus the guard box
        values = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        rd = RangeDopplerMap(values, np.arange(6.0), np.arange(-2.0, 3.0))
        floor = noise_floor(rd, DetectionConfig(gamma=1.0, guard=(1, 1), train=(5, 2)))
        power = np.abs(values) ** 2
        guard = {(dt % 6, dv % 5) for dt in range(-1, 2) for dv in range(-1, 2)}
        train = {(dt % 6, dv % 5) for dt in range(-5, 6) for dv in range(-2, 3)} - guard
        ref = np.mean([power[(0 + dt) % 6, (0 + dv) % 5] for dt, dv in train])
        assert floor[0, 0] == pytest.approx(ref, rel=1e-12)


class TestDetect:
    def make_map_and_floor(self, rng):
        record = pilot_record()
        target = SensingTarget(1.0, 2.0, 1.0, 0.02)
        echo = sensing_echo(record.s_cpp, CFG, target, rng)
        rd = rdf(echo, record, sensing_grid(5, 2), CFG)
        return rd, noise_floor(rd, DetectionConfig(gamma=1.0))

    def test_all_zero_echo_detects_nothing_without_warning(self):
        record = pilot_record()
        rd = rdf(np.zeros(64), record, sensing_grid(5, 2), CFG)
        floor = noise_floor(rd, DetectionConfig(gamma=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert detect(rd, floor, gamma=1e-12) == []

    def test_power_over_zero_floor_is_infinite(self):
        values = np.zeros((16, 5), dtype=complex)
        values[8, 2] = 3.0
        rd = RangeDopplerMap(values, np.arange(16.0), np.arange(-2.0, 3.0))
        floor = noise_floor(rd, DetectionConfig(gamma=1.0))
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

    def test_strong_target_detected_at_calibrated_threshold(self, rng):
        # calibrate gamma for ~1% false alarms on noise-only maps, then
        # check >= 99% detection at 0 dB receive SNR
        record = pilot_record()
        det = DetectionConfig(gamma=1.0)
        grid = sensing_grid(5, 2)
        noise_power = 1.0
        fa_stats = []
        for _ in range(400):
            w = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * math.sqrt(noise_power / 2)
            rd = rdf(w, record, grid, CFG)
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
            echo = sensing_echo(record.s_cpp, CFG, target, rng)
            rd = rdf(echo, record, grid, CFG)
            hits = detect(rd, noise_floor(rd, det), gamma)
            if hits and abs(hits[0][0] - 3.0) <= 1 and abs(hits[0][1] - 1.0) <= 1:
                detected += 1
        assert detected >= 0.99 * n_trials


class TestEstimateTarget:
    def test_noiseless_integer_recovery(self):
        record = pilot_record()
        target = SensingTarget(1.0, 4.0, -2.0, 0.0)
        echo = sensing_echo(record.s_cpp, CFG, target)
        rd = rdf(echo, record, sensing_grid(5, 2), CFG)
        assert estimate_target(rd) == (4.0, -2.0)

    def test_fractional_recovery_with_oversampling(self):
        record = pilot_record()
        target = SensingTarget(1.0, 2.5, 0.25, 0.0)
        echo = sensing_echo(record.s_cpp, CFG, target)
        rd = rdf(echo, record, sensing_grid(5, 2, os_tau=8, os_nu=8), CFG)
        tau_hat, nu_hat = estimate_target(rd)
        assert abs(tau_hat - 2.5) <= 1 / 16
        assert abs(nu_hat - 0.25) <= 1 / 16

    def test_rmse_decreases_with_snr(self, rng):
        record = pilot_record()
        grid = sensing_grid(5, 2, os_tau=4, os_nu=4)
        rmse = []
        for snr_db in (0.0, 10.0, 20.0):
            snr = 10 ** (snr_db / 10)
            beta = math.sqrt(snr * 64 / 100.0)
            errs = []
            for _ in range(150):
                tau = rng.uniform(1.0, 4.0)
                target = SensingTarget(beta, tau, 0.0, 1.0)
                echo = sensing_echo(record.s_cpp, CFG, target, rng)
                tau_hat, _ = estimate_target(rdf(echo, record, grid, CFG))
                errs.append((tau_hat - tau) ** 2)
            rmse.append(math.sqrt(np.mean(errs)))
        assert rmse[0] > rmse[1] > rmse[2] or rmse[0] > rmse[2]

    def test_empty_map(self):
        rd = RangeDopplerMap(np.zeros((0, 0)), np.array([]), np.array([]))
        with pytest.raises(ParameterError):
            estimate_target(rd)


class TestRoc:
    def make_scenario(self, snr_db):
        return SensingScenario(
            cfg=CFG,
            frame_spec=FrameSpec(100.0, 1.0, Constellation.QPSK),
            pilot=PilotScheme("proposed", 100.0, r=0),
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

    def test_trial_floor(self, rng):
        with pytest.raises(ParameterError):
            roc_curve(self.make_scenario(0.0), [1.0], 10, rng)

    def test_pd_at_pfa_interpolation(self):
        curve = np.array([[10.0, 0.01, 0.5], [3.0, 0.1, 0.8], [1.0, 1.0, 1.0]])
        out = pd_at_pfa(curve, [0.01, 0.1, 1.0])
        assert out == pytest.approx([0.5, 0.8, 1.0])
