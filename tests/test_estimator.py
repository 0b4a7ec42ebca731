import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from afdm_isac import AfdmConfig, add_cpp, channel, daft, estimator, idaft, remove_cpp, sensing
from afdm_isac.channel import (
    PathChannel,
    apply_channel_time,
    basis_grid,
    sample_channel,
)
from afdm_isac.errors import ConfigurationError, NumericalError, ParameterError
from afdm_isac.estimator import PriorModel, build_psi, equalize_demod, iterative_estimate
from afdm_isac.modem import (
    Constellation,
    FrameSpec,
    random_data_vector,
)
from afdm_isac.pilots import (
    proposed_delay_limit,
    proposed_pilot,
    select_c1_q,
    single_pilot,
    traditional_spacing,
    traditional_spi_pilot,
)

import dense_oracle
from conftest import random_unit_symbols
from dense_oracle import basis_matrix, channel_matrix, kept_channel, mmse_estimate

# the benchmark's workloads, read as they are: the repository root holds ``perfbench``
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import LinkParams, link  # noqa: E402


CFG = AfdmConfig(n_sub=16, n_cpp=4, c1=1 / 8)
GRID = basis_grid(tau_m=2, nu_m=1)  # 9 basis paths


def transmit(x_p, x_d, cfg):
    return add_cpp(idaft(x_p + x_d, cfg), cfg)


def receive(s_cpp, real, cfg, rng):
    return daft(remove_cpp(apply_channel_time(s_cpp, real, cfg, rng), cfg), cfg)


def true_channel(real, cfg):
    """The realization's paths as a PathChannel (perfect CSI)."""
    return PathChannel(
        cfg,
        [p.delay for p in real.paths],
        [p.doppler for p in real.paths],
        [p.gain for p in real.paths],
    )


class TestBuildPsi:
    def test_identity_column(self):
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        psi = build_psi(x, GRID, CFG)
        i = GRID.index_of(0, 0)
        assert np.linalg.norm(psi[:, i] - x) < 1e-12

    def test_column_norms_equal_input_norm(self, rng):
        x = random_unit_symbols(rng, 16) * 1.7
        psi = build_psi(x, GRID, CFG)
        norms = np.linalg.norm(psi, axis=0)
        assert np.allclose(norms, np.linalg.norm(x), atol=1e-10)

    def test_proposed_pilot_columns_orthogonal(self):
        cfg = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)
        x_p = proposed_pilot(cfg, pilot_power=100.0, r=0)
        grid = basis_grid(tau_m=7, nu_m=2)
        psi = build_psi(x_p, grid, cfg)
        gram = psi.conj().T @ psi
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-10 * 100.0
        assert np.allclose(np.diag(gram).real, 100.0, atol=1e-9)


def interference(gain_variances, data_symbol_power, noise_power):
    """The estimator's white interference level of a ``PriorModel``'s checked variances."""
    return estimator._interference(PriorModel(gain_variances).gain_variances, data_symbol_power, noise_power)


class TestEffectiveNoise:
    """The white interference level sigma_d^2 * sum(g) + N0 of the first iteration."""

    def test_no_data(self):
        assert interference(np.ones(5) / 5, 0.0, 0.7) == pytest.approx(0.7)

    def test_unit_case(self):
        assert interference(np.ones(4) / 4, 1.0, 1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("noise_power", [0.0, 0.7, 1.0])
    def test_flat_prior_without_data_is_the_noise_power(self, noise_power):
        # was NaN (inf * 0) when the data power is 0
        assert interference([math.inf, 1.0], 0.0, noise_power) == noise_power
        assert interference(np.full(3, math.inf), 0.0, noise_power) == noise_power

    def test_flat_prior_with_data_raises(self, rng):
        # was inf, refused later as an infinite noise variance
        x_p = random_unit_symbols(rng, 16) * 4.0
        y, spec, _ = link_frame(rng, CFG, GRID, x_p)
        flat = PriorModel(np.full(len(GRID), math.inf))
        with pytest.raises(ParameterError, match="flat prior"):
            iterative_estimate(y, x_p, spec, GRID, CFG, 1.0, prior=flat)

    def test_monte_carlo_covariance(self, rng):
        # sample covariance of the data-interference-plus-noise term
        n_draws = 40_000
        gain_var = np.full(len(GRID), 1.0 / len(GRID))
        stack = np.stack(
            [np.asarray(PathChannel(CFG, [tau], [nu], [1.0])) for tau, nu in GRID.pairs]
        )
        pts = Constellation.QPSK.points
        x_d = pts[rng.integers(0, 4, size=(n_draws, 16))]
        alpha = (
            rng.standard_normal((n_draws, len(GRID)))
            + 1j * rng.standard_normal((n_draws, len(GRID)))
        ) * np.sqrt(gain_var / 2)
        shifted = np.einsum("ijk,nk->nij", stack, x_d)
        w = (rng.standard_normal((n_draws, 16)) + 1j * rng.standard_normal((n_draws, 16))) * math.sqrt(0.5)
        samples = np.einsum("ni,nij->nj", alpha, shifted) + w
        emp = samples.conj().T @ samples / n_draws
        model = interference(gain_var, 1.0, 1.0) * np.eye(16)
        rel = np.linalg.norm(emp - model, 2) / np.linalg.norm(model, 2)
        assert rel < 0.05


class TestMmse:
    """The posterior kernel, fed from a dense Psi by ``dense_oracle.mmse_estimate``."""

    def test_zero_observation(self):
        psi = np.eye(4, dtype=complex)
        prior = PriorModel(np.ones(4))
        est, _ = mmse_estimate(np.zeros(4), psi, prior, 1.0)
        assert np.all(est == 0)

    def test_noiseless_ls_limit(self, rng):
        # orthogonal columns, no noise, flat prior: exact recovery
        cfg = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)
        x_p = proposed_pilot(cfg, pilot_power=100.0, r=0)
        grid = basis_grid(tau_m=3, nu_m=2)
        psi = build_psi(x_p, grid, cfg)
        alpha = (rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))) / 4
        y = psi @ alpha
        est, _ = mmse_estimate(y, psi, PriorModel(np.full(len(grid), np.inf)), 0.0)
        assert np.linalg.norm(est - alpha) < 1e-8

    def test_matches_dense_oracle(self, rng):
        # direct dense evaluation of the regularized estimate
        x_p = random_unit_symbols(rng, 16) * 2.0
        psi = build_psi(x_p, GRID, CFG)
        alpha = (rng.standard_normal(9) + 1j * rng.standard_normal(9)) / 3
        y = psi @ alpha + 0.1 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        c = 0.3
        g_var = np.full(9, 1 / 9)
        prior = PriorModel(g_var)
        est, post = mmse_estimate(y, psi, prior, c)
        c_w = c * np.eye(16)
        c_a = np.diag(g_var).astype(complex)
        cov = np.linalg.inv(psi.conj().T @ np.linalg.inv(c_w) @ psi + np.linalg.inv(c_a))
        oracle = cov @ psi.conj().T @ np.linalg.inv(c_w) @ y
        assert np.linalg.norm(est - oracle) < 1e-10
        assert np.max(np.abs(post - np.diag(cov).real)) < 1e-12

    def test_singular_flat_prior_raises(self):
        # two identical columns and no regularization: the normal matrix is
        # singular, with noise and in the noiseless limit alike
        for c in (1.0, 0.0):
            with pytest.raises(NumericalError):
                mmse_estimate(np.ones(4), np.ones((4, 2)), PriorModel(np.full(2, np.inf)), c)


class TestZeroVariancePrior:
    """A zero prior variance pins its gain to 0 (it used to drop the regularization)."""

    def problem(self, rng):
        x_p = random_unit_symbols(rng, 16) * 2.0
        psi = build_psi(x_p, GRID, CFG)
        alpha = np.zeros(9, dtype=complex)
        alpha[[1, 4, 7]] = [0.8, -0.5j, 0.3 + 0.3j]
        y = psi @ alpha + 0.3 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        g_var = np.full(9, 1 / 3)
        g_var[0] = 0.0
        return psi, y, g_var

    @pytest.mark.parametrize("c", [0.2, 0.0])
    def test_pinned_coefficient_is_exactly_zero(self, rng, c):
        # before the fix this coefficient came out at |alpha| ~ 0.05
        psi, y, g_var = self.problem(rng)
        est, _ = mmse_estimate(y, psi, PriorModel(g_var), c)
        assert est[0] == 0
        free, _ = mmse_estimate(y, psi[:, 1:], PriorModel(g_var[1:]), c)
        assert np.linalg.norm(est[1:] - free) < 1e-12

    def test_pinned_posterior_variance_is_zero(self, rng):
        psi, y, g_var = self.problem(rng)
        _, post = mmse_estimate(y, psi, PriorModel(g_var), 0.2)
        assert post[0] == 0
        _, free = mmse_estimate(y, psi[:, 1:], PriorModel(g_var[1:]), 0.2)
        assert np.allclose(post[1:], free)

    def test_all_pinned(self, rng):
        psi, y, _ = self.problem(rng)
        est, post = mmse_estimate(y, psi, PriorModel(np.zeros(9)), 0.2)
        assert np.all(est == 0)
        assert np.all(post == 0)


class TestThreshold:
    """The support test of ``iterative_estimate``: 3 posterior standard deviations."""

    def test_gains_far_above_three_sigma_are_all_kept(self, rng):
        # a pilot-only frame of unit gains on every free pair and a small noise keeps each
        # of them; a gain pinned by a zero prior variance is 0 and dropped
        x_p = random_unit_symbols(rng, 16) * 4.0
        g = np.full(len(GRID), 1.0 / len(GRID))
        g[[0, 4]] = 0.0
        alpha = np.exp(2j * np.pi * rng.uniform(size=len(GRID))) * (g > 0)
        y = build_psi(x_p, GRID, CFG) @ alpha + 1e-3 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        res = iterative_estimate(y, x_p, FrameSpec(16.0, 0.0), GRID, CFG, 1e-6, prior=PriorModel(g))
        assert np.array_equal(res.indicator, (g > 0).astype(np.int8))
        assert np.all(res.alpha_hat[g > 0] != 0) and np.all(res.alpha_hat[g == 0] == 0)

    def test_all_zero_observation_keeps_no_path(self, rng):
        # every estimate is 0, within 3 posterior standard deviations: an empty channel
        x_p = random_unit_symbols(rng, 16) * 4.0
        _, spec, _ = link_frame(rng, CFG, GRID, x_p)
        res = iterative_estimate(np.zeros(16), x_p, spec, GRID, CFG, 1.0)
        assert np.all(res.indicator == 0) and np.all(res.alpha_hat == 0)
        assert res.h_eff_hat.gains.size == 0

    def test_calibrated_threshold_keeps_strong_paths(self, rng):
        # fixed-magnitude random-phase gains at 20 dB pilot SNR survive the
        # 3-sigma posterior threshold in at least 99% of pilot-only frames
        cfg = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)
        grid = basis_grid(tau_m=3, nu_m=2)
        x_p = proposed_pilot(cfg, pilot_power=100.0, r=0)
        spec = FrameSpec(100.0, 0.0, Constellation.QPSK)
        psi = build_psi(x_p, grid, cfg)
        noise = 1.0  # pilot SNR = 20 dB
        prior = PriorModel(np.full(len(grid), 1.0))
        l_true = 3
        kept_all = 0
        n_trials = 1000
        for _ in range(n_trials):
            idx = rng.choice(len(grid), l_true, replace=False)
            alpha = np.zeros(len(grid), dtype=complex)
            alpha[idx] = np.exp(2j * np.pi * rng.uniform(size=l_true)) / math.sqrt(l_true)
            w = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * math.sqrt(noise / 2)
            res = iterative_estimate(psi @ alpha + w, x_p, spec, grid, cfg, noise, n_iter=1, prior=prior)
            kept_all += int(np.all(res.indicator[idx] == 1))
        assert kept_all >= 0.99 * n_trials


class TestReconstruct:
    """The structured channel of kept grid pairs, by the checked ``PathChannel`` constructor."""

    def test_zero_indicator(self):
        h = kept_channel(np.ones(9), np.zeros(9), GRID, CFG)
        assert np.all(np.asarray(h) == 0)

    def test_exact_on_true_support(self, rng):
        real = sample_channel(L=3, tau_m=2, nu_m=1, rng=rng)
        h_true = channel_matrix(real, CFG)
        alpha = np.zeros(9, dtype=complex)
        for p in real.paths:
            alpha[GRID.index_of(p.delay, int(p.doppler))] = p.gain
        h_rec = kept_channel(alpha, np.ones(9), GRID, CFG)
        assert np.linalg.norm(np.asarray(h_rec) - h_true) < 1e-10

    def test_matches_dense_oracle(self, rng):
        alpha = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        b = rng.integers(0, 2, 9)
        h = np.asarray(kept_channel(alpha, b, GRID, CFG))
        oracle = sum(
            alpha[i] * b[i] * basis_matrix(CFG, tau, float(nu))
            for i, (tau, nu) in enumerate(GRID.pairs)
        )
        assert np.linalg.norm(h - oracle) < 1e-10


class TestEqualize:
    def test_identity_channel_no_noise(self, rng):
        spec = FrameSpec(0.0, 1.0, Constellation.QPSK)
        bits, x_d = random_data_vector(16, spec, rng)
        identity = PathChannel(CFG, [0], [0], [1.0])
        sym, out_bits = equalize_demod(x_d, identity, np.zeros(16), spec, 0.0)
        assert np.linalg.norm(sym - x_d) < 1e-10
        assert np.array_equal(out_bits, bits)

    def test_ber_vanishes_with_perfect_csi(self, rng):
        spec = FrameSpec(0.0, 1.0, Constellation.QPSK)
        noise = 1e-4
        errors = 0
        total = 0
        for _ in range(200):
            real = sample_channel(L=3, tau_m=2, nu_m=1, rng=rng, noise_power=noise)
            h = true_channel(real, CFG)
            bits, x_d = random_data_vector(16, spec, rng)
            s_cpp = transmit(np.zeros(16), x_d, CFG)
            y = receive(s_cpp, real, CFG, rng)
            _, out_bits = equalize_demod(y, h, np.zeros(16), spec, noise)
            errors += np.sum(out_bits != bits)
            total += bits.size
        assert errors / total < 1e-3


# (n_sub, 2*c1*n_sub): even and odd lengths up to 256
EQ_CONFIGS = [(16, 4), (63, 5), (64, 8), (255, 13), (256, 32)]


class TestEqualizeOracle:
    """equalize_demod against the dense DAFT-domain normal equations."""

    @pytest.mark.parametrize("n_sub, two_c1_n", EQ_CONFIGS)
    @pytest.mark.parametrize("keep", [0, 3, 9])
    def test_regularized_matches_dense(self, rng, n_sub, two_c1_n, keep):
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        spec = FrameSpec(float(n_sub), 1.0, Constellation.QPSK)
        alpha = (rng.standard_normal(9) + 1j * rng.standard_normal(9)) / 3
        indicator = np.zeros(9, dtype=np.int8)
        indicator[rng.choice(9, size=keep, replace=False)] = 1
        h = kept_channel(alpha, indicator, GRID, cfg)
        x_p = proposed_pilot(cfg, spec.pilot_power) if n_sub % 2 == 0 else random_unit_symbols(rng, n_sub)
        y = random_unit_symbols(rng, n_sub) * 1.5
        noise = 0.3
        sym, bits = equalize_demod(y, h, x_p, spec, noise)
        expect = dense_oracle.equalize(y, h, x_p, noise / spec.data_symbol_power)
        assert np.max(np.abs(sym - expect)) < 1e-10
        assert np.array_equal(bits, dense_oracle.demap_by_distance(expect, spec))

    @pytest.mark.parametrize("n_sub, two_c1_n", EQ_CONFIGS)
    def test_zero_forcing_on_invertible_channel(self, rng, n_sub, two_c1_n):
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        spec = FrameSpec(0.0, 1.0, Constellation.QPSK)
        # a dominant path keeps the channel well conditioned
        h = PathChannel(cfg, [0, 2, 1], [1, -1, 0], [1.0, 0.3j, -0.2])
        bits, x_d = random_data_vector(n_sub, spec, rng)
        y = h @ x_d
        sym, out_bits = equalize_demod(y, h, np.zeros(n_sub), spec, 0.0)
        expect = dense_oracle.equalize(y, h, np.zeros(n_sub), 0.0)
        assert np.max(np.abs(sym - expect)) < 1e-10
        assert np.max(np.abs(sym - x_d)) < 1e-10
        assert np.array_equal(out_bits, bits)

    def test_singular_zero_forcing_raises(self):
        spec = FrameSpec(0.0, 1.0, Constellation.QPSK)
        empty = kept_channel(np.ones(9), np.zeros(9), GRID, CFG)
        with pytest.raises(NumericalError):
            equalize_demod(np.ones(16), empty, np.zeros(16), spec, 0.0)

    def test_dense_matrix_rejected(self):
        spec = FrameSpec(0.0, 1.0, Constellation.QPSK)
        with pytest.raises(ParameterError):
            equalize_demod(np.ones(16), np.eye(16), np.zeros(16), spec, 0.1)


class TestIterative:
    def test_pilot_only_frame_under_a_flat_prior(self, rng):
        # was refused with "noise variance must be finite": with no data the
        # flat prior leaves least squares over the pilot's images
        x_p = random_unit_symbols(rng, 16) * 4.0
        y, spec, _ = link_frame(rng, CFG, GRID, x_p, data_power=0.0)
        flat = PriorModel(np.full(len(GRID), math.inf))
        res = iterative_estimate(y, x_p, spec, GRID, CFG, 1.0, n_iter=2, prior=flat)
        expect = np.linalg.lstsq(build_psi(x_p, GRID, CFG), y, rcond=None)[0]
        assert res.noise_levels[0] == 1.0
        assert np.linalg.norm(res.alpha_hat - expect) <= 1e-10 * np.linalg.norm(expect)

    def test_single_iteration_equals_plain_mmse(self, rng):
        cfg = AfdmConfig(n_sub=32, n_cpp=8, c1=4 / 32)
        grid = basis_grid(tau_m=2, nu_m=1)
        spec = FrameSpec(100.0, 1.0, Constellation.QPSK)
        x_p = proposed_pilot(cfg, 100.0, r=0)
        real = sample_channel(L=3, tau_m=2, nu_m=1, rng=rng, noise_power=0.5)
        _, x_d = random_data_vector(32, spec, rng)
        y = receive(transmit(x_p, x_d, cfg), real, cfg, rng)
        prior = PriorModel.uniform(grid)
        res = iterative_estimate(y, x_p, spec, grid, cfg, 0.5, n_iter=1, prior=prior)
        c = spec.data_symbol_power * float(np.sum(prior.gain_variances)) + 0.5
        direct, _ = mmse_estimate(y, build_psi(x_p, grid, cfg), prior, c)
        assert np.linalg.norm(res.alpha_hat - direct) < 1e-12

    def test_exact_feedback_recovers_gains(self, rng):
        # no channel noise and genie data feedback: iteration 2 cancels the
        # data and the least-squares limit returns the exact gains (the
        # iteration-1 estimate only enters through a strongly suppressed
        # leakage term, so a dominant pilot makes the recovery exact)
        cfg = AfdmConfig(n_sub=64, n_cpp=16, c1=4 / 64)
        grid = basis_grid(tau_m=3, nu_m=1)
        spec = FrameSpec(1e12, 1.0, Constellation.QPSK)
        x_p = proposed_pilot(cfg, 1e12, r=0)
        real = sample_channel(L=2, tau_m=3, nu_m=1, rng=rng, noise_power=0.0)
        _, x_d = random_data_vector(64, spec, rng)
        y = receive(transmit(x_p, x_d, cfg), real, cfg, rng)
        res = iterative_estimate(
            y, x_p, spec, grid, cfg, 0.0, n_iter=2, known_data=x_d
        )
        alpha_true = np.zeros(len(grid), dtype=complex)
        for p in real.paths:
            alpha_true[grid.index_of(p.delay, int(p.doppler))] = p.gain
        assert np.linalg.norm(res.alpha_hat - alpha_true) < 1e-8

    def test_second_iteration_rarely_degrades(self, rng):
        # refinement with the default (conservative) threshold: cancelling
        # demodulated data must not worsen the estimate in >= 90% of trials
        cfg = AfdmConfig(n_sub=32, n_cpp=8, c1=4 / 32)
        grid = basis_grid(tau_m=2, nu_m=1)
        noise = 1.0
        sigma_d2 = 10 ** (15 / 10) * noise  # data SNR 15 dB
        spec = FrameSpec(100.0, sigma_d2, Constellation.QPSK)
        x_p = proposed_pilot(cfg, 100.0, r=0)
        non_degrading = 0
        n_trials = 300
        for _ in range(n_trials):
            real = sample_channel(L=3, tau_m=2, nu_m=1, rng=rng, noise_power=noise)
            h_true = channel_matrix(real, cfg)
            _, x_d = random_data_vector(32, spec, rng)
            y = receive(transmit(x_p, x_d, cfg), real, cfg, rng)
            res1 = iterative_estimate(y, x_p, spec, grid, cfg, noise, n_iter=1)
            res2 = iterative_estimate(y, x_p, spec, grid, cfg, noise, n_iter=2)
            err1 = np.linalg.norm(h_true - np.asarray(res1.h_eff_hat))
            err2 = np.linalg.norm(h_true - np.asarray(res2.h_eff_hat))
            if err2 <= err1 + 1e-12:
                non_degrading += 1
        assert non_degrading >= 0.9 * n_trials

    def test_pilot_power_monotonicity(self, rng):
        cfg = AfdmConfig(n_sub=32, n_cpp=8, c1=4 / 32)
        grid = basis_grid(tau_m=2, nu_m=1)
        noise = 1.0
        spec20 = FrameSpec(100.0, 1.0, Constellation.QPSK)
        spec30 = FrameSpec(1000.0, 1.0, Constellation.QPSK)
        mse20 = mse30 = 0.0
        n_trials = 400
        for i in range(n_trials):
            trial_rng = np.random.default_rng(1000 + i)
            real = sample_channel(L=3, tau_m=2, nu_m=1, rng=trial_rng, noise_power=noise)
            h_true = channel_matrix(real, cfg)
            _, x_d = random_data_vector(32, spec20, trial_rng)
            noise_draw = np.random.default_rng(5000 + i)
            for spec, x_p, acc in (
                (spec20, proposed_pilot(cfg, 100.0, r=0), "20"),
                (spec30, proposed_pilot(cfg, 1000.0, r=0), "30"),
            ):
                y = receive(transmit(x_p, x_d, cfg), real, cfg, np.random.default_rng(noise_draw.integers(2**32)))
                res = iterative_estimate(y, x_p, spec, grid, cfg, noise, n_iter=2)
                err = np.linalg.norm(h_true - np.asarray(res.h_eff_hat))
                if acc == "20":
                    mse20 += err
                else:
                    mse30 += err
        assert mse30 < mse20

    def test_global_pilot_phase_equivariance(self, rng):
        cfg = AfdmConfig(n_sub=32, n_cpp=8, c1=4 / 32)
        grid = basis_grid(tau_m=2, nu_m=1)
        spec = FrameSpec(100.0, 0.0, Constellation.QPSK)
        x_p = proposed_pilot(cfg, 100.0, r=0)
        real = sample_channel(L=3, tau_m=2, nu_m=1, rng=rng, noise_power=0.0)
        phase = np.exp(0.7j)
        y1 = receive(transmit(x_p, np.zeros(32), cfg), real, cfg, rng)
        y2 = receive(transmit(phase * x_p, np.zeros(32), cfg), real, cfg, rng)
        res1 = iterative_estimate(y1, x_p, spec, grid, cfg, 0.0, n_iter=1)
        res2 = iterative_estimate(y2, phase * x_p, spec, grid, cfg, 0.0, n_iter=1)
        assert np.linalg.norm(np.asarray(res1.h_eff_hat) - np.asarray(res2.h_eff_hat)) < 1e-8
        assert np.linalg.norm(res2.alpha_hat - res1.alpha_hat) < 1e-8


class TestNoiseLevels:
    """The effective noise c of each iteration, returned beside the residual norms."""

    CFG64 = AfdmConfig(n_sub=64, n_cpp=8, c1=4 / 64)
    GRID64 = basis_grid(tau_m=3, nu_m=1)

    @pytest.mark.parametrize("noise_power", [0.0, 0.3, 1.0, 4.0])
    def test_first_is_the_prior_model_and_later_ones_at_least_the_noise(self, rng, noise_power):
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec, _ = link_frame(rng, self.CFG64, self.GRID64, x_p)
        res = iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, noise_power, n_iter=4)
        prior = PriorModel.uniform(self.GRID64)
        first = spec.data_symbol_power * float(np.sum(prior.gain_variances)) + noise_power
        assert len(res.noise_levels) == len(res.residual_norms) == 4
        assert all(type(c) is float for c in res.noise_levels)
        assert res.noise_levels[0] == first
        assert all(c >= noise_power for c in res.noise_levels[1:])

    def test_first_follows_a_callers_prior(self, rng):
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec, _ = link_frame(rng, self.CFG64, self.GRID64, x_p)
        prior = PriorModel(np.linspace(0.0, 0.1, len(self.GRID64)))
        res = iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, 1.0, prior=prior)
        assert res.noise_levels[0] == spec.data_symbol_power * float(np.sum(prior.gain_variances)) + 1.0
        assert res.noise_levels[1] >= 1.0


PILOT_FAMILIES = {
    "proposed": lambda cfg, tau_m, nu_m: proposed_pilot(cfg, 37.5),
    "single": lambda cfg, tau_m, nu_m: single_pilot(cfg, 37.5),
    "traditional": lambda cfg, tau_m, nu_m: traditional_spi_pilot(cfg, 37.5, tau_m=tau_m, nu_m=nu_m),
}


@pytest.fixture
def inverses(monkeypatch):
    """Counts the calls of ``np.linalg.inv``."""
    calls = []
    inner = np.linalg.inv

    def counting(a):
        calls.append(a.shape)
        return inner(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return calls


def random_pilot(rng, n_sub):
    """Unit-modulus symbols of random phase, 37.5 in total energy."""
    return np.exp(2j * np.pi * rng.uniform(size=n_sub)) * math.sqrt(37.5 / n_sub)


class TestDiagonalRoute:
    """A diagonal Gram gives the posterior elementwise; any other is inverted."""

    @settings(max_examples=60, deadline=None)
    @given(
        log_n=st.integers(5, 10),
        nu_m=st.integers(0, 3),
        c1_doubling=st.integers(0, 2),
        tau_m=st.integers(0, 12),
        family=st.sampled_from(sorted(PILOT_FAMILIES)),
        pinned=st.floats(0.0, 1.0),
        flat=st.floats(0.0, 1.0),
        c=st.sampled_from([0.0, 1e-9, 0.3, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_inverse_route(self, log_n, nu_m, c1_doubling, tau_m, family, pinned, flat, c, seed):
        n_sub = 2**log_n
        c1, _ = select_c1_q(nu_m, AfdmConfig(n_sub=n_sub))
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=tau_m, c1=c1 * 2**c1_doubling)
        assume(cfg.two_c1_n <= n_sub and tau_m <= proposed_delay_limit(cfg))
        assume(family != "traditional" or traditional_spacing(cfg, tau_m, nu_m)[0] <= n_sub)
        grid = basis_grid(tau_m, nu_m)
        model = estimator._pilot_model(cfg, grid.pairs, PILOT_FAMILIES[family](cfg, tau_m, nu_m).tobytes())
        assert model.diagonal is not None
        rng = np.random.default_rng(seed)
        # each gain pinned (g = 0), flat (g = inf) or of a finite variance
        draw = rng.uniform(size=len(grid))
        g = np.where(draw < pinned, 0.0, np.where(draw < pinned + flat, np.inf, rng.uniform(1e-3, 10.0, len(grid))))
        prior = PriorModel(g)
        y = rng.standard_normal(n_sub) + 1j * rng.standard_normal(n_sub)
        corr = model.psi_h @ y
        alpha, variances = estimator._posterior(corr, model.gram, model.diagonal, prior.gain_variances, c)
        alpha_inv, variances_inv = estimator._posterior(corr, model.gram, None, prior.gain_variances, c)
        assert np.all(alpha[g == 0] == 0) and np.all(variances[g == 0] == 0)
        assert np.max(np.abs(alpha - alpha_inv), initial=0.0) <= 1e-12 * np.max(np.abs(alpha_inv), initial=0.0)
        assert np.max(np.abs(variances - variances_inv), initial=0.0) <= 1e-12 * np.max(variances_inv, initial=0.0)

    @pytest.mark.parametrize("n_sub", [512, 1024])
    @pytest.mark.parametrize("family", [*sorted(PILOT_FAMILIES), "random"])
    def test_ambiguity_gram_keeps_the_route_decision(self, rng, n_sub, family):
        # the link (N = 512) and analysis (N = 1024) grids, tau_m = 8 and nu_m = 2: the Gram by
        # Theorem 4's identity is diagonal for the three families, as the images' Gram is
        c1, _ = select_c1_q(2, AfdmConfig(n_sub=n_sub))
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=8, c1=c1)
        grid = basis_grid(8, 2)
        x_p = random_pilot(rng, n_sub) if family == "random" else PILOT_FAMILIES[family](cfg, 8, 2)
        model = estimator._pilot_model(cfg, grid.pairs, x_p.tobytes())
        dense = estimator._gram_diagonal(dense_oracle.pilot_gram(x_p, cfg, grid.pairs))
        assert (model.diagonal is None) == (dense is None) == (family == "random")
        if dense is not None:
            assert np.max(np.abs(model.diagonal - dense)) <= 1e-13 * dense.max()

    def test_random_pilot_takes_the_inverse_route(self, rng, inverses):
        c1, _ = select_c1_q(2, AfdmConfig(n_sub=512))
        cfg = AfdmConfig(n_sub=512, n_cpp=8, c1=c1)
        grid = basis_grid(8, 2)
        x_p = random_pilot(rng, 512)
        model = estimator._pilot_model(cfg, grid.pairs, x_p.tobytes())
        assert model.diagonal is None
        off = np.abs(model.gram - np.diag(model.gram.diagonal()))
        assert off.max() > 1e-3 * model.gram.diagonal().real.max()
        y, spec, _ = link_frame(rng, cfg, grid, x_p)
        iterative_estimate(y, x_p, spec, grid, cfg, 1.0, n_iter=2)
        assert inverses == [(len(grid), len(grid))] * 2

    def test_colliding_grid_takes_the_inverse_route(self):
        # K = 8 on Nc = 64: delay 8 wraps onto delay 0, so two basis images coincide
        c1, _ = select_c1_q(2, AfdmConfig(n_sub=64))
        cfg = AfdmConfig(n_sub=64, n_cpp=8, c1=c1)
        grid = basis_grid(8, 2)
        model = estimator._pilot_model(cfg, grid.pairs, proposed_pilot(cfg, 37.5).tobytes())
        assert model.diagonal is None
        assert np.max(np.abs(model.gram - np.diag(model.gram.diagonal()))) == pytest.approx(37.5)

    @pytest.mark.parametrize("family", sorted(PILOT_FAMILIES))
    def test_pilot_families_make_no_inverse(self, rng, inverses, family):
        c1, _ = select_c1_q(2, AfdmConfig(n_sub=512))
        cfg = AfdmConfig(n_sub=512, n_cpp=8, c1=c1)
        grid = basis_grid(8, 2)
        x_p = PILOT_FAMILIES[family](cfg, 8, 2)
        y, spec, _ = link_frame(rng, cfg, grid, x_p)
        res = iterative_estimate(y, x_p, spec, grid, cfg, 1.0, n_iter=2)
        assert inverses == []
        assert res.gram_condition == pytest.approx(1.0, abs=1e-12)

    def test_random_pilot_gram_condition_exceeds_one(self, rng):
        c1, _ = select_c1_q(2, AfdmConfig(n_sub=512))
        cfg = AfdmConfig(n_sub=512, n_cpp=8, c1=c1)
        grid = basis_grid(8, 2)
        x_p = random_pilot(rng, 512)
        y, spec, _ = link_frame(rng, cfg, grid, x_p)
        res = iterative_estimate(y, x_p, spec, grid, cfg, 1.0, n_iter=1)
        assert isinstance(res.gram_condition, float)
        assert res.gram_condition > 1.0 + 1e-3
        assert res.gram_condition == pytest.approx(np.linalg.cond(build_psi(x_p, grid, cfg)) ** 2, rel=1e-9)

    def test_mmse_estimate_decides_from_its_own_gram(self, rng, inverses):
        cfg = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)
        grid = basis_grid(tau_m=3, nu_m=2)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        prior = PriorModel(np.full(len(grid), 0.1))
        mmse_estimate(y, build_psi(proposed_pilot(cfg, 100.0), grid, cfg), prior, 0.5)
        assert inverses == []
        mmse_estimate(y, build_psi(random_pilot(rng, 64), grid, cfg), prior, 0.5)
        assert inverses == [(len(grid), len(grid))]

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_column_without_energy_under_a_flat_prior_raises(self, c):
        # a diagonal Gram with a zero entry: no information on that gain and no prior;
        # tier-1 turns a RuntimeWarning into an error, so none may come first
        psi = np.zeros((4, 2), dtype=complex)
        psi[0, 0] = 1.0
        with pytest.raises(NumericalError, match="singular normal matrix"):
            mmse_estimate(np.ones(4), psi, PriorModel(np.array([1.0, np.inf])), c)
        est, post = mmse_estimate(np.ones(4), psi, PriorModel(np.array([np.inf, 0.5])), c)
        assert est[1] == 0 and post[1] == 0.5

    def test_zero_pilot_keeps_its_prior(self, inverses):
        # a zero Gram is diagonal: each finite prior comes back unchanged, a flat one raises
        est, post = mmse_estimate(np.ones(4), np.zeros((4, 3)), PriorModel(np.array([0.5, 0.0, 2.0])), 1.0)
        assert np.array_equal(est, np.zeros(3)) and np.array_equal(post, [0.5, 0.0, 2.0])
        with pytest.raises(NumericalError):
            mmse_estimate(np.ones(4), np.zeros((4, 3)), PriorModel(np.full(3, np.inf)), 1.0)
        assert inverses == []


class TestLinkQuality:
    def test_seed_1_quality_lines_are_pinned(self):
        # the benchmark's link frames, seed 1: its quality lines at their printed precision
        session = link(LinkParams(), 1)
        quality = session.quality([session.call() for _ in range(session.quality_calls)])
        assert {name: f"{value:.6g}" for name, value in quality.items()} == {
            "ber": "0.00229492",
            "gain_nmse_db": "-27.4351",
            "support_recall": "0.975",
            "support_precision": "0.987342",
        }


class TestDenseRoute:
    """The iterative estimator matches the dense-matrix route it replaced."""

    @pytest.mark.parametrize("n_sub, two_c1_n, nu_m", [(64, 8, 1), (63, 5, 1), (256, 32, 2)])
    def test_alpha_channel_and_bits_match(self, rng, n_sub, two_c1_n, nu_m):
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=8, c1=two_c1_n / (2 * n_sub))
        grid = basis_grid(tau_m=3, nu_m=nu_m)
        noise = 1.0
        spec = FrameSpec(n_sub * 30.0, 30.0, Constellation.QPSK)
        x_p = random_unit_symbols(rng, n_sub) * math.sqrt(30.0)
        real = sample_channel(L=3, tau_m=3, nu_m=nu_m, rng=rng, noise_power=noise)
        bits, x_d = random_data_vector(n_sub, spec, rng)
        y = receive(transmit(x_p, x_d, cfg), real, cfg, rng)
        res = iterative_estimate(y, x_p, spec, grid, cfg, noise, n_iter=2)
        alpha, indicator, h_dense, bits_dense = dense_oracle.iterative_estimate(
            y, x_p, spec, grid, cfg, noise, n_iter=2
        )
        _, bits_hat = equalize_demod(y, res.h_eff_hat, x_p, spec, noise)
        v = random_unit_symbols(rng, n_sub)
        assert np.max(np.abs(res.alpha_hat - alpha)) < 1e-10
        assert np.array_equal(res.indicator, indicator)
        assert np.max(np.abs(res.h_eff_hat @ v - h_dense @ v)) < 1e-10
        assert np.array_equal(bits_hat, bits_dense)
        assert np.count_nonzero(bits_hat != bits) < bits.size // 10


def link_frame(rng, cfg, grid, x_p, data_power=30.0):
    """A superimposed frame through 3 random grid paths at noise power 1: (y, spec, data)."""
    spec = FrameSpec(float(np.linalg.norm(x_p) ** 2), data_power, Constellation.QPSK)
    real = sample_channel(L=3, tau_m=grid.tau_m, nu_m=grid.nu_m, rng=rng, noise_power=1.0)
    _, x_d = random_data_vector(cfg.n_sub, spec, rng)
    return receive(transmit(x_p, x_d, cfg), real, cfg, rng), spec, x_d


class TestLoopAlgebra:
    """The loop that pushes each estimate through the frame once equals the three-product loop."""

    CFG64 = AfdmConfig(n_sub=64, n_cpp=8, c1=4 / 64)
    GRID64 = basis_grid(tau_m=3, nu_m=1)

    @pytest.mark.parametrize("n_iter", [1, 2, 3])
    @pytest.mark.parametrize("pilot", ["proposed", "random"])
    @pytest.mark.parametrize("option", ["3 sigma", "known_data"])
    def test_matches_the_three_product_loop(self, rng, n_iter, pilot, option):
        # the proposed pilot's Gram is read elementwise, a random pilot's is inverted
        cfg, grid = self.CFG64, self.GRID64
        if pilot == "proposed":
            x_p = proposed_pilot(cfg, 64 * 30.0)
        else:
            x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec, x_d = link_frame(rng, cfg, grid, x_p)
        options = {"3 sigma": {}, "known_data": {"known_data": x_d}}[option]
        res = iterative_estimate(y, x_p, spec, grid, cfg, 1.0, n_iter=n_iter, **options)
        alpha, indicator, residuals, bits = dense_oracle.iterative_loop(
            y, x_p, spec, grid, cfg, 1.0, n_iter=n_iter, **options
        )
        _, bits_hat = equalize_demod(y, res.h_eff_hat, x_p, spec, 1.0)
        assert np.linalg.norm(res.alpha_hat - alpha) <= 1e-12 * np.linalg.norm(alpha)
        assert len(res.residual_norms) == n_iter
        assert np.allclose(res.residual_norms, residuals, rtol=1e-12, atol=0.0)
        assert np.array_equal(res.indicator, indicator)
        assert np.array_equal(bits_hat, bits)


class TestIterativeContracts:
    """Malformed input raises before the pilot model is looked up."""

    def run(self, rng, reshape=lambda y, x_p: (y, x_p), **options):
        x_p = random_unit_symbols(rng, 16) * 4.0
        y, spec, _ = link_frame(rng, CFG, GRID, x_p)
        y, x_p = reshape(y, x_p)
        iterative_estimate(y, x_p, spec, GRID, CFG, **{"noise_power": 1.0, **options})

    @pytest.mark.parametrize("reshape", [
        lambda y, x_p: (y[:-1], x_p),
        lambda y, x_p: (np.stack([y, y]), x_p),
        lambda y, x_p: (y, x_p[None, :]),
        lambda y, x_p: (y, x_p[:-1]),
    ])
    def test_shapes(self, rng, reshape):
        before = estimator._pilot_model.cache_info()
        with pytest.raises(ConfigurationError):
            self.run(rng, reshape)
        after = estimator._pilot_model.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("noise_power", [-1.0, math.nan, math.inf])
    def test_noise_power(self, rng, noise_power):
        with pytest.raises(ParameterError, match="noise_power"):
            self.run(rng, noise_power=noise_power)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
    @pytest.mark.parametrize("argument", ["y", "x_pilot", "known_data"])
    def test_non_finite_entry(self, rng, bad, argument):
        # was a RuntimeWarning from the first product with it
        x_p = random_unit_symbols(rng, 16) * 4.0
        y, spec, x_d = link_frame(rng, CFG, GRID, x_p)
        args = {"y": y.copy(), "x_pilot": x_p.copy(), "known_data": x_d.copy()}
        args[argument][3] = bad
        before = estimator._pilot_model.cache_info()
        with pytest.raises(ParameterError, match=f"^{argument} must be finite"):
            iterative_estimate(args["y"], args["x_pilot"], spec, GRID, CFG, 1.0, known_data=args["known_data"])
        after = estimator._pilot_model.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("n_iter", [0, 2.5, True])
    def test_n_iter(self, rng, n_iter):
        with pytest.raises(ParameterError, match="n_iter"):
            self.run(rng, n_iter=n_iter)


class TestEqualizeContracts:
    """Malformed input raises before the channel is applied or factored."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work done before the input check")

        monkeypatch.setattr(PathChannel, "__matmul__", refuse)
        monkeypatch.setattr(PathChannel, "_daft_solve", refuse)

    SPEC = FrameSpec(16.0, 1.0, Constellation.QPSK)
    H = PathChannel(CFG, [0, 1], [0, 1], [1.0, 0.2j])

    @pytest.mark.parametrize("noise_power", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("data_power", [1.0, 0.0])
    def test_noise_power(self, noise_power, data_power):
        spec = FrameSpec(16.0, data_power, Constellation.QPSK)
        with pytest.raises(ParameterError, match="noise_power"):
            equalize_demod(np.ones(16), self.H, np.zeros(16), spec, noise_power)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan), complex(-math.inf, 1.0)])
    def test_non_finite_y(self, bad):
        y = np.ones(16, dtype=complex)
        y[5] = bad
        with pytest.raises(ParameterError, match="finite"):
            equalize_demod(y, self.H, np.zeros(16), self.SPEC, 0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
    def test_non_finite_x_pilot(self, bad):
        # was a RuntimeWarning from the pilot's product with the channel
        x_p = np.zeros(16, dtype=complex)
        x_p[5] = bad
        with pytest.raises(ParameterError, match="^x_pilot must be finite"):
            equalize_demod(np.ones(16), self.H, x_p, self.SPEC, 0.1)

    @pytest.mark.parametrize("shape", [(15,), (17,), (2, 16), (16, 1), ()])
    @pytest.mark.parametrize("data_power", [1.0, 0.0])
    def test_y_shape(self, shape, data_power):
        spec = FrameSpec(16.0, data_power, Constellation.QPSK)
        with pytest.raises(ConfigurationError):
            equalize_demod(np.ones(shape), self.H, np.zeros(16), spec, 0.1)


class TestEqualizerFactor:
    """Each channel estimate factors its banded matrix once per lam."""

    CFG64 = AfdmConfig(n_sub=64, n_cpp=8, c1=4 / 64)
    GRID64 = basis_grid(tau_m=3, nu_m=1)

    @pytest.fixture
    def calls(self, monkeypatch):
        # the LAPACK routines (pbtrf, pbtrs) that the solve fetches through channel._banded_cholesky
        counts = {"factor": 0, "solve": 0}

        def counting(inner, key):
            def routine(*args, **kwargs):
                counts[key] += 1
                return inner(*args, **kwargs)

            return routine

        routines = [counting(inner, key) for inner, key in zip(channel._banded_cholesky(), counts)]
        monkeypatch.setattr(channel, "_banded_cholesky", lambda: routines)
        return counts

    @pytest.fixture
    def products(self, monkeypatch):
        operands = []
        matmul = PathChannel.__matmul__

        def counting(h, x):
            operands.append(np.array(x))
            return matmul(h, x)

        monkeypatch.setattr(PathChannel, "__matmul__", counting)
        return operands

    @pytest.mark.parametrize("n_iter", [1, 2, 3])
    @pytest.mark.parametrize("known", [False, True])
    def test_each_estimate_is_pushed_through_the_frame_once(self, rng, products, n_iter, known):
        # one product of the demodulated data per iteration, which is also the
        # next observation's; a given known_data is fed back instead, so each
        # later iteration makes its own product of it.  The pilot's image is
        # read from the pilot model, never as a product with the channel.
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec, x_d = link_frame(rng, self.CFG64, self.GRID64, x_p)
        iterative_estimate(
            y, x_p, spec, self.GRID64, self.CFG64, 1.0, n_iter=n_iter, known_data=x_d if known else None
        )
        assert len(products) == (2 * n_iter - 1 if known else n_iter)
        assert not any(np.array_equal(x, x_p) for x in products)

    def test_frame_makes_two_factorizations_for_three_solves(self, rng, calls):
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec, _ = link_frame(rng, self.CFG64, self.GRID64, x_p)
        res = iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, 1.0, n_iter=2)
        assert calls == {"factor": 2, "solve": 2}
        equalize_demod(y, res.h_eff_hat, x_p, spec, 1.0)
        assert calls == {"factor": 2, "solve": 3}

    def test_a_second_lam_refactors(self, rng, calls):
        h = kept_channel(np.arange(9) + 1j, np.ones(9), GRID, CFG)
        r = random_unit_symbols(rng, 16)
        for lam, factors in [(0.1, 1), (0.1, 1), (0.2, 2), (0.2, 2), (0.1, 3)]:
            z = h._daft_solve(r, lam)
            assert calls["factor"] == factors
            assert np.max(np.abs(z - dense_oracle.daft_solve(h, r, lam))) < 1e-10
        assert calls["solve"] == 5

    def test_failed_factorization_is_not_kept(self, calls):
        # H = 0: lam = 0 leaves a zero matrix, any lam > 0 solves to zero
        empty = kept_channel(np.ones(9), np.zeros(9), GRID, CFG)
        spec = FrameSpec(0.0, 1.0, Constellation.QPSK)
        for attempt in (1, 2):
            with pytest.raises(NumericalError):
                equalize_demod(np.ones(16), empty, np.zeros(16), spec, 0.0)
            assert calls == {"factor": attempt, "solve": 0}
        ones = np.ones(16, dtype=np.complex128)
        assert np.array_equal(empty._daft_solve(ones, 0.5), np.zeros(16))
        with pytest.raises(NumericalError, match="singular equalizer matrix"):
            empty._daft_solve(ones, 0.0)
        assert calls == {"factor": 4, "solve": 1}


class TestCheckedOnce:
    """A frame is checked at the receiver's entry; its iterations re-check nothing they built."""

    CFG64 = AfdmConfig(n_sub=64, n_cpp=8, c1=4 / 64)
    GRID64 = basis_grid(tau_m=3, nu_m=1)

    @pytest.fixture
    def checks(self, monkeypatch):
        counts = {PathChannel: 0, PriorModel: 0}
        for kind in counts:
            def counting(obj, _kind=kind, _inner=kind.__post_init__):
                counts[_kind] += 1
                _inner(obj)

            monkeypatch.setattr(kind, "__post_init__", counting)

        def refuse(*args, **kwargs):
            raise AssertionError("a checked entry point was called inside the iterations")

        for name in ("idaft", "daft"):
            monkeypatch.setattr(channel, name, refuse)
        return counts

    @pytest.mark.parametrize("n_iter", [1, 2, 3])
    def test_default_prior_frame_checks_one_prior_and_no_channel(self, rng, n_iter, checks):
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec, _ = link_frame(rng, self.CFG64, self.GRID64, x_p)
        estimator._pilot_model(self.CFG64, self.GRID64.pairs, x_p.tobytes())  # a cached pilot model
        checks[PathChannel] = 0
        res = iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, 1.0, n_iter=n_iter)
        assert checks == {PathChannel: 0, PriorModel: 1}
        equalize_demod(y, res.h_eff_hat, x_p, spec, 1.0)
        assert checks == {PathChannel: 0, PriorModel: 1}

    @pytest.mark.parametrize("prior, message", [
        (PriorModel(np.ones(3)), r"^\(3,\) prior variances for 12 columns"),
        (PriorModel(np.full(12, math.inf)), "flat prior"),
    ], ids=["wrong length", "flat with data"])
    def test_bad_prior_refused_before_the_pilot_model(self, rng, prior, message):
        # both were refused only after the pilot model had been built and cached; the
        # posterior kernel trusts the prior's length
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec, _ = link_frame(rng, self.CFG64, self.GRID64, x_p)
        before = estimator._pilot_model.cache_info()
        with pytest.raises(ParameterError, match=message):
            iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, 1.0, prior=prior)
        assert estimator._pilot_model.cache_info() == before

    def test_trusted_channel_is_the_checked_one(self, rng):
        # the iterations' channel, built without checks, equals the public constructor's
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec, _ = link_frame(rng, self.CFG64, self.GRID64, x_p)
        res = iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, 1.0)
        checked = kept_channel(res.alpha_hat, res.indicator, self.GRID64, self.CFG64)
        h = res.h_eff_hat
        for name in ("delays", "dopplers", "gains"):
            value = getattr(h, name)
            assert value.dtype == getattr(checked, name).dtype and not value.flags.writeable
            assert np.array_equal(value, getattr(checked, name))
        v = random_unit_symbols(rng, 64)
        assert np.array_equal(h @ v, checked @ v)
        assert np.array_equal(h._daft_solve(v, 0.1), checked._daft_solve(v, 0.1))


class TestEqualizerDecisions:
    """The link reads the equalizer only through its QPSK decisions, which are signs:
    a relative change of 2^-20 in every soft symbol moves no estimate, residual or
    bit, so an equalizer that rounds differently keeps the link's outcomes."""

    CFG64 = AfdmConfig(n_sub=64, n_cpp=8, c1=4 / 64)
    GRID64 = basis_grid(tau_m=3, nu_m=1)

    @pytest.mark.parametrize("n_iter", [1, 3])
    def test_scaled_solve_moves_only_the_soft_symbols(self, monkeypatch, rng, n_iter):
        x_p = proposed_pilot(self.CFG64, 64 * 30.0)
        frames = [link_frame(rng, self.CFG64, self.GRID64, x_p) for _ in range(4)]

        def run():
            out = []
            for y, spec, _ in frames:
                res = iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, 1.0, n_iter=n_iter)
                out.append((res, *equalize_demod(y, res.h_eff_hat, x_p, spec, 1.0)))
            return out

        plain = run()
        solve = PathChannel._daft_solve
        monkeypatch.setattr(PathChannel, "_daft_solve", lambda h, r, lam: solve(h, r, lam) * (1 + 2**-20))
        for (res, x_d, bits), (scaled, x_d_scaled, bits_scaled) in zip(plain, run(), strict=True):
            for name in ("alpha_hat", "indicator", "residual_norms", "noise_levels"):
                assert np.array_equal(getattr(res, name), getattr(scaled, name)), name
            assert np.array_equal(bits, bits_scaled)
            assert not np.array_equal(x_d, x_d_scaled)


class TestPilotModel:
    """Psi_p and its Gram are built once per (cfg, grid, pilot), and never reused stale."""

    CFG64 = AfdmConfig(n_sub=64, n_cpp=8, c1=4 / 64)
    GRID64 = basis_grid(tau_m=3, nu_m=1)

    def test_pilot_written_in_place_is_not_stale(self, rng):
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec, _ = link_frame(rng, self.CFG64, self.GRID64, x_p)
        iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, 1.0)
        x_p *= np.exp(0.3j) * random_unit_symbols(rng, 64) * math.sqrt(2.0)
        y, spec, _ = link_frame(rng, self.CFG64, self.GRID64, x_p)
        res = iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, 1.0)
        alpha, indicator, h_dense, _ = dense_oracle.iterative_estimate(
            y, x_p, spec, self.GRID64, self.CFG64, 1.0
        )
        v = random_unit_symbols(rng, 64)
        assert np.max(np.abs(res.alpha_hat - alpha)) < 1e-10
        assert np.array_equal(res.indicator, indicator)
        assert np.max(np.abs(res.h_eff_hat @ v - h_dense @ v)) < 1e-10

    def test_grid_and_config_are_part_of_the_key(self, rng):
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec, _ = link_frame(rng, self.CFG64, self.GRID64, x_p)
        # the same pilot bytes each time: only the rest of the key tells these apart
        variants = [
            (self.CFG64, self.GRID64),
            (self.CFG64, basis_grid(tau_m=1, nu_m=3)),
            (AfdmConfig(n_sub=64, n_cpp=8, c1=6 / 64), self.GRID64),
            (AfdmConfig(n_sub=64, n_cpp=8, c1=4 / 64, c2=0.3), self.GRID64),
        ]
        for cfg, grid in variants:
            res = iterative_estimate(y, x_p, spec, grid, cfg, 1.0, n_iter=1)
            prior = PriorModel.uniform(grid)
            c = spec.data_symbol_power * float(np.sum(prior.gain_variances)) + 1.0
            direct, _ = mmse_estimate(y, build_psi(x_p, grid, cfg), prior, c)
            assert np.max(np.abs(res.alpha_hat - direct)) < 1e-12

    def test_two_frames_build_psi_once(self, rng):
        estimator._pilot_model.cache_clear()
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        for _ in range(2):
            y, spec, _ = link_frame(rng, self.CFG64, self.GRID64, x_p)
            iterative_estimate(y, x_p.copy(), spec, self.GRID64, self.CFG64, 1.0)
        assert estimator._pilot_model.cache_info().misses == 1

    def test_model_is_built_without_a_transform(self, rng, monkeypatch):
        # Psi_p is the closed-form images of the pilot and its Gram is the pilot's ambiguity
        # function (Theorem 4): a cache miss makes one inverse FFT, the pilot's idaft, and no FFT
        calls = []
        for name in ("ifft", "fft"):
            def counting(*args, _name=name, _inner=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        estimator._pilot_model.cache_clear()
        estimator._pilot_model(self.CFG64, self.GRID64.pairs, random_unit_symbols(rng, 64).tobytes())
        assert estimator._pilot_model.cache_info().misses == 1
        assert calls == ["ifft"]
        estimator.build_psi(np.ones(64), self.GRID64, self.CFG64)  # the counters do count
        assert calls == ["ifft"] + ["ifft", "fft"] * len(self.GRID64)  # one idaft and one daft per pair

    def test_model_build_copies_no_index_table(self):
        # N = 16384 and the benchmark's 45 pairs: the images (16 bytes per entry), the tap
        # table (24) and a little besides; gathering a vector by take copied the read-only
        # source columns first, 8 bytes more per entry (48)
        c1, _ = select_c1_q(2, AfdmConfig(n_sub=16384))
        cfg = AfdmConfig(n_sub=16384, c1=c1)
        pairs = basis_grid(8, 2).pairs
        key = proposed_pilot(cfg, 256.0).tobytes()
        cfg.c1_chirp, cfg.c2_chirp, cfg.dft_twiddle  # the config's tables, built once per config
        estimator._pilot_model.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            estimator._pilot_model(cfg, pairs, key)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            estimator._pilot_model.cache_clear()
        assert peak <= 42 * len(pairs) * cfg.n_sub

    def test_model_is_read_only(self, rng):
        # the model keeps Psi_p^H, so an iteration multiplies by it without a conjugate copy
        x_p = random_unit_symbols(rng, 64)
        model = estimator._pilot_model(self.CFG64, self.GRID64.pairs, x_p.tobytes())
        assert estimator._pilot_model(self.CFG64, self.GRID64.pairs, x_p.tobytes()).psi_h is model.psi_h
        ones = np.ones(len(self.GRID64))
        rows = kept_channel(ones, ones, self.GRID64, self.CFG64).images(x_p)
        assert np.array_equal(model.psi_h, rows.conj())
        for arr in (model.psi_h, model.gram):
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    @pytest.mark.parametrize("n_sub, nu_m, tau_m", [(64, 1, 7), (256, 2, 8), (512, 2, 8), (1024, 3, 16)])
    @pytest.mark.parametrize("r", [0, 1])
    def test_proposed_pilot_gram_is_scaled_identity(self, n_sub, nu_m, tau_m, r):
        # Theorem 4: the proposed pilot's basis images are orthogonal, each of energy sigma_p^2
        c1, _ = select_c1_q(nu_m, AfdmConfig(n_sub=n_sub))
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=tau_m, c1=c1)
        power = 37.5
        x_p = proposed_pilot(cfg, power, r=r)
        grid = basis_grid(tau_m, nu_m)
        gram = estimator._pilot_model(cfg, grid.pairs, x_p.tobytes()).gram
        assert np.max(np.abs(gram - power * np.eye(len(grid)))) <= 1e-12 * power

    @settings(max_examples=40, deadline=None)
    @given(
        n_sub=st.integers(8, 300),
        k=st.integers(0, 9),
        tau_m=st.integers(0, 7),
        nu_m=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_sub=63, k=3, tau_m=5, nu_m=2, seed=1)  # K*Nc odd: the prefix flips
    @example(n_sub=64, k=3, tau_m=5, nu_m=2, seed=2)
    @example(n_sub=100, k=7, tau_m=7, nu_m=3, seed=3)
    @example(n_sub=512, k=8, tau_m=7, nu_m=2, seed=4)
    def test_correlation_is_the_sensing_map(self, n_sub, k, tau_m, nu_m, seed):
        # Psi_p^H y on every grid pair is the range-Doppler correlation of the time
        # signals, conj(_correlate(idaft y, idaft x_p, tau, nu)) * exp(j*2*pi*nu*tau/Nc),
        # for any pilot: the estimator's correlation is the sensing map
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=tau_m, c1=k / (2 * n_sub))
        grid = basis_grid(tau_m, nu_m)
        rng = np.random.default_rng(seed)
        x_p, y = rng.standard_normal((2, n_sub, 2)) @ np.array([1.0, 1j])
        psi_h_y = estimator._pilot_model(cfg, grid.pairs, x_p.tobytes()).psi_h @ y
        axes = np.arange(tau_m + 1.0), np.arange(-nu_m, nu_m + 1.0)
        corr = sensing._correlate(idaft(y, cfg), idaft(x_p, cfg), *axes, cfg)
        tau, nu = np.array(grid.pairs).T
        expect = np.conj(corr[tau, nu + nu_m]) * np.exp(2j * np.pi * nu * tau / n_sub)
        assert np.max(np.abs(psi_h_y - expect)) <= 1e-12 * np.max(np.abs(expect))
