import math

import numpy as np
import pytest

from afdm_isac import AfdmConfig, add_cpp, daft, estimator, idaft, remove_cpp
from afdm_isac.channel import (
    PathChannel,
    apply_channel_time,
    basis_grid,
    sample_channel,
)
from afdm_isac.errors import ConfigurationError, NumericalError, ParameterError
from afdm_isac.estimator import (
    PriorModel,
    build_psi,
    effective_noise_covariance,
    equalize_demod,
    iterative_estimate,
    mmse_estimate,
    reconstruct_channel,
    threshold_paths,
)
from afdm_isac.modem import (
    Constellation,
    FrameSpec,
    demap_symbols,
    map_bits,
    random_data_vector,
)
from afdm_isac.pilots import proposed_pilot, select_c1_q

import dense_oracle
from conftest import random_unit_symbols
from dense_oracle import basis_matrix, channel_matrix


CFG = AfdmConfig(n_sub=16, n_cpp=4, c1=1 / 8)
GRID = basis_grid(tau_m=2, nu_m=1)  # 9 basis paths


def transmit(x_p, x_d, cfg):
    return add_cpp(idaft(x_p + x_d, cfg), cfg)


def receive(s_cpp, real, cfg, rng=None):
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


class TestEffectiveNoise:
    def test_no_data(self):
        assert effective_noise_covariance(np.ones(5) / 5, 0.0, 0.7) == pytest.approx(0.7)

    def test_unit_case(self):
        assert effective_noise_covariance(np.ones(4) / 4, 1.0, 1.0) == pytest.approx(2.0)

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
        model = effective_noise_covariance(gain_var, 1.0, 1.0) * np.eye(16)
        rel = np.linalg.norm(emp - model, 2) / np.linalg.norm(model, 2)
        assert rel < 0.05


class TestMmse:
    def test_zero_observation(self):
        psi = np.eye(4, dtype=complex)
        prior = PriorModel(np.ones(4), 1.0)
        est, _ = mmse_estimate(np.zeros(4), psi, prior)
        assert np.all(est == 0)

    def test_noiseless_ls_limit(self, rng):
        # orthogonal columns, no noise, flat prior: exact recovery
        cfg = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)
        x_p = proposed_pilot(cfg, pilot_power=100.0, r=0)
        grid = basis_grid(tau_m=3, nu_m=2)
        psi = build_psi(x_p, grid, cfg)
        alpha = (rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))) / 4
        y = psi @ alpha
        est, _ = mmse_estimate(y, psi, PriorModel(np.full(len(grid), np.inf), 0.0))
        assert np.linalg.norm(est - alpha) < 1e-8

    def test_matches_dense_oracle(self, rng):
        # direct dense evaluation of the regularized estimate
        x_p = random_unit_symbols(rng, 16) * 2.0
        psi = build_psi(x_p, GRID, CFG)
        alpha = (rng.standard_normal(9) + 1j * rng.standard_normal(9)) / 3
        y = psi @ alpha + 0.1 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        c = 0.3
        g_var = np.full(9, 1 / 9)
        prior = PriorModel(g_var, c)
        est, post = mmse_estimate(y, psi, prior)
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
                mmse_estimate(np.ones(4), np.ones((4, 2)), PriorModel(np.full(2, np.inf), c))


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
        est, _ = mmse_estimate(y, psi, PriorModel(g_var, c))
        assert est[0] == 0
        free, _ = mmse_estimate(y, psi[:, 1:], PriorModel(g_var[1:], c))
        assert np.linalg.norm(est[1:] - free) < 1e-12

    def test_pinned_posterior_variance_is_zero(self, rng):
        psi, y, g_var = self.problem(rng)
        _, post = mmse_estimate(y, psi, PriorModel(g_var, 0.2))
        assert post[0] == 0
        _, free = mmse_estimate(y, psi[:, 1:], PriorModel(g_var[1:], 0.2))
        assert np.allclose(post[1:], free)

    def test_all_pinned(self, rng):
        psi, y, _ = self.problem(rng)
        est, post = mmse_estimate(y, psi, PriorModel(np.zeros(9), 0.2))
        assert np.all(est == 0)
        assert np.all(post == 0)

    def test_prior_length_must_match(self, rng):
        psi, y, _ = self.problem(rng)
        with pytest.raises(ParameterError):
            mmse_estimate(y, psi, PriorModel(np.ones(8), 0.2))

    def test_observation_length_must_match(self, rng):
        psi, y, g_var = self.problem(rng)
        with pytest.raises(ParameterError):
            mmse_estimate(y[:-1], psi, PriorModel(g_var, 0.2))


class TestThreshold:
    def test_zero_eps_keeps_all(self):
        a = np.array([0.1, 1.0, 0.01j])
        assert np.all(threshold_paths(a, 0.0) == 1)

    def test_infinite_eps_drops_all(self):
        a = np.array([0.1, 1.0, 100.0])
        assert np.all(threshold_paths(a, np.inf) == 0)

    def test_calibrated_threshold_keeps_strong_paths(self, rng):
        # fixed-magnitude random-phase gains at 20 dB pilot SNR survive a
        # 3-sigma posterior threshold in at least 99% of trials
        cfg = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)
        grid = basis_grid(tau_m=3, nu_m=2)
        x_p = proposed_pilot(cfg, pilot_power=100.0, r=0)
        psi = build_psi(x_p, grid, cfg)
        noise = 1.0  # pilot SNR = 20 dB
        prior = PriorModel(np.full(len(grid), 1.0), noise)
        eps = 3.0 * np.sqrt(mmse_estimate(np.zeros(64), psi, prior)[1])
        l_true = 3
        kept_all = 0
        n_trials = 1000
        for _ in range(n_trials):
            idx = rng.choice(len(grid), l_true, replace=False)
            alpha = np.zeros(len(grid), dtype=complex)
            alpha[idx] = np.exp(2j * np.pi * rng.uniform(size=l_true)) / math.sqrt(l_true)
            w = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * math.sqrt(noise / 2)
            est, _ = mmse_estimate(psi @ alpha + w, psi, prior)
            b = threshold_paths(est, eps)
            kept_all += int(np.all(b[idx] == 1))
        assert kept_all >= 0.99 * n_trials


class TestReconstruct:
    def test_zero_indicator(self):
        h = reconstruct_channel(np.ones(9), np.zeros(9), GRID, CFG)
        assert np.all(np.asarray(h) == 0)

    def test_exact_on_true_support(self, rng):
        real = sample_channel(L=3, tau_m=2, nu_m=1, rng=rng)
        h_true = channel_matrix(real, CFG)
        alpha = np.zeros(9, dtype=complex)
        for p in real.paths:
            alpha[GRID.index_of(p.delay, int(p.doppler))] = p.gain
        h_rec = reconstruct_channel(alpha, np.ones(9), GRID, CFG)
        assert np.linalg.norm(np.asarray(h_rec) - h_true) < 1e-10

    def test_matches_dense_oracle(self, rng):
        alpha = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        b = rng.integers(0, 2, 9)
        h = np.asarray(reconstruct_channel(alpha, b, GRID, CFG))
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
        h = reconstruct_channel(alpha, indicator, GRID, cfg)
        x_p = proposed_pilot(cfg, spec.pilot_power) if n_sub % 2 == 0 else random_unit_symbols(rng, n_sub)
        y = random_unit_symbols(rng, n_sub) * 1.5
        noise = 0.3
        sym, bits = equalize_demod(y, h, x_p, spec, noise)
        expect = dense_oracle.equalize(y, h, x_p, noise / spec.data_symbol_power)
        assert np.max(np.abs(sym - expect)) < 1e-10
        assert np.array_equal(bits, demap_symbols(expect, spec))

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
        empty = reconstruct_channel(np.ones(9), np.zeros(9), GRID, CFG)
        with pytest.raises(NumericalError):
            equalize_demod(np.ones(16), empty, np.zeros(16), spec, 0.0)

    def test_dense_matrix_rejected(self):
        spec = FrameSpec(0.0, 1.0, Constellation.QPSK)
        with pytest.raises(ParameterError):
            equalize_demod(np.ones(16), np.eye(16), np.zeros(16), spec, 0.1)


class TestIterative:
    def test_single_iteration_equals_plain_mmse(self, rng):
        cfg = AfdmConfig(n_sub=32, n_cpp=8, c1=4 / 32)
        grid = basis_grid(tau_m=2, nu_m=1)
        spec = FrameSpec(100.0, 1.0, Constellation.QPSK)
        x_p = proposed_pilot(cfg, 100.0, r=0)
        real = sample_channel(L=3, tau_m=2, nu_m=1, rng=rng, noise_power=0.5)
        _, x_d = random_data_vector(32, spec, rng)
        y = receive(transmit(x_p, x_d, cfg), real, cfg, rng)
        prior = PriorModel.uniform(grid, 0.0)
        res = iterative_estimate(y, x_p, spec, grid, cfg, 0.5, n_iter=1, prior=prior)
        c = effective_noise_covariance(prior.gain_variances, 1.0, 0.5)
        direct, _ = mmse_estimate(y, build_psi(x_p, grid, cfg), PriorModel(prior.gain_variances, c))
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
        y = receive(transmit(x_p, x_d, cfg), real, cfg)
        res = iterative_estimate(
            y, x_p, spec, grid, cfg, 0.0, n_iter=2, eps=0.0, known_data=x_d
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
        y1 = receive(transmit(x_p, np.zeros(32), cfg), real, cfg)
        y2 = receive(transmit(phase * x_p, np.zeros(32), cfg), real, cfg)
        res1 = iterative_estimate(y1, x_p, spec, grid, cfg, 0.0, n_iter=1, eps=0.0)
        res2 = iterative_estimate(y2, phase * x_p, spec, grid, cfg, 0.0, n_iter=1, eps=0.0)
        assert np.linalg.norm(np.asarray(res1.h_eff_hat) - np.asarray(res2.h_eff_hat)) < 1e-8
        assert np.linalg.norm(res2.alpha_hat - res1.alpha_hat) < 1e-8


class TestNoiseLevels:
    """The effective noise c of each iteration, returned beside the residual norms."""

    CFG64 = AfdmConfig(n_sub=64, n_cpp=8, c1=4 / 64)
    GRID64 = basis_grid(tau_m=3, nu_m=1)

    @pytest.mark.parametrize("noise_power", [0.0, 0.3, 1.0, 4.0])
    def test_first_is_the_prior_model_and_later_ones_at_least_the_noise(self, rng, noise_power):
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec = link_frame(rng, self.CFG64, self.GRID64, x_p)
        res = iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, noise_power, n_iter=4)
        prior = PriorModel.uniform(self.GRID64, 0.0)
        first = effective_noise_covariance(prior.gain_variances, spec.data_symbol_power, noise_power)
        assert len(res.noise_levels) == len(res.residual_norms) == 4
        assert all(type(c) is float for c in res.noise_levels)
        assert res.noise_levels[0] == first
        assert all(c >= noise_power for c in res.noise_levels[1:])

    def test_first_follows_a_callers_prior(self, rng):
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec = link_frame(rng, self.CFG64, self.GRID64, x_p)
        prior = PriorModel(np.linspace(0.0, 0.1, len(self.GRID64)), 0.0)
        res = iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, 1.0, prior=prior)
        assert res.noise_levels[0] == effective_noise_covariance(prior.gain_variances, spec.data_symbol_power, 1.0)
        assert res.noise_levels[1] >= 1.0


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


def link_frame(rng, cfg, grid, x_p):
    """A superimposed frame through 3 random grid paths at noise power 1: (y, spec)."""
    spec = FrameSpec(float(np.linalg.norm(x_p) ** 2), 30.0, Constellation.QPSK)
    real = sample_channel(L=3, tau_m=grid.tau_m, nu_m=grid.nu_m, rng=rng, noise_power=1.0)
    _, x_d = random_data_vector(cfg.n_sub, spec, rng)
    return receive(transmit(x_p, x_d, cfg), real, cfg, rng), spec


class TestIterativeContracts:
    """Malformed input raises before the pilot model is looked up."""

    def run(self, rng, reshape=lambda y, x_p: (y, x_p), **options):
        x_p = random_unit_symbols(rng, 16) * 4.0
        y, spec = link_frame(rng, CFG, GRID, x_p)
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
        monkeypatch.setattr(PathChannel, "regularized_solve", refuse)

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
        import scipy.linalg

        counts = {"factor": 0, "solve": 0}
        for name, key in (("cholesky_banded", "factor"), ("cho_solve_banded", "solve")):
            def counting(*args, _inner=getattr(scipy.linalg, name), _key=key, **kwargs):
                counts[_key] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, counting)
        return counts

    def test_frame_makes_two_factorizations_for_three_solves(self, rng, calls):
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec = link_frame(rng, self.CFG64, self.GRID64, x_p)
        res = iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, 1.0, n_iter=2)
        assert calls == {"factor": 2, "solve": 2}
        equalize_demod(y, res.h_eff_hat, x_p, spec, 1.0)
        assert calls == {"factor": 2, "solve": 3}

    def test_a_second_lam_refactors(self, rng, calls):
        h = reconstruct_channel(np.arange(9) + 1j, np.ones(9), GRID, CFG)
        r = random_unit_symbols(rng, 16)
        for lam, factors in [(0.1, 1), (0.1, 1), (0.2, 2), (0.2, 2), (0.1, 3)]:
            z = h.regularized_solve(r, lam)
            assert calls["factor"] == factors
            assert np.max(np.abs(z - dense_oracle.regularized_solve(h, r, lam))) < 1e-10
        assert calls["solve"] == 5

    def test_failed_factorization_is_not_kept(self, calls):
        # H = 0: lam = 0 leaves a zero matrix, any lam > 0 solves to zero
        empty = reconstruct_channel(np.ones(9), np.zeros(9), GRID, CFG)
        spec = FrameSpec(0.0, 1.0, Constellation.QPSK)
        for attempt in (1, 2):
            with pytest.raises(NumericalError):
                equalize_demod(np.ones(16), empty, np.zeros(16), spec, 0.0)
            assert calls == {"factor": attempt, "solve": 0}
        assert np.array_equal(empty.regularized_solve(np.ones(16), 0.5), np.zeros(16))
        with pytest.raises(np.linalg.LinAlgError):
            empty.regularized_solve(np.ones(16), 0.0)
        assert calls == {"factor": 4, "solve": 1}


class TestPilotModel:
    """Psi_p and its Gram are built once per (cfg, grid, pilot), and never reused stale."""

    CFG64 = AfdmConfig(n_sub=64, n_cpp=8, c1=4 / 64)
    GRID64 = basis_grid(tau_m=3, nu_m=1)

    def test_pilot_written_in_place_is_not_stale(self, rng):
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        y, spec = link_frame(rng, self.CFG64, self.GRID64, x_p)
        iterative_estimate(y, x_p, spec, self.GRID64, self.CFG64, 1.0)
        x_p *= np.exp(0.3j) * random_unit_symbols(rng, 64) * math.sqrt(2.0)
        y, spec = link_frame(rng, self.CFG64, self.GRID64, x_p)
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
        y, spec = link_frame(rng, self.CFG64, self.GRID64, x_p)
        # the same pilot bytes each time: only the rest of the key tells these apart
        variants = [
            (self.CFG64, self.GRID64),
            (self.CFG64, basis_grid(tau_m=1, nu_m=3)),
            (AfdmConfig(n_sub=64, n_cpp=8, c1=6 / 64), self.GRID64),
            (AfdmConfig(n_sub=64, n_cpp=8, c1=4 / 64, c2=0.3), self.GRID64),
        ]
        for cfg, grid in variants:
            res = iterative_estimate(y, x_p, spec, grid, cfg, 1.0, n_iter=1)
            prior = PriorModel.uniform(grid, 0.0)
            c = effective_noise_covariance(prior.gain_variances, spec.data_symbol_power, 1.0)
            direct, _ = mmse_estimate(y, build_psi(x_p, grid, cfg), PriorModel(prior.gain_variances, c))
            assert np.max(np.abs(res.alpha_hat - direct)) < 1e-12

    def test_two_frames_build_psi_once(self, rng):
        estimator._pilot_model.cache_clear()
        x_p = random_unit_symbols(rng, 64) * math.sqrt(30.0)
        for _ in range(2):
            y, spec = link_frame(rng, self.CFG64, self.GRID64, x_p)
            iterative_estimate(y, x_p.copy(), spec, self.GRID64, self.CFG64, 1.0)
        assert estimator._pilot_model.cache_info().misses == 1

    def test_model_is_built_without_a_transform(self, rng, monkeypatch):
        # Psi_p is the closed-form images of the pilot: a cache miss makes no FFT
        calls = []
        for name in ("idaft", "daft", "apply_basis"):
            def counting(*args, _name=name, _inner=getattr(estimator, name)):
                calls.append(_name)
                return _inner(*args)

            monkeypatch.setattr(estimator, name, counting)
        estimator._pilot_model.cache_clear()
        estimator._pilot_model(self.CFG64, self.GRID64, random_unit_symbols(rng, 64).tobytes())
        assert estimator._pilot_model.cache_info().misses == 1
        assert calls == []
        estimator.build_psi(np.ones(64), self.GRID64, self.CFG64)  # the counters do count
        assert calls == ["apply_basis"] * len(self.GRID64)

    def test_model_is_read_only(self, rng):
        # the model keeps Psi_p^H, so an iteration multiplies by it without a conjugate copy
        x_p = random_unit_symbols(rng, 64)
        psi_h, gram = estimator._pilot_model(self.CFG64, self.GRID64, x_p.tobytes())
        assert estimator._pilot_model(self.CFG64, self.GRID64, x_p.tobytes())[0] is psi_h
        ones = np.ones(len(self.GRID64))
        rows = reconstruct_channel(ones, ones, self.GRID64, self.CFG64).images(x_p)
        assert np.array_equal(psi_h, rows.conj())
        for arr in (psi_h, gram):
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
        _, gram = estimator._pilot_model(cfg, grid, x_p.tobytes())
        assert np.max(np.abs(gram - power * np.eye(len(grid)))) <= 1e-12 * power
