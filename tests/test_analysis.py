import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from afdm_isac import AfdmConfig, idaft
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
    subcarrier_offset,
    verify_theorem_2,
    verify_theorem_3,
    verify_theorem_4,
)
from afdm_isac.channel import SensingTarget, basis_grid
from afdm_isac.errors import NumericalError, ParameterError
from afdm_isac.modem import Constellation, FrameSpec
from afdm_isac.pilots import proposed_pilot, select_c1_q, traditional_spi_pilot

from conftest import random_unit_symbols


def fd_sensing_weights(power, target, cfg):
    """Central-difference delay-bound sensitivities (oracle for the closed form).

    Rebuilds the frac kernel and the bound front*c/(a*c - b^2) independently
    and steps each subcarrier's power by 1e-4 * Pt / Nc.
    """
    n = np.arange(cfg.n_sub)
    val = 2 * cfg.c1 * (n[None, :] - target.delay_samples) + n[:, None] / cfg.n_sub
    frac = val - np.floor(val)
    ramp = n / cfg.n_sub
    a_m, b_m, c0 = np.sum(frac * frac, axis=1), frac @ ramp, ramp @ ramp
    p = power.powers
    a, b, c = p @ a_m, p @ b_m, p.sum() * c0
    front = target.noise_power * cfg.n_sub / (8 * np.pi**2 * abs(target.gain) ** 2)
    h = 1e-4 * power.total / cfg.n_sub
    out = np.empty(cfg.n_sub)
    for m in range(cfg.n_sub):
        hi_a, hi_b, hi_c = a + h * a_m[m], b + h * b_m[m], c + h * c0
        lo_a, lo_b, lo_c = a - h * a_m[m], b - h * b_m[m], c - h * c0
        hi = front * hi_c / (hi_a * hi_c - hi_b * hi_b)
        lo = front * lo_c / (lo_a * lo_c - lo_b * lo_b)
        out[m] = (hi - lo) / (2.0 * h)
    return out


def af_direct(s, tau, nu):
    """Brute-force cyclic ambiguity value (oracle)."""
    n = len(s)
    total = 0.0 + 0.0j
    for i in range(n):
        total += np.conj(s[i]) * s[(i - tau) % n] * np.exp(2j * np.pi * nu * i / n)
    return total


class TestAmbiguityFunction:
    def test_origin_is_total_energy(self, rng):
        cfg = AfdmConfig(n_sub=16, c1=1 / 8)
        x = random_unit_symbols(rng, 16) * 2.0
        s = idaft(x, cfg)
        surf = ambiguity_function(s, ambiguity_region(2, 1), cfg)
        assert surf.at(0, 0) == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-10)

    def test_matches_brute_force(self, rng):
        cfg = AfdmConfig(n_sub=8, c1=1 / 8)
        s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        surf = ambiguity_function(s, ambiguity_region(3, 1), cfg)
        for tau in (-3, 0, 2):
            for nu in (-2, 0, 1):
                assert surf.at(tau, nu) == pytest.approx(af_direct(s, tau, nu), abs=1e-10)

    def test_volume_identity(self, rng):
        # sum over the full torus of |chi|^2 equals Nc * energy^2
        cfg = AfdmConfig(n_sub=8, c1=1 / 8)
        s = idaft(random_unit_symbols(rng, 8), cfg)
        taus = np.arange(8)
        nus = np.arange(8)
        chi = cross_ambiguity(s, s, taus, nus)
        energy = np.linalg.norm(s) ** 2
        assert np.sum(np.abs(chi) ** 2) == pytest.approx(8 * energy**2, rel=1e-10)

    @pytest.mark.parametrize("taus, nus", [([1], [0.5]), ([0.5], [1])])
    def test_fractional_axis_rejected(self, rng, taus, nus):
        s = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        with pytest.raises(ParameterError):
            cross_ambiguity(s, s, taus, nus)

    def test_decomposition_identity(self, rng):
        # bilinearity: the four parts reassemble the total-signal surface
        cfg = AfdmConfig(n_sub=32, c1=1 / 16)
        region = ambiguity_region(3, 2)
        for _ in range(20):
            x_p = proposed_pilot(cfg, pilot_power=4.0, r=0)
            x_d = random_unit_symbols(rng, 32)
            surf = ambiguity_decomposition(x_p, x_d, region, cfg)
            total = ambiguity_function(idaft(x_p + x_d, cfg), region, cfg)
            assert np.max(np.abs(surf.values - total.values)) < 1e-10
            recombined = sum(surf.parts.values())
            assert np.max(np.abs(surf.values - recombined)) < 1e-10


class TestInterferenceCoefficient:
    CFG = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32)

    def test_origin_diagonal(self):
        assert interference_coefficient(5, 5, 0, 0, self.CFG) == pytest.approx(128.0)

    def test_offset_rule(self):
        # tau=1, nu=0 couples subcarriers separated by 2*c1*Nc = 8
        assert subcarrier_offset(1, 0, self.CFG) == 8
        assert interference_coefficient(0, 8, 1, 0, self.CFG) != 0
        assert interference_coefficient(0, 7, 1, 0, self.CFG) == 0

    def test_matches_direct_sum(self, rng):
        # oracle: the defining geometric sum over n
        cfg = AfdmConfig(n_sub=32, c1=3 / 32)
        n = np.arange(32)
        for _ in range(1000):
            m1, m2 = rng.integers(0, 32, 2)
            tau = int(rng.integers(-4, 5))
            nu = int(rng.integers(-4, 5))
            direct = np.sum(
                np.exp(
                    2j
                    * np.pi
                    * (
                        cfg.c2 * (m2**2 - m1**2)
                        - (2 * cfg.c1 * tau + (m1 - m2 - nu) / 32.0) * n
                    )
                )
            )
            closed = interference_coefficient(m1, m2, tau, nu, cfg)
            assert abs(direct - closed) < 1e-9 * 32


class TestAfStatistics:
    CFG = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)

    def test_pilot_only_variance_zero(self):
        spec = FrameSpec(4.0, 0.0, Constellation.QPSK)
        _, var = af_statistics_closed_form(spec, self.CFG, at_origin=True)
        assert var == 0.0

    def test_qpsk_origin_variance(self):
        spec = FrameSpec(100.0, 0.5, Constellation.QPSK)
        _, var = af_statistics_closed_form(spec, self.CFG, at_origin=True)
        assert var == pytest.approx(2 * 0.5 * 100.0)

    def test_off_origin_variance(self):
        spec = FrameSpec(100.0, 0.5, Constellation.QPSK)
        _, var = af_statistics_closed_form(spec, self.CFG, at_origin=False)
        assert var == pytest.approx(2 * 0.5 * 100.0 + 0.25 * 64)

    def test_asymmetric_constellation_rejected(self):
        class Lopsided:
            squared_symbol_mean = 1.0
            fourth_moment = 1.0

        spec = FrameSpec.__new__(FrameSpec)
        object.__setattr__(spec, "pilot_power", 1.0)
        object.__setattr__(spec, "data_symbol_power", 1.0)
        object.__setattr__(spec, "constellation", Lopsided())
        with pytest.raises(ParameterError):
            af_statistics_closed_form(spec, self.CFG, at_origin=True)

    def test_mc_agrees_with_closed_form(self, rng):
        cfg = self.CFG
        spec = FrameSpec(16.0, 1.0, Constellation.QPSK)
        x_p = proposed_pilot(cfg, pilot_power=16.0, r=0)
        s_p = idaft(x_p, cfg)
        points = [(0, 0), (1, 0), (0, 1), (2, -1), (-1, 2)]
        mc = ambiguity_moments_mc(x_p, spec, cfg, points, n_frames=10_000, rng=rng)
        for j, (tau, nu) in enumerate(points):
            at_origin = tau == 0 and nu == 0
            pilot_af = af_direct(s_p, tau, nu)
            mean_cf, var_cf = af_statistics_closed_form(
                spec, cfg, at_origin, pilot_af=pilot_af
            )
            assert abs(mc["mean"][j] - mean_cf) < 3 * mc["se_mean"][j] + 1e-9
            assert abs(mc["variance"][j] - var_cf) < 3 * mc["se_variance"][j]


class TestTheorem2And3:
    def test_theorem_2_closed_and_mc(self, rng):
        cfg = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32)
        x_p = proposed_pilot(cfg, pilot_power=100.0, r=1)
        report = verify_theorem_2(
            cfg, pilot_power=100.0, total_data_power=128.0, n_frames=4000, rng=rng, x_pilot=x_p
        )
        assert report.passed
        assert report.details["origin"]["qpsk"] < report.details["origin"]["qam16"]

    def test_theorem_3_slope(self, rng):
        cfgs = [AfdmConfig(n_sub=n, c1=4 / n) for n in (64, 128, 256)]
        report = verify_theorem_3(
            cfgs,
            pilot_power=100.0,
            total_data_power=64.0,
            n_frames=3000,
            rng=rng,
            pilot_builder=lambda cfg: proposed_pilot(cfg, pilot_power=100.0, r=0),
        )
        assert report.passed
        assert -1.1 <= report.details["slope_mc"] <= -0.9


class TestTheorem4:
    def test_proposed_pilot_orthogonal_columns(self):
        cfg = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32)
        x_p = proposed_pilot(cfg, pilot_power=100.0, r=1)
        grid = basis_grid(tau_m=15, nu_m=2)
        report = verify_theorem_4(x_p, cfg, grid.pairs)
        assert report.passed
        assert report.details["max_offdiagonal"] <= 1e-10 * 100.0

    def test_identity_for_arbitrary_pilot(self, rng):
        cfg = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)
        x_p = random_unit_symbols(rng, 64) * rng.uniform(0.5, 2.0, 64)
        grid = basis_grid(tau_m=3, nu_m=2)
        report = verify_theorem_4(x_p, cfg, grid.pairs)
        assert report.passed  # identity holds even though the Gram is not diagonal

    def test_overreached_traditional_pilot_couples(self):
        cfg = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32)
        x_p = traditional_spi_pilot(cfg, 100.0, spacing=16, n_pilots=8)
        grid = basis_grid(tau_m=15, nu_m=2)
        report = verify_theorem_4(x_p, cfg, grid.pairs)
        assert report.passed
        assert report.details["max_offdiagonal"] > 0.01 * 100.0


class TestFim:
    CFG = AfdmConfig(n_sub=32, c1=5 / 64)

    def test_gain_entry_is_energy_ratio(self):
        power = equal_allocation(8.0, 32)
        target = SensingTarget(1.0, 2.3, 0.7, noise_power=2.0)
        f = fim(power, target, self.CFG)
        assert f[0, 0] == pytest.approx(2 * 8.0 / 2.0, rel=1e-12)
        assert f[0, 1] == 0.0 and f[0, 2] == 0.0

    def test_gain_scaling(self):
        power = equal_allocation(8.0, 32)
        t1 = SensingTarget(1.0, 2.3, 0.0, noise_power=1.0)
        t2 = SensingTarget(2.0, 2.3, 0.0, noise_power=1.0)
        f1, f2 = fim(power, t1, self.CFG), fim(power, t2, self.CFG)
        assert f2[1, 1] == pytest.approx(4 * f1[1, 1])
        assert f2[2, 2] == pytest.approx(4 * f1[2, 2])

    def test_positive_semidefinite(self, rng):
        for _ in range(10):
            p = PowerAllocation(rng.uniform(0.1, 1.0, 32))
            target = SensingTarget(
                rng.uniform(0.5, 2.0), rng.uniform(0.2, 3.8), 0.0, noise_power=1.0
            )
            eigs = np.linalg.eigvalsh(fim(p, target, self.CFG))
            assert eigs.min() > -1e-9


class TestCrb:
    CFG = AfdmConfig(n_sub=32, c1=5 / 64)

    def test_matches_fim_inversion(self, rng):
        for _ in range(20):
            p = PowerAllocation(rng.uniform(0.1, 1.0, 32))
            target = SensingTarget(1.3, rng.uniform(0.2, 3.8), 0.4, noise_power=0.7)
            bounds = crb(p, target, self.CFG)
            inv = np.linalg.inv(bounds.fim)
            assert bounds.crb_tau == pytest.approx(inv[1, 1], rel=1e-9)
            assert bounds.crb_nu == pytest.approx(inv[2, 2], rel=1e-9)

    def test_independent_reimplementation(self):
        # throwaway elementwise evaluation of the bound formulas
        cfg = AfdmConfig(n_sub=16, c1=5 / 32, delta_f=1e5, f_c=28e9)
        power = equal_allocation(16.0, 16)
        target = SensingTarget(1.0, 1.7, 0.0, noise_power=16.0 / 1.0 / 16)
        a = b = c = 0.0
        for n in range(16):
            for m in range(16):
                val = 2 * cfg.c1 * (n - 1.7) + m / 16
                frac = val - math.floor(val)
                a += power.powers[m] * frac * frac
                b += power.powers[m] * frac * (n / 16)
                c += power.powers[m] * (n / 16) ** 2
        det = a * c - b * b
        front = target.noise_power * 16 / (8 * math.pi**2)
        bounds = crb(power, target, cfg)
        assert bounds.crb_tau == pytest.approx(front * c / det, rel=1e-9)
        assert bounds.crb_nu == pytest.approx(front * a / det, rel=1e-9)
        assert bounds.crb_range == pytest.approx(
            (3e8 * cfg.t_s / 2) ** 2 * front * c / det, rel=1e-9
        )

    def test_gain_quartering(self):
        power = equal_allocation(8.0, 32)
        b1 = crb(power, SensingTarget(1.0, 1.2, 0.0, 1.0), self.CFG)
        b2 = crb(power, SensingTarget(2.0, 1.2, 0.0, 1.0), self.CFG)
        assert b2.crb_tau == pytest.approx(b1.crb_tau / 4)

    def test_ofdm_delay_independent(self):
        cfg = AfdmConfig(n_sub=32, c1=0.0)
        power = equal_allocation(8.0, 32)
        vals = [
            crb(power, SensingTarget(1.0, tau, 0.0, 1.0), cfg).crb_tau
            for tau in (0.0, 1.3, 2.9)
        ]
        assert max(vals) - min(vals) < 1e-12 * vals[0]

    def test_degenerate_geometry_raises(self):
        # a delta allocation on subcarrier 0 with c1=0 gives frac == 0
        cfg = AfdmConfig(n_sub=8, c1=0.0)
        powers = np.zeros(8)
        powers[0] = 1.0
        with pytest.raises(NumericalError):
            crb(PowerAllocation(powers), SensingTarget(1.0, 0.0, 0.0, 1.0), cfg)


class TestNumericHessianOracle:
    def test_fim_matches_fd_hessian(self, rng):
        # noise-averaged negative log-likelihood curvature, averaged over
        # random constant-modulus data, against the closed form
        cfg = AfdmConfig(n_sub=16, c1=5 / 32)
        sigma_s2 = 0.8
        beta = 1.2
        tau0, nu0 = 1.3, 0.6
        sd2 = 1.0
        n_draws = 400_000

        def synth_matrix(beta_v, tau_v, nu_v):
            n = np.arange(16, dtype=float)[:, None]
            m = np.arange(16, dtype=float)[None, :]
            xi = n - tau_v
            wrap = np.floor(2 * cfg.c1 * xi + m / 16)
            phase = cfg.c1 * xi * xi + m * xi / 16 - wrap * xi + cfg.c2 * m * m
            ramp = np.exp(2j * np.pi * nu_v * n / 16)
            return beta_v * ramp * np.exp(2j * np.pi * phase) / 4.0

        c_hat = np.zeros((16, 16), dtype=complex)
        chunk = 100_000
        for _ in range(n_draws // chunk):
            x = random_unit_symbols(rng, chunk * 16).reshape(chunk, 16)
            c_hat += x.conj().T @ x
        c_hat /= n_draws

        b0 = synth_matrix(beta, tau0, nu0)

        def g(beta_v, tau_v, nu_v):
            m = b0 - synth_matrix(beta_v, tau_v, nu_v)
            return float(np.real(np.trace(m @ c_hat @ m.conj().T))) / sigma_s2

        steps = (1e-5, 1e-4, 1e-4)
        theta0 = (beta, tau0, nu0)

        def g_at(offsets):
            return g(*(t + o for t, o in zip(theta0, offsets)))

        hess = np.zeros((3, 3))
        for i in range(3):
            ei = np.eye(3)[i] * steps[i]
            hess[i, i] = (g_at(ei) + g_at(-ei)) / steps[i] ** 2
            for j in range(i + 1, 3):
                ej = np.eye(3)[j] * steps[j]
                val = (g_at(ei + ej) - g_at(ei - ej) - g_at(-ei + ej) + g_at(-ei - ej)) / (
                    4 * steps[i] * steps[j]
                )
                hess[i, j] = hess[j, i] = val

        closed = fim(
            equal_allocation(16 * sd2, 16),
            SensingTarget(beta, tau0, nu0, sigma_s2),
            cfg,
        )
        scale = np.sqrt(np.outer(np.diag(closed), np.diag(closed)))
        assert np.max(np.abs(hess - closed) / scale) < 2e-3


class TestSensingWeights:
    @pytest.mark.parametrize("n_sub", [16, 256])
    def test_matches_fd_oracle_per_subcarrier(self, n_sub):
        cfg = AfdmConfig(n_sub=n_sub, c1=4 / n_sub)
        power = frame_power_profile(proposed_pilot(cfg, pilot_power=n_sub / 4, r=0), 1.0)
        target = SensingTarget(1.0, 3.3, 0.7, 1.0)
        np.testing.assert_allclose(
            sensing_weights(power, target, cfg), fd_sensing_weights(power, target, cfg), rtol=1e-6
        )

    def test_linearization(self):
        cfg = AfdmConfig(n_sub=16, c1=5 / 32)
        power = equal_allocation(16.0, 16)
        target = SensingTarget(1.0, 0.0, 0.0, 1.0)
        weights = sensing_weights(power, target, cfg)
        h = 1e-5
        bumped = crb(PowerAllocation(power.powers + h), target, cfg).crb_tau
        base = crb(power, target, cfg).crb_tau
        assert np.sum(weights) * h == pytest.approx(bumped - base, rel=1e-3)

    def test_waveform_spread_ordering(self):
        # balanced chirp rate gives the flattest per-subcarrier sensitivity
        target = SensingTarget(1.0, 0.0, 0.0, 1.0)
        spreads = {}
        for name, c1 in [("afdm", 5 / 32), ("ocdm", 1 / 32), ("ofdm", 0.0)]:
            cfg = AfdmConfig(n_sub=16, c1=c1)
            w = sensing_weights(equal_allocation(16.0, 16), target, cfg)
            spreads[name] = np.ptp(w)
        assert spreads["afdm"] < spreads["ocdm"] < spreads["ofdm"]


class TestCrbDistribution:
    def test_rows_match_crb_at_their_own_totals(self, rng):
        cfg = AfdmConfig(n_sub=16, c1=5 / 32)
        target = SensingTarget(1.0, 1.3, 0.2, 0.5)
        rows = rng.uniform(0.1, 2.0, (4, 16))
        out = crb_distribution(cfg, target, 16.0, 0, rng, allocations=rows)
        for row, value in zip(rows, out["values"]):
            assert value == pytest.approx(crb(PowerAllocation(row), target, cfg).crb_tau, rel=1e-12)

    def test_degenerate_row_raises(self, rng):
        # the delta allocation of TestCrb::test_degenerate_geometry_raises
        cfg = AfdmConfig(n_sub=8, c1=0.0)
        rows = np.ones((3, 8))
        rows[1] = 0.0
        rows[1, 0] = 1.0
        with pytest.raises(NumericalError):
            crb_distribution(cfg, SensingTarget(1.0, 0.0, 0.0, 1.0), 8.0, 0, rng, allocations=rows)

    def test_negative_row_raises(self, rng):
        cfg = AfdmConfig(n_sub=8, c1=1 / 8)
        rows = np.ones((3, 8))
        rows[2, 3] = -0.5
        with pytest.raises(ParameterError):
            crb_distribution(cfg, SensingTarget(1.0, 0.0, 0.0, 1.0), 8.0, 0, rng, allocations=rows)

    def test_point_mass_for_fixed_allocation(self, rng):
        cfg = AfdmConfig(n_sub=16, c1=5 / 32)
        target = SensingTarget(1.0, 0.0, 0.0, 1.0)
        fixed = np.tile(np.full(16, 1.0), (50, 1))
        out = crb_distribution(cfg, target, 16.0, 0, rng, allocations=fixed)
        assert out["variance"] == pytest.approx(0.0, abs=1e-24)

    def test_ofdm_variance_exceeds_afdm(self, rng):
        target = SensingTarget(1.0, 0.0, 0.0, 1.0)
        out_afdm = crb_distribution(
            AfdmConfig(n_sub=16, c1=5 / 32), target, 16.0, 4000, rng
        )
        out_ofdm = crb_distribution(
            AfdmConfig(n_sub=16, c1=0.0), target, 16.0, 4000, rng
        )
        assert out_ofdm["variance"] > out_afdm["variance"]
        assert abs(out_ofdm["mean"] - out_afdm["mean"]) < 0.5 * out_afdm["mean"]


CONTRACT_CFG = AfdmConfig(n_sub=16, c1=5 / 32)
BOUND_CALLS = {
    "fim": lambda p, t: fim(PowerAllocation(p), t, CONTRACT_CFG),
    "crb": lambda p, t: crb(PowerAllocation(p), t, CONTRACT_CFG),
    "sensing_weights": lambda p, t: sensing_weights(PowerAllocation(p), t, CONTRACT_CFG),
    "crb_distribution": lambda p, t: crb_distribution(
        CONTRACT_CFG, t, 16.0, 0, None, allocations=np.tile(p, (3, 1))
    ),
}


class TestBoundContracts:
    @pytest.mark.parametrize("name", sorted(BOUND_CALLS))
    def test_rejects_bad_allocation_length_and_zero_gain(self, name):
        call = BOUND_CALLS[name]
        target = SensingTarget(1.0, 1.3, 0.2, 1.0)
        call(np.ones(16), target)
        with pytest.raises(ParameterError):
            call(np.ones(15), target)
        with pytest.raises(ParameterError):
            call(np.ones(17), target)
        with pytest.raises(ParameterError):
            call(np.ones(16), SensingTarget(0.0, 1.3, 0.2, 1.0))

    @settings(max_examples=40, deadline=None)
    @given(
        log2_n=st.integers(3, 8),
        two_c1_n=st.integers(0, 256),
        powers=arrays(np.float64, 256, elements=st.floats(0.1, 10.0)),
        tau=st.floats(0.0, 8.0),
        nu=st.floats(-4.0, 4.0),
        gain=st.floats(0.1, 10.0),
        noise_power=st.floats(0.01, 10.0),
    )
    def test_closed_forms_match_oracles(self, log2_n, two_c1_n, powers, tau, nu, gain, noise_power):
        n_sub = 2**log2_n
        cfg = AfdmConfig(n_sub=n_sub, c1=(two_c1_n % (n_sub + 1)) / (2 * n_sub))
        power = PowerAllocation(powers[:n_sub])
        target = SensingTarget(gain, tau, nu, noise_power)
        np.testing.assert_allclose(
            sensing_weights(power, target, cfg), fd_sensing_weights(power, target, cfg), rtol=1e-6
        )
        bounds = crb(power, target, cfg)
        inv = np.linalg.inv(fim(power, target, cfg))
        assert bounds.crb_tau == pytest.approx(inv[1, 1], rel=1e-9)
        assert bounds.crb_nu == pytest.approx(inv[2, 2], rel=1e-9)


class TestPowerProfiles:
    def test_frame_profile(self):
        x_p = np.zeros(8, dtype=complex)
        x_p[0] = 2.0
        prof = frame_power_profile(x_p, 0.5)
        assert prof.total == pytest.approx(4.0 + 8 * 0.5)

    def test_negative_power_rejected(self):
        with pytest.raises(ParameterError):
            PowerAllocation(np.array([1.0, -0.1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_power_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            PowerAllocation(np.array([1.0, bad]))
        with pytest.raises(ParameterError, match="finite"):
            equal_allocation(bad, 8)
