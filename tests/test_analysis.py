import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dense_oracle
from afdm_isac import AfdmConfig, analysis, estimator, idaft
from afdm_isac.analysis import (
    PowerAllocation,
    _fim_kernels,
    _frac_table,
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
from afdm_isac.channel import PathChannel, SensingTarget, apply_basis, basis_grid, subcarrier_offset
from afdm_isac.errors import ConfigurationError, NumericalError, ParameterError
from afdm_isac.estimator import iterative_estimate
from afdm_isac.modem import Constellation, FrameSpec
from afdm_isac.pilots import proposed_pilot, select_c1_q, single_pilot, traditional_spi_pilot

from conftest import random_unit_symbols

# the benchmark's workloads, read as they are: the repository root holds ``perfbench``
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import AnalysisParams, analysis_report  # noqa: E402


def exact_frac_kernel(cfg, tau_bar):
    """frac(2*c1*(n - tau_bar) + m/Nc) in exact rational arithmetic, rounded once.

    2*c1*(n - tau_bar) + m/Nc is (r - K*tau_bar)/Nc plus an integer, with
    K = 2*c1*Nc and r = <K*n + m>_Nc, so the kernel reads a table of Nc
    values, each the fractional part of a ``Fraction`` of the float tau_bar.
    """
    k, n = cfg.two_c1_n, np.arange(cfg.n_sub)
    shift = k * Fraction(tau_bar)
    table = np.array([float(((r - shift) / cfg.n_sub) % 1) for r in range(cfg.n_sub)])
    return table[(k * n[None, :] + n[:, None]) % cfg.n_sub]


def fd_sensing_weights(power, target, cfg):
    """Central-difference delay-bound sensitivities (oracle for the closed form).

    Rebuilds the frac kernel exactly and the bound front*c/(a*c - b^2)
    independently and steps each subcarrier's power by 1e-4 * Pt / Nc.
    """
    n = np.arange(cfg.n_sub)
    frac = exact_frac_kernel(cfg, target.delay_samples)
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
        chi = cross_ambiguity(s, s, taus, nus, cfg)
        energy = np.linalg.norm(s) ** 2
        assert np.sum(np.abs(chi) ** 2) == pytest.approx(8 * energy**2, rel=1e-10)

    @pytest.mark.parametrize("tau, nu", [(9, 0), (0, 3), (0.5, 0)])
    def test_point_off_the_axes_rejected(self, rng, tau, nu):
        cfg = AfdmConfig(n_sub=16, c1=1 / 8)
        s = idaft(random_unit_symbols(rng, 16), cfg)
        surf = ambiguity_function(s, ambiguity_region(2, 1), cfg)
        with pytest.raises(ParameterError):
            surf.at(tau, nu)

    @pytest.mark.parametrize("taus, nus", [([1], [0.5]), ([0.5], [1])])
    def test_fractional_axis_rejected(self, rng, taus, nus):
        s = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        with pytest.raises(ParameterError):
            cross_ambiguity(s, s, taus, nus, AfdmConfig(n_sub=16))

    @pytest.mark.parametrize(
        "taus, nus", [([1e19], [0]), ([1e19, 1e19 + 2048], [0]), ([0], [-1e19])]
    )
    def test_axis_beyond_int64_rejected(self, rng, taus, nus):
        # a whole float at or beyond 2^63 has no int64 value, so it is refused, not wrapped
        s = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        with pytest.raises(ParameterError):
            cross_ambiguity(s, s, taus, nus, AfdmConfig(n_sub=15, c1=1 / 30))

    def test_decomposition_identity(self, rng):
        # bilinearity: the four parts reassemble the total-signal surface
        cfg = AfdmConfig(n_sub=32, c1=1 / 16)
        region = ambiguity_region(3, 2)
        for _ in range(20):
            x_p = proposed_pilot(cfg, pilot_power=4.0, r=0)
            x_d = random_unit_symbols(rng, 32)
            surf, parts = ambiguity_decomposition(x_p, x_d, region, cfg)
            total = ambiguity_function(idaft(x_p + x_d, cfg), region, cfg)
            assert np.max(np.abs(surf.values - total.values)) < 1e-10
            recombined = sum(parts.values())
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

    @pytest.mark.parametrize("m1, m2", [(-1, 7), (7, -1), (128, 0), (0, 128), (0.5, 8)])
    def test_subcarrier_outside_the_symbol_rejected(self, m1, m2):
        with pytest.raises(ParameterError):
            interference_coefficient(m1, m2, 1, 0, self.CFG)


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

    def test_mc_runs_above_the_dense_matrix_size(self):
        # the origin value of a frame is its energy (the DAFT is unitary); the
        # data draws are replayed from the same seed
        cfg = AfdmConfig(n_sub=8192, c1=4 / 8192)
        spec = FrameSpec(64.0, 1.0, Constellation.QPSK)
        x_p = proposed_pilot(cfg, pilot_power=64.0)
        mc = ambiguity_moments_mc(x_p, spec, cfg, [(0, 0)], 4, np.random.default_rng(7))
        draws = dense_oracle.symbol_draws(np.random.default_rng(7), spec.constellation, 4, 8192)
        frames = spec.constellation.points[draws] * spec.sigma_d + x_p
        energies = np.sum(np.abs(frames) ** 2, axis=1)
        assert mc["mean"][0] == pytest.approx(energies.mean(), rel=1e-12)

    def test_origin_alone_builds_no_channel(self, monkeypatch):
        # the origin reads the frame energy, so with no other point there is
        # no PathChannel to build and no images call to make
        def no_channel(*args):
            raise AssertionError("a PathChannel for the origin alone")

        monkeypatch.setattr(analysis, "PathChannel", no_channel)
        spec = FrameSpec(16.0, 1.0, Constellation.QAM16)
        x_p = proposed_pilot(self.CFG, pilot_power=16.0, r=0)
        mc = ambiguity_moments_mc(x_p, spec, self.CFG, [(0, 0), (0, 0)], 6, np.random.default_rng(5))
        draws = dense_oracle.symbol_draws(np.random.default_rng(5), spec.constellation, 6, self.CFG.n_sub)
        energies = np.sum(np.abs(spec.constellation.points[draws] * spec.sigma_d + x_p) ** 2, axis=1)
        np.testing.assert_allclose(mc["mean"], energies.mean(), rtol=1e-12)
        np.testing.assert_allclose(mc["variance"], energies.var(), rtol=1e-9)

    @pytest.mark.parametrize("point", [(0.5, 0), (1, 0.5)])
    def test_mc_rejects_fractional_points(self, rng, point):
        spec = FrameSpec(16.0, 1.0, Constellation.QPSK)
        x_p = proposed_pilot(self.CFG, pilot_power=16.0, r=0)
        with pytest.raises(ParameterError):
            ambiguity_moments_mc(x_p, spec, self.CFG, [(0, 0), point], n_frames=10, rng=rng)


class TestAmbiguityMomentsInTheDaftDomain:
    CFG = AfdmConfig(n_sub=16, c1=5 / 32)
    SPEC = FrameSpec(16.0, 1.0, Constellation.QPSK)
    PILOT = np.full(16, 1.0 + 0.0j)

    @settings(max_examples=30, deadline=None)
    @given(
        n_sub=st.sampled_from([2**k for k in range(1, 11)] + [15, 63]),
        k_frac=st.floats(0.0, 1.0),
        qam16=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        points=st.lists(
            st.tuples(st.floats(-2.5, 2.5), st.floats(-1.0, 1.0)), min_size=1, max_size=5
        ),
    )
    @example(n_sub=64, k_frac=0.0, qam16=False, seed=1, points=[(0.0, 0.0), (-0.05, 0.1)])
    @example(n_sub=63, k_frac=5 / 63, qam16=True, seed=2, points=[(1.02, -0.1), (-1.5, 0.2)])
    def test_matches_the_time_domain_oracle(self, n_sub, k_frac, qam16, seed, points):
        # odd Nc with odd K = 2*c1*Nc makes the extension antiperiodic; points are
        # drawn as fractions of Nc, so delays reach past one symbol either way
        cfg = AfdmConfig(n_sub=n_sub, c1=round(k_frac * n_sub) / (2 * n_sub))
        pts = [(round(t * n_sub), round(v * n_sub)) for t, v in points]
        spec = FrameSpec(4.0, 0.5, Constellation.QAM16 if qam16 else Constellation.QPSK)
        draws = np.random.default_rng(seed)
        x_p = draws.standard_normal(n_sub) + 1j * draws.standard_normal(n_sub)
        mc = ambiguity_moments_mc(x_p, spec, cfg, pts, 6, np.random.default_rng(seed))
        oracle = dense_oracle.ambiguity_moments_time_domain(
            x_p, spec, cfg, pts, 6, np.random.default_rng(seed)
        )
        # |A(tau, nu)| is at most the frame energy (Cauchy-Schwarz; |16-QAM|^2 <= 1.8)
        scale = np.linalg.norm(x_p) ** 2 + 2.0 * n_sub * spec.data_symbol_power
        for key, power in (("mean", 1), ("se_mean", 1), ("variance", 2), ("se_variance", 2)):
            np.testing.assert_allclose(
                mc[key], oracle[key], rtol=1e-10, atol=1e-10 * scale**power, err_msg=key
            )

    @pytest.mark.parametrize("n_sub, two_c1_n", [(16, 2), (63, 5)])  # K*Nc even, odd
    def test_far_points_match_one_correlation_per_frame(self, n_sub, two_c1_n):
        # delays past one symbol and below -2*Nc read the extension several symbols
        # away; a Doppler near 2^62 (whole in float64) needs nu mod Nc before any
        # int64 product
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        spec = FrameSpec(4.0, 0.5, Constellation.QAM16)
        x_p = np.exp(2j * np.pi * np.arange(n_sub) ** 2 / n_sub)
        points = [(0, 0), (n_sub + 4, 1), (2 * n_sub + 3, -2), (-2 * n_sub - 1, 2),
                  (-3 * n_sub - 5, -1), (5, 2**62 + 3 * 1024)]
        mc = ambiguity_moments_mc(x_p, spec, cfg, points, 5, np.random.default_rng(3))
        draws = dense_oracle.symbol_draws(np.random.default_rng(3), spec.constellation, 5, n_sub)
        frames = idaft(spec.constellation.points[draws] * spec.sigma_d + x_p, cfg)
        values = np.array([
            [cross_ambiguity(s, s, [tau], [nu % n_sub], cfg)[0, 0] for tau, nu in points] for s in frames
        ])
        scale = np.max(np.abs(values))
        np.testing.assert_allclose(mc["mean"], values.mean(axis=0), rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(mc["variance"], values.var(axis=0), rtol=0, atol=1e-12 * scale**2)

    @pytest.mark.parametrize("n_frames", [0, -1, 2.5, True, "4"])
    def test_bad_frame_count_rejected_before_any_draw(self, rng, n_frames):
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="n_frames"):
            ambiguity_moments_mc(self.PILOT, self.SPEC, self.CFG, [(0, 0)], n_frames, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("points", [[], [(1, 2, 3)], [(0, 0), (1,)], [[0, 1], 2], "ab", (1, 2)])
    def test_empty_or_malformed_points_rejected_before_any_draw(self, rng, points):
        state = rng.bit_generator.state
        with pytest.raises(ParameterError):
            ambiguity_moments_mc(self.PILOT, self.SPEC, self.CFG, points, 4, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("shape", [(15,), (17,), (2, 16), ()])
    def test_pilot_of_the_wrong_shape_rejected_before_any_draw(self, rng, shape):
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError):
            ambiguity_moments_mc(np.ones(shape), self.SPEC, self.CFG, [(0, 0)], 4, rng)
        assert rng.bit_generator.state == state

    def test_monte_carlo_makes_no_transform_and_no_delayed_stack(self, monkeypatch, rng):
        def forbidden(*args, **kwargs):
            raise AssertionError("the ambiguity Monte Carlo must stay in the DAFT domain")

        monkeypatch.setattr(analysis, "idaft", forbidden)
        monkeypatch.setattr(analysis, "cross_ambiguity", forbidden)
        cfg = AfdmConfig(n_sub=64, c1=1 / 16)
        x_p = proposed_pilot(cfg, pilot_power=16.0, r=0)
        mc = ambiguity_moments_mc(x_p, self.SPEC, cfg, [(0, 0), (3, -1), (-70, 2)], 50, rng)
        assert np.all(np.isfinite(mc["variance"]))
        report = verify_theorem_2(cfg, 16.0, 64.0, n_frames=200, rng=rng, x_pilot=x_p)
        assert "mc_origin" in report.details


class TestAmbiguitySymbolDraws:
    """The Monte Carlo's data symbols: packed random bytes, whole 32-bit words per frame."""

    # (Nc, constellation, bytes per frame): 63 is no multiple of the symbols per
    # byte, and 21 QPSK symbols (6 bytes) and 21 16-QAM symbols (11) round up
    CASES = [
        (21, Constellation.QPSK, 8),
        (21, Constellation.QAM16, 12),
        (63, Constellation.QPSK, 16),
        (63, Constellation.QAM16, 32),
        (1024, Constellation.QPSK, 256),
        (1024, Constellation.QAM16, 512),
    ]

    @pytest.mark.parametrize("budget", [None, 1])  # default blocks, one frame per block
    @pytest.mark.parametrize("n_sub, constellation, frame_bytes", CASES)
    def test_frames_are_the_oracle_draws(self, monkeypatch, budget, n_sub, constellation, frame_bytes):
        if budget is not None:
            monkeypatch.setattr(analysis, "_BLOCK_BYTES", budget)
        cfg = AfdmConfig(n_sub=n_sub, c1=1 / (2 * n_sub))
        spec = FrameSpec(4.0, 0.5, constellation)
        x_p = 2.0 * np.exp(2j * np.pi * np.arange(n_sub) ** 2 / n_sub)
        rng = np.random.default_rng(11)
        mc = ambiguity_moments_mc(x_p, spec, cfg, [(0, 0)], 9, rng)
        draws = dense_oracle.symbol_draws(np.random.default_rng(11), constellation, 9, n_sub)
        energies = np.sum(np.abs(constellation.points[draws] * spec.sigma_d + x_p) ** 2, axis=1)
        np.testing.assert_allclose(mc["mean"], energies.mean(), rtol=1e-12)
        np.testing.assert_allclose(mc["variance"], energies.var(), rtol=1e-9)
        ref = np.random.default_rng(11)
        ref.bytes(9 * frame_bytes)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n_sub, constellation, frame_bytes", CASES[2:])
    def test_every_point_is_equally_likely(self, n_sub, constellation, frame_bytes):
        n_frames = -(-(2**16) // n_sub)
        draws = dense_oracle.symbol_draws(np.random.default_rng(12), constellation, n_frames, n_sub)
        m = len(constellation.points)
        share = np.bincount(draws.ravel(), minlength=m) / draws.size
        sigma = math.sqrt((1 / m) * (1 - 1 / m) / draws.size)
        assert np.all(np.abs(share - 1 / m) <= 5 * sigma), share


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
        # K*N even (64, 1/16) and odd (63, 1/126), (65, 3/130)
        for n_sub, c1 in [(64, 1 / 16), (63, 1 / 126), (65, 3 / 130)]:
            cfg = AfdmConfig(n_sub=n_sub, n_cpp=16, c1=c1)
            x_p = random_unit_symbols(rng, n_sub) * rng.uniform(0.5, 2.0, n_sub)
            grid = basis_grid(tau_m=3, nu_m=2)
            report = verify_theorem_4(x_p, cfg, grid.pairs)
            assert report.passed  # identity holds even though the Gram is not diagonal

    @pytest.mark.parametrize(
        "pairs", [[], [(0, 0), (1.5, 0)], [(0, 0), (1, 0.5)], [(0, 0), (1, 0, 2)]]
    )
    def test_malformed_pairs_rejected(self, pairs):
        cfg = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)
        with pytest.raises(ParameterError):
            verify_theorem_4(proposed_pilot(cfg, pilot_power=4.0), cfg, pairs)

    @pytest.mark.parametrize("n_sub, two_c1_n", [(64, 4), (16, 1), (63, 5), (65, 3), (15, 2), (8, 0)])
    def test_closed_form_rows_match_apply_basis(self, rng, n_sub, two_c1_n):
        # K*Nc even for (64, 4), (16, 1), (15, 2), (8, 0) and odd for (63, 5), (65, 3)
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        x = rng.standard_normal(n_sub) + 1j * rng.standard_normal(n_sub)
        taus = rng.integers(0, n_sub, 12)
        nus = rng.integers(-n_sub, n_sub + 1, 12)
        rows = PathChannel(cfg, taus, nus, np.ones(12)).images(x)
        ref = apply_basis(x, cfg, taus, nus.astype(float))
        assert rows.shape == (12, n_sub)
        assert np.max(np.abs(rows - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape", [(63,), (65,), (2, 64), ()])
    def test_pilot_of_the_wrong_shape_rejected(self, shape):
        cfg = AfdmConfig(n_sub=64, n_cpp=16, c1=1 / 16)
        with pytest.raises(ConfigurationError):
            verify_theorem_4(np.ones(shape), cfg, [(0, 0), (1, 1)])

    def test_overreached_traditional_pilot_couples(self):
        cfg = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32)
        # the (1, 2) footprint's comb, spacing 13 and 9 pilots, against the (15, 2) grid
        x_p = traditional_spi_pilot(cfg, 100.0, tau_m=1, nu_m=2)
        grid = basis_grid(tau_m=15, nu_m=2)
        report = verify_theorem_4(x_p, cfg, grid.pairs)
        assert report.passed
        assert report.details["max_offdiagonal"] > 0.01 * 100.0


THEOREM_4_PILOTS = {
    "proposed": lambda cfg: proposed_pilot(cfg, 37.5),
    "single": lambda cfg: single_pilot(cfg, 37.5),
    "traditional": lambda cfg: traditional_spi_pilot(cfg, 37.5, tau_m=8, nu_m=2),
    "random": lambda cfg: np.exp(2j * np.pi * np.random.default_rng(cfg.n_sub).uniform(size=cfg.n_sub)),
}
# (Nc, K = 2*c1*Nc): K*Nc even at Nc = 64 and 128, odd at 63 and 65, where no
# proposed pilot exists (it needs a power-of-two Nc)
THEOREM_4_CASES = [
    (n_sub, two_c1_n, family)
    for n_sub, two_c1_n in [(64, 4), (128, 8), (63, 5), (65, 3)]
    for family in THEOREM_4_PILOTS
    if family != "proposed" or n_sub % 2 == 0
]


class TestTheorem4SharedModel:
    """Theorem 4 reads the Gram of the estimator's cached pilot model."""

    CFG = AfdmConfig(n_sub=128, n_cpp=8, c1=1 / 32)
    GRID = basis_grid(8, 2)

    @pytest.mark.parametrize("n_sub, two_c1_n, family", THEOREM_4_CASES)
    def test_report_matches_the_direct_build(self, monkeypatch, n_sub, two_c1_n, family):
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=8, c1=two_c1_n / (2 * n_sub))
        x_p = THEOREM_4_PILOTS[family](cfg)
        gram = dense_oracle.pilot_gram(x_p, cfg, self.GRID.pairs)
        assert np.array_equal(estimator._pilot_model(cfg, self.GRID.pairs, x_p.tobytes()).gram, gram)
        report = verify_theorem_4(x_p, cfg, self.GRID.pairs)
        assert report.passed
        # the same report from the Gram built on the spot, bit for bit
        direct = estimator._PilotModel(None, gram, None, 0.0)
        monkeypatch.setattr(analysis, "_pilot_model", lambda *key: direct)
        assert verify_theorem_4(x_p, cfg, self.GRID.pairs).details == report.details

    def test_second_call_reads_the_cached_model(self, monkeypatch):
        calls = []
        images = PathChannel.images

        def counting(h, x):
            calls.append(np.shape(x))
            return images(h, x)

        monkeypatch.setattr(PathChannel, "images", counting)
        x_p = proposed_pilot(self.CFG, 37.5)
        estimator._pilot_model.cache_clear()
        first = verify_theorem_4(x_p, self.CFG, self.GRID.pairs)
        assert calls == [(128,)]
        # a fresh array and list of the same values: the key is the values
        second = verify_theorem_4(x_p.copy(), self.CFG, [list(pair) for pair in self.GRID.pairs])
        assert calls == [(128,)]
        info = estimator._pilot_model.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert second.details == first.details

    def test_link_frame_reads_the_theorem_4_model(self, monkeypatch, rng):
        cached = estimator._pilot_model
        models = []

        def recording(*key):
            models.append(cached(*key))
            return models[-1]

        monkeypatch.setattr(analysis, "_pilot_model", recording)
        monkeypatch.setattr(estimator, "_pilot_model", recording)
        x_p = proposed_pilot(self.CFG, 37.5)
        cached.cache_clear()
        verify_theorem_4(x_p, self.CFG, self.GRID.pairs)
        y = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        iterative_estimate(y, x_p, FrameSpec(37.5, 1.0), basis_grid(8, 2), self.CFG, 1.0)
        assert len(models) == 2 and models[1].psi_h is models[0].psi_h
        info = cached.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_a_write_to_the_pilot_reaches_no_later_report(self, rng):
        x_p = proposed_pilot(self.CFG, 37.5)
        kept = x_p.copy()
        first = verify_theorem_4(x_p, self.CFG, self.GRID.pairs)
        x_p[:] = random_unit_symbols(rng, 128)  # the caller reuses its array
        changed = verify_theorem_4(x_p, self.CFG, self.GRID.pairs)
        assert verify_theorem_4(kept, self.CFG, self.GRID.pairs).details == first.details
        estimator._pilot_model.cache_clear()
        assert verify_theorem_4(x_p.copy(), self.CFG, self.GRID.pairs).details == changed.details
        assert changed.details != first.details

    @pytest.mark.parametrize("n_sub, two_c1_n", [(16, 2), (63, 5)])
    def test_dopplers_act_mod_nc(self, n_sub, two_c1_n):
        # Dopplers shifted by whole multiples of Nc up to about 2^62 give the
        # same report; their differences used to wrap in int64, which was
        # refused at Nc = 16 and misread at Nc = 63
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        x_p = THEOREM_4_PILOTS["random"](cfg)
        pairs = [(0, 1), (1, -1), (2, 0)]
        shift = 2**62 // n_sub * n_sub
        far = [(0, 1 + shift), (1, -1 - shift), (2, 0)]
        assert verify_theorem_4(x_p, cfg, far).details == verify_theorem_4(x_p, cfg, pairs).details


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

    @pytest.mark.parametrize("n_sub, two_c1_n, tau_bar", [
        (63, 1, 0), (63, 2, -2), (96, 1, 0),
        # just past a tie the exact value lies just below 1, where a float mod
        # of K*(n - tau_bar) + m rounds onto the tie at n > 0 and reads 0
        (8, 1, 5e-324), (63, 5, 1e-300), (96, 1, 3 + 5e-16), (8, 1, 3 - 1e-16), (63, 5, 3 - 5e-16),
    ])
    def test_frac_kernel_exact_at_ties(self, n_sub, two_c1_n, tau_bar):
        # integer tau_bar puts 2*c1*(n - tau_bar) + m/N on exact ties, where frac is 0, not 1
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        h, u = _frac_table(cfg, float(tau_bar))
        kern = h[(u[None, :] + np.arange(n_sub)[:, None]) % n_sub]
        assert np.max(np.abs(kern - exact_frac_kernel(cfg, tau_bar))) <= 1e-15
        assert 0.0 <= kern.min() and kern.max() <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        n_sub=st.integers(1, 160),
        two_c1_n=st.integers(-200, 400),
        tau_num=st.integers(-64, 64),
        tau_den=st.sampled_from([1, 2, 3, 8]),
        nudge=st.sampled_from([0, 1, -1]),
    )
    @example(n_sub=100, two_c1_n=0, tau_num=5, tau_den=1, nudge=0)
    @example(n_sub=63, two_c1_n=130, tau_num=7, tau_den=3, nudge=0)
    @example(n_sub=8, two_c1_n=1, tau_num=0, tau_den=1, nudge=1)
    @example(n_sub=96, two_c1_n=1, tau_num=3, tau_den=1, nudge=1)
    def test_kernel_sums_match_dense_oracle(self, n_sub, two_c1_n, tau_num, tau_den, nudge):
        # K*tau_bar = K*num/den is a tie when den divides K*num (den = 3 gives a
        # near-tie), and the nudge steps one ulp off it; K = 0 and K >= N included
        tau = tau_num / tau_den
        if nudge:
            tau = float(np.nextafter(tau, nudge * np.inf))
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        a_m, b_m, *_ = _fim_kernels(SensingTarget(1.0, tau, 0.0, 1.0), cfg)
        kern = dense_oracle.frac_kernel(cfg, tau)
        ramp = np.arange(n_sub) / n_sub
        for fast, dense in ((a_m, np.sum(kern * kern, axis=1)), (b_m, kern @ ramp)):
            assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(dense)


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

    def test_equal_allocation_closed_form_at_large_n(self):
        # at equal allocation each sample reads every table entry once, so with
        # f = frac(K*tau_bar) > 0 the sums are sum_j h_j = sum_{j=1..N} (j - f)/N
        # and sum_j h_j^2 = sum_{j=1..N} (j - f)^2/N^2, in exact arithmetic here
        n, k, tau, total = 65536, 8, 3.3, 65536.0
        cfg = AfdmConfig(n_sub=n, c1=k / (2 * n))
        f = k * Fraction(tau) % 1
        sum_h = (Fraction(n * (n + 1), 2) - n * f) / n
        sum_h2 = (Fraction(n * (n + 1) * (2 * n + 1), 6) - f * n * (n + 1) + n * f * f) / n**2
        a = Fraction(total) * sum_h2
        b = Fraction(total) / n * sum_h * Fraction(n - 1, 2)
        c = Fraction(total) * Fraction((n - 1) * (2 * n - 1), 6 * n)
        front = n / (8 * math.pi**2)
        bounds = crb(equal_allocation(total, n), SensingTarget(1.0, tau, 0.0, 1.0), cfg)
        assert bounds.crb_tau == pytest.approx(front * float(c / (a * c - b * b)), rel=1e-9)
        assert bounds.crb_nu == pytest.approx(front * float(a / (a * c - b * b)), rel=1e-9)

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
        for n_sub in (8, 100):
            cfg = AfdmConfig(n_sub=n_sub, c1=0.0)
            powers = np.zeros(n_sub)
            powers[0] = 1.0
            with pytest.raises(NumericalError):
                crb(PowerAllocation(powers), SensingTarget(1.0, 0.0, 0.0, 1.0), cfg)

    def test_ramp_kernel_is_degenerate(self):
        # a delta on subcarrier 0 with K = 1 and tau_bar = 0 has frac(n, 0) = n/Nc,
        # the Doppler ramp itself, so D = a*c - b^2 is exactly 0 and only rounding
        # decides its computed sign; on subcarrier 1 the kernel is no ramp
        target = SensingTarget(1.0, 0.0, 0.0, 1.0)
        for n_sub in (8, 16, 63, 64, 100, 1000):
            cfg = AfdmConfig(n_sub=n_sub, c1=1 / (2 * n_sub))
            powers = np.zeros(n_sub)
            powers[0] = 1.0
            with pytest.raises(NumericalError):
                crb(PowerAllocation(powers), target, cfg)
            bounds = crb(PowerAllocation(np.roll(powers, 1)), target, cfg)
            assert np.isfinite(bounds.crb_tau) and bounds.crb_tau > 0


    def test_offset_ramp_kernel_is_regular_at_large_n(self):
        # a delta on subcarrier 1 with K = 1 and tau_bar = 1/2 has frac(n, 1) = (n + 1/2)/Nc,
        # affine in n but no multiple of n/Nc: D = (Nc^2 - 1)/(48 Nc^2) > 0 while a*c
        # grows as Nc^2/9, so a threshold on D/(a*c) would call it singular at large
        # Nc.  On subcarrier 0 with tau_bar = 0 the kernel is the ramp itself.
        n = 2**20
        cfg = AfdmConfig(n_sub=n, c1=1 / (2 * n))
        powers = np.zeros(n)
        powers[1] = 1.0
        bounds = crb(PowerAllocation(powers), SensingTarget(1.0, 0.5, 0.0, 1.0), cfg)
        det = Fraction(n * n - 1, 48 * n * n)
        a = Fraction(sum((2 * k + 1) ** 2 for k in range(n)), 4 * n * n)
        c = Fraction((n - 1) * (2 * n - 1), 6 * n)
        front = n / (8 * math.pi**2)
        # a*c - b^2 cancels about 2e11-fold in floats at this size
        assert bounds.crb_tau == pytest.approx(front * float(c / det), rel=1e-3)
        assert bounds.crb_nu == pytest.approx(front * float(a / det), rel=1e-3)
        with pytest.raises(NumericalError):
            crb(PowerAllocation(np.roll(powers, -1)), SensingTarget(1.0, 0.0, 0.0, 1.0), cfg)

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
    def test_point_mass_for_one_draw(self, rng):
        cfg = AfdmConfig(n_sub=16, c1=5 / 32)
        target = SensingTarget(1.0, 0.0, 0.0, 1.0)
        out = crb_distribution(cfg, target, 16.0, 1, rng)
        assert out["variance"] == 0.0 and out["mean"] == out["values"][0]

    @pytest.mark.parametrize("n_draws", [2.5, True, 0, -1, "4"])
    def test_bad_draw_count_rejected_before_any_draw(self, rng, n_draws):
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="n_draws"):
            crb_distribution(AfdmConfig(n_sub=16, c1=5 / 32), SensingTarget(1.0, 1.3, 0.2, 1.0),
                             16.0, n_draws, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("c1, noise_power", [
        (1 / 128, 1.0),
        (5 / 128, 1.0),
        (1 / 128, 1e20),  # a bound near 1e17, where 0.5 is below an ulp
    ])
    def test_one_draw_gives_a_finite_density(self, rng, c1, noise_power):
        # one bound: equal ends, which the 60 bins widen; near 1e17 np.histogram's
        # own widening by 0.5 cannot hold 60 increasing bins
        cfg = AfdmConfig(n_sub=64, c1=c1)
        out = crb_distribution(cfg, SensingTarget(1.0, 1.3, 0.0, noise_power), 64.0, 1, rng)
        if noise_power > 1e10:
            with pytest.raises(ValueError, match="Too many bins"):
                np.histogram(out["values"], bins=60)
        density, edges = out["density"], out["bin_edges"]
        assert density.shape == (60,) and np.all(np.isfinite(density))
        assert edges.shape == (61,) and np.all(np.diff(edges) > 0)
        assert edges[0] <= out["values"].min() and out["values"].max() <= edges[-1]
        assert np.sum(density * np.diff(edges)) == pytest.approx(1.0, rel=1e-12)

    def test_block_totals_are_the_row_sums(self):
        # the benchmark's report: Nc = 1024, 2000 draws in blocks of 128
        c1, _ = select_c1_q(2, AfdmConfig(n_sub=1024))
        cfg = AfdmConfig(n_sub=1024, c1=c1)
        target = SensingTarget(1.0 + 0.0j, 3.3, 0.7, 1.0)
        total = 1280.0
        out = crb_distribution(cfg, target, total, 2000, np.random.default_rng(81))
        a_m, b_m, c0, ramp = analysis._fim_kernels(target, cfg)
        kernels = np.column_stack([a_m, b_m])
        rng = np.random.default_rng(81)
        block = analysis._BLOCK_BYTES // (8 * cfg.n_sub)
        values = []
        for start in range(0, 2000, block):
            draws = rng.standard_exponential((min(block, 2000 - start), cfg.n_sub))
            a, b = (draws @ kernels).T * (total / draws.sum(axis=-1))
            values.append(analysis._crb_from_sums(a, b, total * c0, draws, ramp, target, cfg)[0])
        assert np.array_equal(out["values"], np.concatenate(values))

    def test_all_zero_draw_row_is_a_numerical_error(self):
        class ZeroRow(np.random.Generator):
            """Unit draws, but every block's first row all 0."""

            def standard_exponential(self, out):
                out[:] = 1.0
                out[0] = 0.0
                return out

        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NumericalError):
            crb_distribution(AfdmConfig(n_sub=16, c1=5 / 32), SensingTarget(1.0, 1.3, 0.2, 1.0), 16.0, 4,
                             ZeroRow(np.random.PCG64(0)))

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


class TestMonteCarloBlocks:
    """The byte budget sizes the blocks of both Monte Carlo loops, never their results."""

    BUDGETS = [1, 1 << 40]  # one frame or draw per block, and one block

    def test_ambiguity_moments_do_not_depend_on_the_block_size(self, monkeypatch):
        # odd K*Nc, so the point past one symbol reads the flipped extension
        cfg = AfdmConfig(n_sub=63, c1=5 / 126)
        spec = FrameSpec(4.0, 0.5, Constellation.QAM16)
        x_p = np.exp(2j * np.pi * np.arange(63) ** 2 / 63)
        points = [(0, 0), (1, 0), (2, -3), (63 + 4, 1), (-2 * 63 - 1, 2)]

        def run():
            rng = np.random.default_rng(21)
            return ambiguity_moments_mc(x_p, spec, cfg, points, 37, rng), rng.random()

        expected, after = run()
        for budget in self.BUDGETS:
            monkeypatch.setattr(analysis, "_BLOCK_BYTES", budget)
            moments, next_draw = run()
            for key, value in expected.items():
                np.testing.assert_array_equal(moments[key], value, err_msg=f"{budget}: {key}")
            assert next_draw == after

    @pytest.mark.parametrize("budget", [1, None, 1 << 40])
    def test_drawn_bounds_are_those_of_dirichlet_draws(self, monkeypatch, budget):
        cfg = AfdmConfig(n_sub=64, c1=5 / 128)
        target = SensingTarget(1.0, 1.3, 0.2, 0.5)
        if budget is not None:
            monkeypatch.setattr(analysis, "_BLOCK_BYTES", budget)
        rng = np.random.default_rng(22)
        out = crb_distribution(cfg, target, 64.0, 41, rng)
        ref_rng = np.random.default_rng(22)
        rows = ref_rng.dirichlet(np.ones(64), size=41) * 64.0
        expected = [crb(PowerAllocation(row), target, cfg).crb_tau for row in rows]
        np.testing.assert_allclose(out["values"], expected, rtol=1e-12, atol=0)
        assert rng.random() == ref_rng.random()


class TestMonteCarloMemory:
    """Traced peak allocations of the Monte Carlo loops at the benchmark's N = 1024."""

    CFG = AfdmConfig(n_sub=1024, c1=2 / 2048)

    @staticmethod
    def traced_peak(call) -> float:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("points", [[(0, 0), (1, 0), (0, 1), (3, 2)], [(0, 0)]])
    def test_ambiguity_moments_hold_no_frame_stack(self, rng, points):
        # a block's frames and their images take about 1 MB; the 500 x 1024
        # frame stack would take 8.2 MB and an int64 index draw 4.1 MB
        spec = FrameSpec(256.0, 1.0, Constellation.QPSK)
        x_p = proposed_pilot(self.CFG, pilot_power=256.0)
        peak = self.traced_peak(lambda: ambiguity_moments_mc(x_p, spec, self.CFG, points, 500, rng))
        assert peak <= 2.0

    def test_warm_theorem_4_builds_no_psi(self):
        # the benchmark's report: the warm call reads the cached Gram, where
        # building Psi_p again took one (45, 1024) complex array, 737 KB
        c1, _ = select_c1_q(2, AfdmConfig(n_sub=1024))
        cfg = AfdmConfig(n_sub=1024, c1=c1)
        x_p = proposed_pilot(cfg, pilot_power=256.0)
        pairs = basis_grid(8, 2).pairs
        verify_theorem_4(x_p, cfg, pairs)
        peak = self.traced_peak(lambda: verify_theorem_4(x_p, cfg, pairs))
        assert peak < len(pairs) * cfg.n_sub * 16 / 1e6

    def test_crb_distribution_holds_no_allocation_matrix(self, rng):
        # 2000 Dirichlet allocations of 1024 subcarriers would take 16.4 MB
        target = SensingTarget(1.0, 3.3, 0.7, 1.0)
        peak = self.traced_peak(lambda: crb_distribution(self.CFG, target, 2048.0, 2000, rng))
        assert peak <= 2.0


CONTRACT_CFG = AfdmConfig(n_sub=16, c1=5 / 32)
BOUND_CALLS = {
    "fim": lambda p, t: fim(PowerAllocation(p), t, CONTRACT_CFG),
    "crb": lambda p, t: crb(PowerAllocation(p), t, CONTRACT_CFG),
    "sensing_weights": lambda p, t: sensing_weights(PowerAllocation(p), t, CONTRACT_CFG),
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
    @example(log2_n=3, two_c1_n=1, powers=np.ones(256), tau=5e-324, nu=0.0, gain=1.0,
             noise_power=1.0)
    @example(log2_n=3, two_c1_n=1, powers=np.ones(256), tau=3 - 1e-16, nu=0.0, gain=1.0,
             noise_power=1.0)
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


class TestAnalysisQuality:
    def test_seed_1_quality_line_is_pinned(self):
        # the benchmark's analysis reports, seed 1: its quality line at its printed precision
        session = analysis_report(AnalysisParams(), 1)
        quality = session.quality([session.call() for _ in range(session.quality_calls)])
        assert {name: f"{value:.6g}" for name, value in quality.items()} == {"amb_var_rel_err": "0.0158095"}
