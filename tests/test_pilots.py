import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afdm_isac import AfdmConfig, idaft
from afdm_isac.analysis import ambiguity_function, ambiguity_region
from afdm_isac.errors import ConfigurationError, ParameterError
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


@st.composite
def pilot_designs(draw):
    """(Nc, nu_m, r, root) of a proposed pilot: Nc = 2^p <= 1024, 2*c1*Nc <= Nc."""
    p = draw(st.integers(2, 10))
    nu_m = draw(st.integers(1, (2**p - 1) // 2))
    q = math.ceil(math.log2(2 * nu_m + 1))
    r = draw(st.integers(0, p - q))
    # the comb holds 2^(p-q-r) pilots, so any odd root is coprime with it
    return 2**p, nu_m, r, 2 * draw(st.integers(0, 64)) + 1


def raw_zc_comb(cfg, pilot_power, r):
    """The proposed comb without its chirp correction: bare ZC values at spacing Q."""
    spacing, n_p = proposed_spacing(cfg, r)
    x = np.zeros(cfg.n_sub, dtype=np.complex128)
    x[np.arange(n_p) * spacing] = math.sqrt(pilot_power / n_p) * zc_sequence(n_p)
    return x


def _examples(inputs):
    """Stack one hypothesis ``@example(design=...)`` per input."""

    def apply(test):
        for design in inputs:
            test = example(design=design)(test)
        return test

    return apply


class TestZcSequence:
    def test_starts_at_one(self):
        for n, u in [(8, 1), (16, 3), (9, 2)]:
            assert zc_sequence(n, u)[0] == pytest.approx(1.0)

    def test_constant_amplitude(self):
        z = zc_sequence(16, 3)
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-15

    def test_zero_autocorrelation_even(self):
        z = zc_sequence(8, 1)
        for k in range(1, 8):
            acf = np.sum(np.conj(z) * z[(np.arange(8) + k) % 8])
            assert abs(acf) < 1e-12

    def test_zero_autocorrelation_odd(self):
        z = zc_sequence(9, 2)
        for k in range(1, 9):
            acf = np.sum(np.conj(z) * z[(np.arange(9) + k) % 9])
            assert abs(acf) < 1e-12

    def test_gcd_violation(self):
        with pytest.raises(ParameterError):
            zc_sequence(8, 2)


class TestChirpRateSelection:
    CFG = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32)

    def test_doppler_two(self):
        c1, q = select_c1_q(2, self.CFG)
        assert q == 3
        assert c1 == pytest.approx(4 / 128)

    def test_doppler_zero_is_fresnel_point(self):
        c1, q = select_c1_q(0, self.CFG)
        assert q == 0
        assert c1 == pytest.approx(1 / 256)

    def test_doppler_one(self):
        c1, q = select_c1_q(1, self.CFG)
        assert q == 2
        assert c1 == pytest.approx(4 / 256)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(0, 20), nu_m=st.integers(0, 10_000))
    def test_chirp_rate_covers_doppler_budget(self, p, nu_m):
        # K = 2*c1*Nc = 2^q separates 2*nu_m + 1 Doppler bins, and is the smallest
        # power of two that does
        cfg = AfdmConfig(n_sub=2**p)
        c1, q = select_c1_q(nu_m, cfg)
        k_rate = 2 * c1 * cfg.n_sub
        assert k_rate == 2**q >= 2 * nu_m + 1 > k_rate / 2


class TestProposedPilot:
    CFG = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32)

    def test_spacing_r0(self):
        assert proposed_spacing(self.CFG, r=0) == (8, 16)

    def test_spacing_r1(self):
        assert proposed_spacing(self.CFG, r=1) == (16, 8)

    def test_first_entry(self):
        x = proposed_pilot(self.CFG, pilot_power=100.0, r=0)
        assert x[0] == pytest.approx(math.sqrt(100.0 / 16))

    def test_support_and_energy(self):
        for r in (0, 1, 2):
            spacing, n_p = proposed_spacing(self.CFG, r)
            x = proposed_pilot(self.CFG, pilot_power=100.0, r=r)
            support = np.flatnonzero(np.abs(x) > 0)
            assert np.array_equal(support, np.arange(n_p) * spacing)
            assert np.linalg.norm(x) ** 2 == pytest.approx(100.0, rel=1e-12)

    def test_r_out_of_range(self):
        with pytest.raises(ParameterError):
            proposed_pilot(self.CFG, 100.0, r=5)

    def test_non_pow2_rejected(self):
        cfg = AfdmConfig(n_sub=96, n_cpp=16, c1=1 / 24)
        with pytest.raises(ParameterError):
            proposed_pilot(cfg, 100.0, r=0)

    @settings(max_examples=40, deadline=None)
    @given(design=pilot_designs())
    @example(design=(1024, 1, 0, 127))  # a float ZC phase left 1.5e-12 of sigma_p^2 here
    @_examples(
        (n_sub, nu_m, r, root)
        for n_sub in (64, 128)
        for nu_m in (1, 2)
        for r in range(int(math.log2(n_sub)) - math.ceil(math.log2(2 * nu_m + 1)) + 1)
        for root in (1, 3)
    )
    def test_ideal_ambiguity_within_delay_limit(self, design):
        # zero sidelobes over the whole zero region, |tau| <= 1/(2 c1) - 1 and
        # |nu| <= 2*c1*Nc - 1: the correction cancels the c2 chirp of idaft
        n_sub, nu_m, r, root = design
        c1, _ = select_c1_q(nu_m, AfdmConfig(n_sub=n_sub))
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=n_sub // 4, c1=c1)
        limit, k = proposed_delay_limit(cfg), cfg.two_c1_n
        region = (np.arange(-limit, limit + 1), np.arange(1 - k, k))
        x = proposed_pilot(cfg, 100.0, r=r, zc_root=root)
        assert ambiguity_function(idaft(x, cfg), region, cfg).max_off_origin() <= 1e-12 * 100.0

    def test_ideal_ambiguity_at_large_n(self):
        cfg = AfdmConfig(n_sub=65536, c1=select_c1_q(2, AfdmConfig(n_sub=65536))[0])
        x = proposed_pilot(cfg, 100.0)
        surf = ambiguity_function(idaft(x, cfg), ambiguity_region(8, 2), cfg)
        assert surf.max_off_origin() <= 1e-14 * 100.0

    def test_recurrence_peak_at_delay_limit_plus_one(self):
        # the comb recurs one sample past the supported span
        cfg = self.CFG
        x = proposed_pilot(cfg, 100.0, r=0)
        limit = proposed_delay_limit(cfg)
        surf = ambiguity_function(idaft(x, cfg), (np.array([limit + 1]), np.array([0])), cfg)
        assert abs(surf.values[0, 0]) == pytest.approx(100.0, rel=1e-9)

    def test_missing_phase_correction_breaks_ideality(self):
        # raw ZC on the comb: big sidelobes at nonzero delay (zero Doppler)
        # inside the design region, and at Doppler offsets of 2*c1*Nc and
        # beyond, where the corrected comb stays clean off its recurrence
        # lattice
        limit = proposed_delay_limit(self.CFG)
        for r in (0, 1):
            x = raw_zc_comb(self.CFG, 100.0, r)
            region = (np.arange(-limit, limit + 1), np.arange(-8, 9))
            surf = ambiguity_function(idaft(x, self.CFG), region, self.CFG)
            mags = np.abs(surf.values)
            assert mags[:, surf.nu_axis != 0].max() > 1e-3 * 100.0
            in_budget = mags[surf.tau_axis != 0][:, np.abs(surf.nu_axis) <= 4]
            assert in_budget.max() > 1e-3 * 100.0

    def test_any_comb_is_doppler_clean_within_budget(self):
        # the coupling rule zeroes every spacing-Q comb at 0 < |nu| < 2*c1*Nc,
        # phases or not
        x = raw_zc_comb(self.CFG, 100.0, 0)
        region = (np.arange(-15, 16), np.array([-4, -3, -2, -1, 1, 2, 3, 4]))
        surf = ambiguity_function(idaft(x, self.CFG), region, self.CFG)
        assert np.abs(surf.values).max() < 1e-10 * 100.0


class TestTraditionalPilot:
    CFG = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32)

    def test_footprint_spacing(self):
        assert traditional_spacing(self.CFG, tau_m=1, nu_m=2) == (13, 9)

    def test_degenerate_bound(self):
        assert traditional_spacing(self.CFG, tau_m=0, nu_m=0) == (1, 128)

    def test_collapse_at_long_delay(self):
        spacing, n_p = traditional_spacing(self.CFG, tau_m=15, nu_m=2)
        assert spacing == 125 and n_p == 1

    def test_energy(self):
        x = traditional_spi_pilot(self.CFG, 100.0, tau_m=1, nu_m=2)
        assert np.linalg.norm(x) ** 2 == pytest.approx(100.0, rel=1e-12)

    def test_ideal_within_footprint(self):
        # inside its validity region the comb is interference-free
        x = traditional_spi_pilot(self.CFG, 100.0, tau_m=1, nu_m=2)
        surf = ambiguity_function(idaft(x, self.CFG), ambiguity_region(1, 2), self.CFG)
        assert surf.max_off_origin() <= 1e-10 * 100.0


class TestSinglePilot:
    CFG = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32)

    def test_energy_and_support(self):
        x = single_pilot(self.CFG, 100.0)
        assert np.linalg.norm(x) ** 2 == pytest.approx(100.0)
        assert np.array_equal(np.flatnonzero(np.abs(x) > 0), [0])

    def test_ambiguity_is_offset_indicator(self):
        # |chi| = sigma_p^2 exactly where the cyclic subcarrier offset is 0
        from afdm_isac.channel import subcarrier_offset

        x = single_pilot(self.CFG, 100.0)
        s = idaft(x, self.CFG)
        region = ambiguity_region(15, 2)
        surf = ambiguity_function(s, region, self.CFG)
        for ti, tau in enumerate(surf.tau_axis):
            for vi, nu in enumerate(surf.nu_axis):
                expect = 100.0 if subcarrier_offset(int(tau), int(nu), self.CFG) == 0 else 0.0
                assert abs(surf.values[ti, vi]) == pytest.approx(expect, abs=1e-9)


class TestDelayBudget:
    def test_formula(self):
        assert max_unambiguous_delay(21, 2, AfdmConfig(n_sub=128, c1=1 / 32)) == 2

    def test_no_margin(self):
        assert max_unambiguous_delay(5, 2, AfdmConfig(n_sub=128, c1=1 / 32)) == 0

    def test_floor_is_exact(self):
        # 2*c1*Nc = 2 * 0.14 * 25 rounds to 7.000000000000001 in floats
        assert max_unambiguous_delay(8, 0, AfdmConfig(n_sub=25, c1=7 / 50)) == 1
        for n_sub in range(1, 300):
            for k in range(1, 12):
                cfg = AfdmConfig(n_sub=n_sub, c1=k / (2 * n_sub))
                for spacing in range(1, 60):
                    got = max_unambiguous_delay(spacing, 0, cfg)
                    assert got == (spacing - 1) // k, (spacing, k, n_sub)

    @pytest.mark.parametrize("c1", [0.013, math.nan, math.inf])
    def test_fractional_chirp_rate_rejected(self, c1):
        # the budget reads K from a config, and no config holds a fractional 2*c1*Nc
        with pytest.raises(ConfigurationError, match="c1"):
            max_unambiguous_delay(8, 0, AfdmConfig(n_sub=25, c1=c1))

    def test_proposed_escapes_spacing_rule(self):
        # spacing-based budget says 0, yet the pilot is clean out to the
        # chirp-rate limit
        cfg = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32)
        assert max_unambiguous_delay(8, 2, cfg) == 0
        assert proposed_delay_limit(cfg) == 15


@pytest.mark.parametrize("build", [
    lambda cfg, power: proposed_pilot(cfg, power),
    lambda cfg, power: traditional_spi_pilot(cfg, power, tau_m=3, nu_m=2),
    single_pilot,
])
@pytest.mark.parametrize("power", [-1.0, math.nan, math.inf])
def test_pilot_power_must_be_finite_and_non_negative(build, power):
    with pytest.raises(ParameterError, match="pilot_power"):
        build(AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32), power)


class TestSchemeDispatch:
    CFG = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32)

    def test_variants(self):
        # the footprint (tau_m, nu_m) = (1, 2) sets the traditional comb's
        # spacing 13 and count 9; the proposed comb's count 16 is the config's
        for scheme, expected_count in [
            (PilotScheme("proposed", 100.0), 16),
            (PilotScheme("traditional_spi", 100.0), 9),
            (PilotScheme("single", 100.0), 1),
        ]:
            x = pilot_vector(scheme, self.CFG, 1, 2)
            assert np.count_nonzero(x) == expected_count
            assert np.linalg.norm(x) ** 2 == pytest.approx(scheme.pilot_power, rel=1e-12)

    def test_unknown_variant(self):
        with pytest.raises(ParameterError):
            PilotScheme("fancy", 1.0)
