import math

import numpy as np
import pytest

from afdm_isac.errors import ParameterError
from afdm_isac.modem import (
    Constellation,
    FrameSpec,
    demap_symbols,
    map_bits,
    random_data_vector,
)


def spec_for(kind, sigma_d2=1.0, sigma_p2=0.0):
    return FrameSpec(pilot_power=sigma_p2, data_symbol_power=sigma_d2, constellation=kind)


class TestConstellation:
    def test_qpsk_constant_modulus(self):
        assert np.allclose(np.abs(Constellation.QPSK.points), 1.0, atol=1e-15)

    def test_unit_average_energy(self):
        for kind in Constellation:
            assert np.mean(np.abs(kind.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_qam16_fourth_moment(self):
        assert Constellation.QAM16.fourth_moment == pytest.approx(1.32, abs=1e-12)

    def test_points_are_one_read_only_table(self):
        # built once at import, so mapping and demapping rebuild no table
        for kind in Constellation:
            assert kind.points is kind.points
            with pytest.raises(ValueError):
                kind.points[0] = 0

    def test_squared_symbol_mean_vanishes(self):
        for kind in Constellation:
            assert abs(kind.squared_symbol_mean) < 1e-14


class TestMapping:
    def test_qpsk_zero_bits_convention(self):
        spec = spec_for(Constellation.QPSK, sigma_d2=4.0)
        sym = map_bits([0, 0], spec)
        assert sym[0] == pytest.approx(2.0 * (1 + 1j) / math.sqrt(2))

    def test_bit_count_mismatch(self):
        with pytest.raises(ParameterError):
            map_bits([0, 1, 0], spec_for(Constellation.QPSK))

    @pytest.mark.parametrize("kind", list(Constellation))
    def test_round_trip(self, kind, rng):
        spec = spec_for(kind, sigma_d2=2.5)
        bits = rng.integers(0, 2, 64 * kind.bits_per_symbol)
        assert np.array_equal(demap_symbols(map_bits(bits, spec), spec), bits)

    def test_round_trip_mild_noise(self, rng):
        # hard decisions survive noise well below half the decision distance
        spec = spec_for(Constellation.QAM16, sigma_d2=1.0)
        bits = rng.integers(0, 2, 256 * 4)
        sym = map_bits(bits, spec)
        noisy = sym + 0.05 * (rng.standard_normal(sym.size) + 1j * rng.standard_normal(sym.size))
        assert np.array_equal(demap_symbols(noisy, spec), bits)

    def test_empirical_symbol_moments(self, rng):
        # first and squared-symbol means vanish within 3 standard errors
        n = 100_000
        for kind in Constellation:
            spec = spec_for(kind)
            _, x = random_data_vector(n, FrameSpec(0.0, 1.0, kind), rng)
            se = 1.0 / math.sqrt(n)
            assert abs(np.mean(x)) < 3 * se
            assert abs(np.mean(x**2)) < 3 * se

    def test_cross_subcarrier_independence(self, rng):
        spec = spec_for(Constellation.QPSK)
        frames = np.stack(
            [random_data_vector(16, FrameSpec(0.0, 1.0, Constellation.QPSK), rng)[1] for _ in range(4000)]
        )
        corr = np.mean(frames[:, 3] * np.conj(frames[:, 11]))
        assert abs(corr) < 3 / math.sqrt(4000)


class TestFrame:
    def test_total_power_bookkeeping(self):
        # sigma_p^2 = 100 (20 dB) with Nc = 128
        spec = FrameSpec(pilot_power=100.0, data_symbol_power=0.5)
        assert spec.total_power(128) == pytest.approx(100.0 + 128 * 0.5)

    def test_total_power_statistical(self, rng):
        spec = FrameSpec(pilot_power=4.0, data_symbol_power=1.0)
        n_sub, n_frames = 16, 10_000
        x_p = np.zeros(n_sub, dtype=complex)
        x_p[0] = 2.0
        powers = np.empty(n_frames)
        for i in range(n_frames):
            _, x_d = random_data_vector(n_sub, spec, rng)
            powers[i] = np.linalg.norm(x_p + x_d) ** 2
        se = np.std(powers) / math.sqrt(n_frames)
        assert abs(np.mean(powers) - spec.total_power(n_sub)) < 3 * se

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_power_rejected(self, bad):
        with pytest.raises(ParameterError):
            FrameSpec(bad, 1.0, Constellation.QPSK)
        with pytest.raises(ParameterError):
            FrameSpec(1.0, bad, Constellation.QPSK)
