import math

import numpy as np
import pytest

import dense_oracle
from afdm_isac.errors import ParameterError
from afdm_isac.modem import Constellation, FrameSpec, _demap, _map, random_data_vector


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
        # E{u^2} = 0, which the closed-form ambiguity variances assume
        for kind in Constellation:
            assert abs(np.mean(kind.points**2)) < 1e-14


class TestMapping:
    """The kernels behind the link's modem steps: ``random_data_vector`` maps with
    ``_map``, and ``estimator.equalize_demod`` decides with ``_demap``."""

    def test_qpsk_zero_bits_convention(self):
        spec = spec_for(Constellation.QPSK, sigma_d2=4.0)
        sym = _map(np.array([0, 0]), spec)
        assert sym[0] == pytest.approx(2.0 * (1 + 1j) / math.sqrt(2))

    @pytest.mark.parametrize("kind", list(Constellation))
    def test_round_trip(self, kind, rng):
        spec = spec_for(kind, sigma_d2=2.5)
        bits = rng.integers(0, 2, 64 * kind.bits_per_symbol)
        assert np.array_equal(_demap(_map(bits, spec), spec), bits)

    def test_round_trip_mild_noise(self, rng):
        # hard decisions survive noise well below half the decision distance
        spec = spec_for(Constellation.QAM16, sigma_d2=1.0)
        bits = rng.integers(0, 2, 256 * 4)
        sym = _map(bits, spec)
        noisy = sym + 0.05 * (rng.standard_normal(sym.size) + 1j * rng.standard_normal(sym.size))
        assert np.array_equal(_demap(noisy, spec), bits)

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


class TestDemapOracle:
    """Per-axis decisions against the nearest point by complex distance."""

    SCALES = [0.0, 1e-6, 0.37, 1.0, 2.5, 7.3, 30.0, 1e6]  # sigma_d^2; 0 demaps at unit scale

    @staticmethod
    def scaled_points(spec):
        return spec.constellation.points * (spec.sigma_d if spec.sigma_d > 0 else 1.0)

    @staticmethod
    def symbols(bits, kind):
        k = kind.bits_per_symbol
        return bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))

    @pytest.mark.parametrize("kind", list(Constellation))
    @pytest.mark.parametrize("sigma_d2", SCALES)
    def test_matches_where_distances_are_distinct(self, rng, kind, sigma_d2):
        spec = spec_for(kind, sigma_d2)
        pts = self.scaled_points(spec)
        top = pts.real.max()
        levels = np.unique(pts.real)
        axis = np.concatenate([levels, (levels[:-1] + levels[1:]) / 2])
        grid = (axis[:, None] + 1j * axis[None, :]).ravel()
        noise = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        # random points, and points 1e-9 off every level and boundary
        y = np.concatenate([1.5 * top * noise, grid * (1 + 1e-9), grid * (1 - 1e-9), grid + 1e-9 * top])
        dist = np.sort(np.abs(y[:, None] - pts[None, :]), axis=1)
        distinct = dist[:, 1] - dist[:, 0] > 1e-12 * dist[:, 1]
        assert np.count_nonzero(distinct) > 4000
        got = _demap(y, spec).reshape(y.size, -1)
        want = dense_oracle.demap_by_distance(y, spec).reshape(y.size, -1)
        assert np.array_equal(got[distinct], want[distinct])

    @pytest.mark.parametrize("kind", list(Constellation))
    @pytest.mark.parametrize("sigma_d2", SCALES)
    def test_boundary_tie_takes_the_lowest_symbol(self, kind, sigma_d2):
        # every point whose coordinates are levels or midpoints between adjacent levels;
        # the tied symbols are those at the smallest distance up to rounding
        spec = spec_for(kind, sigma_d2)
        pts = self.scaled_points(spec)
        levels = np.unique(pts.real)
        axis = np.concatenate([levels, (levels[:-1] + levels[1:]) / 2, [0.0]])
        y = (axis[:, None] + 1j * axis[None, :]).ravel()
        dist = np.abs(y[:, None] - pts[None, :])
        tied = dist <= dist.min(axis=1, keepdims=True) * (1 + 4 * np.finfo(float).eps)
        assert np.count_nonzero(tied.sum(axis=1) > 1) > y.size // 2
        assert np.array_equal(self.symbols(_demap(y, spec), kind), np.argmax(tied, axis=1))

    @pytest.mark.parametrize("kind", list(Constellation))
    def test_non_finite_points_demap_as_the_oracle(self, kind):
        # every complex distance is inf or NaN, so argmin takes symbol 0
        inf, nan = math.inf, math.nan
        y = np.array([inf, -inf, nan, complex(inf, -1.0), complex(-1.0, -inf), complex(nan, -1.0),
                      complex(-1.0, nan), complex(-inf, nan), -1.0 - 1.0j])
        spec = spec_for(kind)
        got = _demap(y, spec)
        assert np.array_equal(got, dense_oracle.demap_by_distance(y, spec))
        assert np.array_equal(self.symbols(got, kind)[:-1], np.zeros(y.size - 1))


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
