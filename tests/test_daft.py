import math

import numpy as np
import pytest

import dense_oracle
from afdm_isac import (
    AfdmConfig,
    ConfigurationError,
    ParameterError,
    add_cpp,
    build_daft_matrix,
    chirp_rate_bounds,
    daft,
    idaft,
    remove_cpp,
    waveform_samples,
)

from conftest import random_unit_symbols


def synth_direct(x, cfg):
    """O(N^2) direct evaluation of the synthesis sum (oracle)."""
    n_axis = np.arange(cfg.n_sub)
    out = np.zeros(cfg.n_sub, dtype=complex)
    for n in n_axis:
        phase = cfg.c1 * n * n + np.arange(cfg.n_sub) * n / cfg.n_sub \
            + cfg.c2 * np.arange(cfg.n_sub) ** 2
        out[n] = np.sum(x * np.exp(2j * np.pi * phase)) / math.sqrt(cfg.n_sub)
    return out


class TestConfig:
    def test_sample_period_identity(self):
        cfg = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32, delta_f=1e5)
        assert abs(cfg.t_s * cfg.delta_f * cfg.n_sub - 1.0) < 1e-12

    def test_non_integer_2c1n_rejected(self):
        with pytest.raises(ConfigurationError):
            AfdmConfig(n_sub=16, c1=0.1)

    def test_prefix_longer_than_symbol_rejected(self):
        with pytest.raises(ConfigurationError):
            AfdmConfig(n_sub=8, n_cpp=8)

    @pytest.mark.parametrize("field", ["c1", "c2", "delta_f", "f_c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_or_frequency_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            AfdmConfig(n_sub=16, **{field: value})

    @pytest.mark.parametrize("field", ["n_sub", "n_cpp"])
    @pytest.mark.parametrize("value", [16.5, 4.0, "4"])
    def test_non_integer_size_rejected(self, field, value):
        sizes = {"n_sub": 32, "n_cpp": 4, field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            AfdmConfig(**sizes)

    def test_numpy_integer_sizes_accepted(self):
        cfg = AfdmConfig(n_sub=np.int64(16), n_cpp=np.int32(4), c1=1 / 8)
        assert cfg.two_c1_n == 4

    def test_chirp_rate_bounds(self):
        lo, hi = chirp_rate_bounds(tau_m=2, nu_m=2, n_sub=128)
        assert lo == pytest.approx(5 / 256)
        assert hi == pytest.approx(1 / 6)


class TestTransformPair:
    def test_zero_chirp_impulse_is_flat(self):
        cfg = AfdmConfig(n_sub=16, c1=0.0, c2=0.0)
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        s = idaft(x, cfg)
        assert np.allclose(s, np.full(16, 1 / 4.0), atol=1e-12)

    def test_round_trip_identity(self, rng):
        for n_sub, c1 in [(8, 1 / 16), (64, 3 / 64), (128, 1 / 32)]:
            cfg = AfdmConfig(n_sub=n_sub, c1=c1)
            for _ in range(100):
                x = rng.standard_normal(n_sub) + 1j * rng.standard_normal(n_sub)
                back = daft(idaft(x, cfg), cfg)
                assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)

    def test_parseval(self, rng):
        cfg = AfdmConfig(n_sub=64, c1=1 / 16)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.linalg.norm(idaft(x, cfg)) ** 2 == pytest.approx(
            np.linalg.norm(x) ** 2, rel=1e-12
        )

    def test_matches_direct_sum(self, rng):
        cfg = AfdmConfig(n_sub=16, c1=1 / 8, c2=math.pi - 3)
        x = random_unit_symbols(rng, 16)
        s = idaft(x, cfg)
        ref = synth_direct(x, cfg)
        assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_basis_recovery(self):
        cfg = AfdmConfig(n_sub=32, c1=1 / 16)
        for m in (0, 5, 31):
            e = np.zeros(32, dtype=complex)
            e[m] = 1.0
            rec = daft(idaft(e, cfg), cfg)
            assert np.allclose(rec, e, atol=1e-12)

    def test_zero_chirp_equals_dft(self, rng):
        cfg = AfdmConfig(n_sub=32, c1=0.0, c2=0.0)
        s = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.allclose(daft(s, cfg), np.fft.fft(s) / math.sqrt(32), atol=1e-12)

    def test_fresnel_special_case_matches_dense(self, rng):
        # c1 = 1/(2 Nc) collapses onto the discrete Fresnel (OCDM) form
        cfg = AfdmConfig(n_sub=32, c1=1 / 64)
        a = build_daft_matrix(cfg)
        s = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.allclose(daft(s, cfg), a @ s, atol=1e-12)

    def test_length_mismatch_raises(self):
        cfg = AfdmConfig(n_sub=16, c1=1 / 32)
        with pytest.raises(ConfigurationError):
            idaft(np.zeros(8, dtype=complex), cfg)
        with pytest.raises(ConfigurationError):
            daft(np.zeros(17, dtype=complex), cfg)


class TestDenseMatrix:
    def test_two_point_dft(self):
        cfg = AfdmConfig(n_sub=2, c1=0.0, c2=0.0)
        a = build_daft_matrix(cfg)
        expect = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(a, expect, atol=1e-15)

    def test_unitarity(self, rng):
        cfg = AfdmConfig(n_sub=64, c1=5 / 128, c2=0.37)
        a = build_daft_matrix(cfg)
        assert np.linalg.norm(a @ a.conj().T - np.eye(64)) < 1e-10

    def test_fft_path_agrees_with_dense(self, rng):
        for n_sub in (8, 16, 64, 128):
            cfg = AfdmConfig(n_sub=n_sub, c1=1 / n_sub)
            a = build_daft_matrix(cfg)
            for _ in range(10):
                x = rng.standard_normal(n_sub) + 1j * rng.standard_normal(n_sub)
                assert np.linalg.norm(idaft(x, cfg) - a.conj().T @ x) < 1e-10

    def test_size_guard(self):
        cfg = AfdmConfig(n_sub=8192, c1=0.0)
        with pytest.raises(ConfigurationError):
            build_daft_matrix(cfg)


class TestPrefix:
    def test_plain_cyclic_prefix_when_c1_zero(self, rng):
        cfg = AfdmConfig(n_sub=16, n_cpp=4, c1=0.0)
        s = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        out = add_cpp(s, cfg)
        assert np.allclose(out[:4], s[-4:], atol=1e-15)

    def test_modulus_preserved(self, rng):
        cfg = AfdmConfig(n_sub=8, n_cpp=3, c1=1 / 4)
        s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        out = add_cpp(s, cfg)
        assert np.allclose(np.abs(out[:3]), np.abs(s[-3:]), atol=1e-13)

    def test_prefix_phase_value(self, rng):
        # Nc=8, Ncp=2, c1=1/4: prefix[-1] = s[7]*exp(-j2pi*(1/4)*(64-16))
        cfg = AfdmConfig(n_sub=8, n_cpp=2, c1=1 / 4)
        s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        out = add_cpp(s, cfg)
        expect = s[7] * np.exp(-2j * np.pi * 0.25 * (64 - 16))
        assert abs(out[1] - expect) < 1e-13
        assert abs(out[1] - s[7]) < 1e-12  # the phase is a whole turn here

    def test_round_trip(self, rng):
        for n_sub, n_cpp in [(8, 0), (8, 2), (128, 32)]:
            cfg = AfdmConfig(n_sub=n_sub, n_cpp=n_cpp, c1=1 / n_sub)
            s = rng.standard_normal(n_sub) + 1j * rng.standard_normal(n_sub)
            assert np.array_equal(remove_cpp(add_cpp(s, cfg), cfg), s)

    def test_prefix_matches_chirp_periodic_extension(self, rng):
        # the prefix equals the waveform model delayed by whole samples
        cfg = AfdmConfig(n_sub=16, n_cpp=4, c1=1 / 8)
        x = random_unit_symbols(rng, 16)
        s_cpp = add_cpp(idaft(x, cfg), cfg)
        for tau in range(cfg.n_cpp + 1):
            model = waveform_samples(s_cpp[4:], cfg, tau)
            assert np.linalg.norm(s_cpp[4 - tau : 20 - tau] - model) < 1e-10


class TestWaveformSamples:
    def test_integer_instants_match_idaft(self, rng):
        cfg = AfdmConfig(n_sub=32, c1=1 / 16)
        x = random_unit_symbols(rng, 32)
        s = idaft(x, cfg)
        model = waveform_samples(s, cfg, 0.0)
        assert np.linalg.norm(s - model) < 1e-10

    def test_scalar_instant(self, rng):
        # a scalar delay gives one window; delay -3 puts instant 3 at n = 0
        cfg = AfdmConfig(n_sub=16, c1=1 / 8)
        x = random_unit_symbols(rng, 16)
        val = waveform_samples(idaft(x, cfg), cfg, -3.0)
        assert val.shape == (16,)
        assert abs(val[0] - idaft(x, cfg)[3]) < 1e-10

    @pytest.mark.parametrize("n_sub", [16, 63, 64, 255, 256])
    @pytest.mark.parametrize("two_c1_n", [1, 2, 3, 4])
    def test_matches_dense_oracle(self, rng, n_sub, two_c1_n):
        # odd and even K*N; fractional, integer, near-integer and negative delays
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=min(16, n_sub - 1), c1=two_c1_n / (2 * n_sub))
        x = rng.standard_normal(n_sub) + 1j * rng.standard_normal(n_sub)
        s = idaft(x, cfg)
        taus = np.concatenate(
            [rng.uniform(-20.0, 20.0, 4), [0.0, 1.0, 5.0, -3.0, 2.0 + 1e-12, 0.5]]
        )
        batch = waveform_samples(s, cfg, taus)
        assert batch.shape == (taus.size, n_sub)
        n = np.arange(n_sub)
        for row, tau in zip(batch, taus):
            ref = dense_oracle.waveform_dense(x, cfg, n - tau)
            assert np.max(np.abs(row - ref)) <= 1e-10 * np.max(np.abs(s))
            single = waveform_samples(s, cfg, tau)
            assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(s))

    @pytest.mark.parametrize("tau", [np.nan, np.inf, [[0.5]]])
    def test_rejects_bad_delay(self, rng, tau):
        cfg = AfdmConfig(n_sub=16, c1=1 / 8)
        s = idaft(random_unit_symbols(rng, 16), cfg)
        with pytest.raises(ParameterError):
            waveform_samples(s, cfg, tau)
