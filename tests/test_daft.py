import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle
from afdm_isac import (
    AfdmConfig,
    ConfigurationError,
    ParameterError,
    add_cpp,
    build_daft_matrix,
    daft,
    idaft,
    remove_cpp,
    waveform_samples,
)

from afdm_isac.daft import _chirp_periodic
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

    @pytest.mark.parametrize(
        "n_sub, two_c1_n, flips", [(16, 1, False), (15, 1, True), (15, 2, False), (15, -3, True)]
    )
    def test_prefix_flips_is_the_parity_of_k_nc(self, n_sub, two_c1_n, flips):
        # (-1)^(K*Nc): the prefix is the symbol tail, negated when K*Nc is odd
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=2, c1=two_c1_n / (2 * n_sub))
        assert cfg.prefix_flips is flips
        s = np.arange(1.0, n_sub + 1.0) + 0j
        assert np.array_equal(add_cpp(s, cfg)[:2], (-1.0 if flips else 1.0) * s[-2:])


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
        # a stack is read along its last axis
        for bad in (np.zeros((3, 15)), np.zeros((16, 3)), np.zeros(())):
            for transform in (idaft, daft):
                with pytest.raises(ConfigurationError):
                    transform(bad, cfg)


VALID_CONFIGS = dict(
    n_sub=st.integers(1, 96),
    two_c1_n=st.integers(-200, 200),
    c2=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)


class TestBatchedTransforms:
    @settings(max_examples=40, deadline=None)
    @given(lead=st.sampled_from([(1,), (3,), (2, 3)]), **VALID_CONFIGS)
    def test_stack_equals_row_by_row(self, lead, n_sub, two_c1_n, c2, seed):
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub), c2=c2)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(lead + (n_sub,)) + 1j * rng.standard_normal(lead + (n_sub,))
        for transform in (idaft, daft):
            rows = [transform(row, cfg) for row in x.reshape(-1, n_sub)]
            assert np.array_equal(transform(x, cfg), np.reshape(rows, x.shape))

    @settings(max_examples=40, deadline=None)
    @given(**VALID_CONFIGS)
    def test_round_trip_and_unitarity(self, n_sub, two_c1_n, c2, seed):
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub), c2=c2)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n_sub) + 1j * rng.standard_normal(n_sub)
        s = idaft(x, cfg)
        norm = np.linalg.norm(x)
        assert np.linalg.norm(s) == pytest.approx(norm, rel=1e-12)
        assert np.linalg.norm(daft(x, cfg)) == pytest.approx(norm, rel=1e-12)
        assert np.linalg.norm(daft(s, cfg) - x) <= 1e-12 * norm


class TestChirpTables:
    def test_built_once_and_read_only(self):
        cfg = AfdmConfig(n_sub=16, c1=3 / 32)
        for name in ("c1_chirp", "c2_chirp"):
            table = getattr(cfg, name)
            assert table is getattr(cfg, name)
            assert table.shape == (16,)
            with pytest.raises(ValueError):
                table[0] = 1.0
        # the tables are not fields: equality and hashing see the parameters only
        fresh = AfdmConfig(n_sub=16, c1=3 / 32)
        assert fresh == cfg and hash(fresh) == hash(cfg)

    @settings(max_examples=40, deadline=None)
    @given(**VALID_CONFIGS)
    def test_transforms_keep_the_chirp_expressions(self, n_sub, two_c1_n, c2, seed):
        # the c2 chirp in floats and the c1 chirp in integers, written out as
        # the transforms evaluated them before the tables moved onto the config
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub), c2=c2)
        k, n2 = np.arange(n_sub), 2 * n_sub
        c2_chirp = np.exp(-2j * np.pi * c2 * k.astype(np.float64) * k)
        c1_chirp = np.exp((-1j * np.pi / n_sub) * (k * k % n2 * (two_c1_n % n2) % n2))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, n_sub)) + 1j * rng.standard_normal((2, n_sub))
        synth = np.conj(c1_chirp) * (np.fft.ifft(x * np.conj(c2_chirp)) * math.sqrt(n_sub))
        analysis = c2_chirp * (np.fft.fft(x * c1_chirp) / math.sqrt(n_sub))
        assert np.array_equal(idaft(x, cfg), synth)
        assert np.array_equal(daft(x, cfg), analysis)


    @pytest.mark.parametrize("n_sub, two_c1_n", [(1, 3), (15, 5), (16, 3), (16, 4), (63, -7)])
    def test_delay_factors_are_read_only_and_their_formulas(self, n_sub, two_c1_n):
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        tables = cfg._delay_factors
        assert tables is cfg._delay_factors
        n = np.arange(n_sub)
        sign = np.where(two_c1_n * n % 2 == 1, -1.0, 1.0)  # (-1)^(K n)
        cyclic = (n[None, :] + np.arange(n_sub + 1)[:, None]) % n_sub  # row k: <n + k>_Nc
        expected = (sign, cfg.c1_chirp * sign, cyclic, np.conj(cfg.dft_twiddle)[cyclic])
        for table, formula in zip(tables, expected, strict=True):
            assert table.dtype == formula.dtype and np.array_equal(table, formula)
            with pytest.raises(ValueError):
                table[0] = 0


class TestChirpPeriodicExtension:
    @settings(max_examples=80, deadline=None)
    @given(
        n_sub=st.integers(1, 24),
        two_c1_n=st.integers(-7, 7),
        lead=st.sampled_from([(), (2,), (2, 3)]),
        span=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_sub=5, two_c1_n=1, lead=(2,), span=None, seed=0)  # K*Nc odd, three periods
    @example(n_sub=6, two_c1_n=1, lead=(), span=None, seed=0)  # K*Nc even, three periods
    def test_slices_are_the_index_formula(self, n_sub, two_c1_n, lead, span, seed):
        # start as low as -2Nc + 1 (the widest whole-delay window), ranges over one to three periods
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        if span is None:
            start, stop = -2 * n_sub + 1, n_sub
        else:
            start = span.draw(st.integers(-2 * n_sub + 1, n_sub))
            stop = span.draw(st.integers(start, -(-start // n_sub) * n_sub + 2 * n_sub))
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(lead + (n_sub,)) + 1j * rng.standard_normal(lead + (n_sub,))
        i = np.arange(start, stop)
        flips = (two_c1_n * n_sub % 2 == 1) & (i // n_sub % 2 == 1)
        expected = np.where(flips, -s[..., i % n_sub], s[..., i % n_sub])
        out = _chirp_periodic(s, cfg, start, stop)
        assert out.shape == lead + (stop - start,) and np.array_equal(out, expected)


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

    def test_matches_fft_path_at_large_n(self, rng):
        cfg = AfdmConfig(n_sub=1024, c1=5 / 2048)
        s = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        ref = daft(s, cfg)
        assert np.max(np.abs(build_daft_matrix(cfg) @ s - ref)) <= 1e-13 * np.max(np.abs(ref))

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

    @settings(max_examples=60, deadline=None)
    @given(
        n_sub=st.integers(1, 64),
        two_c1_n=st.integers(-9, 9),
        delays=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_sub=16, two_c1_n=3, delays=[5e-324, 1e-300, 3 + 4.4e-16, 3 - 4.4e-16], seed=1)
    @example(n_sub=63, two_c1_n=-2, delays=[0.5, -0.5, 7.4999, 5e-324, 1e-300], seed=2)
    @example(n_sub=64, two_c1_n=8, delays=[3 + 4.4e-16, 3 - 4.4e-16, 0.5, -0.5, 7.4999], seed=3)
    @example(n_sub=1, two_c1_n=-3, delays=[5e-324, 0.5, -0.5, 7.4999], seed=4)
    @example(n_sub=2, two_c1_n=1, delays=[1e-300, 3 + 4.4e-16, 2.0], seed=5)
    def test_per_row_fractional_delays_match_dense_oracle(self, n_sub, two_c1_n, delays, seed):
        # a (B, 1) stack gives each of B signals its own delay; the closed form reads
        # its per-sample factors from the config's tables at either sign and parity of K
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((len(delays), n_sub)) + 1j * rng.standard_normal((len(delays), n_sub))
        s = idaft(x, cfg)
        taus = np.array(delays)[:, None]
        batch = waveform_samples(s, cfg, taus)
        assert batch.shape == (len(delays), 1, n_sub)
        n = np.arange(n_sub)
        for row, x_i, s_i, tau in zip(batch[:, 0], x, s, delays):
            ref = dense_oracle.waveform_dense(x_i, cfg, n - tau)
            assert np.max(np.abs(row - ref)) <= 1e-10 * np.max(np.abs(s_i))

    @pytest.mark.parametrize("n_sub, two_c1_n", [
        *(pytest.param(256, k, id=str(k)) for k in (-3, 1, 7, 8)),
        (2, 8),
        (16, 3),
    ])
    def test_far_fractional_delays_match_dense_oracle(self, rng, n_sub, two_c1_n):
        # the whole part of the delay enters as table indices and one phase reduced mod 2Nc;
        # the oracle reduces its phase exactly too, so small Nc and large K hold at 1e-10
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        x = rng.standard_normal(n_sub) + 1j * rng.standard_normal(n_sub)
        s = idaft(x, cfg)
        taus = np.array([999.7, -999.7, 1000.3, -1000.3, 517.25])
        n = np.arange(n_sub)
        for row, tau in zip(waveform_samples(s, cfg, taus), taus):
            ref = dense_oracle.waveform_dense(x, cfg, n - tau)
            assert np.max(np.abs(row - ref)) <= 1e-10 * np.max(np.abs(s))

    @pytest.mark.parametrize("n_sub, two_c1_n", [(16, 2), (15, 1)])
    @pytest.mark.parametrize("taus", [
        2.0**60 + 768,
        [1e19],
        [1e19, 1e19 + 2048],
        [1e19 + 2048, -1e19],
        2.0**53 - 8 + np.arange(8),
        -(2.0**52) + np.arange(4),
    ])
    def test_huge_whole_delay_reads_the_extension(self, rng, n_sub, two_c1_n, taus):
        # every delay is reduced mod 2Nc before any integer cast, so whole delays far
        # beyond int64, a run of them too, read the extension the oracle evaluates
        # with Python integers
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        s = idaft(random_unit_symbols(rng, n_sub), cfg)
        got = waveform_samples(s, cfg, taus)
        expect = dense_oracle.delayed_stack(s, cfg, np.atleast_1d(taus))
        assert np.array_equal(got, expect.reshape(got.shape))

    def test_per_row_whole_delays_read_the_extension(self, rng):
        # leading delay axes pick one row of whole delays per signal, also far out
        cfg = AfdmConfig(n_sub=63, n_cpp=16, c1=1 / 126)
        s = idaft(rng.standard_normal((4, 63)) + 1j * rng.standard_normal((4, 63)), cfg)
        taus = np.array([[0.0, 2.0, 5.0], [-70.0, 2.0, 1e19], [7.0, 130.0, 0.0], [16.0, 2.0, 3.0]])
        batch = waveform_samples(s, cfg, taus)
        for row, s_i, taus_i in zip(batch, s, taus):
            assert np.array_equal(row, dense_oracle.delayed_stack(s_i, cfg, taus_i))
        stack = np.stack([s, -s])
        got = waveform_samples(stack, cfg, taus[:, 1:2])
        assert got.shape == (2, 4, 1, 63)
        for k, i in np.ndindex(2, 4):
            expect = dense_oracle.delayed_stack(stack[k, i], cfg, taus[i, 1:2])
            assert np.array_equal(got[k, i], expect)

    @pytest.mark.parametrize("n_sub, two_c1_n", [(64, 8), (63, 1)])
    def test_per_row_delays_match_single_calls(self, rng, n_sub, two_c1_n):
        # a (rows, delays) array gives each signal its own delays; every whole
        # delay is the window read of a lone whole delay, bit for bit, whatever
        # its row and column hold, and the fractional ones are the closed form
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=16, c1=two_c1_n / (2 * n_sub))
        s = idaft(rng.standard_normal((4, n_sub)) + 1j * rng.standard_normal((4, n_sub)), cfg)
        taus = np.array([[0.3, 2.0, 5.0], [2.0, 2.0, 1.5], [7.7, 2.0, 0.0], [16.0, 2.0, 3.25]])
        batch = waveform_samples(s, cfg, taus)
        assert batch.shape == (4, 3, n_sub)
        for i, j in np.ndindex(taus.shape):
            single = waveform_samples(s[i], cfg, taus[i, j])
            if taus[i, j] % 1 == 0:
                assert np.array_equal(batch[i, j], single)
            else:
                assert np.max(np.abs(batch[i, j] - single)) <= 1e-12 * np.max(np.abs(single))
        # a (rows, 1) column broadcasts one delay row over a (2, rows, Nc) stack
        stack = np.stack([s, 2.0 * s])
        assert np.array_equal(waveform_samples(stack, cfg, taus[:, :1])[1], 2.0 * batch[:, :1])

    @pytest.mark.parametrize("shape", [(3, 1), (2, 4, 1), (4, 2, 1)])
    def test_delay_rows_must_broadcast_to_the_stack(self, rng, shape):
        cfg = AfdmConfig(n_sub=16, c1=1 / 8)
        s = idaft(rng.standard_normal((4, 16)) + 0j, cfg)
        with pytest.raises(ParameterError):
            waveform_samples(s, cfg, np.full(shape, 0.5))

    @pytest.mark.parametrize("tau", [np.nan, np.inf, [[0.5]]])
    def test_rejects_bad_delay(self, rng, tau):
        cfg = AfdmConfig(n_sub=16, c1=1 / 8)
        s = idaft(random_unit_symbols(rng, 16), cfg)
        with pytest.raises(ParameterError):
            waveform_samples(s, cfg, tau)
