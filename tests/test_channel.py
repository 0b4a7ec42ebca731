import ast
import cmath
import importlib
import inspect
import math
import textwrap
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afdm_isac import AfdmConfig, add_cpp, daft, idaft, remove_cpp, waveform_samples
from afdm_isac.channel import (
    BasisGrid,
    ChannelPath,
    ChannelRealization,
    PathChannel,
    SensingTarget,
    apply_basis,
    apply_channel_time,
    basis_grid,
    delay_doppler_to_range_velocity,
    _band_layout,
    _doppler_ramp,
    sample_channel,
    sensing_echo,
    subcarrier_offset,
)
from afdm_isac.errors import ConfigurationError, NumericalError, ParameterError
from afdm_isac.estimator import equalize_demod
from afdm_isac.modem import FrameSpec

import dense_oracle
from conftest import CountingNumpy, random_unit_symbols
from dense_oracle import (
    basis_matrix,
    channel_matrix,
    effective_channel_matrix,
    path_sum,
)


CFG16 = AfdmConfig(n_sub=16, n_cpp=4, c1=1 / 8)


class TestBasisGrid:
    def test_ordering(self):
        g = basis_grid(tau_m=2, nu_m=1)
        assert len(g) == 9
        assert g.pairs[0] == (0, -1)
        assert g.pairs[1] == (0, 0)
        assert g.pairs[3] == (1, -1)
        assert g.index_of(1, -1) == 3

    def test_index_round_trip(self):
        g = basis_grid(tau_m=3, nu_m=2)
        for i, (tau, nu) in enumerate(g.pairs):
            assert g.index_of(tau, nu) == i

    @pytest.mark.parametrize("tau, nu", [(3, 2), (2, 0), (-1, 0), (0, 1), (0, -1), (1.0, 0), (0, 0.0), (True, 0)])
    def test_pair_off_the_grid_is_refused(self, tau, nu):
        # index_of(3, 2) on the (1, 0) grid returned 5 for a 2-pair grid
        with pytest.raises(ParameterError, match="not a pair of the"):
            basis_grid(tau_m=1, nu_m=0).index_of(tau, nu)


class TestEffectiveMatrix:
    def test_identity_at_origin(self):
        h = effective_channel_matrix(ChannelPath(1.0, 0, 0.0), CFG16)
        assert np.linalg.norm(h - np.eye(16)) < 1e-12

    def test_unitarity(self):
        for tau, nu in [(1, 0), (3, -2), (2, 1)]:
            h = effective_channel_matrix(ChannelPath(1.0, tau, float(nu)), CFG16)
            assert np.linalg.norm(h @ h.conj().T - np.eye(16)) < 1e-10

    def test_single_support_offset(self):
        # each column has one dominant entry at offset 2*c1*tau*Nc - nu
        two_c1_n = CFG16.two_c1_n
        for tau, nu in [(1, 0), (2, -1), (3, 2)]:
            h = effective_channel_matrix(ChannelPath(1.0, tau, float(nu)), CFG16)
            loc = (two_c1_n * tau - nu) % 16
            for m in range(16):
                col = np.abs(h[:, m])
                assert col[(m - loc) % 16] == pytest.approx(1.0, abs=1e-10)

    def test_apply_basis_matches_matrix(self, rng):
        x = random_unit_symbols(rng, 16)
        for tau, nu in [(0, 0), (2, 1), (3, -2)]:
            direct = basis_matrix(CFG16, tau, float(nu)) @ x
            fast = apply_basis(x, CFG16, tau, float(nu))
            assert np.linalg.norm(direct - fast) < 1e-10

    def test_fractional_delay_rejected(self):
        with pytest.raises(ParameterError):
            effective_channel_matrix(ChannelPath(1.0, 2.5, 0.0), CFG16)

    @pytest.mark.parametrize("n_sub, two_c1_n", [(16, 4), (63, 5), (64, 8)])
    def test_batched_apply_basis_equals_per_pair_calls(self, rng, n_sub, two_c1_n):
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        x = random_unit_symbols(rng, n_sub)
        pairs = np.array(basis_grid(tau_m=3, nu_m=2).pairs)
        rows = apply_basis(x, cfg, pairs[:, 0], pairs[:, 1].astype(float))
        assert rows.shape == (len(pairs), n_sub)
        single = [apply_basis(x, cfg, int(tau), float(nu)) for tau, nu in pairs]
        assert np.array_equal(rows, single)

    @pytest.mark.parametrize(
        "taus, nus", [([0, 16], [0, 0]), ([-1, 0], [0, 0]), (16, 0), ([0, 1], [0]), (1.5, 0)]
    )
    def test_apply_basis_rejects_bad_delays(self, taus, nus):
        with pytest.raises(ParameterError):
            apply_basis(np.ones(16), CFG16, taus, nus)


# (n_sub, 2*c1*n_sub): even and odd lengths up to 256
PATH_CONFIGS = [(16, 4), (63, 5), (64, 8), (255, 13), (256, 32)]


def random_path_channel(rng, cfg, grid, keep):
    """PathChannel on a random subset of ``keep`` grid pairs, unit total power."""
    picks = rng.choice(len(grid), size=keep, replace=False)
    pairs = np.asarray(grid.pairs, dtype=np.int64).reshape(-1, 2)[picks]
    gains = (rng.standard_normal(keep) + 1j * rng.standard_normal(keep)) / math.sqrt(2 * max(keep, 1))
    return PathChannel(cfg, pairs[:, 0], pairs[:, 1], gains)


class TestPathChannel:
    @pytest.mark.parametrize("n_sub, two_c1_n", PATH_CONFIGS)
    @pytest.mark.parametrize("keep", [0, 1, 4, 9])
    def test_apply_and_dense_view_match_oracle(self, rng, n_sub, two_c1_n, keep):
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        h = random_path_channel(rng, cfg, basis_grid(tau_m=2, nu_m=1), keep)
        oracle = path_sum(h)
        x = random_unit_symbols(rng, n_sub)
        assert np.max(np.abs(np.asarray(h) - oracle)) < 1e-10
        assert np.max(np.abs(h @ x - oracle @ x)) < 1e-10

    @pytest.mark.parametrize("n_sub, two_c1_n", PATH_CONFIGS)
    def test_regularized_solve_matches_dense(self, rng, n_sub, two_c1_n):
        # the equalizer's solve, K*Nc odd (63, 255) and even: the DAFT-domain normal equations
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        h = random_path_channel(rng, cfg, basis_grid(tau_m=3, nu_m=2), 5)
        r = random_unit_symbols(rng, n_sub)
        lam = 0.1
        expect = dense_oracle.daft_solve(h, r, lam)
        assert np.max(np.abs(h._daft_solve(r, lam) - expect)) < 1e-10

    def test_invalid_paths_rejected(self):
        with pytest.raises(ParameterError):
            PathChannel(CFG16, [1], [0.5], [1.0])
        with pytest.raises(ParameterError):
            PathChannel(CFG16, [1.5], [0], [1.0])
        with pytest.raises(ParameterError):
            PathChannel(CFG16, [16], [0], [1.0])
        with pytest.raises(ParameterError):
            PathChannel(CFG16, [1, 2], [0], [1.0])
        with pytest.raises(ConfigurationError):
            PathChannel(CFG16, [1], [0], [1.0]) @ np.ones(15)

    def test_arrays_and_taps_are_read_only(self, rng):
        h = random_path_channel(rng, CFG16, basis_grid(tau_m=2, nu_m=1), 3)
        h @ np.ones(16)
        h._daft_solve(np.ones(16, dtype=np.complex128), 0.1)
        q, taps = h._daft_taps
        assert h._daft_taps[1] is taps
        for arr in (h.delays, h.dopplers, h.gains, q, taps, h._factor[1]):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("n_sub, two_c1_n", [(64, 4), (63, 5)])
    def test_tap_table_is_built_in_place(self, rng, n_sub, two_c1_n):
        # q and the taps keep 24 bytes per entry; building them in place peaks at 40 (one
        # index or one gather besides), where a temporary per operation takes 72
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        h = PathChannel(cfg, rng.integers(0, n_sub, 45), rng.integers(-n_sub, n_sub, 45), np.ones(45))
        cfg.c1_chirp, cfg.c2_chirp, cfg.dft_twiddle  # the config's tables, built once per config
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            q, _ = h._daft_taps
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 48 * q.size

    @pytest.mark.parametrize("n_sub, two_c1_n", PATH_CONFIGS)
    def test_tap_table_is_the_formula_bit_for_bit(self, rng, n_sub, two_c1_n):
        # the in-place products keep the one-expression form's operand order, so its rounding
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        h = PathChannel(cfg, rng.integers(0, n_sub, 9), rng.integers(-3 * n_sub, 3 * n_sub, 9),
                        rng.standard_normal(9) + 1j * rng.standard_normal(9))
        tau, nu = h.delays[:, None], h.dopplers[:, None] % n_sub
        q = (np.arange(n_sub) + subcarrier_offset(tau, nu, cfg)) % n_sub
        phase = np.conj(cfg.c1_chirp[tau]) * cfg.dft_twiddle[(q + nu) * tau % n_sub]
        taps = h.gains[:, None] * phase * cfg.c2_chirp * np.conj(cfg.c2_chirp[q])
        assert np.array_equal(h._daft_taps[0], q) and np.array_equal(h._daft_taps[1], taps)

    @settings(max_examples=60, deadline=None)
    @given(
        n_sub=st.integers(2, 80),
        two_c1_n=st.integers(0, 9),
        paths=st.integers(1, 6),
        lead=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    # odd K*Nc (the prefix flips); a single row; three leading axes
    @example(n_sub=63, two_c1_n=5, paths=5, lead=[1], seed=1)
    @example(n_sub=2, two_c1_n=1, paths=2, lead=[3], seed=2)
    @example(n_sub=16, two_c1_n=4, paths=3, lead=[2, 1, 3], seed=3)
    def test_forms_are_the_row_dots_of_the_images(self, n_sub, two_c1_n, paths, lead, seed):
        # the Monte Carlo's reader: x^H h_i x per path through one reused row, bit for bit
        # (at Nc = 1 the images' product is one SIMD loop over the P taps, which rounds apart)
        rng = np.random.default_rng(seed)
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        h = PathChannel(cfg, rng.integers(0, n_sub, paths), rng.integers(-3 * n_sub, 3 * n_sub + 1, paths),
                        rng.standard_normal(paths) + 1j * rng.standard_normal(paths))
        shape = (*lead[:-1], lead[-1], n_sub)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        forms = h._forms(x, np.empty(shape, dtype=np.complex128))
        assert forms.shape == (*shape[:-1], paths)
        assert np.array_equal(forms, np.vecdot(x[..., None, :], h.images(x)))

    @pytest.mark.parametrize("apply_first", [False, True])
    def test_callers_gains_do_not_reach_the_channel(self, rng, apply_first):
        delays, dopplers = np.array([0, 2]), np.array([1, -1])
        gains = np.array([1.0, 0.3j])
        x = random_unit_symbols(rng, 16)
        expect = PathChannel(CFG16, delays, dopplers, gains.copy()) @ x
        h = PathChannel(CFG16, delays, dopplers, gains)
        if apply_first:
            h @ x
        gains *= 2.0
        delays[0] = 1
        assert np.array_equal(h @ x, expect)

    @pytest.mark.parametrize("n_sub, two_c1_n", PATH_CONFIGS)
    @pytest.mark.parametrize("keep", [1, 4, 9])
    @pytest.mark.parametrize("lead", [(5,), (3, 2)])
    def test_stack_rows_are_the_single_call(self, rng, n_sub, two_c1_n, keep, lead):
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        h = random_path_channel(rng, cfg, basis_grid(tau_m=2, nu_m=1), keep)
        x = rng.standard_normal(lead + (n_sub,)) + 1j * rng.standard_normal(lead + (n_sub,))
        out = h @ x
        assert out.shape == x.shape
        for i in np.ndindex(lead):
            assert np.array_equal(out[i], h @ x[i])

    @pytest.mark.parametrize("shape", [(16,), (4, 16), (2, 3, 16)])
    def test_zero_path_channel_gives_zeros_of_the_stack_shape(self, shape):
        h = PathChannel(CFG16, [], [], [])
        out = h @ np.ones(shape)
        assert out.shape == shape and out.dtype == np.complex128 and not np.any(out)

    @pytest.mark.parametrize("shape", [(4, 15), (2, 3, 17), (16, 4), ()])
    def test_stack_with_a_wrong_last_axis_rejected(self, shape):
        with pytest.raises(ConfigurationError):
            PathChannel(CFG16, [1], [0], [1.0]) @ np.ones(shape)

    def test_apply_matches_fft_route_at_large_n(self, rng):
        cfg = AfdmConfig(n_sub=4096, c1=1 / 1024)
        x = random_unit_symbols(rng, 4096)
        for tau, nu in [(0, 0), (3, -2), (8, 2)]:
            h = PathChannel(cfg, [tau], [nu], [1.0])
            assert np.max(np.abs(h @ x - apply_basis(x, cfg, tau, float(nu)))) < 1e-13


class TestRegularizedSolve:
    """The equalizer's banded solve (``PathChannel._daft_solve``) against the dense
    normal equations, and its per-lam factor."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_sub=st.integers(2, 128),
        two_c1_n=st.integers(0, 9),
        delays=st.lists(st.integers(0, 2**20), min_size=1, max_size=5),
        lams=st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    # 2*spread >= Nc: lags d and d - Nc share a cyclic diagonal
    @example(n_sub=8, two_c1_n=1, delays=[0, 5], lams=(0.1, 2.0), seed=1)
    @example(n_sub=8, two_c1_n=3, delays=[0, 3, 7], lams=(0.1, 2.0), seed=2)
    @example(n_sub=16, two_c1_n=4, delays=[0, 15], lams=(0.1, 2.0), seed=3)
    @example(n_sub=2, two_c1_n=1, delays=[1], lams=(0.1, 2.0), seed=4)
    def test_matches_dense_normal_equations(self, n_sub, two_c1_n, delays, lams, seed):
        # N odd or even, K*N odd or even, delay spreads up to N - 1; calls
        # alternate lam and r on one channel and each equals a fresh channel's;
        # the DAFT-domain (H^H H + lam I)^{-1} H^H r
        rng = np.random.default_rng(seed)
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        paths = len(delays)
        args = (
            cfg,
            np.asarray(delays) % n_sub,
            rng.integers(-3, 4, paths),
            (rng.standard_normal(paths) + 1j * rng.standard_normal(paths)) / math.sqrt(2 * paths),
        )
        h = PathChannel(*args)
        rs = rng.standard_normal((2, n_sub)) + 1j * rng.standard_normal((2, n_sub))
        for lam, r in [(lams[0], rs[0]), (lams[0], rs[1]), (lams[1], rs[0]), (lams[0], rs[0])]:
            z = h._daft_solve(r, lam)
            assert np.array_equal(z, PathChannel(*args)._daft_solve(r, lam))
            assert np.max(np.abs(z - dense_oracle.daft_solve(h, r, lam))) < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(
        n_sub=st.integers(1, 64),
        two_c1_n=st.integers(0, 9),
        delays=st.lists(st.integers(0, 2**20), max_size=6),
        zero_gains=st.integers(0, 2**6 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    # a spread of Nc - 1 reaches both wraps; repeated delays; a zero gain
    @example(n_sub=8, two_c1_n=1, delays=[0, 7, 7], zero_gains=0b100, seed=1)
    @example(n_sub=9, two_c1_n=3, delays=[0, 8, 4], zero_gains=0, seed=2)
    @example(n_sub=16, two_c1_n=4, delays=[3, 3, 11], zero_gains=0b1, seed=3)
    @example(n_sub=15, two_c1_n=2, delays=[2, 9, 14, 0], zero_gains=0, seed=4)
    def test_band_is_the_dense_normal_matrix(self, n_sub, two_c1_n, delays, zero_gains, seed):
        # N odd or even, K*N odd or even (the prefix flips), the closed-form
        # diagonals read through the band layout against the dense H_t^H H_t
        rng = np.random.default_rng(seed)
        cfg = AfdmConfig(n_sub=n_sub, c1=two_c1_n / (2 * n_sub))
        paths = len(delays)
        gains = (rng.standard_normal(paths) + 1j * rng.standard_normal(paths)) / math.sqrt(2 * max(paths, 1))
        gains[[bool(zero_gains >> p & 1) for p in range(paths)]] = 0.0
        h = PathChannel(cfg, np.asarray(delays, dtype=np.int64) % n_sub, rng.integers(-3, 4, paths), gains)
        expect = dense_oracle.normal_band(h, 0.3)
        band = h._band(0.3)
        assert band.shape == expect.shape
        assert np.max(np.abs(band - expect)) <= 1e-12 * max(1.0, np.abs(expect).max())

    @pytest.mark.parametrize("lam", [-0.1, -1e-300, math.nan, math.inf, -math.inf])
    def test_bad_lam_rejected(self, lam):
        # lam is the noise power over the data power, checked by the equalizer's entry
        h = PathChannel(CFG16, [0, 2], [1, -1], [1.0, 0.3j])
        with pytest.raises(ParameterError, match="noise_power"):
            equalize_demod(np.ones(16), h, np.zeros(16), FrameSpec(1.0, 1.0), lam)

    @pytest.mark.parametrize("gains, r, lam, message", [
        # |gain|^2 overflows in the band's diagonal products
        ([1e200, 1e200], np.ones(16), 0.1, "equalizer matrix overflows"),
        # the two paths' terms of H_t^H r overflow in their sum
        ([1.0, 1.0], np.full(16, 1e308), 0.1, "solution overflows"),
        # a subnormal band divides a finite H_t^H r past the largest float
        ([1e-160, 0.0], np.full(16, 1e300), 0.0, "solution overflows"),
    ])
    def test_overflow_raises_numerical_error_without_a_warning(self, gains, r, lam, message):
        # was a RuntimeWarning and then scipy's bare ValueError, or an inf solution
        h = PathChannel(CFG16, [0, 1], [0, 0], gains)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for attempt in (1, 2):
                with pytest.raises(NumericalError, match=message):
                    h._daft_solve(r.astype(np.complex128), lam)

    def test_solved_channel_keeps_its_daft_taps_and_one_factor(self, rng):
        # the one tap table, a tap and a source column per path and subcarrier,
        # and 2*spread + 1 factor rows of Nc values, plus 4 KiB for the objects
        # that hold them; no lam-free Gram copy and no second tap table.  A
        # first channel of the same spread loads scipy's LAPACK wrapper
        # (``_banded_cholesky``) and the band layout, which every channel of
        # that size and spread shares.
        cfg = AfdmConfig(n_sub=4096, c1=1 / 1024)
        PathChannel(cfg, [0, 8], [0, 0], [1.0, 0.1])._daft_solve(np.ones(4096, dtype=np.complex128), 0.1)
        layout = _band_layout(4096, 8)
        assert layout.nbytes == (2 * 8 + 1) * 4096 * 8
        h = PathChannel(cfg, [0, 3, 8], [0, -2, 2], [1.0, 0.5j, 0.3])
        r = random_unit_symbols(rng, 4096)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h._daft_solve(r, 0.1)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained <= 3 * 4096 * 24 + (2 * 8 + 1) * 4096 * 16 + 4096

    def test_solve_path_makes_no_scatter(self):
        # the band is read from the cyclic diagonals, never accumulated with np.add.at
        solve_path = {"_band", "_daft_solve"}
        tree = ast.parse(textwrap.dedent(inspect.getsource(PathChannel)))
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in solve_path:
                found.add(node.name)
                called = {ast.unparse(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)}
                assert "np.add.at" not in called, node.name
        assert found == solve_path


class TestTimeDomainApplication:
    def test_identity_path(self, rng):
        x = random_unit_symbols(rng, 16)
        s_cpp = add_cpp(idaft(x, CFG16), CFG16)
        real = ChannelRealization(
            paths=(ChannelPath(1.0, 0, 0.0),), noise_power=0.0, tau_m=3, nu_m=2
        )
        y = apply_channel_time(s_cpp, real, CFG16, rng)
        assert np.linalg.norm(y - s_cpp) < 1e-12

    def test_matches_matrix_model_exhaustive(self, rng):
        # every integer (tau, nu) on the grid, including multipath sums
        x = random_unit_symbols(rng, 16)
        s_cpp = add_cpp(idaft(x, CFG16), CFG16)
        for tau in range(4):
            for nu in range(-2, 3):
                path = ChannelPath(0.8 - 0.3j, tau, float(nu))
                real = ChannelRealization((path,), 0.0, tau_m=3, nu_m=2)
                y = daft(remove_cpp(apply_channel_time(s_cpp, real, CFG16, rng), CFG16), CFG16)
                h = effective_channel_matrix(path, CFG16)
                assert np.linalg.norm(y - h @ x) < 1e-10

    def test_multipath_matrix_equivalence(self, rng):
        x = random_unit_symbols(rng, 16)
        s_cpp = add_cpp(idaft(x, CFG16), CFG16)
        real = sample_channel(L=4, tau_m=3, nu_m=2, rng=rng)
        y = daft(remove_cpp(apply_channel_time(s_cpp, real, CFG16, rng), CFG16), CFG16)
        h = channel_matrix(real, CFG16)
        assert np.linalg.norm(y - h @ x) < 1e-10

    def test_energy_conservation_in_expectation(self, rng):
        cfg = AfdmConfig(n_sub=16, n_cpp=4, c1=1 / 8)
        x = random_unit_symbols(rng, 16)
        s_cpp = add_cpp(idaft(x, cfg), cfg)
        tx_power = np.linalg.norm(x) ** 2
        n_trials = 10_000
        rx = np.empty(n_trials)
        for i in range(n_trials):
            real = sample_channel(L=3, tau_m=3, nu_m=2, rng=rng)
            y = remove_cpp(apply_channel_time(s_cpp, real, cfg, rng), cfg)
            rx[i] = np.linalg.norm(y) ** 2
        se = np.std(rx) / math.sqrt(n_trials)
        assert abs(np.mean(rx) - tx_power) < 3 * se

    def test_noiseless_realization_draws_nothing(self, rng):
        s_cpp = add_cpp(idaft(random_unit_symbols(rng, 16), CFG16), CFG16)
        state = rng.bit_generator.state
        apply_channel_time(s_cpp, ChannelRealization((ChannelPath(1.0, 1, 1.0),), 0.0, 3, 2), CFG16, rng)
        assert rng.bit_generator.state == state

    def test_noise_is_two_normal_draws_of_one_value_a_sample(self, rng):
        # real parts, then imaginary parts, over the Nc + n_cpp prefixed samples: the
        # generator ends where one standard_normal(2 * (Nc + n_cpp)) call leaves it
        s_cpp = add_cpp(idaft(random_unit_symbols(rng, 16), CFG16), CFG16)
        path = ChannelPath(1.0, 1, 1.0)
        clean = apply_channel_time(s_cpp, ChannelRealization((path,), 0.0, 3, 2), CFG16, rng)
        g, ref = np.random.default_rng(11), np.random.default_rng(11)
        y = apply_channel_time(s_cpp, ChannelRealization((path,), 5.0, 3, 2), CFG16, g)
        noise = ref.standard_normal(2 * (CFG16.n_sub + CFG16.n_cpp)).reshape(2, -1)
        assert g.bit_generator.state == ref.bit_generator.state
        assert np.max(np.abs(y - clean - math.sqrt(2.5) * (noise[0] + 1j * noise[1]))) < 1e-12

    def test_delay_beyond_prefix_rejected(self, rng):
        x = random_unit_symbols(rng, 16)
        s_cpp = add_cpp(idaft(x, CFG16), CFG16)
        real = ChannelRealization(
            paths=(ChannelPath(1.0, 5, 0.0),), noise_power=0.0, tau_m=5, nu_m=0
        )
        with pytest.raises(ParameterError):
            apply_channel_time(s_cpp, real, CFG16, rng)

    def test_fractional_delay_rejected(self):
        with pytest.raises(ParameterError):
            ChannelRealization((ChannelPath(1.0, 2.5, 0.0),), 0.0, 4, 0)

    def test_whole_float_delay_is_the_integer_delay(self, rng):
        # ChannelPath takes a whole float delay; the path's taps were read at a float index
        s_cpp = add_cpp(idaft(random_unit_symbols(rng, 16), CFG16), CFG16)
        y = [apply_channel_time(s_cpp, ChannelRealization((ChannelPath(0.5j, d, 1.0),), 0.0, 3, 1), CFG16, rng)
             for d in (2, 2.0)]
        assert np.array_equal(*y)

    @pytest.mark.parametrize("delay", [1e19, -1e19, 2.0**63])
    def test_delay_beyond_int64_rejected(self, delay):
        with pytest.raises(ParameterError):
            ChannelPath(1.0, delay, 0.0)


class TestChirpPeriodicRule:
    @settings(max_examples=40, deadline=None)
    @given(
        n_sub=st.integers(2, 40),
        two_c1_n=st.integers(0, 9),
        cpp_share=st.floats(0.0, 1.0),
        n_paths=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_time_and_daft_routes_match_dense_oracle(self, n_sub, two_c1_n, cpp_share, n_paths, seed):
        # N odd or even and K*N odd or even; the oracle's prefix is the exp form
        rng = np.random.default_rng(seed)
        n_cpp = min(int(cpp_share * n_sub), n_sub - 1)
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=n_cpp, c1=two_c1_n / (2 * n_sub))
        x = rng.standard_normal(n_sub) + 1j * rng.standard_normal(n_sub)
        paths = tuple(
            ChannelPath(complex(rng.standard_normal(), rng.standard_normal()),
                        int(rng.integers(0, n_cpp + 1)), float(rng.integers(-3, 4)))
            for _ in range(n_paths)
        )
        real = ChannelRealization(paths, 0.0, tau_m=n_cpp, nu_m=3)
        s = idaft(x, cfg)
        s_cpp = add_cpp(s, cfg)
        y = daft(remove_cpp(apply_channel_time(s_cpp, real, cfg, rng), cfg), cfg)
        scale = np.linalg.norm(x)
        assert np.max(np.abs(y - channel_matrix(real, cfg) @ x)) <= 1e-10 * scale
        for p in paths:
            expect = basis_matrix(cfg, p.delay, p.doppler) @ x
            assert np.max(np.abs(apply_basis(x, cfg, p.delay, p.doppler) - expect)) <= 1e-10 * scale
        sign = (-1.0) ** (two_c1_n * n_sub)
        assert np.array_equal(s_cpp[:n_cpp], sign * s[n_sub - n_cpp :])
        delayed = waveform_samples(s, cfg, np.arange(n_cpp + 1.0))
        records = [s_cpp[n_cpp - tau : n_cpp - tau + n_sub] for tau in range(n_cpp + 1)]
        assert np.array_equal(delayed, records)


class TestReceiveIndexRamp:
    """One path model at any real Doppler: the link's window is the sum of the paths' echoes."""

    @staticmethod
    def frame(n_sub, two_c1_n, cpp_share, n_paths, seed):
        """A config, a DAFT-domain vector and whole-delay paths with real Dopplers in [-3, 3)."""
        rng = np.random.default_rng(seed)
        n_cpp = min(int(cpp_share * n_sub), n_sub - 1)
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=n_cpp, c1=two_c1_n / (2 * n_sub))
        x = rng.standard_normal(n_sub) + 1j * rng.standard_normal(n_sub)
        paths = tuple(
            ChannelPath(complex(rng.standard_normal(), rng.standard_normal()),
                        int(rng.integers(0, n_cpp + 1)), float(rng.uniform(-3.0, 3.0)))
            for _ in range(n_paths)
        )
        return cfg, x, paths

    FRAMES = dict(
        n_sub=st.integers(2, 40),
        two_c1_n=st.integers(0, 9),
        cpp_share=st.floats(0.0, 1.0),
        n_paths=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )

    @settings(max_examples=40, deadline=None)
    @given(**FRAMES)
    # K*Nc even (48) and odd (45)
    @example(n_sub=16, two_c1_n=3, cpp_share=0.5, n_paths=3, seed=1)
    @example(n_sub=15, two_c1_n=3, cpp_share=0.5, n_paths=3, seed=2)
    def test_fractional_doppler_routes_match_dense_oracle(self, n_sub, two_c1_n, cpp_share, n_paths, seed):
        cfg, x, paths = self.frame(n_sub, two_c1_n, cpp_share, n_paths, seed)
        real = ChannelRealization(paths, 0.0, tau_m=cfg.n_cpp, nu_m=3)
        s_cpp = add_cpp(idaft(x, cfg), cfg)
        y = daft(remove_cpp(apply_channel_time(s_cpp, real, cfg, np.random.default_rng(seed)), cfg), cfg)
        scale = np.linalg.norm(x)
        assert np.max(np.abs(y - channel_matrix(real, cfg) @ x)) <= 1e-10 * scale
        rows = apply_basis(x, cfg, np.array([p.delay for p in paths]), [p.doppler for p in paths])
        expect = [basis_matrix(cfg, p.delay, p.doppler) @ x for p in paths]
        assert np.max(np.abs(rows - expect)) <= 1e-10 * scale

    @settings(max_examples=40, deadline=None)
    @given(**FRAMES)
    @example(n_sub=16, two_c1_n=3, cpp_share=0.5, n_paths=3, seed=1)
    @example(n_sub=15, two_c1_n=3, cpp_share=0.5, n_paths=3, seed=2)
    def test_window_is_the_sum_of_echoes(self, n_sub, two_c1_n, cpp_share, n_paths, seed):
        # a path of gain g is the echo of a target of gain g * exp(-j*2*pi*nu*tau/Nc)
        cfg, x, paths = self.frame(n_sub, two_c1_n, cpp_share, n_paths, seed)
        s = idaft(x, cfg)
        real = ChannelRealization(paths, 0.0, tau_m=cfg.n_cpp, nu_m=3)
        window = apply_channel_time(add_cpp(s, cfg), real, cfg, np.random.default_rng(seed))[cfg.n_cpp :]
        echoes = sum(
            sensing_echo(s, cfg, SensingTarget(
                p.gain * cmath.exp(-2j * math.pi * p.doppler * p.delay / n_sub), float(p.delay), p.doppler, 0.0
            ))
            for p in paths
        )
        scale = sum(abs(p.gain) for p in paths) * np.max(np.abs(s))
        assert np.max(np.abs(window - echoes)) <= 1e-12 * scale

    def test_ramp_is_continuous_over_the_window(self):
        # tau = 3, nu = 0.3: the window over the echo is exp(-j*2*pi*nu*tau/Nc),
        # -0.0141 turns, at every n; a ramp read at the transmit index <n - tau>_Nc
        # adds exp(j*2*pi*nu) (0.2859 turns) for n < tau
        cfg = AfdmConfig(n_sub=64, n_cpp=8, c1=3 / 128)
        rng = np.random.default_rng(5)
        s = idaft(rng.standard_normal(64) + 1j * rng.standard_normal(64), cfg)
        real = ChannelRealization((ChannelPath(1.0, 3, 0.3),), 0.0, tau_m=8, nu_m=1)
        window = apply_channel_time(add_cpp(s, cfg), real, cfg, rng)[cfg.n_cpp :]
        turns = np.angle(window / sensing_echo(s, cfg, SensingTarget(1.0, 3.0, 0.3, 0.0))) / (2 * math.pi)
        assert np.max(np.abs(turns + 0.3 * 3 / 64)) < 1e-13
        assert round(float(turns[0]), 4) == -0.0141


class TestSampleChannel:
    def test_single_path_at_origin(self, rng):
        gains = []
        for _ in range(2000):
            real = sample_channel(L=1, tau_m=0, nu_m=0, rng=rng)
            assert real.paths[0].delay == 0 and real.paths[0].doppler == 0.0
            gains.append(abs(real.paths[0].gain) ** 2)
        assert np.mean(gains) == pytest.approx(1.0, abs=3 * np.std(gains) / math.sqrt(2000))

    def test_delays_within_bounds(self, rng):
        for _ in range(200):
            real = sample_channel(L=3, tau_m=2, nu_m=2, rng=rng)
            assert all(0 <= p.delay <= 2 for p in real.paths)
            assert all(-2 <= p.doppler <= 2 for p in real.paths)

    def test_no_duplicate_pairs(self, rng):
        for _ in range(10_000 // 10):
            real = sample_channel(L=6, tau_m=2, nu_m=2, rng=rng)
            pairs = {(p.delay, p.doppler) for p in real.paths}
            assert len(pairs) == 6

    def test_too_many_paths_rejected(self, rng):
        with pytest.raises(ParameterError):
            sample_channel(L=16, tau_m=2, nu_m=2, rng=rng)

    @pytest.mark.parametrize("L", [1, 4, 15])
    def test_stream_is_one_choice_then_one_normal_per_gain_part(self, L):
        # the pairs, then each path's real and imaginary normal in turn, as scalar draws would give
        rng, oracle = np.random.default_rng(5), np.random.default_rng(5)
        real = sample_channel(L, 4, 1, rng)
        picks = oracle.choice(15, size=L, replace=False)
        scale = math.sqrt(1.0 / (2 * L))
        gains = [scale * (oracle.standard_normal() + 1j * oracle.standard_normal()) for _ in range(L)]
        assert [p.gain for p in real.paths] == gains
        assert [(p.delay, p.doppler) for p in real.paths] == [(i // 3, float(i % 3 - 1)) for i in picks]
        assert rng.integers(1 << 62) == oracle.integers(1 << 62)

    def test_draws_build_no_grid(self, rng, monkeypatch):
        # the picks are read by the grid's pair rule, with no BasisGrid and no cache
        monkeypatch.setattr(BasisGrid, "__post_init__", lambda g: pytest.fail("a grid was built"))
        real = sample_channel(3, 3, 1, rng)
        assert len(real.paths) == 3

    @pytest.mark.parametrize("bound", [1.0, True, np.ones(2), "1"])
    def test_bounds_are_checked_before_any_draw(self, rng, bound):
        # 1.0 and True equal the valid bound 1, and neither may reach the draw
        state = rng.bit_generator.state
        for args in ((bound, 1), (1, bound)):
            with pytest.raises(ParameterError, match="_m must be an integer"):
                sample_channel(2, *args, rng)
        assert rng.bit_generator.state == state


class TestSensingEcho:
    def test_zero_target_is_identity(self, rng):
        x = random_unit_symbols(rng, 16)
        s = idaft(x, CFG16)
        target = SensingTarget(1.0, 0.0, 0.0, 0.0)
        r = sensing_echo(s, CFG16, target)
        assert np.linalg.norm(r - s) < 1e-12

    def test_integer_target_matches_matrix_model(self, rng):
        # the echo equals the unit-gain path model up to the constant
        # phase exp(j*2*pi*nu*tau/Nc) that separates the two ramp origins
        x = random_unit_symbols(rng, 16)
        s = idaft(x, CFG16)
        beta = 0.7 + 0.2j
        target = SensingTarget(beta, 3.0, 1.0, 0.0)
        r = sensing_echo(s, CFG16, target)
        h = basis_matrix(CFG16, 3, 1.0)
        expected = beta * np.exp(2j * np.pi * 1.0 * 3.0 / 16) * idaft(h @ x, CFG16)
        assert np.linalg.norm(r - expected) < 1e-10

    def test_fractional_delay_consistent_at_integers(self, rng):
        # fractional path evaluated at an integer equals the lookup path
        x = random_unit_symbols(rng, 16)
        s = idaft(x, CFG16)
        t_int = SensingTarget(1.0, 2.0, 0.5, 0.0)
        r_int = sensing_echo(s, CFG16, t_int)
        t_frac = SensingTarget(1.0, 2.0 + 1e-12, 0.5, 0.0)
        r_frac = sensing_echo(s, CFG16, t_frac)
        assert np.linalg.norm(r_int - r_frac) < 1e-7

    def test_receive_snr_definition(self, rng):
        cfg = AfdmConfig(n_sub=32, n_cpp=8, c1=1 / 16)
        snr = 2.0
        noise_power = 1.0
        n_trials = 1000
        ratios = np.empty(n_trials)
        for i in range(n_trials):
            x = random_unit_symbols(rng, 32) * 2.0
            pt = np.linalg.norm(x) ** 2
            beta = math.sqrt(snr * 32 * noise_power / pt)
            s = idaft(x, cfg)
            target = SensingTarget(beta, 1.0, 0.5, 0.0)
            r = sensing_echo(s, cfg, target)
            ratios[i] = np.linalg.norm(r) ** 2 / (32 * noise_power)
        se = np.std(ratios) / math.sqrt(n_trials)
        assert abs(np.mean(ratios) - snr) < 3 * se + 1e-9

    def test_echo_energy_scaling(self, rng):
        x = random_unit_symbols(rng, 16) * 3.0
        s = idaft(x, CFG16)
        target = SensingTarget(2.0, 1.0, 1.0, 0.0)
        r = sensing_echo(s, CFG16, target)
        assert np.linalg.norm(r) ** 2 == pytest.approx(4.0 * np.linalg.norm(x) ** 2, rel=1e-10)

    @pytest.mark.parametrize("n_sub", [1, 2, 15, 16, 17, 255, 256, 1024])
    def test_doppler_ramp_matches_the_exponential(self, n_sub):
        # at delay 0 and gain 1 the echo of all-ones symbols is the ramp alone
        nu = np.concatenate([np.linspace(-4.0, 4.0, 33), [0.3, -3.7, 1e-300, 5e-324]])
        cfg = AfdmConfig(n_sub=n_sub, c1=1 / (2 * n_sub))
        r = sensing_echo(np.ones((nu.size, n_sub)), cfg, SensingTarget(1.0, 0.0, nu, 0.0))
        expect = np.exp(2j * np.pi * nu[:, None] * np.arange(n_sub) / n_sub)
        assert np.max(np.abs(r - expect)) <= 1e-14

    def test_delay_budget(self, rng):
        x = random_unit_symbols(rng, 16)
        s = idaft(x, CFG16)
        with pytest.raises(ParameterError):
            sensing_echo(s, CFG16, SensingTarget(1.0, 5.0, 0.0, 0.0))


def exact_ramp(nu: float, n_sub: int) -> np.ndarray:
    """exp(j*2*pi*nu*n/Nc) with nu*n/Nc reduced to [-1/2, 1/2) turns exactly, then one cmath.exp."""
    out = []
    for n in range(n_sub):
        turns = Fraction(nu) * n / n_sub % 1
        out.append(cmath.exp(2j * math.pi * float(turns - (turns >= Fraction(1, 2)))))
    return np.array(out)


class TestDopplerRamp:
    @pytest.mark.parametrize("n_sub", [1, 2, 17, 4096])
    def test_within_a_few_ulps_of_the_exactly_reduced_phase(self, n_sub):
        # each sample is two table entries and two exponentials of at most pi: about 12 ulps
        # at worst over Nc <= 4096, where one exponential of the float phase 2*pi*nu*n/Nc
        # is off by 3.4e-12 at Nc = 4096, nu = 4095
        whole = range(n_sub) if n_sub <= 17 else [1, 2, 3, 1000, 2047, 2048, 2049, 4094, 4095]
        nus = [float(w) for w in whole] + [
            -(n_sub - 1.0), 0.5, -0.5, 5e-324, -5e-324, n_sub - 0.5, n_sub - 1.5, 0.3, -3.7, 1e6 + 0.25
        ]
        got = _doppler_ramp(np.array(nus), AfdmConfig(n_sub=n_sub))
        assert got.shape == (len(nus), n_sub)
        for row, nu in zip(got, nus):
            assert np.max(np.abs(row - exact_ramp(nu, n_sub))) <= 16 * np.finfo(float).eps, nu

    def test_whole_part_is_exact_far_out(self):
        # the whole part is reduced mod Nc before any product, so nu and nu + k*Nc agree
        cfg = AfdmConfig(n_sub=64)
        nu = np.array([3.25, -7.5, 11.0])
        far = nu + 64.0 * 2.0**40
        assert np.array_equal(_doppler_ramp(far, cfg), _doppler_ramp(nu, cfg))

    def test_scalar_and_stacked_dopplers(self):
        cfg = AfdmConfig(n_sub=17)
        nus = np.array([[0.25, -2.0], [16.5, 3.0]])
        stacked = _doppler_ramp(nus, cfg)
        assert stacked.shape == (2, 2, 17)
        assert np.array_equal(stacked[1, 0], _doppler_ramp(16.5, cfg))


class TestFractionalEchoCost:
    @pytest.mark.parametrize("n_sub", [256, 1024])
    def test_transcendentals_per_row_not_per_sample(self, monkeypatch, rng, n_sub):
        # a fractional echo of a (16, Nc) stack evaluates O(16*sqrt(Nc) + Nc) exponentials
        # and sincs (the config's tables once, then a few per row), not O(16*Nc)
        rows = 16
        cfg = AfdmConfig(n_sub=n_sub, n_cpp=16, c1=7 / (2 * n_sub))
        s = idaft(rng.standard_normal((rows, n_sub)) + 1j * rng.standard_normal((rows, n_sub)), cfg)
        target = SensingTarget(np.ones(rows), rng.uniform(0.5, 15.5, rows), rng.uniform(-3, 3, rows), 0.0)
        counter = CountingNumpy()
        for module in ("afdm_isac.daft", "afdm_isac.channel"):
            # the package binds the name ``daft`` to the transform, so fetch the modules
            monkeypatch.setattr(importlib.import_module(module), "np", counter)
        budget = 4 * (rows * math.isqrt(n_sub) + n_sub)
        waveform_samples(s, cfg, target.delay_samples[:, None])
        assert 0 < counter.evaluated <= budget
        counter.evaluated = 0
        sensing_echo(s, cfg, target)
        assert 0 < counter.evaluated <= budget


class TestSensingTargetContract:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_power", -1.0),
            ("noise_power", math.nan),
            ("noise_power", math.inf),
            ("gain", complex(math.nan, 0.0)),
            ("gain", np.array([1.0, math.inf])),
            ("delay_samples", math.nan),
            ("delay_samples", np.array([0.5, math.nan])),
            ("doppler_norm", math.inf),
            ("doppler_norm", np.array([-math.inf, 0.0])),
        ],
    )
    def test_non_finite_or_negative_values_rejected(self, field, value):
        kwargs = {"gain": 1.0, "delay_samples": 1.0, "doppler_norm": 0.0, "noise_power": 0.0}
        kwargs[field] = value
        with pytest.raises(ParameterError, match="target"):
            SensingTarget(**kwargs)


class TestBatchedSensingEcho:
    def make_stack(self, rng):
        x = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        return idaft(x, CFG16)

    def test_rows_match_single_calls(self, rng):
        s = self.make_stack(rng)
        delays = np.array([0.0, 1.25, 3.0, 3.9])
        dopplers = np.array([0.5, -1.0, 0.0, 2.3])
        gains = np.array([1.0, 0.5j, -2.0, 0.3 + 0.4j])
        batch = sensing_echo(s, CFG16, SensingTarget(gains, delays, dopplers, 0.0))
        assert batch.shape == (4, 16)
        for i in range(4):
            single = sensing_echo(s[i], CFG16, SensingTarget(gains[i], delays[i], dopplers[i], 0.0))
            assert np.max(np.abs(batch[i] - single)) <= 1e-12 * np.max(np.abs(single))
        # scalar parameters broadcast over the stack
        shared = sensing_echo(s, CFG16, SensingTarget(0.5j, delays, 1.0, 0.0))
        single = sensing_echo(s[1], CFG16, SensingTarget(0.5j, delays[1], 1.0, 0.0))
        assert np.max(np.abs(shared[1] - single)) <= 1e-12 * np.max(np.abs(single))

    @pytest.mark.parametrize("delays", [[0.0, 1.0, 4.5, 2.0], [0.0, -0.25, 1.0, 2.0]])
    def test_delay_outside_budget_rejected(self, rng, delays):
        s = self.make_stack(rng)
        with pytest.raises(ParameterError, match="prefix budget"):
            sensing_echo(s, CFG16, SensingTarget(1.0, np.array(delays), 0.0, 0.0))

    @pytest.mark.parametrize("field", ["gain", "delay_samples", "doppler_norm"])
    def test_parameters_must_broadcast_over_the_stack(self, rng, field):
        s = self.make_stack(rng)
        kwargs = {"gain": 1.0, "delay_samples": 1.0, "doppler_norm": 0.0, "noise_power": 0.0}
        kwargs[field] = np.ones(3)
        with pytest.raises(ParameterError, match="broadcast"):
            sensing_echo(s, CFG16, SensingTarget(**kwargs))


class TestSubcarrierOffset:
    def test_matches_python_integers_across_int64(self):
        # reduced mod Nc before the product, so no delay of int64 range wraps
        cfg = AfdmConfig(n_sub=15, c1=5 / 30)
        tau = np.array([[0, 3, 2**62], [-(2**62), 2**63 - 1, 14]])
        nu = np.array([[0, -2, 7], [2**63 - 1, -(2**63) + 1, 1]])
        expect = [[(5 * int(t) - int(v)) % 15 for t, v in zip(*row)] for row in zip(tau, nu)]
        assert subcarrier_offset(tau, nu, cfg).tolist() == expect
        assert subcarrier_offset(3, -2, cfg) == 2


class TestUnitConversion:
    CFG = AfdmConfig(n_sub=128, n_cpp=32, c1=1 / 32, delta_f=1e5, f_c=28e9)

    def test_zero_delay(self):
        r, _ = delay_doppler_to_range_velocity(0.0, 1.0, self.CFG)
        assert r == 0.0

    def test_range_per_sample(self):
        # Ts = 78.125 ns at Nc=128, delta_f=100 kHz
        r, _ = delay_doppler_to_range_velocity(1.0, 0.0, self.CFG)
        assert r == pytest.approx(11.72, abs=0.01)

    def test_velocity_per_bin(self):
        _, v = delay_doppler_to_range_velocity(0.0, 1.0, self.CFG)
        assert v == pytest.approx(535.7, abs=0.1)
