import dataclasses

import numpy as np
import pytest

import dssm.conv as conv_module
from dssm.conv import (
    RecurrentState,
    Signal,
    _fft_pow2,
    _filter_tables,
    _packed_spectrum,
    _sequential_scan,
    _split,
    fft_causal_conv,
    recurrent_scan,
)
from dssm.discretize import RULES, DiscreteParams, discretize
from dssm.inits import init_C, make_init
from dssm.kernel import Kernel, vandermonde_kernel
from dssm.oracle import random_stable_spec


def direct_causal_conv(u, k):
    L = len(u)
    out = np.zeros(L)
    for l in range(L):
        out[l] = (k[: l + 1] * u[l::-1]).sum()
    return out


def as_kernel(values):
    return Kernel(np.asarray(values, dtype=float))


class TestFftPow2:
    def test_dc_bin(self):
        c = 0.7 - 0.2j
        out = _fft_pow2(np.full(8, c))
        np.testing.assert_allclose(out[0], 8 * c, rtol=1e-14)
        np.testing.assert_allclose(out[1:], np.zeros(7), atol=1e-13)

    @pytest.mark.parametrize("n", [1 << k for k in range(17)])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = np.conj(_fft_pow2(np.conj(_fft_pow2(x)))) / n
        assert np.abs(back - x).max() <= 1e-12 * max(np.abs(x).max(), 1.0)

    # levels (see test_radix_plan): up to 32 points one matmul; 64 = 8·8;
    # 1024 = 32·32; 2048 = 8·16·16; 8192 = 16·16·32; 2^17 = 16·16·16·32.
    # Each n runs the whole input, the first n/2 samples of an input whose
    # rest is zero, and the head-only call (outputs 0..n/2-1)
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 32, 64, 1024, 2048, 4096, 8192, 2**16, 2**17])
    def test_against_numpy_fft_oracle(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        expected = np.fft.fft(x)
        assert np.abs(_fft_pow2(x) - expected).max() <= 1e-12 * np.abs(expected).max()
        if n == 1:
            return  # a one-point transform has no half
        head = _fft_pow2(x, head=True)
        assert head.shape == (n // 2,)
        assert np.abs(head - expected[: n // 2]).max() <= 1e-12 * np.abs(expected).max()
        x[n // 2 :] = 0.0
        expected = np.fft.fft(x)
        padded = _fft_pow2(x[: n // 2], n)
        assert np.abs(padded - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize(
        "n, levels",
        [(1, [1]), (32, [32]), (64, [8, 8]), (2048, [8, 16, 16]), (4096, [16, 16, 16]),
         (8192, [16, 16, 32]), (2**17, [16, 16, 16, 32])],
    )
    def test_radix_plan(self, n, levels):
        plan = []
        while _split(n) != n:
            plan.append(_split(n))
            n //= plan[-1]
        assert plan + [n] == levels


class TestRealSpectrum:
    """_packed_spectrum: the h-point spectrum of a real row packed in pairs."""

    @pytest.mark.parametrize("L, m", [(1, 2), (2, 4), (3, 8), (17, 64), (4096, 8192), (4097, 16384)])
    def test_against_numpy_rfft_oracle(self, L, m):
        # the identity that turns Z into the row's m-point real spectrum is
        # checked end to end by TestFftCausalConv::test_against_numpy_rfft_oracle
        x = np.random.default_rng(L).standard_normal(L)
        padded = np.zeros(m)
        padded[:L] = x
        expected = np.fft.fft(padded[0::2] + 1j * padded[1::2])
        np.testing.assert_allclose(_packed_spectrum(x, m // 2), expected, rtol=0, atol=1e-12 * L)


class TestFftCausalConv:
    def test_impulse_recovers_kernel(self):
        rng = np.random.default_rng(20)
        values = rng.standard_normal(200)
        impulse = np.zeros(200)
        impulse[0] = 1.0
        out = fft_causal_conv(Signal(impulse), as_kernel(values))
        assert np.abs(out.samples - values).max() <= 1e-12 * np.abs(values).max()

    def test_zero_input(self):
        out = fft_causal_conv(Signal(np.zeros(64)), as_kernel(np.ones(64)))
        np.testing.assert_array_equal(out.samples, np.zeros(64))

    def test_non_power_of_two_against_direct_sum(self):
        rng = np.random.default_rng(21)
        L = 257
        u = rng.standard_normal(L)
        k = rng.standard_normal(L)
        out = fft_causal_conv(Signal(u), as_kernel(k))
        reference = direct_causal_conv(u, k)
        assert np.abs(out.samples - reference).max() <= 1e-9 * np.abs(reference).max()

    def test_multichannel(self):
        rng = np.random.default_rng(22)
        for L in (1, 3, 65, 128, 4096):
            u = rng.standard_normal((3, L))
            k = rng.standard_normal(L)
            out = fft_causal_conv(Signal(u), as_kernel(k))
            assert out.samples.shape == (3, L)
            single = fft_causal_conv(Signal(u[1]), as_kernel(k))
            np.testing.assert_array_equal(out.samples[1], single.samples)

    def test_against_numpy_rfft_oracle(self):
        # L = 4096 pads to m = 8192: the rows' 4096-point half transforms run
        # on 16·16·16 and the head-only inverse on 16·16·32
        rng = np.random.default_rng(29)
        for L in (1, 2, 3, 17, 4096, 4097, 65536):
            u = rng.standard_normal((4, L))
            k = rng.standard_normal(L)
            m = 1 << (2 * L - 1).bit_length()
            out = fft_causal_conv(Signal(u), as_kernel(k)).samples
            reference = np.fft.irfft(np.fft.rfft(u, m) * np.fft.rfft(k, m), m)[:, :L]
            assert np.abs(out - reference).max() <= 1e-12 * np.abs(reference).max(), L

    def test_direct_check_raises(self, monkeypatch):
        # a real offset of 1e-6 of max|y| on the head-only inverse's outputs
        # moves the even samples, y_{L-2} among them, off their direct sums
        # by far more than the 1e-9 bound
        plain = conv_module._fft_pow2

        def offset(x, n=None, head=False):
            y = plain(x, n, head)
            return y + 1e-6 * np.abs(y).max() if head else y

        monkeypatch.setattr(conv_module, "_fft_pow2", offset)
        u = np.random.default_rng(30).standard_normal(64)
        with pytest.raises(ValueError, match="direct check"):
            fft_causal_conv(Signal(u), as_kernel(np.ones(64)))

    @pytest.mark.parametrize(
        "fault",
        [lambda P, R: (np.conj(P), R), lambda P, R: (P, -R), lambda P, R: (P, np.zeros_like(R))],
        ids=["conj-P", "negated-R", "zero-R"],
    )
    @pytest.mark.parametrize("L", [3, 64, 4097])
    def test_filter_table_faults_raise(self, monkeypatch, fault, L):
        # a wrong pair filter gives wrong outputs everywhere, the last included
        monkeypatch.setattr(conv_module, "_filter_tables", lambda m: fault(*_filter_tables(m)))
        rng = np.random.default_rng(L)
        with pytest.raises(ValueError, match="direct check"):
            fft_causal_conv(Signal(rng.standard_normal((2, L))), as_kernel(rng.standard_normal(L)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            fft_causal_conv(Signal(np.zeros(32)), as_kernel(np.zeros(16)))

    @pytest.mark.parametrize("L", [2, 7, 100, 4096])
    def test_output_that_cancels_to_zero(self, L):
        # K_0 = 0 and only the last input sample nonzero: every exact output
        # is zero, so the direct check must be judged against |u| * sum|K|, not |y|
        rng = np.random.default_rng(L)
        k = rng.standard_normal(L)
        k[0] = 0.0
        u = np.zeros(L)
        u[-1] = 1.0
        out = fft_causal_conv(Signal(u), as_kernel(k)).samples
        assert np.abs(out).max() <= 1e-12 * np.abs(k).sum()

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="kernel length must be >= 1"):
            fft_causal_conv(Signal(np.zeros(0)), as_kernel(np.zeros(0)))

    def test_causality(self):
        rng = np.random.default_rng(23)
        L = 100
        u = rng.standard_normal(L)
        kernel = as_kernel(rng.standard_normal(L))
        base = fft_causal_conv(Signal(u), kernel).samples
        for j in rng.integers(0, L, size=5):
            bumped = u.copy()
            bumped[j] += 1.0
            delta = fft_causal_conv(Signal(bumped), kernel).samples - base
            assert np.abs(delta[:j]).max(initial=0.0) <= 1e-9
            assert abs(delta[j] - kernel.values[0]) <= 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(24)
        L = 96
        kernel = as_kernel(rng.standard_normal(L))
        u = rng.standard_normal(L)
        v = rng.standard_normal(L)
        alpha, beta = 1.7, -0.4
        combined = fft_causal_conv(Signal(alpha * u + beta * v), kernel).samples
        split = (
            alpha * fft_causal_conv(Signal(u), kernel).samples
            + beta * fft_causal_conv(Signal(v), kernel).samples
        )
        assert np.abs(combined - split).max() <= 1e-10 * max(np.abs(split).max(), 1.0)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("L", [65, 4097])
    def test_scaled_input_scales_output_exactly(self, L, channels):
        # the transforms sum m = 2^p >= 2L terms, so unscaled they would
        # overflow about m times before the output does; the power-of-two
        # prescale keeps conv(2^j u) == 2^j conv(u) while both are finite
        spec = make_init("lin", 64)
        spec.C_half = init_C(spec.n_half, 1)
        disc = discretize(spec.A_half, spec.B_half, 0.01, "bilinear")
        kernel = vandermonde_kernel(spec, disc, L)
        u = np.random.default_rng(15).standard_normal((channels, L))
        base = fft_causal_conv(Signal(u), kernel).samples
        j = 1000
        with np.errstate(over="ignore"):
            while np.isfinite(np.ldexp(u, j)).all() and np.isfinite(np.ldexp(base, j)).all():
                out = fft_causal_conv(Signal(np.ldexp(u, j)), kernel).samples
                assert out.tobytes() == np.ldexp(base, j).tobytes(), j
                j += 1
        assert j > 1021

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_input(self, bad):
        u = np.ones((2, 16))
        u[1, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fft_causal_conv(Signal(u), as_kernel(np.ones(16)))


class TestRecurrentScan:
    def test_impulse_is_kernel(self):
        rng = np.random.default_rng(25)
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, "zoh")
        L = 128
        kernel = vandermonde_kernel(spec, disc, L)
        impulse = np.zeros(L)
        impulse[0] = 1.0
        out, _ = recurrent_scan(disc, spec.C_half, Signal(impulse))
        assert np.abs(out.samples - kernel.values).max() <= 1e-10 * np.abs(kernel.values).max()

    def test_chunked_equals_single_exactly(self):
        rng = np.random.default_rng(26)
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, "bilinear")
        u = rng.standard_normal(100)
        whole, state_whole = recurrent_scan(disc, spec.C_half, Signal(u))
        first, carried = recurrent_scan(disc, spec.C_half, Signal(u[:37]))
        second, state_final = recurrent_scan(
            disc, spec.C_half, Signal(u[37:]), state=carried
        )
        np.testing.assert_array_equal(
            np.concatenate([first.samples, second.samples]), whole.samples
        )
        np.testing.assert_array_equal(state_final.x, state_whole.x)

    def test_scalar_geometric_sequence(self):
        disc = DiscreteParams(
            A_bar=np.array([0.5 + 0j]), B_bar=np.array([1.0 + 0j]), rule="zoh", dt=0.1
        )
        u = np.zeros(8)
        u[0] = 1.0
        conj_out, _ = recurrent_scan(disc, np.ones(1), Signal(u), conj_pairs=True)
        real_out, _ = recurrent_scan(disc, np.ones(1), Signal(u), conj_pairs=False)
        geometric = 0.5 ** np.arange(8)
        np.testing.assert_allclose(conj_out.samples, 2.0 * geometric, rtol=1e-15)
        np.testing.assert_allclose(real_out.samples, geometric, rtol=1e-15)

    def test_matches_fft_route(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            spec, dt = random_stable_spec(rng)
            rule = "bilinear" if rng.integers(2) else "zoh"
            disc = discretize(spec.A_half, spec.B_half, dt, rule)
            L = int(rng.integers(16, 400))
            u = rng.standard_normal(L)
            kernel = vandermonde_kernel(spec, disc, L)
            via_fft = fft_causal_conv(Signal(u), kernel).samples
            via_scan, _ = recurrent_scan(disc, spec.C_half, Signal(u))
            scale = max(np.abs(via_scan.samples).max(), 1e-300)
            assert np.abs(via_fft - via_scan.samples).max() <= 1e-8 * scale

    def test_multichannel_scan(self):
        rng = np.random.default_rng(28)
        spec, dt = random_stable_spec(rng, n_half=4)
        disc = discretize(spec.A_half, spec.B_half, dt, "zoh")
        u = rng.standard_normal((2, 50))
        both, state = recurrent_scan(disc, spec.C_half, Signal(u))
        one, _ = recurrent_scan(disc, spec.C_half, Signal(u[0]))
        # matvec summation order may differ across channel counts (BLAS path)
        np.testing.assert_allclose(both.samples[0], one.samples, rtol=0, atol=1e-14)
        assert state.x.shape == (2, 4)

    def test_rejects_dense_discretization(self):
        disc = DiscreteParams(
            A_bar=np.eye(2, dtype=complex), B_bar=np.ones(2, dtype=complex), rule="zoh", dt=0.1
        )
        with pytest.raises(ValueError, match="diagonal"):
            recurrent_scan(disc, np.ones(2), Signal(np.zeros(4)))

    def test_rejects_mismatched_c(self):
        disc = DiscreteParams(
            A_bar=np.ones(3, dtype=complex) * 0.5,
            B_bar=np.ones(3, dtype=complex),
            rule="zoh",
            dt=0.1,
        )
        with pytest.raises(ValueError, match="C length"):
            recurrent_scan(disc, np.ones(2), Signal(np.zeros(4)))

    def test_rejects_bad_state_shape(self):
        disc = DiscreteParams(
            A_bar=np.ones(2, dtype=complex) * 0.5,
            B_bar=np.ones(2, dtype=complex),
            rule="zoh",
            dt=0.1,
        )
        with pytest.raises(ValueError, match="state"):
            recurrent_scan(
                disc, np.ones(2), Signal(np.zeros(4)), state=RecurrentState(np.zeros(3))
            )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_input(self, bad):
        rng = np.random.default_rng(30)
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, "zoh")
        u = np.ones(100)
        u[70] = bad
        with pytest.raises(ValueError, match="non-finite"):
            recurrent_scan(disc, spec.C_half, Signal(u))


def relative_error(got, want):
    scale = max(float(np.abs(want).max()), np.finfo(float).tiny)
    return float(np.abs(got - want).max()) / scale


def signal_rows(rng, channels, L):
    """One channel as a 1-D signal, more as (channels, L) rows."""
    return rng.standard_normal(L) if channels == 1 else rng.standard_normal((channels, L))


class TestBlockedScan:
    """recurrent_scan works in 64-step blocks; _sequential_scan is its
    one-step-per-sample reference."""

    def assert_matches_reference(self, disc, C, u, state=None, conj_pairs=True):
        got, got_state = recurrent_scan(disc, C, Signal(u), state, conj_pairs)
        want, want_state = _sequential_scan(disc, C, Signal(u), state, conj_pairs)
        assert got.samples.shape == want.samples.shape
        assert got_state.x.shape == want_state.x.shape
        assert relative_error(got.samples, want.samples) <= 1e-12
        assert relative_error(got_state.x, want_state.x) <= 1e-12

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("conj_pairs", [True, False])
    @pytest.mark.parametrize("channels", [1, 2, 3, 4])
    def test_matches_sequential_reference(self, rule, conj_pairs, channels):
        rng = np.random.default_rng([31, channels, conj_pairs])
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, rule)
        for L in (1, 63, 64, 65, 197, 5000):
            self.assert_matches_reference(
                disc, spec.C_half, signal_rows(rng, channels, L), conj_pairs=conj_pairs
            )

    @pytest.mark.parametrize("channels", [1, 3])
    def test_state_from_x_alone(self, channels):
        rng = np.random.default_rng([32, channels])
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, "bilinear")
        x = rng.standard_normal((channels, spec.n_half)) + 1j * rng.standard_normal(
            (channels, spec.n_half)
        )
        state = RecurrentState(x[0] if channels == 1 else x)
        for L in (1, 65, 197):
            self.assert_matches_reference(disc, spec.C_half, signal_rows(rng, channels, L), state)

    def test_strongly_damped_modes(self):
        # |a| = exp(-12.5): a^64 underflows to zero inside the block tables
        rng = np.random.default_rng(33)
        spec = make_init("lin", 64)
        C = rng.standard_normal(spec.n_half) + 1j * rng.standard_normal(spec.n_half)
        disc = discretize(spec.A_half, spec.B_half, 25.0, "zoh")
        assert np.all(np.abs(disc.A_bar) ** 64 == 0.0)
        self.assert_matches_reference(disc, C, rng.standard_normal(5000))

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("rule", RULES)
    def test_any_split_equals_one_call(self, channels, rule):
        rng = np.random.default_rng([34, channels])
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, rule)
        u = signal_rows(rng, channels, 1500)
        whole, state_whole = recurrent_scan(disc, spec.C_half, Signal(u))
        pieces, state, start = [], None, 0
        while start < u.shape[-1]:
            size = int(rng.choice([1, 63, 64, 65, int(rng.integers(2, 200))]))
            out, state = recurrent_scan(
                disc, spec.C_half, Signal(u[..., start : start + size]), state=state
            )
            pieces.append(out.samples)
            start += size
        assert len(pieces) > 20
        np.testing.assert_array_equal(np.concatenate(pieces, axis=-1), whole.samples)
        np.testing.assert_array_equal(state.x, state_whole.x)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_replaced_x_starts_a_new_grid(self, channels):
        rng = np.random.default_rng([36, channels])
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, "bilinear")
        _, carried = recurrent_scan(disc, spec.C_half, Signal(signal_rows(rng, channels, 70)))
        with pytest.raises(ValueError, match="read-only"):
            carried.x[...] = 0.0
        x = rng.standard_normal(carried.x.shape) + 1j * rng.standard_normal(carried.x.shape)
        self.assert_matches_reference(
            disc, spec.C_half, signal_rows(rng, channels, 100), dataclasses.replace(carried, x=x)
        )
        carried.x = x
        self.assert_matches_reference(disc, spec.C_half, signal_rows(rng, channels, 100), carried)

    def test_carried_state_into_another_system_starts_a_new_grid(self):
        rng = np.random.default_rng(37)
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, "zoh")
        _, carried = recurrent_scan(disc, spec.C_half, Signal(rng.standard_normal(70)))
        other_C = rng.standard_normal(spec.n_half) + 1j * rng.standard_normal(spec.n_half)
        for other_disc, C in (
            (discretize(spec.A_half, spec.B_half, 2 * dt, "zoh"), spec.C_half),
            (discretize(spec.A_half, spec.B_half, dt, "bilinear"), spec.C_half),
            (disc, other_C),
        ):
            self.assert_matches_reference(other_disc, C, rng.standard_normal(100), carried)

    def test_carried_block_state_needs_same_channels(self):
        rng = np.random.default_rng(35)
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, "zoh")
        for length in (64, 70):  # at a block boundary and inside a block
            _, carried = recurrent_scan(disc, spec.C_half, Signal(rng.standard_normal((3, length))))
            with pytest.raises(ValueError, match="carried state"):
                recurrent_scan(disc, spec.C_half, Signal(np.zeros((2, 5))), state=carried)


class TestSignal:
    def test_channel_properties(self):
        assert Signal(np.zeros(8)).channels == 1
        assert Signal(np.zeros((3, 8))).channels == 3
        assert Signal(np.zeros((3, 8))).length == 8

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            Signal(np.zeros((2, 2, 2)))
