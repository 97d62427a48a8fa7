import functools
import math

import numpy as np
import pytest

from dssm.cli import _auxiliary_peak_bytes
from dssm.conv import Signal, recurrent_scan
from dssm.discretize import (
    DiscreteParams,
    dense_matrix_exp,
    discretize,
    discretize_bilinear,
    discretize_zoh,
)
from dssm.hippo import DenseSpec, make_hippo_legs
from dssm.inits import DiagonalSpec, init_C, init_lin, init_real, make_init
from dssm.kernel import (
    PAIR_OUTPUT_WEIGHT,
    STREAM_CHUNK,
    _GROUP,
    Kernel,
    _kernel_values,
    dss_softmax_kernel,
    sample_basis,
    vandermonde_kernel,
)
from dssm.oracle import legendre_basis_table, random_stable_spec


def manual_disc(a_bar, b_bar, rule="bilinear", dt=0.1):
    return DiscreteParams(
        A_bar=np.asarray(a_bar, dtype=complex),
        B_bar=np.asarray(b_bar, dtype=complex),
        rule=rule,
        dt=dt,
    )


def one_pair_spec():
    return DiagonalSpec(
        A_half=np.array([-0.5 + 1j]),
        B_half=np.ones(1, dtype=complex),
        C_half=np.ones(1, dtype=complex),
    )


class TestVandermondeKernel:
    def test_single_conjugate_pair_analytic(self):
        # one implicit pair with weight 1: K_l = 2 r^l cos(l theta)
        r, theta = 0.8, 0.3
        spec = one_pair_spec()
        disc = manual_disc([r * np.exp(1j * theta)], [1.0])
        kernel = vandermonde_kernel(spec, disc, 64)
        l = np.arange(64)
        np.testing.assert_allclose(kernel.values, 2 * r**l * np.cos(l * theta), atol=1e-13)

    def test_matches_recurrence_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            spec, dt = random_stable_spec(rng)
            for rule in ("bilinear", "zoh"):
                disc = discretize(spec.A_half, spec.B_half, dt, rule)
                L = int(rng.integers(16, 300))
                kernel = vandermonde_kernel(spec, disc, L)
                impulse = np.zeros(L)
                impulse[0] = 1.0
                scanned, _ = recurrent_scan(disc, spec.C_half, Signal(impulse))
                scale = np.abs(kernel.values).max()
                assert np.abs(scanned.samples - kernel.values).max() <= 1e-10 * scale

    def test_lin_rows_are_damped_oscillations(self):
        # basis row n of the linear family oscillates at frequency pi*n, so
        # its zero-crossing count over [0, 1] grows linearly in n
        spec = init_lin(64)
        t = np.arange(1024) / 1024.0
        table = sample_basis(spec, t)
        crossings = [
            int((np.diff(np.sign(table[n].real)) != 0).sum()) for n in range(8)
        ]
        for n in range(1, 8):
            assert abs(crossings[n] - n) <= 1
        envelope = np.exp(-t / 2)
        assert (np.abs(table[:8]) <= envelope[None, :] * (1 + 1e-12)).all()

    def test_realness_against_full_spectrum_sum(self):
        rng = np.random.default_rng(11)
        spec, dt = random_stable_spec(rng, n_half=6)
        disc = discretize(spec.A_half, spec.B_half, dt, "bilinear")
        L = 50
        kernel = vandermonde_kernel(spec, disc, L)
        # explicit conjugates appended: the complex sum must be real
        w = spec.C_half * disc.B_bar
        a_full = np.concatenate([disc.A_bar, np.conj(disc.A_bar)])
        w_full = np.concatenate([w, np.conj(w)])
        full = (w_full[:, None] * a_full[:, None] ** np.arange(L)).sum(axis=0)
        assert np.abs(full.imag).max() <= 1e-12 * max(np.abs(full.real).max(), 1.0)
        np.testing.assert_allclose(kernel.values, full.real, atol=1e-11)

    def test_real_mode_weight_is_one(self):
        spec = init_real(4)
        spec.C_half = np.ones(4, dtype=complex)
        disc = discretize_zoh(spec.A_half, spec.B_half, 0.1)
        kernel = vandermonde_kernel(spec, disc, 8)
        weights = spec.C_half * disc.B_bar
        direct = (weights[:, None] * disc.A_bar[:, None] ** np.arange(8)).sum(0)
        np.testing.assert_allclose(kernel.values, direct.real, atol=1e-14)

    def test_decay_envelope(self):
        rng = np.random.default_rng(12)
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, "zoh")
        L = 4096
        kernel = vandermonde_kernel(spec, disc, L)
        rho = np.abs(disc.A_bar).max()
        amplitude = PAIR_OUTPUT_WEIGHT * np.abs(spec.C_half * disc.B_bar).sum()
        bound = amplitude * rho ** np.arange(L)
        assert (np.abs(kernel.values) <= bound * (1 + 1e-9) + 1e-300).all()

    def test_length_mismatch_rejected(self):
        spec = one_pair_spec()
        disc = manual_disc([0.5, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError, match="modes"):
            vandermonde_kernel(spec, disc, 8)

    @pytest.mark.parametrize("build", [vandermonde_kernel, dss_softmax_kernel])
    def test_c_length_mismatch_rejected(self, build):
        # a 1-element C_half on a 2-mode spec must not broadcast
        spec = init_lin(4)
        spec.C_half = np.ones(1, dtype=complex)
        disc = discretize_zoh(spec.A_half, spec.B_half, 0.1)
        with pytest.raises(ValueError, match="C_half"):
            build(spec, disc, 8)

    def test_unset_c_rejected(self):
        spec = init_lin(8)
        disc = discretize_bilinear(spec.A_half, spec.B_half, 0.01)
        with pytest.raises(ValueError, match="C_half"):
            vandermonde_kernel(spec, disc, 8)

    def test_bad_length_rejected(self):
        spec = one_pair_spec()
        disc = manual_disc([0.5], [1.0])
        with pytest.raises(ValueError):
            vandermonde_kernel(spec, disc, 0)


def one_chunk_values(spec, disc, L, weights=None):
    """The kernel engine with a single chunk spanning all L samples."""
    w = spec.C_half * disc.B_bar if weights is None else weights
    return _kernel_values(w, disc.A_bar, L, PAIR_OUTPUT_WEIGHT, chunk=L)


class TestKernelLength:
    def test_length_is_derived_from_values(self):
        assert Kernel(values=np.zeros(5)).L == 5

    def test_length_is_not_a_field(self):
        with pytest.raises(TypeError):
            Kernel(values=np.zeros(5), L=5)


class TestStreamingVariant:
    # the one-chunk schedule is what a materialized power matrix computes
    @pytest.mark.parametrize("L", [1, 7, STREAM_CHUNK - 1, STREAM_CHUNK, STREAM_CHUNK + 1, 3 * STREAM_CHUNK + 17])
    def test_bit_identical_to_materialized(self, L):
        rng = np.random.default_rng(L)
        spec, dt = random_stable_spec(rng)
        disc = discretize(spec.A_half, spec.B_half, dt, "bilinear")
        materialized = one_chunk_values(spec, disc, L)
        streaming = vandermonde_kernel(spec, disc, L)
        np.testing.assert_array_equal(streaming.values, materialized)
        assert np.abs(streaming.values - materialized).max() <= 1e-12

    def test_single_step_value(self):
        spec = one_pair_spec()
        spec.C_half = np.array([0.3 - 0.4j])
        disc = manual_disc([0.5 + 0.1j], [2.0])
        kernel = vandermonde_kernel(spec, disc, 1)
        expected = 2 * (spec.C_half * disc.B_bar).sum().real
        np.testing.assert_allclose(kernel.values, [expected], rtol=1e-15)

    def test_auxiliary_allocation_independent_of_length(self):
        # measured peak bytes beyond the returned values; every buffer is
        # chunk-sized, so only tracemalloc's own bookkeeping may differ
        rng = np.random.default_rng(13)
        spec, dt = random_stable_spec(rng, n_half=32)
        disc = discretize(spec.A_half, spec.B_half, dt, "bilinear")
        peaks = {
            L: _auxiliary_peak_bytes(lambda: vandermonde_kernel(spec, disc, L).values)
            for L in (1024, 65536)
        }
        assert peaks[65536] <= 1.01 * peaks[1024]
        one_chunk = _auxiliary_peak_bytes(lambda: one_chunk_values(spec, disc, 65536))
        assert peaks[65536] < one_chunk / 10


class TestChunkSchedule:
    # chunks below 128 samples all run 2-row batches; 64, 65, 127 and 128
    # sit at the edges of a 64-sample block
    CHUNKS = (STREAM_CHUNK, 2, 3, 64, 65, 127, 128)
    SCHEDULES = [(rule, chunk) for chunk in CHUNKS for rule in ("bilinear", "zoh")]

    @pytest.mark.parametrize(
        "rule, chunk", SCHEDULES, ids=[r if c == STREAM_CHUNK else f"{r}-{c}" for r, c in SCHEDULES]
    )
    def test_output_independent_of_chunk_schedule(self, rule, chunk):
        # lengths at the block edges and 1-3 samples past a chunk boundary,
        # where the last batch runs rows that L does not fill
        C = chunk
        lengths = sorted({1, 2, 3, 63, 64, 65, C - 1, C, C + 1, C + 2, C + 3, 2 * C + 1, 2 * C + 2,
                          3 * C + 17})
        rng = np.random.default_rng(40)
        for _ in range(20):
            spec, dt = random_stable_spec(rng)
            disc = discretize(spec.A_half, spec.B_half, dt, rule)
            plain = spec.C_half * disc.B_bar
            for L in lengths:
                row_sums = (disc.A_bar**L - 1.0) / (disc.A_bar - 1.0)
                for w in (plain, plain / row_sums):
                    np.testing.assert_array_equal(
                        _kernel_values(w, disc.A_bar, L, PAIR_OUTPUT_WEIGHT, chunk=chunk),
                        one_chunk_values(spec, disc, L, w),
                        err_msg=f"L={L}",
                    )


class TestModeSumOrder:
    @pytest.mark.parametrize("rule", ["bilinear", "zoh"])
    @pytest.mark.parametrize("n_half", [*range(1, 18), 31, 32, 33, 64, 65, 100])
    def test_modes_summed_pairwise_in_index_order(self, n_half, rule):
        # the modes go in groups of _GROUP: each group is the engine run on
        # that group alone, the running total and each group's sum are added
        # pair by pair in index order, and the output weight is applied last
        spec, dt = random_stable_spec(np.random.default_rng(n_half), n_half=n_half)
        disc = discretize(spec.A_half, spec.B_half, dt, rule)
        w, a = spec.C_half * disc.B_bar, disc.A_bar
        for L in (1, 3, 100, STREAM_CHUNK + 2):
            total = np.zeros(L)
            for g in range(0, n_half, _GROUP):
                total += _kernel_values(w[g : g + _GROUP], a[g : g + _GROUP], L, 1.0)
            for chunk in (L, STREAM_CHUNK):
                np.testing.assert_array_equal(
                    _kernel_values(w, a, L, PAIR_OUTPUT_WEIGHT, chunk=chunk),
                    PAIR_OUTPUT_WEIGHT * total,
                    err_msg=f"L={L}, chunk={chunk}",
                )


class TestDssSoftmaxKernel:
    def test_row_sum_geometric_limit(self):
        # single pair with A_bar = 1/2: the length-L geometric sum approaches
        # 1/(1 - 1/2) = 2, so the normalized kernel approaches the plain
        # kernel divided by 2
        spec = one_pair_spec()
        disc = manual_disc([0.5], [1.0], rule="zoh")
        L = 120
        plain = vandermonde_kernel(spec, disc, L)
        normalized = dss_softmax_kernel(spec, disc, L)
        np.testing.assert_allclose(normalized.values, plain.values / 2.0, rtol=1e-12)

    def test_identity_with_rescaled_weights(self):
        rng = np.random.default_rng(14)
        spec, dt = random_stable_spec(rng, n_half=8)
        disc = discretize(spec.A_half, spec.B_half, dt, "zoh")
        L = 256
        normalized = dss_softmax_kernel(spec, disc, L)
        row_sums = (disc.A_bar**L - 1.0) / (disc.A_bar - 1.0)
        rescaled = DiagonalSpec(
            A_half=spec.A_half,
            B_half=spec.B_half,
            C_half=spec.C_half / row_sums,
        )
        reference = vandermonde_kernel(rescaled, disc, L)
        scale = np.abs(reference.values).max()
        assert np.abs(normalized.values - reference.values).max() <= 1e-10 * scale

    def test_not_prefix_consistent(self):
        rng = np.random.default_rng(15)
        spec, dt = random_stable_spec(rng, n_half=8)
        disc = discretize(spec.A_half, spec.B_half, dt, "zoh")
        k512 = dss_softmax_kernel(spec, disc, 512)
        k256 = dss_softmax_kernel(spec, disc, 256)
        assert np.abs(k512.values[:256] - k256.values).max() > 1e-6

    def test_requires_zoh(self):
        spec = one_pair_spec()
        disc = manual_disc([0.5], [1.0], rule="bilinear")
        with pytest.raises(ValueError, match="zoh"):
            dss_softmax_kernel(spec, disc, 16)

    def test_unit_mode_row_sum_is_length(self):
        # A_bar exactly 1: every A_bar^l is 1, so the row sum is L
        spec = one_pair_spec()
        disc = manual_disc([1.0], [1.0], rule="zoh")
        kernel = dss_softmax_kernel(spec, disc, 32)
        np.testing.assert_allclose(kernel.values, np.full(32, 2.0 / 32.0), rtol=1e-12)

    @pytest.mark.parametrize("z", [-1.01e-8 + 3e-9j, -1.2e-8, -1e-7 + 5e-8j])
    def test_row_sum_near_one_matches_binomial_series(self, z):
        # |a - 1| just above 1e-8, where the closed form (a^L - 1)/(a - 1)
        # cancels: sum_l a^l = sum_k C(L, k+1) d^k with d = a - 1, and eight
        # terms are exact to eps here because |L d| < 1e-3
        L = 4096
        disc = manual_disc([np.exp(z)], [1.0], rule="zoh")
        d = disc.A_bar[0] - 1.0
        row_sum = sum(math.comb(L, k + 1) * d**k for k in range(8))
        K0 = dss_softmax_kernel(one_pair_spec(), disc, L).values[0]
        np.testing.assert_allclose(K0, 2.0 * (1.0 / row_sum).real, rtol=1e-13, atol=0.0)

    def test_degenerate_row_rejected(self):
        # A_bar a nontrivial L-th root of unity makes the geometric sum vanish
        L = 16
        spec = one_pair_spec()
        disc = manual_disc([np.exp(2j * np.pi / L)], [1.0], rule="zoh")
        with pytest.raises(ValueError, match="degenerate"):
            dss_softmax_kernel(spec, disc, L)


def binary_power(a, L):
    """a^L by repeated squaring (exact zeros stay zero, unlike exp(L log a))."""
    result, square = np.ones_like(a), a
    while L:
        if L & 1:
            result = result * square
        square, L = square * square, L >> 1
    return result


def generating_function_kernels(cs, a, L, out_weight):
    """out_weight * Re(sum_n c_n a_n^l) for l < L, one row per row c of cs,
    through the length-L DFT Z_k = sum_n c_n / (1 - a_n w^k),
    w = e^(-2 pi i / L), of the truncated generating function (each c_n
    here already carries the factor 1 - a_n^L)."""
    shift = np.exp(-2j * np.pi * np.arange(L) / L)
    Z = np.zeros((len(cs), L), dtype=complex)
    for n, a_n in enumerate(a):
        Z += cs[:, n, None] / (1.0 - a_n * shift)
    return out_weight * np.fft.ifft(Z).real


@functools.cache
def seeded_spec(init):
    """A 32-mode spec of `init` with a seeded C (the real family has no
    conjugate pairs, so N = 32 there)."""
    spec = make_init(init, 32 if init == "real" else 64)
    spec.C_half = init_C(spec.n_half, 5)
    return spec


class TestLongKernelOracle:
    """Kernels past one 4096-sample batch against an oracle that shares no
    code with the block engine: no cumprod, no block table, no matmul."""

    @pytest.mark.parametrize("L", [4096, 4097, 3 * 4096 + 17, 65536])
    @pytest.mark.parametrize("rule", ["bilinear", "zoh"])
    @pytest.mark.parametrize("dt", [1e-5, 1e-3, 1e-1])
    @pytest.mark.parametrize("init", ["lin", "legsd", "inv", "real"])
    def test_matches_generating_function(self, init, dt, rule, L):
        # init real, bilinear at dt = 0.1 has A_bar = 0 exactly (dt |A| = 2)
        spec = seeded_spec(init)
        disc = discretize(spec.A_half, spec.B_half, dt, rule)
        a, w = disc.A_bar, spec.C_half * disc.B_bar
        builds, cs = [vandermonde_kernel], [w * (1.0 - binary_power(a, L))]
        if rule == "zoh":
            # the softmax is the kernel of c = w / row sums, and with row sums
            # (1 - a^L) / (1 - a) the factor 1 - a^L cancels
            builds.append(dss_softmax_kernel)
            cs.append(w * (1.0 - a))
        out_weight = PAIR_OUTPUT_WEIGHT if spec.conj_pairs else 1.0
        references = generating_function_kernels(np.array(cs), a, L, out_weight)
        for build, reference in zip(builds, references):
            gap = np.abs(build(spec, disc, L).values - reference).max()
            assert gap <= 1e-10 * np.abs(reference).max(), build.__name__


class TestSampleBasis:
    def test_diagonal_t_zero_equals_b(self):
        spec = init_lin(8)
        spec.B_half = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        table = sample_basis(spec, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(table[:, 0], spec.B_half)

    def test_halved_decay_envelope_row(self):
        spec = DiagonalSpec(A_half=np.array([-0.5 + 0j]), B_half=np.ones(1, dtype=complex))
        t = np.linspace(0.0, 5.0, 64)
        table = sample_basis(spec, t)
        np.testing.assert_allclose(table[0], np.exp(-t / 2), rtol=1e-14)

    def test_dense_legs_matches_legendre_closed_form(self):
        legs, _ = make_hippo_legs(64)
        t = np.linspace(0.0, 3.0, 256)
        table = sample_basis(DenseSpec(A=legs.A, B=legs.B, C=None), t)
        reference = legendre_basis_table(8, t)
        assert np.abs(table[:9].real - reference).max() <= 1e-6

    @pytest.mark.parametrize(
        "t",
        [np.linspace(0.0, 2.0, 9), np.linspace(0.0, -0.1, 9), np.full(4, 0.7), np.array([1.3]),
         np.linspace(0.0, 5e-324, 4),  # subnormal steps 0, 0, 5e-324: even up to rounding
         np.linspace(1.0, -0.1, 9)],  # backward from t_0 > 0: the orbit runs forward from -0.1
        ids=["positive-step", "negative-step", "zero-step", "one-point", "subnormal-step",
             "backward-from-positive"],
    )
    def test_dense_orbit_matches_pointwise_exponentials(self, t):
        legs, _ = make_hippo_legs(12)
        table = sample_basis(DenseSpec(A=legs.A, B=legs.B, C=None), t)
        reference = np.stack([dense_matrix_exp(tj * legs.A) @ legs.B for tj in t], axis=1)
        np.testing.assert_allclose(table, reference, atol=1e-11)

    def test_dense_rejects_uneven_grid(self):
        legs, _ = make_hippo_legs(12)
        jittered = np.linspace(0.0, 2.0, 9)
        jittered[3] += 1e-4
        with pytest.raises(ValueError, match="uniformly spaced"):
            sample_basis(DenseSpec(A=legs.A, B=legs.B, C=None), jittered)

    def test_dense_t_zero_column(self):
        legs, _ = make_hippo_legs(6)
        table = sample_basis(DenseSpec(A=legs.A, B=legs.B, C=None), np.array([0.0]))
        np.testing.assert_allclose(table[:, 0], legs.B, atol=1e-15)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sample_basis(init_lin(4), np.empty(0))
