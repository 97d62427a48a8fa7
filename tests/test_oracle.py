import warnings

import numpy as np
import pytest

from dssm.discretize import DiscreteParams, dense_matrix_exp, discretize
from dssm.hippo import (
    DenseSpec,
    hippo_d_spectrum,
    make_hippo_legs,
    make_hippo_normal,
)
from dssm.inits import DiagonalSpec, init_real
from dssm.kernel import dss_softmax_kernel, sample_basis, vandermonde_kernel
from dssm.oracle import (
    CONJECTURE_MIN_N,
    _normal_bilinear_step,
    conjecture_probe,
    gauss_legendre_nodes,
    legendre_basis_table,
    legendre_orthonormality_defect,
    perturbation_experiment,
    random_stable_spec,
    smoothed_normal_basis,
    theorem_legsd_convergence,
)

from dense_reference import dense_discretize, dense_kernel, discrete_basis


def dense_scan_oracle(A_bar, B_bar, C, L):
    """Reference dense impulse response: y_l = Re(C A_bar^l B_bar)."""
    v = B_bar.astype(complex)
    out = np.empty(L)
    for l in range(L):
        out[l] = (C @ v).real
        v = A_bar @ v
    return out


class TestDenseKernel:
    def test_diagonal_embedding_matches_vandermonde_real_mode(self):
        rng = np.random.default_rng(30)
        half, dt = random_stable_spec(rng, n_half=6)
        # full spectrum with explicit conjugates, evaluated without the
        # factor-2 convention
        a_full = np.concatenate([half.A_half, np.conj(half.A_half)])
        b_full = np.concatenate([half.B_half, np.conj(half.B_half)])
        c_full = np.concatenate([half.C_half, np.conj(half.C_half)])
        full = DiagonalSpec(A_half=a_full, B_half=b_full, C_half=c_full, conj_pairs=False)
        disc = discretize(a_full, b_full, dt, "bilinear")
        diag_kernel = vandermonde_kernel(full, disc, 64)
        dense = DenseSpec(A=np.diag(a_full), B=b_full, C=c_full)
        dense_k = dense_kernel(dense, "bilinear", dt, 64)
        scale = np.abs(dense_k.values).max()
        assert np.abs(dense_k.values - diag_kernel.values).max() <= 1e-10 * scale

    @pytest.mark.parametrize("rule", ["bilinear", "zoh"])
    def test_legs_matches_dense_scan_oracle(self, rule):
        rng = np.random.default_rng(31)
        N, L, dt = 16, 128, 0.05
        legs, _ = make_hippo_legs(N)
        C = rng.standard_normal(N)
        spec = DenseSpec(A=legs.A, B=legs.B, C=C)
        kernel = dense_kernel(spec, rule, dt, L)
        A_bar, B_bar = dense_discretize(legs.A, legs.B, dt, rule)
        reference = dense_scan_oracle(A_bar, B_bar, C.astype(complex), L)
        scale = np.abs(reference).max()
        assert np.abs(kernel.values - reference).max() <= 1e-10 * scale

    def test_triangular_structure_preserved_by_bilinear(self):
        legs, _ = make_hippo_legs(4)
        A_bar, _ = dense_discretize(legs.A, legs.B, 0.1, "bilinear")
        upper = np.triu(A_bar, 1)
        assert np.abs(upper).max() <= 1e-14


class TestLegendre:
    def test_low_order_closed_forms(self):
        # orthonormal shifted Legendre on [0,1]:
        # L0 = 1, L1 = sqrt(3)(2x-1), L2 = sqrt(5)(6x^2-6x+1),
        # L3 = sqrt(7)(20x^3-30x^2+12x-1)
        t = np.linspace(0.0, 4.0, 33)
        x = np.exp(-t)
        table = legendre_basis_table(3, t)
        np.testing.assert_allclose(table[0], x, rtol=1e-14)
        np.testing.assert_allclose(table[1], np.sqrt(3) * (2 * x - 1) * x, atol=1e-14)
        np.testing.assert_allclose(table[2], np.sqrt(5) * (6 * x**2 - 6 * x + 1) * x, atol=1e-14)
        np.testing.assert_allclose(
            table[3], np.sqrt(7) * (20 * x**3 - 30 * x**2 + 12 * x - 1) * x, atol=1e-14
        )

    def test_orthonormality_quadrature(self):
        assert legendre_orthonormality_defect(10) <= 1e-8

    def test_gauss_nodes_match_numpy(self):
        for n in (4, 16, 31):
            x, w = gauss_legendre_nodes(n)
            x_ref, w_ref = np.polynomial.legendre.leggauss(n)
            np.testing.assert_allclose(x, x_ref, atol=1e-13)
            np.testing.assert_allclose(w, w_ref, atol=1e-13)


class TestTheoremConvergence:
    def test_errors_decrease_with_state_size(self):
        t = np.linspace(0.0, 3.0, 128)
        report = theorem_legsd_convergence([16, 64, 256], t)
        assert report.monotone
        assert report.errors[0] > report.errors[1] > report.errors[2]

    def test_degenerate_single_state(self):
        t = np.linspace(0.0, 3.0, 64)
        report = theorem_legsd_convergence([1], t)
        assert np.isfinite(report.errors[0])
        assert report.errors[0] > 0

    def test_smoothed_basis_requires_uniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            smoothed_normal_basis(8, np.array([0.0, 0.1, 0.5]))

    @pytest.mark.parametrize("N", [8, 64, 256])
    def test_smoothed_basis_matches_substep_orbit(self, N):
        # reference: one trapezoid substep A_bar v at a time, four per grid
        # interval, with every fourth state kept
        t = np.linspace(0.0, 3.0, 65)
        h = (t[1] - t[0]) / 4
        normal = make_hippo_normal(N)
        A_bar, B_bar = dense_discretize(normal.A, normal.B / 2.0, h, "bilinear")
        v = B_bar / h
        reference = np.empty((N, len(t)))
        for j in range(len(t)):
            reference[:, j] = v
            for _ in range(4):
                v = A_bar @ v
        table = smoothed_normal_basis(N, t)
        assert np.abs(table - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_discrete_analogue_bounded_both_rules(self):
        # the step-grid basis stays bounded; zoh carries visible oscillation
        # on top of the same envelope, bilinear stays smooth
        N, L = 256, 256
        dt = 3.0 / L
        normal = make_hippo_normal(N)
        spec = DenseSpec(A=normal.A, B=normal.B / 2.0, C=None)
        bound = np.abs(normal.B).max()
        for rule in ("bilinear", "zoh"):
            table = discrete_basis(spec.A, spec.B, rule, dt, L)
            assert np.isfinite(table).all()
            assert np.abs(table / dt).max() <= 4.0 * bound


class TestNormalBilinearStep:
    @pytest.mark.parametrize("N", [1, 2, 3, 8, 33, 64])
    def test_difference_congruence_is_exact(self, N):
        # P^T E P = Z - Z^T in integers, with P = I - Z (Z the upper shift)
        # and E_jk = sign(k - j): the identity the pencil rests on
        j, k = np.indices((N, N))
        E = np.sign(k - j)
        Z = np.eye(N, k=1, dtype=int)
        P = np.eye(N, dtype=int) - Z
        np.testing.assert_array_equal(P.T @ E @ P, Z - Z.T)

    @pytest.mark.parametrize(
        "N, step, bound",
        [(64, 3 / 511 / 4, 1e-14), (256, 3 / 511 / 4, 1e-14), (1024, 3 / 511 / 4, 1e-14),
         (256, 1.47, 5e-13), (64, 100.0, 5e-13), (256, 1e10, 5e-13), (64, 1e300, 5e-13),
         (8, 1.7e308 / 4, 5e-13)],
    )
    def test_matches_lapack_solve(self, N, step, bound):
        # the refined pencil against numpy.linalg.solve of the dense resolvent,
        # relative to max|.|.  M = cI - g D E D is worse conditioned at large
        # steps, where c nears g: there the dense LU this replaced was 1.9e-13
        # off the same reference (N = 256, step 1e10)
        normal = make_hippo_normal(N)
        A_ref, B_ref = dense_discretize(normal.A, normal.B / 2.0, step, "bilinear")
        A_bar, B_bar = _normal_bilinear_step(N, step)
        B_ref /= step  # the step returns B_bar / step
        assert np.abs(A_bar - A_ref).max() <= bound * np.abs(A_ref).max()
        assert np.abs(B_bar - B_ref).max() <= bound * np.abs(B_ref).max()


class TestConjectureProbe:
    def test_max_imag_matches_lapack(self):
        # S = A_normal + I/2 built entrywise from the LegS closed form
        # (A[n, k] = -sqrt((2n+1)(2k+1)) below the diagonal, P P^T adds half
        # of that everywhere): S[n, k] = -sign(n - k) sqrt((2n+1)(2k+1)) / 2.
        N = 256
        root = np.sqrt(2.0 * np.arange(N) + 1.0)
        n, k = np.indices((N, N))
        S = -0.5 * np.sign(n - k) * np.outer(root, root)
        expected = np.linalg.eigvalsh(1j * S).max()
        report = conjecture_probe(N)
        assert abs(report.max_imag - expected) <= 1e-10 * expected

    def test_measured_constant_matches_pi_sixth_magnitude(self):
        report = conjecture_probe(256)
        assert abs(report.c_estimate + np.pi / 6.0) <= 1e-3
        assert report.c_estimate < 0  # measured sign; see test_max_imag_matches_lapack
        assert report.max_real_deviation <= 1e-10

    def test_band_ratio_within_factor_four(self):
        report = conjecture_probe(256)
        assert report.band_ratio <= 4.0

    @pytest.mark.parametrize("N", [9, 13, 255])
    def test_odd_n_leaves_out_the_zero_mode(self, N):
        # the zero mode's imaginary part comes out of bisection as a tiny
        # number of either sign; it is not part of the positive half
        report = conjecture_probe(N)
        assert len(report.scaled_imag) == (N - 1) // 2

    @pytest.mark.parametrize("N", range(1, CONJECTURE_MIN_N))
    def test_undefined_band_is_rejected(self, N):
        # the middle band is empty or holds index 0 below the minimum size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="conjecture"):
                conjecture_probe(N)

    def test_constant_trend_tightens_with_n(self):
        gap_64 = abs(conjecture_probe(64).c_estimate + np.pi / 6.0)
        gap_256 = abs(conjecture_probe(256).c_estimate + np.pi / 6.0)
        assert gap_256 <= gap_64


class TestPerturbation:
    def test_zero_sigma_reproduces_unperturbed(self):
        t = np.linspace(0.0, 3.0, 64)
        table, divergence = perturbation_experiment(0.0, seed=5, N=32, t_grid=t)
        legs, _ = make_hippo_legs(32)
        reference = sample_basis(DenseSpec(A=legs.A, B=legs.B, C=None), t)
        np.testing.assert_array_equal(table, reference)
        assert divergence == np.abs(reference).max()

    # fixed seeds landing in the unstable regime of the random rank-1 shift;
    # whether a given draw destabilizes the spectrum is itself random
    SEEDS = (3, 13, 26)

    def test_large_sigma_diverges(self):
        t = np.linspace(0.0, 3.0, 64)
        for seed in self.SEEDS:
            _, base = perturbation_experiment(0.0, seed=seed, N=64, t_grid=t)
            _, diverged = perturbation_experiment(0.5, seed=seed, N=64, t_grid=t)
            assert diverged > 10.0 * base

    def test_divergence_monotone_in_sigma(self):
        t = np.linspace(0.0, 3.0, 64)
        averages = []
        for sigma in (0.3, 0.4, 0.5):
            averages.append(
                np.mean([perturbation_experiment(sigma, s, 64, t)[1] for s in self.SEEDS])
            )
        assert averages[0] <= averages[1] <= averages[2]


class TestRandomStableSpec:
    def test_left_half_plane_and_seeding(self):
        rng = np.random.default_rng(0)
        spec, dt = random_stable_spec(rng)
        assert (spec.A_half.real < 0).all()
        assert (spec.A_half.imag >= 0).all()
        assert 1e-3 <= dt <= 1e-1
        rng2 = np.random.default_rng(0)
        spec2, dt2 = random_stable_spec(rng2)
        np.testing.assert_array_equal(spec.A_half, spec2.A_half)
        assert dt == dt2


_SPEC = DiagonalSpec(A_half=np.array([-0.5 + 1j]), B_half=np.ones(1), C_half=np.ones(1))
_T = np.linspace(0.0, 1.0, 3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: dense_matrix_exp(np.zeros((2, 3))), ValueError, "square"),
        (lambda: discretize(np.zeros(2), np.ones(3), 0.1, "zoh"), ValueError, "same length"),
        (lambda: discretize(np.zeros((2, 3)), np.ones(2), 0.1, "zoh"), ValueError, "1-D"),
        (lambda: discretize(-np.eye(2), np.ones(3), 0.1, "bilinear"), ValueError, "1-D"),
        (lambda: hippo_d_spectrum(0), ValueError, "state size"),
        (lambda: init_real(0), ValueError, "state size"),
        (lambda: DiagonalSpec(A_half=-np.ones(2), B_half=np.ones(3)), ValueError, "B_half"),
        (lambda: vandermonde_kernel(_SPEC, DiscreteParams(-np.eye(2), np.ones(2), "zoh", 0.1), 4),
         ValueError, "diagonal spectrum"),
        (lambda: dss_softmax_kernel(_SPEC, discretize(_SPEC.A_half, _SPEC.B_half, 0.1, "zoh"), 0),
         ValueError, "length"),
        (lambda: sample_basis("not a spec", _T), TypeError, "spec"),
        (lambda: legendre_basis_table(-1, _T), ValueError, "n_max"),
        (lambda: gauss_legendre_nodes(0), ValueError, "node"),
        (lambda: smoothed_normal_basis(4, np.zeros(1)), ValueError, "two grid points"),
        (lambda: smoothed_normal_basis(4, _T + 1.0), ValueError, "start at t=0"),
        (lambda: smoothed_normal_basis(4, np.zeros(3)), ValueError, "step must be positive"),
        (lambda: smoothed_normal_basis(4, -_T), ValueError, "step must be positive"),
    ],
    ids=["matrix-exp-non-square", "mismatched-A-B", "non-square-A",
         "dense-A-mismatched-B", "spectrum-N-0",
         "init-real-N-0", "spec-B-length", "kernel-of-dense-disc", "softmax-L-0",
         "sample-basis-non-spec",
         "legendre-n-max-negative", "gauss-legendre-no-nodes", "smoothed-one-point",
         "smoothed-grid-not-at-0", "smoothed-zero-step", "smoothed-negative-step"],
)
def test_input_guards_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()
