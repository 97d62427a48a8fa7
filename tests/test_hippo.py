import warnings

import numpy as np
import pytest

from dssm import hippo
from dssm.hippo import (
    DenseSpec,
    hermitian_eigendecompose,
    hippo_d_spectrum,
    make_hippo_legs,
    make_hippo_normal,
)


class TestMakeHippoLegs:
    def test_n2_matches_closed_form(self):
        spec, low_rank = make_hippo_legs(2)
        expected_A = np.array([[-1.0, 0.0], [-np.sqrt(3.0), -2.0]])
        np.testing.assert_allclose(spec.A, expected_A, rtol=0, atol=0)
        np.testing.assert_allclose(spec.B, [1.0, np.sqrt(3.0)], rtol=0, atol=0)

    def test_n1_single_entries(self):
        spec, low_rank = make_hippo_legs(1)
        assert spec.A == np.array([[-1.0]])
        assert spec.B == np.array([1.0])
        np.testing.assert_allclose(low_rank.P, [1.0 / np.sqrt(2.0)], rtol=1e-15)

    def test_n8_against_scripted_tabulation(self):
        # independent elementwise tabulation of the same closed form
        N = 8
        spec, low_rank = make_hippo_legs(N)
        for n in range(N):
            for k in range(N):
                if n > k:
                    expected = -np.sqrt(2 * n + 1) * np.sqrt(2 * k + 1)
                elif n == k:
                    expected = -(n + 1.0)
                else:
                    expected = 0.0
                assert spec.A[n, k] == expected
        assert spec.A[7, 0] == -np.sqrt(15.0)
        np.testing.assert_array_equal(spec.B, np.sqrt(2 * np.arange(N) + 1.0))
        np.testing.assert_array_equal(low_rank.P, np.sqrt(np.arange(N) + 0.5))

    def test_c_left_unset(self):
        spec, _ = make_hippo_legs(4)
        assert spec.C is None

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_hippo_legs(0)


class TestMakeHippoNormal:
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 16, 64])
    def test_low_rank_identity_exact(self, N):
        legs, low_rank = make_hippo_legs(N)
        normal = make_hippo_normal(N)
        np.testing.assert_array_equal(
            normal.A - np.outer(low_rank.P, low_rank.P), legs.A
        )

    def test_n1_scalar(self):
        # diagonal is -(n+1) + P_n^2; the squared root costs one ulp
        np.testing.assert_allclose(make_hippo_normal(1).A, [[-0.5]], rtol=1e-15)

    def test_skew_structure_n4(self):
        A = make_hippo_normal(4).A
        np.testing.assert_allclose(A + A.T, -np.eye(4), atol=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_hippo_normal(0)


_RE, _IM = np.random.default_rng(8).standard_normal((2, 8, 8))
H8 = (_RE + _RE.T) + 1j * (_IM - _IM.T)  # random 8x8 Hermitian


class TestHermitianEigendecompose:
    def test_identity(self):
        spec, V = hermitian_eigendecompose(np.eye(3))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(3), atol=1e-14)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(3), atol=1e-12)

    def test_two_by_two_analytic(self):
        H = np.array([[0.0, 1j], [-1j, 0.0]])
        spec, V = hermitian_eigendecompose(H)
        np.testing.assert_allclose(spec.eigenvalues.real, [1.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(H @ V, V @ np.diag(spec.eigenvalues), atol=1e-13)

    def test_skew_hippo_16_diagonalized(self):
        S = make_hippo_normal(16).A + 0.5 * np.eye(16)
        H = 1j * S
        spec, V = hermitian_eigendecompose(H)
        lam = spec.eigenvalues.real
        transformed = V.conj().T @ H @ V
        off = transformed - np.diag(np.diag(transformed))
        assert np.abs(off).max() <= 1e-10
        # 16 real eigenvalues in +/- pairs
        ordered = np.sort(lam)
        np.testing.assert_allclose(ordered, -ordered[::-1], atol=1e-10)

    def test_unitarity(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        H = M + M.conj().T
        _, V = hermitian_eigendecompose(H)
        assert np.abs(V.conj().T @ V - np.eye(40)).max() <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 17, 33, 64])
    def test_matches_lapack_oracle(self, n):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = M + M.conj().T
        spec, V = hermitian_eigendecompose(H)
        reference = np.sort(np.linalg.eigvalsh(H))[::-1]
        np.testing.assert_allclose(spec.eigenvalues.real, reference, atol=1e-11)

    def test_residual_bound(self):
        for n in (8, 64):
            S = make_hippo_normal(n).A + 0.5 * np.eye(n)
            H = 1j * S
            spec, V = hermitian_eigendecompose(H, tol=1e-12)
            residual = np.abs(H @ V - V @ np.diag(spec.eigenvalues)).max()
            assert residual <= 10 * 1e-12 * np.abs(H).max()

    def test_sorted_descending(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((12, 12))
        spec, _ = hermitian_eigendecompose(M + M.T)
        lam = spec.eigenvalues.real
        assert (np.diff(lam) <= 1e-12).all()
        assert spec.sorted

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sweep_cap_raises(self):
        rng = np.random.default_rng(19)
        M = rng.standard_normal((6, 6))
        with pytest.raises(RuntimeError, match="converge"):
            hermitian_eigendecompose(M + M.T, max_sweeps=0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eigendecompose(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "H",
        [
            np.kron(np.eye(4), H8),
            np.zeros((5, 5)),
            np.diag([3.0, 1.0, 1.0, 2.0, 2.0, 2.0]),
            np.kron(H8, np.ones((2, 2))),
            np.array([[-2.5]]),
            1e-300 * H8,
            1e300 * H8,
        ],
        ids=["4-fold-clusters", "zero", "repeated-diagonal", "rank-deficient", "1x1",
             "tiny", "huge"],
    )
    def test_edge_inputs(self, H):
        n = H.shape[0]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            spec, V = hermitian_eigendecompose(H)
        assert np.abs(V.conj().T @ V - np.eye(n)).max() <= 1e-10
        residual = np.abs(H @ V - V * spec.eigenvalues).max()
        assert residual <= 1e-12 * np.abs(H).max()

    def test_subnormal_input(self):
        # the power-of-two scaling must stay finite when max|H| is subnormal;
        # the eigenvalues are subnormal too, so they round (no errstate here)
        H = 1e-310 * H8
        spec, V = hermitian_eigendecompose(H)
        assert np.abs(V.conj().T @ V - np.eye(8)).max() <= 1e-10
        reference = np.sort(np.linalg.eigvalsh(H8))[::-1]
        np.testing.assert_allclose(spec.eigenvalues.real / 1e-310, reference, atol=1e-9)

    @pytest.mark.parametrize("N", [9, 64, 255])
    def test_same_engine_as_hippo_d_spectrum(self, N):
        # both solvers share one reduction and bisection, so the eigenvalues
        # agree bit for bit
        S = make_hippo_normal(N).A + 0.5 * np.eye(N)
        spec, _ = hermitian_eigendecompose(1j * S)
        expected = np.sort(-hippo_d_spectrum(N).eigenvalues.imag)[::-1]
        np.testing.assert_array_equal(spec.eigenvalues.real, expected)


class TestHippoDSpectrum:
    def test_n1_scalar(self):
        values = hippo_d_spectrum(1).eigenvalues
        np.testing.assert_allclose(values, [-0.5], atol=0)

    @pytest.mark.parametrize("N", [2, 16, 64, 256])
    def test_real_parts_exactly_half(self, N):
        values = hippo_d_spectrum(N).eigenvalues
        assert np.abs(values.real + 0.5).max() <= 1e-10

    @pytest.mark.parametrize("N", [2, 16, 64, 256])
    def test_conjugate_pairs(self, N):
        im = np.sort(hippo_d_spectrum(N).eigenvalues.imag)
        np.testing.assert_allclose(im, -im[::-1], atol=1e-10)

    def test_sorted_by_descending_imag(self):
        im = hippo_d_spectrum(32).eigenvalues.imag
        assert (np.diff(im) <= 0).all()

    def test_odd_n_has_one_real_eigenvalue(self):
        values = hippo_d_spectrum(9).eigenvalues
        tiny = np.abs(values.imag) <= 1e-10
        assert tiny.sum() == 1
        assert abs(values[tiny][0] - (-0.5)) <= 1e-10

    def test_deterministic_and_cached(self):
        first = hippo_d_spectrum(24).eigenvalues
        second = hippo_d_spectrum(24).eigenvalues
        np.testing.assert_array_equal(first, second)
        second[0] = 0  # caller mutation must not poison the cache
        np.testing.assert_array_equal(hippo_d_spectrum(24).eigenvalues, first)

    @pytest.mark.parametrize("N", [64, 256])
    def test_inverse_scaling_band(self, N):
        values = hippo_d_spectrum(N).eigenvalues
        positive = np.sort(values.imag[values.imag > 0])[::-1]
        scaled = np.arange(len(positive)) * positive
        middle = scaled[len(positive) // 4 : 3 * len(positive) // 4]
        assert middle.max() / middle.min() <= 4.0

    @pytest.mark.parametrize("N", [1, 2, 3, 9, 48, 255, 256])
    def test_matches_lapack_oracle(self, N):
        values = hippo_d_spectrum(N).eigenvalues
        S = make_hippo_normal(N).A + 0.5 * np.eye(N)
        # eigenvalue u of iS maps to -1/2 - iu
        reference = np.linalg.eigvalsh(1j * S)
        error = np.abs(np.sort(-values.imag) - reference).max()
        assert error <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("N", [9, 255])
    def test_odd_n_raises_no_floating_point_warning(self, N, monkeypatch):
        # odd N puts an exact zero pivot in the Sturm recurrence
        monkeypatch.setattr(hippo, "_spectrum_cache", {})
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            values = hippo_d_spectrum(N).eigenvalues
        assert np.isfinite(values).all()


class TestDenseSpecValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DenseSpec(A=np.zeros((2, 2)), B=np.zeros(3), C=None, N=2)

    def test_c_checked_when_present(self):
        with pytest.raises(ValueError):
            DenseSpec(A=np.zeros((2, 2)), B=np.zeros(2), C=np.zeros(5), N=2)
