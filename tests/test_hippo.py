import warnings

import numpy as np
import pytest

from dssm import hippo
from dssm.hippo import (
    DenseSpec,
    _hermitian_spectrum,
    hippo_d_spectrum,
    make_hippo_legs,
    make_hippo_normal,
)


class TestMakeHippoLegs:
    def test_n2_matches_closed_form(self):
        spec, _ = make_hippo_legs(2)
        expected_A = np.array([[-1.0, 0.0], [-np.sqrt(3.0), -2.0]])
        np.testing.assert_allclose(spec.A, expected_A, rtol=0, atol=0)
        np.testing.assert_allclose(spec.B, [1.0, np.sqrt(3.0)], rtol=0, atol=0)

    def test_n1_single_entries(self):
        spec, P = make_hippo_legs(1)
        assert spec.A == np.array([[-1.0]])
        assert spec.B == np.array([1.0])
        np.testing.assert_allclose(P, [1.0 / np.sqrt(2.0)], rtol=1e-15)

    def test_n8_against_scripted_tabulation(self):
        # independent elementwise tabulation of the same closed form
        N = 8
        spec, P = make_hippo_legs(N)
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
        np.testing.assert_array_equal(P, np.sqrt(np.arange(N) + 0.5))

    def test_c_left_unset(self):
        spec, _ = make_hippo_legs(4)
        assert spec.C is None

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_hippo_legs(0)


class TestMakeHippoNormal:
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 16, 64])
    def test_low_rank_identity_exact(self, N):
        legs, P = make_hippo_legs(N)
        normal = make_hippo_normal(N)
        np.testing.assert_array_equal(
            normal.A - np.outer(P, P), legs.A
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
    """The Hermitian engine's eigenvalues, `_hermitian_spectrum`: all that
    `hippo_d_spectrum` reads of it.  The class keeps its name so that its
    test ids stay stable."""

    def test_identity(self):
        np.testing.assert_allclose(_hermitian_spectrum(np.eye(3)), np.ones(3), atol=1e-14)

    def test_two_by_two_analytic(self):
        values = _hermitian_spectrum(np.array([[0.0, 1j], [-1j, 0.0]]))
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 17, 33, 64])
    def test_matches_lapack_oracle(self, n):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = M + M.conj().T
        np.testing.assert_allclose(_hermitian_spectrum(H), np.linalg.eigvalsh(H), atol=1e-11)

    def test_eigenvalues_are_real_float64(self):
        assert _hermitian_spectrum(H8).dtype == np.float64

    def test_sorted_ascending(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((12, 12))
        assert (np.diff(_hermitian_spectrum(M + M.T)) >= 0).all()

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
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _hermitian_spectrum(H)
        reference = np.linalg.eigvalsh(H)
        assert np.abs(values - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_subnormal_input(self):
        # the power-of-two scaling must stay finite when max|H| is subnormal;
        # the eigenvalues are subnormal too, so scaling them back underflows
        # and rounds: every other floating-point event is an error
        H = 1e-310 * H8
        with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _hermitian_spectrum(H)
        np.testing.assert_allclose(values / 1e-310, np.linalg.eigvalsh(H8), atol=1e-9)

    @pytest.mark.parametrize("N", [9, 64, 255])
    def test_same_engine_as_hippo_d_spectrum(self, N):
        # hippo_d_spectrum maps the engine's ascending u to Im = -u in the
        # same order, bit for bit
        S = make_hippo_normal(N).A + 0.5 * np.eye(N)
        np.testing.assert_array_equal(_hermitian_spectrum(1j * S), -hippo_d_spectrum(N).imag)


def _unitary(n, rng):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _with_spectrum(values, rng):
    Q = _unitary(len(values), rng)
    H = (Q * values) @ Q.conj().T
    return (H + H.conj().T) / 2


def _random_hermitian(n, rng):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (M + M.conj().T) / 2


def _split_tridiagonal(n, rng):
    e = rng.standard_normal(n - 1)
    e[rng.uniform(size=n - 1) < 0.5] = 0.0
    return np.diag(rng.standard_normal(n)) + np.diag(e, 1) + np.diag(e, -1)


def _wilkinson(n, rng):
    # W_n^+ (|n//2 - i| on the diagonal, ones beside it) under a random
    # diagonal unitary similarity, which makes it complex
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    W = np.diag(np.abs(n // 2 - np.arange(n)).astype(float))
    W += np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return phases[:, None] * W * phases.conj()


def _cluster(n, rng):
    # half the spectrum within 1e-10 of 0.5, the rest spread over [-1, 1]
    values = rng.uniform(-1.0, 1.0, n)
    values[: (n + 1) // 2] = 0.5 + 1e-10 * rng.uniform(size=(n + 1) // 2)
    return _with_spectrum(values, rng)


# test matrix families after Demmel & McKenney, "A test matrix generation
# suite", LAPACK Working Note 9 (1989)
ENGINE_FAMILIES = {
    "random": _random_hermitian,
    "cluster-1e-10": _cluster,
    "n-1-fold": lambda n, rng: _with_spectrum(np.r_[np.full(n - 1, 2.0), -1.0][:n], rng),
    "graded": lambda n, rng: _with_spectrum(
        np.logspace(-15, 0, n) * rng.choice([-1.0, 1.0], n), rng),
    "split-tridiagonal": _split_tridiagonal,
    "wilkinson": _wilkinson,
    "tiny": lambda n, rng: 1e-300 * _random_hermitian(n, rng),
    "huge": lambda n, rng: 1e300 * _random_hermitian(n, rng),
    "zero": lambda n, rng: np.zeros((n, n)),
}


@pytest.mark.parametrize("family", ENGINE_FAMILIES)
def test_engine_fuzz_against_lapack(family):
    # ascending eigenvalues against eigvalsh relative to max |lambda|, with
    # every floating-point event and warning an error
    rng = np.random.default_rng(24)
    for n in (1, 2, 3, 5, 8, 17, 33, 64):
        for _ in range(3):
            H = ENGINE_FAMILIES[family](n, rng)
            with np.errstate(all="raise"), warnings.catch_warnings():
                warnings.simplefilter("error")
                values = _hermitian_spectrum(H)
            reference = np.linalg.eigvalsh(H)
            assert np.abs(values - reference).max() <= 1e-13 * np.abs(reference).max(), n


class TestHippoDSpectrum:
    def test_n1_scalar(self):
        values = hippo_d_spectrum(1)
        np.testing.assert_allclose(values, [-0.5], atol=0)

    @pytest.mark.parametrize("N", [2, 16, 64, 256])
    def test_real_parts_exactly_half(self, N):
        values = hippo_d_spectrum(N)
        assert np.abs(values.real + 0.5).max() <= 1e-10

    @pytest.mark.parametrize("N", [2, 16, 64, 256])
    def test_conjugate_pairs(self, N):
        im = np.sort(hippo_d_spectrum(N).imag)
        np.testing.assert_allclose(im, -im[::-1], atol=1e-10)

    # the order comes from bisection alone, so odd N is covered too
    @pytest.mark.parametrize("N", [*range(1, 65), 255, 256])
    def test_sorted_by_descending_imag(self, N):
        im = hippo_d_spectrum(N).imag
        assert (np.diff(im) <= 0).all()

    def test_odd_n_has_one_real_eigenvalue(self):
        values = hippo_d_spectrum(9)
        tiny = np.abs(values.imag) <= 1e-10
        assert tiny.sum() == 1
        assert abs(values[tiny][0] - (-0.5)) <= 1e-10

    def test_deterministic_and_cached(self):
        first = hippo_d_spectrum(24)
        second = hippo_d_spectrum(24)
        np.testing.assert_array_equal(first, second)
        second[0] = 0  # caller mutation must not poison the cache
        np.testing.assert_array_equal(hippo_d_spectrum(24), first)

    @pytest.mark.parametrize("N", [64, 256])
    def test_inverse_scaling_band(self, N):
        values = hippo_d_spectrum(N)
        positive = np.sort(values.imag[values.imag > 0])[::-1]
        scaled = np.arange(len(positive)) * positive
        middle = scaled[len(positive) // 4 : 3 * len(positive) // 4]
        assert middle.max() / middle.min() <= 4.0

    @pytest.mark.parametrize("N", [1, 2, 3, 9, 48, 255, 256])
    def test_matches_lapack_oracle(self, N):
        values = hippo_d_spectrum(N)
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
            values = hippo_d_spectrum(N)
        assert np.isfinite(values).all()


class TestDenseSpecValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DenseSpec(A=np.zeros((2, 2)), B=np.zeros(3), C=None)

    def test_c_checked_when_present(self):
        with pytest.raises(ValueError):
            DenseSpec(A=np.zeros((2, 2)), B=np.zeros(2), C=np.zeros(5))
