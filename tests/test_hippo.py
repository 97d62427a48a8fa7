import warnings
from fractions import Fraction

import numpy as np
import pytest

from dssm import hippo
from dssm.hippo import (
    DenseSpec,
    _tridiagonal_eigenvalues,
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


def _dense(e):
    """The zero-diagonal symmetric tridiagonal with off-diagonal e."""
    return np.diag(e, 1) + np.diag(e, -1)


def _legs_beta(N):
    # the closed-form Lanczos off-diagonals of the LegS skew part, written out
    # here as the module writes them, so that the bits agree
    k = np.arange(1.0, N)
    return (N * N - k * k) / (2.0 * np.sqrt(4.0 * k * k - 1.0))


def _strict_eigenvalues(e, under="raise"):
    # every floating-point event and warning an error, but for `under` when
    # that is "ignore"
    with np.errstate(all="raise", under=under), warnings.catch_warnings():
        warnings.simplefilter("error")
        return _tridiagonal_eigenvalues(e)


E8 = np.random.default_rng(8).standard_normal(7)  # off-diagonal of a random 8x8


@pytest.mark.parametrize("N", range(1, 33))
def test_lanczos_closed_form_exact(N):
    # Lanczos on S = D E D / 2 from B / |B| in exact rationals: with q = D p the
    # operator is p -> E D^2 p / 2 and the inner product is weighted by
    # D^2 = diag(2j + 1).  Unnormalized, p_{k+1} = M p_k + (|p_k|^2 /
    # |p_{k-1}|^2) p_{k-1}, and beta_k^2 = |p_k|^2 / |p_{k-1}|^2.
    weight = [2 * j + 1 for j in range(N)]

    def operator(p):
        scaled = [w * x for w, x in zip(weight, p)]
        total, below, out = sum(scaled), 0, []
        for x in scaled:
            out.append(Fraction(total - below - x - below, 2))
            below += x
        return out

    def norm2(p):
        return sum(w * x * x for w, x in zip(weight, p))

    previous, p = [Fraction(0)] * N, [Fraction(1)] * N
    previous_norm2, p_norm2 = None, norm2(p)
    for k in range(1, N):
        ratio = p_norm2 / previous_norm2 if k > 1 else 0
        previous, p = p, [a + ratio * b for a, b in zip(operator(p), previous)]
        previous_norm2, p_norm2 = p_norm2, norm2(p)
        assert p_norm2 != 0, k  # no breakdown before N steps
        assert p_norm2 / previous_norm2 == Fraction((N * N - k * k) ** 2, 4 * (4 * k * k - 1)), k


class TestHermitianEigendecompose:
    """The bisection engine, `_tridiagonal_eigenvalues`, on zero-diagonal
    symmetric tridiagonals given by their off-diagonal: all that
    `hippo_d_spectrum` runs.  The class keeps its name so that its test ids
    stay stable."""

    def test_two_by_two_analytic(self):
        np.testing.assert_allclose(_tridiagonal_eigenvalues(np.array([1.0])), [-1.0, 1.0],
                                   atol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 17, 33, 64])
    def test_matches_lapack_oracle(self, n):
        e = np.random.default_rng(n).standard_normal(n - 1)
        np.testing.assert_allclose(_tridiagonal_eigenvalues(e), np.linalg.eigvalsh(_dense(e)),
                                   atol=1e-11)

    def test_eigenvalues_are_real_float64(self):
        assert _tridiagonal_eigenvalues(E8).dtype == np.float64

    def test_sorted_ascending(self):
        e = np.random.default_rng(11).standard_normal(11)
        assert (np.diff(_tridiagonal_eigenvalues(e)) >= 0).all()

    @pytest.mark.parametrize(
        "e",
        [
            np.r_[E8, 0.0, E8, 0.0, E8, 0.0, E8],
            np.zeros(4),
            np.array([3.0, 0.0, 1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0]),
            E8[:6],
            np.zeros(0),
            1e-300 * E8,
            1e300 * E8,
        ],
        ids=["4-fold-clusters", "zero", "repeated-diagonal", "rank-deficient", "1x1",
             "tiny", "huge"],
    )
    def test_edge_inputs(self, e):
        # repeated-diagonal: a direct sum of 2x2 blocks with repeated values;
        # rank-deficient: odd order, so one eigenvalue is zero
        values = _strict_eigenvalues(e)
        reference = np.linalg.eigvalsh(_dense(e))
        assert np.abs(values - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_subnormal_input(self):
        # the power-of-two scaling must stay finite when max|e| is subnormal;
        # the eigenvalues are subnormal too, so scaling them back underflows
        # and rounds: every other floating-point event is an error
        with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _tridiagonal_eigenvalues(1e-310 * E8)
        np.testing.assert_allclose(values / 1e-310, np.linalg.eigvalsh(_dense(E8)), atol=1e-9)

    @pytest.mark.parametrize("N", [9, 64, 255])
    def test_same_engine_as_hippo_d_spectrum(self, N):
        # hippo_d_spectrum maps the engine's ascending u on the closed-form
        # beta to Im = -u in the same order, bit for bit
        np.testing.assert_array_equal(_tridiagonal_eigenvalues(_legs_beta(N)),
                                      -hippo_d_spectrum(N).imag)


def _cluster(n, rng):
    # two copies of one random tridiagonal joined by a 1e-10 off-diagonal (and
    # an uncoupled row for odd n): its eigenvalues come in pairs about 1e-10 apart
    half = rng.standard_normal(max(n // 2 - 1, 0))
    return np.r_[half, 1e-10, half, np.zeros(n % 2)][: n - 1]


def _split(n, rng):
    e = rng.standard_normal(n - 1)
    e[rng.uniform(size=n - 1) < 0.5] = 0.0
    return e


def _repeated(n, rng):
    # uncoupled 2x2 blocks with off-diagonal 1 or 2: values +-1 and +-2, each
    # repeated, and a zero for odd n
    e = rng.choice([1.0, 2.0], n - 1)
    e[1::2] = 0.0
    return e


# off-diagonals of zero-diagonal tridiagonals, after the families of Demmel &
# McKenney, "A test matrix generation suite", LAPACK Working Note 9 (1989),
# and the LegS off-diagonals at odd and even order
ENGINE_FAMILIES = {
    "random": lambda n, rng: rng.standard_normal(n - 1),
    "cluster-1e-10": _cluster,
    "repeated": _repeated,
    "graded": lambda n, rng: np.logspace(-15, 0, n - 1) * rng.choice([-1.0, 1.0], n - 1),
    "split-tridiagonal": _split,
    "tiny": lambda n, rng: 1e-300 * rng.standard_normal(n - 1),
    "huge": lambda n, rng: 1e300 * rng.standard_normal(n - 1),
    "zero": lambda n, rng: np.zeros(n - 1),
    "legs-odd": lambda n, rng: _legs_beta(n | 1),
    "legs-even": lambda n, rng: _legs_beta(n + n % 2),
}


@pytest.mark.parametrize("family", ENGINE_FAMILIES)
def test_engine_fuzz_against_lapack(family):
    # ascending eigenvalues against eigvalsh relative to max |lambda|, with
    # every floating-point event and warning an error.  The one exception: an
    # odd-order "tiny" matrix has an eigenvalue at zero, found within
    # eps ||T|| of it, which scales back below the normal range and rounds
    under = "ignore" if family == "tiny" else "raise"
    rng = np.random.default_rng(24)
    for n in (1, 2, 3, 5, 8, 17, 33, 64):
        for _ in range(3):
            e = ENGINE_FAMILIES[family](n, rng)
            values = _strict_eigenvalues(e, under)
            reference = np.linalg.eigvalsh(_dense(e))
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

    @pytest.mark.parametrize("N", [1, 2, 3, 9, 48, 255, 256, 1024])
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
