import warnings

import numpy as np
import pytest

from dssm.discretize import (
    _phi1,
    dense_matrix_exp,
    discretize,
    discretize_bilinear,
    discretize_zoh,
)
from dssm.hippo import make_hippo_legs
from dssm.inits import init_lin

from dense_reference import dense_discretize


def taylor_exp_oracle(M, terms=30, squarings=None):
    """Independent scaling-and-Taylor evaluation with a fixed term count."""
    if squarings is None:
        squarings = max(0, int(np.ceil(np.log2(max(np.abs(M).sum(axis=0).max(), 1e-30)))) + 1)
    A = M / 2.0**squarings
    E = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ A / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


class TestBilinear:
    def test_zero_dynamics_limit(self):
        disc = discretize_bilinear(np.array([0.0]), np.array([3.0]), 0.7)
        np.testing.assert_allclose(disc.A_bar, [1.0], atol=0)
        np.testing.assert_allclose(disc.B_bar, [0.7 * 3.0], atol=0)

    def test_scalar_arithmetic(self):
        disc = discretize_bilinear(np.array([-1.0]), np.array([1.0]), 1.0)
        np.testing.assert_allclose(disc.A_bar, [1.0 / 3.0], rtol=1e-15)
        np.testing.assert_allclose(disc.B_bar, [2.0 / 3.0], rtol=1e-15)

    def test_diagonal_matches_dense_embedding(self):
        spec = init_lin(8)
        dt = 0.01
        diag = discretize_bilinear(spec.A_half, spec.B_half, dt)
        A_bar, B_bar = dense_discretize(np.diag(spec.A_half), spec.B_half, dt, "bilinear")
        np.testing.assert_allclose(np.diag(A_bar), diag.A_bar, atol=1e-14)
        np.testing.assert_allclose(B_bar, diag.B_bar, atol=1e-14)

    def test_singular_resolvent_rejected(self):
        dt = 0.5
        with pytest.raises(ValueError, match="singular"):
            discretize_bilinear(np.array([2.0 / dt]), np.array([1.0]), dt)

    @pytest.mark.parametrize("dt", [3.0, 1e10, 1e307, 1e308, 1.7e308])
    def test_dense_embedding_matches_diagonal_at_large_dt(self, dt):
        # no product overflows at any dt, so the diagonal map matches the
        # dense reference, and near the largest double it is the limit -1, -2B/A
        A = np.concatenate([init_lin(16).A_half, [-1e-3, -1.0, -1e3]])
        B = np.concatenate([init_lin(16).B_half, [1.0, 2.0, 3.0]])
        diag = discretize_bilinear(A, B, dt)
        A_bar, B_bar = dense_discretize(np.diag(A), B, dt, "bilinear")
        np.testing.assert_allclose(A_bar, np.diag(diag.A_bar), rtol=1e-15, atol=0)
        np.testing.assert_allclose(B_bar, diag.B_bar, rtol=1e-15, atol=0)
        if dt >= 1e307:
            np.testing.assert_allclose(diag.A_bar, -1.0, rtol=1e-15, atol=0)
            np.testing.assert_allclose(diag.B_bar, -2.0 * B / A, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("dt", [1.999, 2.0, 2.001, 8.0, 1e10, 1e300])
    def test_scaling_keeps_the_bits_of_the_plain_formula(self, dt):
        # dt = 2 is the first step scaled by s = 1/2; s is a power of two, so
        # where the unscaled formula does not overflow it gives the same bits
        A = np.concatenate([init_lin(64).A_half, [-1e-3, -1.0, -1e3]])
        B = np.concatenate([init_lin(64).B_half, [1.0, 2.0, 3.0]])
        disc = discretize_bilinear(A, B, dt)
        denom = 1.0 - (dt / 2.0) * A
        assert disc.A_bar.tobytes() == ((1.0 + (dt / 2.0) * A) / denom).tobytes()
        assert disc.B_bar.tobytes() == (dt * B / denom).tobytes()

    def test_scaled_singular_resolvent_rejected(self):
        # dt = 8: s = 1/8, h = 1/2, and s - h A = 0 at A = 1/4 = 2/dt
        with pytest.raises(ValueError, match="singular"):
            discretize_bilinear(np.array([0.25]), np.array([1.0]), 8.0)

    def test_scaled_singular_threshold(self):
        # the threshold scales with s, so the same modes are rejected as by the
        # unscaled test |1 - dt/2 A| < 1e-300: here |1 - dt/2 A| = 4e-301 and
        # 4e-300, and the scaled resolvent is 5e-302 and 5e-301
        with pytest.raises(ValueError, match="singular"):
            discretize_bilinear(np.array([0.25 + 1e-301j]), np.array([1.0]), 8.0)
        disc = discretize_bilinear(np.array([0.25 + 1e-300j]), np.array([1.0]), 8.0)
        assert np.isfinite(disc.A_bar).all() and np.isfinite(disc.B_bar).all()

    def test_rule_tag_and_dt_recorded(self):
        disc = discretize_bilinear(np.array([-1.0]), np.array([1.0]), 0.25)
        assert disc.rule == "bilinear"
        assert disc.dt == 0.25
        assert disc.A_bar.ndim == 1


class TestZoh:
    def test_scalar_formula(self):
        disc = discretize_zoh(np.array([-1.0]), np.array([1.0]), 1.0)
        np.testing.assert_allclose(disc.A_bar, [np.exp(-1.0)], rtol=1e-15)
        np.testing.assert_allclose(disc.B_bar, [1.0 - np.exp(-1.0)], rtol=1e-14)

    def test_series_limit_near_zero(self):
        A = np.array([-1e-12, 0.0])
        B = np.array([2.0, 2.0])
        disc = discretize_zoh(A, B, 0.5)
        np.testing.assert_allclose(disc.A_bar, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(disc.B_bar, [0.5 * 2.0, 0.5 * 2.0], rtol=1e-12)

    def test_small_z_matches_taylor_series(self):
        # either side of |z| = 1e-8, where (e^z - 1)/z taken directly keeps only
        # half its digits; reference: 6-term series, exact to eps for |z| ~ 1e-8
        def phi1_reference(z):
            return 1 + z / 2 + z**2 / 6 + z**3 / 24 + z**4 / 120 + z**5 / 720

        for z in (-0.99e-8, -1.01e-8):
            z = np.array([z], dtype=complex)
            np.testing.assert_allclose(
                discretize_zoh(z, np.ones(1), 1.0).B_bar, phi1_reference(z), rtol=1e-14
            )

    def test_phi1_relative_accuracy_over_left_half_plane(self):
        # |z| from 1e-300 to 700, real and complex; reference: a 20-term
        # Taylor series for |z| <= 0.1, the direct (e^z - 1)/z above, where
        # its cancellation costs at most a few eps
        rng = np.random.default_rng(3)
        magnitudes = np.logspace(-300, np.log10(700.0), 3001)
        angles = rng.uniform(np.pi / 2, 3 * np.pi / 2, magnitudes.size)
        z = np.concatenate([-magnitudes, magnitudes * np.exp(1j * angles)]).astype(complex)
        series = np.ones_like(z)
        for k in range(20, 0, -1):
            series = 1.0 + series * z / (k + 1)
        reference = np.where(np.abs(z) <= 0.1, series, (np.exp(z) - 1.0) / z)
        np.testing.assert_allclose(_phi1(z), reference, rtol=1e-14, atol=0.0)

    def test_dense_legs_matches_taylor_oracle(self):
        # the dense reference: dense_matrix_exp of the augmented matrix
        legs, _ = make_hippo_legs(4)
        dt = 0.1
        A_bar, B_bar = dense_discretize(legs.A, legs.B, dt, "zoh")
        expected_A = taylor_exp_oracle(dt * legs.A)
        np.testing.assert_allclose(A_bar, expected_A.real, atol=1e-12)
        # B_bar = (dt A)^-1 (exp(dt A) - I) dt B evaluated densely
        M = dt * legs.A
        expected_B = np.linalg.solve(M, (expected_A.real - np.eye(4)) @ (dt * legs.B))
        np.testing.assert_allclose(B_bar, expected_B, atol=1e-12)

    def test_dense_singular_dynamics_served_by_series(self):
        # nilpotent A is singular; the augmented exponential of the dense
        # reference still gives the exact phi-function value dt*B + dt^2/2 * A B
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([1.0, 1.0])
        dt = 0.25
        A_bar, B_bar = dense_discretize(A, B, dt, "zoh")
        np.testing.assert_allclose(A_bar, np.eye(2) + dt * A, atol=1e-14)
        np.testing.assert_allclose(B_bar, dt * B + dt**2 / 2.0 * (A @ B), atol=1e-14)

    def test_overflowing_step_gives_a_non_finite_input_map(self):
        # at dt = 1e308, dt A = -inf for A = -2, where phi1 is 0: a B_bar of 0
        # would pass for finite, though the dt -> inf limit is -B/A = 0.5;
        # dt A stays finite for A = -0.5, which keeps the formula's bits
        A = np.array([-2.0, -0.5])
        with np.errstate(over="ignore"):
            disc = discretize_zoh(A, np.ones(2), 1e308)
        assert np.isnan(disc.B_bar[0])
        assert disc.B_bar[1] == _phi1(np.array([1e308 * -0.5]))[0] * 1e308
        np.testing.assert_allclose(disc.B_bar[1], 2.0, rtol=1e-15)


class TestDenseMatrixExp:
    def test_zero(self):
        np.testing.assert_array_equal(dense_matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        E = dense_matrix_exp(np.diag([-1.0, -2.0]))
        np.testing.assert_allclose(E, np.diag([np.exp(-1.0), np.exp(-2.0)]), rtol=1e-14)

    def test_inverse_identity(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 5))
        M *= 1.0 / np.abs(M).sum(axis=0).max()
        product = dense_matrix_exp(M) @ dense_matrix_exp(-M)
        np.testing.assert_allclose(product, np.eye(5), atol=1e-10)

    def test_large_norm_against_taylor_oracle(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6))
        M *= 80.0 / np.abs(M).sum(axis=0).max()
        ours = dense_matrix_exp(M)
        reference = taylor_exp_oracle(M, terms=40, squarings=9)
        np.testing.assert_allclose(ours, reference.real, rtol=1e-9, atol=1e-9 * np.abs(ours).max())

    @pytest.mark.parametrize("scale", [2.0**1022 * 1.5, 1e308])
    def test_finite_norm_above_two_to_the_1022(self, scale):
        # log2(norm / 0.5) and 2.0**squarings overflow here; exp of a stable
        # diagonal at this scale underflows to zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = dense_matrix_exp(np.diag([-scale, -scale / 3]))
        np.testing.assert_array_equal(E, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_matrix_is_rejected(self, bad):
        M = np.eye(3)
        M[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite matrix"):
            dense_matrix_exp(M)


class TestInvariants:
    def test_bilinear_zoh_cubic_agreement(self):
        # both rules are second-order one-step maps, so their gap is O(dt^3):
        # the fitted constant gap/dt^3 must be stable across dt
        rng = np.random.default_rng(4)
        A = -0.5 + 1j * rng.uniform(0.0, 10.0, 32)
        B = np.ones(32, dtype=complex)
        ratios = []
        for dt in (1e-2, 1e-3, 1e-4):
            gap = np.abs(
                discretize_bilinear(A, B, dt).A_bar - discretize_zoh(A, B, dt).A_bar
            ).max()
            ratios.append(gap / dt**3)
        assert max(ratios) / min(ratios) < 4.0

    def test_stability_preservation_ten_thousand_draws(self):
        rng = np.random.default_rng(6)
        draws = 10_000
        A = -np.exp(rng.uniform(np.log(1e-3), np.log(1e3), draws)) + 1j * rng.uniform(
            0, 1e4, draws
        )
        B = np.ones(draws, dtype=complex)
        for dt in (1.1e-4, 1e-2, 0.99):
            assert np.abs(discretize_bilinear(A, B, dt).A_bar).max() < 1.0
            assert np.abs(discretize_zoh(A, B, dt).A_bar).max() < 1.0

    def test_zoh_input_map_limit_bound(self):
        rng = np.random.default_rng(7)
        A = -rng.uniform(0.01, 1.0, 200) + 1j * rng.uniform(0, 1.0, 200)
        B = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        dt = 0.1 / np.abs(A).max()  # keeps |dt A| <= 0.1
        disc = discretize_zoh(A, B, dt)
        assert (np.abs(disc.B_bar - dt * B) <= np.abs(dt**2 * A * B)).all()


class TestDispatch:
    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown discretization"):
            discretize(np.array([-1.0]), np.array([1.0]), 0.1, "euler")

    def test_nonpositive_dt(self):
        with pytest.raises(ValueError):
            discretize_bilinear(np.array([-1.0]), np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            discretize_zoh(np.array([-1.0]), np.array([1.0]), -0.1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            discretize_bilinear(np.array([-1.0, -2.0]), np.array([1.0]), 0.1)
