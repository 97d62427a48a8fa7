import numpy as np
import pytest

from dssm.hippo import make_hippo_legs
from dssm.inits import (
    INIT_NAMES,
    DiagonalSpec,
    RE_MODES,
    constrain_real_parts,
    init_C,
    init_inv,
    init_inv2,
    init_inv_random_imag,
    init_legsd,
    init_lin,
    init_lin_random_imag,
    init_log_dt,
    init_quad,
    init_rand,
    init_real,
    make_init,
)
from dssm.inits import _inv_from_positions, _lin_from_positions


class TestLegsD:
    def test_n2_against_analytic_eigenvalues(self):
        # A_normal at N=2 is [[-1/2, b], [-b, -1/2]] with b = sqrt(3)/2, whose
        # eigenvalues are -1/2 +- i b.
        spec = init_legsd(2)
        b = np.sqrt(0.5) * np.sqrt(1.5)
        np.testing.assert_allclose(spec.A_half, [-0.5 + 1j * b], atol=1e-12)

    @pytest.mark.parametrize("N", [2, 8, 64])
    def test_real_parts_exactly_minus_half(self, N):
        spec = init_legsd(N)
        np.testing.assert_array_equal(spec.A_half.real, -0.5 * np.ones(N // 2))

    def test_b_defaults_to_ones(self):
        spec = init_legsd(8)
        np.testing.assert_array_equal(spec.B_half, np.ones(4))
        assert spec.C_half is None

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            init_legsd(7)

    @pytest.mark.parametrize("N", [2, 4, 16, 64, 256])
    def test_half_spectrum_has_positive_imaginary_parts(self, N):
        # S = A_normal + I/2 is nonsingular at even N (see init_legsd), and
        # its smallest σ (0.26 at N = 64, 0.18 at N = 1024) sits far above
        # the engine's rounding, about ε·max σ
        sigma = init_legsd(N).A_half.imag
        assert sigma.min() > 1e6 * np.finfo(float).eps * sigma.max()


class TestClosedFormFamilies:
    def test_inv_values(self):
        spec = init_inv(4)
        np.testing.assert_allclose(spec.A_half[0], -0.5 + 1j * 12.0 / np.pi, rtol=1e-15)
        np.testing.assert_allclose(spec.A_half[1], -0.5 + 1j * 4.0 / (3.0 * np.pi), rtol=1e-15)

    def test_inv_max_imag_leading_order(self):
        N = 1024
        assert init_inv(N).A_half[0].imag == (N / np.pi) * (N - 1)

    def test_lin_values(self):
        spec = init_lin(4)
        assert spec.A_half[0] == -0.5 + 0j
        np.testing.assert_allclose(spec.A_half[1], -0.5 + 1j * np.pi, rtol=0)

    def test_lin_max_imag(self):
        assert init_lin(64).A_half[-1].imag == 31 * np.pi

    def test_inv2_values(self):
        spec = init_inv2(4)
        np.testing.assert_allclose(spec.A_half[0], -0.5 + 1j * (4 / np.pi) * 3, rtol=1e-15)
        # half-spectrum keeps n < N/2, so the zeroed term at n = N-1 from the
        # printed formula is out of range; last kept entry is n = 1
        np.testing.assert_allclose(spec.A_half[1], -0.5 + 1j * (4 / np.pi) * 1.0, rtol=1e-15)

    def test_inv2_same_max_as_inv(self):
        N = 1024
        assert init_inv2(N).A_half[0] == init_inv(N).A_half[0]

    def test_quad_values(self):
        spec = init_quad(4)
        np.testing.assert_allclose(spec.A_half[0], -0.5 + 1j / np.pi, rtol=1e-15)
        np.testing.assert_allclose(spec.A_half[1], -0.5 + 9j / np.pi, rtol=1e-15)

    def test_quad_last_entry(self):
        spec = init_quad(64)
        np.testing.assert_allclose(spec.A_half[-1].imag, 63.0**2 / np.pi, rtol=1e-15)

    @pytest.mark.parametrize(
        "factory,increasing",
        [(init_inv, False), (init_inv2, False), (init_lin, True), (init_quad, True)],
    )
    def test_imag_strictly_monotone(self, factory, increasing):
        imag = factory(32).A_half.imag
        diffs = np.diff(imag)
        assert (diffs > 0).all() if increasing else (diffs < 0).all()

    @pytest.mark.parametrize("factory", [init_inv, init_lin, init_inv2, init_quad])
    def test_real_parts_exactly_minus_half(self, factory):
        assert (factory(16).A_half.real == -0.5).all()


class TestRealFamily:
    def test_values(self):
        spec = init_real(4)
        assert spec.A_half[0] == -1.0
        assert spec.A_half[2] == -3.0
        assert not spec.conj_pairs
        assert len(spec.A_half) == 4

    def test_equals_legs_diagonal(self):
        N = 12
        legs, _ = make_hippo_legs(N)
        np.testing.assert_array_equal(init_real(N).A_half.real, np.diag(legs.A))

    def test_expand_collapse_fixed_point(self):
        # purely real spectra are their own conjugates: appending conjugates
        # of Im>0 entries and collapsing back is a no-op
        values = init_real(6).A_half
        expanded = np.concatenate([values, np.conj(values[values.imag > 0])])
        collapsed = expanded[expanded.imag >= 0]
        np.testing.assert_array_equal(collapsed, values)


class TestRandomFamilies:
    def test_rand_deterministic_under_seed(self):
        a = init_rand(16, seed=9).A_half
        b = init_rand(16, seed=9).A_half
        np.testing.assert_array_equal(a, b)

    def test_rand_real_parts_in_unit_interval(self):
        spec = init_rand(64, seed=3)
        assert (spec.A_half.real > -1.0).all()
        assert (spec.A_half.real <= 0.0).all()

    def test_rand_imag_range_matches_lin_family(self):
        spec = init_rand(64, seed=3)
        assert (spec.A_half.imag >= 0).all()
        assert (spec.A_half.imag < 64 * np.pi / 2).all()

    def test_rand_distinct_across_seeds(self):
        seen = {tuple(init_rand(8, seed=s).A_half) for s in range(100)}
        assert len(seen) == 100

    def test_inv_rimag_grid_positions_recover_inv(self):
        N = 16
        grid = np.arange(N // 2, dtype=float)
        np.testing.assert_array_equal(_inv_from_positions(N, grid), init_inv(N).A_half)

    def test_lin_rimag_grid_positions_recover_lin(self):
        grid = np.arange(8, dtype=float)
        np.testing.assert_array_equal(_lin_from_positions(grid), init_lin(16).A_half)

    @pytest.mark.parametrize("factory", [init_inv_random_imag, init_lin_random_imag])
    def test_rimag_seeded_and_half_plane(self, factory):
        a = factory(32, seed=4)
        b = factory(32, seed=4)
        np.testing.assert_array_equal(a.A_half, b.A_half)
        assert (a.A_half.real == -0.5).all()
        assert (a.A_half.imag >= 0).all()


class TestOutputMapAndTimescale:
    def test_c_unit_std_monte_carlo(self):
        draws = init_C(100_000, seed=17)
        assert 0.99 <= draws.real.std() <= 1.01
        assert 0.99 <= draws.imag.std() <= 1.01

    def test_c_seeded(self):
        np.testing.assert_array_equal(init_C(32, seed=1), init_C(32, seed=1))

    def test_c_independent_of_state_size(self):
        # no 1/sqrt(N) factor: the per-component std stays 1 at any length
        small = init_C(50, seed=2)
        large = init_C(50_000, seed=2)
        assert abs(large.real.std() - 1.0) < 0.02
        assert abs(small.real.std() - 1.0) < 0.25

    def test_log_dt_degenerate_range(self):
        assert init_log_dt(0.01, 0.01, seed=0) == np.log(0.01)

    def test_log_dt_range_contract(self):
        for seed in range(50):
            dt = np.exp(init_log_dt(seed=seed))
            assert 1e-3 <= dt <= 1e-1

    def test_log_dt_rejects_bad_range(self):
        with pytest.raises(ValueError):
            init_log_dt(0.1, 0.01)
        with pytest.raises(ValueError):
            init_log_dt(0.0, 0.01)


class TestRealPartParam:
    """The real-part transforms of `constrain_real_parts`."""

    def test_exp_round_trip(self):
        re = -np.logspace(-6, 4, 40)
        np.testing.assert_allclose(constrain_real_parts(re, "exp").real, re, rtol=1e-14)

    def test_exp_strictly_negative(self):
        a = -np.exp(np.linspace(-5, 5, 11)) + 0j
        assert (constrain_real_parts(a, "exp").real < 0).all()

    def test_exp_rejects_nonnegative_input(self):
        with pytest.raises(ValueError):
            constrain_real_parts(np.array([-1.0, 0.0]), "exp")

    def test_relu_clamps(self):
        constrained = constrain_real_parts(np.array([2.0, -0.5]), "relu")
        np.testing.assert_array_equal(constrained.real, [0.0, -0.5])

    def test_identity_passthrough(self):
        re = np.array([0.3, -0.7])
        np.testing.assert_array_equal(constrain_real_parts(re, "identity").real, re)

    def test_apply_preserves_imag(self):
        spec = init_lin(8)
        for mode in RE_MODES:
            constrained = constrain_real_parts(spec.A_half, mode)
            np.testing.assert_array_equal(constrained.imag, spec.A_half.imag)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            constrain_real_parts(np.zeros(1), "tanh")

    @pytest.mark.parametrize(
        "mode, formula",
        [
            ("exp", lambda re: -np.exp(np.log(-re))),
            ("relu", lambda re: -np.maximum(-re, 0.0)),
            ("identity", lambda re: re),
        ],
        ids=RE_MODES,
    )
    def test_bitwise_as_stored_parameter_formula(self, mode, formula):
        # the exp round trip moves some of these draws by an ulp, and each
        # mode must keep exactly its formula's bits, not merely come close
        rng = np.random.default_rng(20)
        a = -rng.uniform(0.01, 5.0, 64) + 1j * rng.uniform(0.0, 100.0, 64)
        if mode != "exp":
            a.real[::3] *= -1.0  # relu and identity also take Re >= 0
        expected = formula(a.real) + 1j * a.imag
        np.testing.assert_array_equal(
            constrain_real_parts(a, mode).view(np.uint64), expected.view(np.uint64)
        )


class TestRegistry:
    @pytest.mark.parametrize("name", INIT_NAMES)
    def test_all_names_buildable(self, name):
        spec = make_init(name, 16, seed=0)
        assert isinstance(spec, DiagonalSpec)

    def test_seeded_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            make_init("rand", 16)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            make_init("fourier", 16)

    def test_half_spectrum_invariant_enforced(self):
        with pytest.raises(ValueError, match="Im >= 0"):
            DiagonalSpec(A_half=np.array([-0.5 - 1j]), B_half=np.ones(1))
