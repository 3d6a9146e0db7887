import tracemalloc

import numpy as np
import pytest

from ddsde.measure import EmpiricalMeasure, wasserstein
from ddsde.models import (
    CoefficientModel,
    ModelBounds,
    _landau_coefficients_pairwise,
    contraction_exponent_cc,
    contraction_exponent_tn,
    landau_b0,
    landau_model,
    landau_sigma0,
    linear_meanfield_model,
)

from helpers import landau_a, landau_reference, verify_flags


class TestLandauKernel:
    def test_unit_x_gamma_zero(self):
        s = landau_sigma0(np.array([1.0, 0.0, 0.0]), 0.0)
        assert np.array_equal(s, [[0, 0, 0], [-1, 0, 0], [0, 0, -1]])
        prod = s @ s.T
        assert np.allclose(prod, np.diag([0.0, 1.0, 1.0]), atol=1e-15)

    def test_zero_maps_to_zero_matrix(self):
        for g in (0.0, 0.5, 1.0):
            assert np.all(landau_sigma0(np.zeros(3), g) == 0.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_factorization_identity(self, gamma):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 3)) * 3.0
        s = landau_sigma0(x, gamma)
        prod = np.einsum("nij,nkj->nik", s, s)
        assert np.abs(prod - landau_a(x, gamma)).max() < 1e-12 * max(
            1.0, np.abs(prod).max()
        )

    def test_collision_matrix_projection_structure(self):
        # a(x) x = 0 and rank a(x) = 2 for x != 0.
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 3))
        a = landau_a(x, 1.0)
        assert np.abs(np.einsum("nij,nj->ni", a, x)).max() < 1e-12
        ranks = np.linalg.matrix_rank(a, tol=1e-9)
        assert np.all(ranks == 2)

    def test_b0_is_divergence_of_a(self):
        assert np.allclose(landau_b0(np.array([1.0, 0.0, 0.0]), 0.0), [-2.0, 0, 0])


class TestLandauModel:
    def test_drift_at_dirac(self):
        model = landau_model(0.0, 1.0, 0.0)
        z = EmpiricalMeasure.point_mass([0.0, 0.0, 0.0], 4).points
        d = model.drift(0.0, np.array([[1.0, 0.0, 0.0]]), z)
        assert np.allclose(d, [[-2.0, 0.0, 0.0]])

    def test_alpha_zero_ignores_law(self):
        model = landau_model(0.0, 0.0, 0.0)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3))
        z1 = rng.normal(size=(6, 3))
        z2 = rng.normal(size=(6, 3))
        assert np.array_equal(model.drift(0.0, x, z1), model.drift(0.0, x, z2))
        assert np.allclose(model.drift(0.0, x, z1), landau_b0(x, 0.0))

    def test_diffusion_two_point_average(self):
        model = landau_model(0.0, 1.0, 1.0)
        z = np.array([0.3, -0.7, 1.1])
        x = np.array([[0.5, 0.2, -0.4]])
        got = model.diffusion(0.0, x, np.stack([z, -z]))[0]
        want = 0.5 * (landau_sigma0(x[0] - z, 0.0) + landau_sigma0(x[0] + z, 0.0))
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_pairwise_convolution_matches_direct_sum(self, gamma):
        rng = np.random.default_rng(4)
        small = (rng.normal(size=(7, 3)), rng.normal(size=(5, 3)), 0.8, 0.6)
        # Self-interaction, M = 300 and N = 200: the law's points are the
        # first 200 evaluation points, so alpha = 1 puts r = 0 on the diagonal.
        # M = 0: no evaluation points.
        x_big = rng.normal(size=(300, 3))
        for x, zs, alpha, beta in (small, (x_big, x_big[:200], 1.0, 0.5),
                                   (x_big[:0], x_big[:5], 1.0, 1.0)):
            model = landau_model(gamma, alpha, beta)
            drift = model.drift(0.0, x, zs)
            want = np.mean([landau_b0(x - alpha * z, gamma) for z in zs], axis=0)
            assert np.allclose(drift, want, atol=1e-12)
            sig = model.diffusion(0.0, x, zs)
            want_s = np.mean([landau_sigma0(x - beta * z, gamma) for z in zs], axis=0)
            assert np.allclose(sig, want_s, atol=1e-12)

    def test_linear_fast_path_matches_generic_pairwise(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        z = rng.normal(size=(9, 3))
        model = landau_model(0.0, 1.0, 1.0)
        drift, sigma = _landau_coefficients_pairwise(x, z, 1.0, 1.0, 0.0)
        assert np.allclose(model.drift(0.0, x, z), drift, atol=1e-12)
        assert np.allclose(model.diffusion(0.0, x, z), sigma, atol=1e-12)

    def test_drift_lipschitz_probe(self):
        # gamma = 0 drift has observed Lipschitz constant <= 2 (1 + |alpha|).
        alpha = 0.7
        model = landau_model(0.0, alpha, 0.0)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            x, y = rng.normal(size=(2, 1, 3))
            mu = EmpiricalMeasure(rng.normal(size=(8, 3)))
            nu = EmpiricalMeasure(rng.normal(size=(8, 3)))
            num = np.linalg.norm(model.drift(0.0, x, mu.points) - model.drift(0.0, y, nu.points))
            den = np.linalg.norm(x - y) + wasserstein(mu, nu, theta=2.0)
            worst = max(worst, num / den)
        assert worst <= 2.0 * (1.0 + alpha) + 1e-9

    def test_dissipativity_probe_alpha_beta_zero(self):
        # At alpha = beta = 0 the pair satisfies the dissipativity inequality
        # with C1 = 0, C2 = 2 (equality up to rounding).
        model = landau_model(0.0, 0.0, 0.0)
        rng = np.random.default_rng(8)
        for _ in range(40):
            x, y = rng.normal(size=(2, 3))
            z = rng.normal(size=(6, 3))
            w = rng.normal(size=(6, 3))
            db = (model.drift(0.0, x[None], z) - model.drift(0.0, y[None], w))[0]
            ds = (model.diffusion(0.0, x[None], z) - model.diffusion(0.0, y[None], w))[0]
            lhs = 2.0 * db @ (x - y) + np.sum(ds * ds)
            assert lhs <= -2.0 * np.sum((x - y) ** 2) + 1e-9

    def test_bounds_and_flags(self):
        model = landau_model(0.0, 1.0, 1.0)
        b = model.bounds
        assert (b.K0, b.B0, b.C0) == (-2.0, 2.0, 2.0)
        assert b.contraction_exponent == pytest.approx(8.0)
        assert not model.invertible_sigma
        assert not model.distribution_free_sigma
        assert landau_model(0.0, 1.0, 0.0).distribution_free_sigma
        assert landau_model(0.5, 1.0, 1.0).state_radius == 1e3

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError, match="gamma"):
            landau_model(1.5, 1.0, 1.0)


def assert_within_1e15(got, want):
    """Max-norm error at most 1e-15 of the reference's max norm, per array."""
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))


class TestLandauJointCoefficients:
    """The gamma > 0 drift and diffusion from one evaluation, against a 40-digit
    direct sum.  Against the ensemble's own law at alpha = beta = 1 the kernel
    computes only the upper triangle of the distances (mirrored panels); every
    other case takes each row panel against all the law's points."""

    # 37 rows fill 8 panels unevenly; 9 rows make 5 panels of at most 2.  At
    # N = 512 (8 panels of 64) the reference is summed for the first and last
    # row of each panel only, each still against all 512 points of the law.
    @pytest.mark.parametrize("n", [1, 2, 9, 37, 512])
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.0, 0.5), (0.5, 0.5)])
    def test_full_panels_match_direct_sum(self, n, gamma, alpha, beta):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        rows = np.r_[0:n:64, 63:n:64] if n == 512 else np.arange(n)
        model = landau_model(gamma, alpha, beta)
        laws = [rng.normal(size=(n, 3))]  # a frozen law
        if not alpha == beta == 1.0:  # the own law there: see the next test
            laws.append(x)
        for z in laws:
            want = landau_reference(x[rows], z, alpha, beta, gamma)
            for got in (model.coefficients(0.0, x, z),
                        (model.drift(0.0, x, z), model.diffusion(0.0, x, z))):
                assert_within_1e15([a[rows] for a in got], want)

    @pytest.mark.parametrize("n", [1, 2, 9, 37, 61])
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
    def test_self_interaction_matches_direct_sum(self, n, gamma):
        x = np.random.default_rng(n).normal(size=(n, 3))
        model = landau_model(gamma, 1.0, 1.0)
        want = landau_reference(x, x, 1.0, 1.0, gamma)
        # x as its own law, as the particle system passes it: the mirrored panels
        for got in (model.coefficients(0.0, x, x),
                    (model.drift(0.0, x, x), model.diffusion(0.0, x, x))):
            assert_within_1e15(got, want)

    @pytest.mark.parametrize("alpha, beta, frozen", [
        (1.0, 1.0, False), (1.0, 1.0, True), (1.0, 0.5, False), (0.5, 0.5, True)])
    def test_allocates_no_square_matrix(self, alpha, beta, frozen):
        n = 1024
        rng = np.random.default_rng(3)
        x = rng.normal(size=(n, 3))
        model = landau_model(0.5, alpha, beta)
        z = rng.normal(size=(n, 3)) if frozen else x
        model.coefficients(0.0, x[:16], x[:16])  # loads the kernel
        tracemalloc.start()
        try:
            model.coefficients(0.0, x, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestLinearMeanfield:
    def test_coefficients(self):
        model = linear_meanfield_model(2.0, 1.0, 0.5, dim=2)
        z = np.array([[1.0, 1.0], [3.0, 3.0]])
        x = np.array([[1.0, 0.0]])
        assert np.allclose(model.drift(0.0, x, z), [[-2.0 + 2.0, 2.0]])
        assert np.allclose(model.diffusion(0.0, x, z), 0.5 * np.eye(2))
        assert model.additive_noise and model.invertible_sigma

    def test_degenerate_sigma_not_invertible(self):
        model = linear_meanfield_model(1.0, 0.0, 0.0, dim=1)
        assert not model.invertible_sigma
        assert model.sigma_inverse is None

    def test_all_zero_coefficients_keep_states(self):
        model = linear_meanfield_model(0.0, 0.0, 0.0, dim=1)
        x = np.array([[2.0], [-1.0]])
        assert np.all(model.drift(0.0, x, x) == 0.0)
        assert np.all(model.diffusion(0.0, x, x) == 0.0)

    def test_bounds(self):
        model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
        b = model.bounds
        assert b.kappa1 == 0.0
        assert b.kappa2 == 0.5
        assert b.lambda_ == pytest.approx(1.0)
        assert b.C1 == 0.25 and b.C2 == pytest.approx(1.75)
        assert b.dissipative

    def test_grad_b_direction(self):
        model = linear_meanfield_model(2.0, 0.5, 1.0, dim=2)
        x = np.zeros((3, 2))
        g = model.grad_b(0.0, x, x, np.array([1.0, -1.0]))
        assert np.allclose(g, np.tile([-2.0, 2.0], (3, 1)))


class TestRateFormulas:
    def test_cc_values(self):
        assert contraction_exponent_cc(1.0, 1.0) == 8.0
        assert contraction_exponent_cc(0.0, 0.0) == -2.0

    def test_tn_values(self):
        assert contraction_exponent_tn(-2.0, 2.0, 2.0, 1.0, 1.0) == 8.0
        assert contraction_exponent_tn(-2.0, 2.0, 2.0, 0.0, 0.0) == -2.0
        assert contraction_exponent_tn(0.0, 0.0, 0.0, 1.0, 1.0) == 0.0

    def test_cc_tn_cross_check(self):
        # Landau kernel constants make the two formulas coincide.
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = rng.uniform(-2, 2, size=2)
            assert contraction_exponent_cc(a, b) == pytest.approx(
                contraction_exponent_tn(-2.0, 2.0, 2.0, a, b)
            )


class TestVerifyFlags:
    def test_bundled_models_pass(self):
        verify_flags(landau_model(0.0, 1.0, 1.0))
        verify_flags(landau_model(0.5, 0.5, 0.0))
        verify_flags(linear_meanfield_model(1.0, 0.25, 1.0, dim=2))

    def test_lying_flag_detected(self):
        lying = CoefficientModel(
            name="liar", dim=2,
            drift=lambda t, x, mu: -x,
            diffusion=lambda t, x, z: np.eye(2) * (1.0 + z.mean(axis=0)[0] ** 2),
            additive_noise=True, invertible_sigma=True, distribution_free_sigma=True,
            bounds=ModelBounds(),
        )
        with pytest.raises(ValueError, match="additive_noise|distribution_free"):
            verify_flags(lying)
