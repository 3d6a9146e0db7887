import tracemalloc

import mpmath
import numpy as np
import pytest

from ddsde.measure import EmpiricalMeasure, wasserstein
from ddsde.models import (
    CoefficientModel,
    ModelBounds,
    _landau_drift_pairwise,
    _landau_sigma_pairwise,
    _pair_weights,
    contraction_exponent_cc,
    contraction_exponent_tn,
    landau_b0,
    landau_model,
    landau_sigma0,
    linear_meanfield_model,
)

from helpers import landau_a, landau_pairwise_two_pass, verify_flags


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
        mu = EmpiricalMeasure.point_mass([0.0, 0.0, 0.0], 4)
        d = model.drift(0.0, np.array([[1.0, 0.0, 0.0]]), mu)
        assert np.allclose(d, [[-2.0, 0.0, 0.0]])

    def test_alpha_zero_ignores_law(self):
        model = landau_model(0.0, 0.0, 0.0)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 3))
        mu1 = EmpiricalMeasure(rng.normal(size=(6, 3)))
        mu2 = EmpiricalMeasure(rng.normal(size=(6, 3)))
        assert np.array_equal(model.drift(0.0, x, mu1), model.drift(0.0, x, mu2))
        assert np.allclose(model.drift(0.0, x, mu1), landau_b0(x, 0.0))

    def test_diffusion_two_point_average(self):
        model = landau_model(0.0, 1.0, 1.0)
        z = np.array([0.3, -0.7, 1.1])
        mu = EmpiricalMeasure(np.stack([z, -z]))
        x = np.array([[0.5, 0.2, -0.4]])
        got = model.diffusion(0.0, x, mu)[0]
        want = 0.5 * (landau_sigma0(x[0] - z, 0.0) + landau_sigma0(x[0] + z, 0.0))
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_pairwise_convolution_matches_direct_sum(self, gamma):
        rng = np.random.default_rng(4)
        small = (rng.normal(size=(7, 3)), rng.normal(size=(5, 3)), 0.8, 0.6)
        # Self-interaction, M = 300 and N = 200: the law's points are the
        # first 200 evaluation points, so alpha = 1 puts r = 0 on the diagonal.
        x_big = rng.normal(size=(300, 3))
        for x, zs, alpha, beta in (small, (x_big, x_big[:200], 1.0, 0.5)):
            model = landau_model(gamma, alpha, beta)
            mu = EmpiricalMeasure(zs)
            drift = model.drift(0.0, x, mu)
            want = np.mean([landau_b0(x - alpha * z, gamma) for z in zs], axis=0)
            assert np.allclose(drift, want, atol=1e-12)
            sig = model.diffusion(0.0, x, mu)
            want_s = np.mean([landau_sigma0(x - beta * z, gamma) for z in zs], axis=0)
            assert np.allclose(sig, want_s, atol=1e-12)

    @pytest.mark.parametrize("power", [0.125, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.0])
    def test_pair_weights_match_coordinate_loop_bitwise(self, power, scale):
        def coordinate_loop(x, z):
            sz = scale * z
            r2 = (x[:, 0, None] - sz[:, 0]) ** 2
            for k in range(1, x.shape[1]):
                r2 += (x[:, k, None] - sz[:, k]) ** 2
            return r2 ** (power / 2.0)

        rng = np.random.default_rng(6)
        for m, n, d in ((300, 200, 3), (17, 5, 1), (9, 9, 2)):
            x = rng.normal(size=(m, d))
            # z = x[:n]: at scale 1, r = 0 lies on the diagonal.
            w = _pair_weights(x, x[:n], scale, power)
            assert w.tobytes() == coordinate_loop(x, x[:n]).tobytes()
            if scale == 1.0:
                assert np.all(np.diagonal(w) == 0.0)

    def test_linear_fast_path_matches_generic_pairwise(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        z = rng.normal(size=(9, 3))
        mu = EmpiricalMeasure(z)
        model = landau_model(0.0, 1.0, 1.0)
        assert np.allclose(model.drift(0.0, x, mu),
                           _landau_drift_pairwise(x, z, 1.0, 0.0), atol=1e-12)
        assert np.allclose(model.diffusion(0.0, x, mu),
                           _landau_sigma_pairwise(x, z, 1.0, 0.0), atol=1e-12)

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
            num = np.linalg.norm(model.drift(0.0, x, mu) - model.drift(0.0, y, nu))
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
            mu = EmpiricalMeasure(rng.normal(size=(6, 3)))
            nu = EmpiricalMeasure(rng.normal(size=(6, 3)))
            db = (model.drift(0.0, x[None], mu) - model.drift(0.0, y[None], nu))[0]
            ds = (model.diffusion(0.0, x[None], mu) - model.diffusion(0.0, y[None], nu))[0]
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


def landau_self_reference(x: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Landau drift and diffusion of the ensemble x against its own law at
    alpha = beta = 1, as 40-digit direct sums over the pairs, rounded once."""
    n = len(x)
    drift = [[mpmath.mpf(0)] * 3 for _ in range(n)]
    sigma = [[mpmath.mpf(0)] * 3 for _ in range(n)]
    with mpmath.workdps(40):
        for i in range(n):
            for j in range(i + 1, n):
                diff = [mpmath.mpf(a) - mpmath.mpf(b) for a, b in zip(x[i], x[j])]
                d2 = sum(c * c for c in diff)
                for acc, w in ((drift, d2 ** (mpmath.mpf(gamma) / 2)),
                               (sigma, d2 ** (mpmath.mpf(gamma) / 4))):
                    for k in range(3):
                        acc[i][k] += w * diff[k]
                        acc[j][k] -= w * diff[k]
        drift = np.array([[float(-2 * c / n) for c in row] for row in drift])
        sigma = np.array([[float(c / n) for c in row] for row in sigma])
    return drift, landau_sigma0(sigma, 0.0)


class TestLandauJointCoefficients:
    """The gamma > 0 drift and diffusion from one evaluation.  Against a frozen
    law, or with alpha != beta, they are bitwise equal to two full passes; at
    alpha = beta = 1 on the ensemble's own law, where only the upper triangle of
    the distances is computed, they match a 40-digit direct sum."""

    @pytest.mark.parametrize("n", [1, 2, 37, 512])
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.0, 0.5), (0.5, 0.5)])
    def test_match_two_pass_oracle_bitwise(self, n, gamma, alpha, beta):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        model = landau_model(gamma, alpha, beta)
        own = EmpiricalMeasure(x)
        assert own.points is x  # how the particle system builds its law
        for mu in (own, EmpiricalMeasure(rng.normal(size=(n, 3)))):  # and a frozen law
            want = landau_pairwise_two_pass(x, mu.points, alpha, beta, gamma)
            runs = [(model.drift(0.0, x, mu), model.diffusion(0.0, x, mu))]
            if mu is not own or not alpha == beta == 1.0:  # the self path: see below
                runs.append(model.coefficients(0.0, x, mu))
            for got in runs:
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    # 37 and 61 rows fill 8 panels unevenly; 9 rows make 5 panels of at most 2.
    @pytest.mark.parametrize("n", [1, 2, 9, 37, 61])
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
    def test_self_interaction_matches_direct_sum(self, n, gamma):
        x = np.random.default_rng(n).normal(size=(n, 3))
        model = landau_model(gamma, 1.0, 1.0)
        mu = EmpiricalMeasure(x)
        want = landau_self_reference(x, gamma)
        for got in (model.coefficients(0.0, x, mu),
                    (model.drift(0.0, x, mu), model.diffusion(0.0, x, mu))):
            for a, b in zip(got, want):
                assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

    def test_self_interaction_allocates_no_square_matrix(self):
        n = 1024
        x = np.random.default_rng(3).normal(size=(n, 3))
        model = landau_model(0.5, 1.0, 1.0)
        mu = EmpiricalMeasure(x)
        model.coefficients(0.0, x[:16], EmpiricalMeasure(x[:16]))  # loads the kernel
        tracemalloc.start()
        try:
            model.coefficients(0.0, x, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestLinearMeanfield:
    def test_coefficients(self):
        model = linear_meanfield_model(2.0, 1.0, 0.5, dim=2)
        mu = EmpiricalMeasure(np.array([[1.0, 1.0], [3.0, 3.0]]))
        x = np.array([[1.0, 0.0]])
        assert np.allclose(model.drift(0.0, x, mu), [[-2.0 + 2.0, 2.0]])
        assert np.allclose(model.diffusion(0.0, x, mu), 0.5 * np.eye(2))
        assert model.additive_noise and model.invertible_sigma

    def test_degenerate_sigma_not_invertible(self):
        model = linear_meanfield_model(1.0, 0.0, 0.0, dim=1)
        assert not model.invertible_sigma
        assert model.sigma_inverse is None

    def test_all_zero_coefficients_keep_states(self):
        model = linear_meanfield_model(0.0, 0.0, 0.0, dim=1)
        x = np.array([[2.0], [-1.0]])
        mu = EmpiricalMeasure(x)
        assert np.all(model.drift(0.0, x, mu) == 0.0)
        assert np.all(model.diffusion(0.0, x, mu) == 0.0)

    def test_bounds(self):
        model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
        b = model.bounds
        assert b.kappa1 == 0.0
        assert b.kappa2 == 0.5
        assert b.lambda_ == pytest.approx(1.0)
        assert b.C1 == 0.25 and b.C2 == pytest.approx(1.75)
        assert b.lipschitz_rate == pytest.approx(0.5)
        assert b.dissipative

    def test_grad_b_direction(self):
        model = linear_meanfield_model(2.0, 0.5, 1.0, dim=2)
        x = np.zeros((3, 2))
        mu = EmpiricalMeasure(x)
        g = model.grad_b(0.0, x, mu, np.array([1.0, -1.0]))
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
            diffusion=lambda t, x, mu: np.eye(2) * (1.0 + mu.mean()[0] ** 2),
            additive_noise=True, invertible_sigma=True, distribution_free_sigma=True,
            bounds=ModelBounds(),
        )
        with pytest.raises(ValueError, match="additive_noise|distribution_free"):
            verify_flags(lying)
