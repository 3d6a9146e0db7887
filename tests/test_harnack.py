import math
from dataclasses import replace

import numpy as np
import pytest

from ddsde.harnack import (
    IBP_FUNCTIONS,
    TEST_FUNCTIONS,
    Check,
    CoupledSample,
    _gradient_cost_integral,
    _se,
    coupled_girsanov,
    coupled_pairs_from_measures,
    density_bound_rhs,
    ibp_weights,
    phi,
    power_harnack_constant,
    power_harnack_threshold,
    shift_coupling_verify,
    simulate_coupled,
    verify_ibp,
    verify_log_harnack,
    xi_schedule,
)
from ddsde.measure import EmpiricalMeasure, wasserstein
from ddsde.models import CoefficientModel, ModelBounds, landau_model, linear_meanfield_model
from ddsde.rng import NoiseSpec, normal_block
from ddsde.sde import NumericalBlowupError, TimeGrid
from ddsde.solver import evolve_states

from helpers import mean_se


def delta_pairs(x_val, y_val, m, d=1):
    x = np.full((m, d), float(x_val))
    y = np.full((m, d), float(y_val))
    return x, y


def girsanov(model, pairs, grid, noise, weight_clip=None):
    """``coupled_girsanov`` over one ``simulate_coupled`` sample of ``pairs``."""
    return coupled_girsanov(simulate_coupled(model, *pairs, grid, noise), model, grid,
                            weight_clip)


def log_harnack_sample(model, mu0, nu0, grid, noise):
    x0, y0, _ = coupled_pairs_from_measures(model, mu0, nu0, noise.step0)
    return simulate_coupled(model, x0, y0, grid, noise)


def terminal_states(model, mu0, grid, noise):
    return evolve_states(model, mu0.points, grid.s, grid.n_steps, grid.dt, noise)


class TestXiSchedule:
    def test_vanishes_at_terminal_time(self):
        assert xi_schedule(1.0, 1.0)(1.0) == pytest.approx(0.0)
        assert xi_schedule(2.5, 0.0)(2.5) == pytest.approx(0.0)

    def test_reference_value(self):
        assert xi_schedule(1.0, 1.0)(0.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_small_kappa_approaches_linear_limit(self):
        xi = xi_schedule(1.0, 1e-6)
        xi0 = xi_schedule(1.0, 0.0)
        assert abs(xi(0.9) - xi0(0.9)) < 1e-8

    def test_positive_before_terminal(self):
        xi = xi_schedule(1.0, 2.0)
        ts = np.linspace(0.0, 0.999, 50)
        assert all(xi(t) > 0 for t in ts)


class TestPhi:
    def test_reference_value(self):
        assert phi(0.0, 1.0, 1.0, 1.0, 0.0) == pytest.approx(1.0 / (1.0 - math.exp(-1.0)))

    def test_heat_kernel_limit(self):
        assert phi(0.0, 2.0, 1.5, 0.0, 0.0) == pytest.approx(1.5 ** 2 / 2.0)

    def test_monotone_decreasing_in_t_without_interaction(self):
        vals = [phi(0.0, t, 1.0, 0.8, 0.0) for t in np.linspace(0.2, 3.0, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_requires_ordered_times(self):
        with pytest.raises(ValueError):
            phi(1.0, 1.0, 1.0, 1.0, 0.0)


class TestCouplingConfig:
    def test_from_model_linear(self):
        # The coupling constants are the linear model's bounds; the Girsanov
        # phi bound is phi over the grid's span with them, times W2^2 = 1.
        model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
        b = model.bounds
        assert b.kappa1 == 0.0
        assert b.kappa2 == 0.5
        assert b.lambda_ == pytest.approx(1.0)
        x0, y0 = delta_pairs(0.0, 1.0, 16)
        res = girsanov(model, (x0, y0), TimeGrid(0.0, 1.0, 50), NoiseSpec(seed=7, dim=1))
        assert res.phi_bound == pytest.approx(phi(0.0, 1.0, 1.0, 0.0, 0.5))


class TestCoupledGirsanov:
    def setup_method(self):
        self.model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
        self.grid = TimeGrid(0.0, 1.0, 400)
        self.noise = NoiseSpec(seed=101, dim=1)

    def test_equal_initials_are_exactly_trivial(self):
        x0, y0 = delta_pairs(0.3, 0.3, 64)
        res = girsanov(self.model, (x0, y0), self.grid, self.noise)
        assert res.weight_mean == 1.0
        assert res.weight_mean_se == 0.0
        assert res.weight_entropy == 0.0
        assert res.terminal_gap_q == 0.0
        assert res.phi_bound == 0.0
        assert res.ok and res.ess_warning is None

    def test_martingale_and_entropy_bound(self):
        m = 3000
        x0, y0 = delta_pairs(0.0, 1.0, m)
        sample = simulate_coupled(self.model, x0, y0, self.grid, self.noise,
                                  record_series=True)
        res = coupled_girsanov(sample, self.model, self.grid)
        assert abs(res.weight_mean - 1.0) <= 3 * res.weight_mean_se
        assert res.weight_entropy <= res.phi_bound + 3 * res.weight_entropy_se
        assert res.ess > m / 10
        # the weight is a martingale: E[R_t] = 1 along the whole grid
        drift = np.abs(np.asarray(sample.series["weight_mean"]) - 1.0)
        assert drift.max() <= 4 * max(res.weight_mean_se, 1e-12)

    def from_log_weights(self, log_r):
        m = len(log_r)
        sample = CoupledSample(np.zeros((m, 1)), np.asarray(log_r), np.zeros(m), np.ones(m), 0.0)
        return coupled_girsanov(sample, self.model, self.grid)

    def test_ess_warning_starts_below_a_tenth_of_the_pairs(self):
        # Two unit weights among 20 pairs (the rest underflow to 0) give ess = 2 = M/10.
        log_r = np.full(20, -1000.0)
        log_r[:2] = 0.0
        at_tenth = self.from_log_weights(log_r)
        assert at_tenth.ess == 2.0 and at_tenth.ess_warning is None
        log_r[1] = -1e-6  # ess 2 - 5e-13
        below = self.from_log_weights(log_r)
        assert below.ess < 2.0
        assert below.ess_warning == "effective sample size 2.0 < M/10"

    def test_ess_warning_names_an_underflow(self):
        res = self.from_log_weights(np.full(20, -1000.0))
        assert math.isnan(res.ess)
        assert res.ess_warning == "effective sample size undefined: every weight underflowed"
        assert not res.ok

    def test_gap_shrinks_when_dt_halves(self):
        x0, y0 = delta_pairs(0.0, 1.0, 2000)
        coarse = girsanov(self.model, (x0, y0), TimeGrid(0.0, 1.0, 100), self.noise)
        fine = girsanov(self.model, (x0, y0), TimeGrid(0.0, 1.0, 200), self.noise)
        assert coarse.terminal_gap_q / fine.terminal_gap_q >= 1.3
        # the pre-merge gap is O(dt) relative to the initial squared gap
        initial_gap_sq = 1.0
        assert coarse.terminal_gap_q <= 10.0 * (1.0 / 100) * initial_gap_sq
        assert fine.terminal_gap_q <= 10.0 * (1.0 / 200) * initial_gap_sq

    def test_landau_missing_bounds(self):
        x0 = np.zeros((4, 3))
        with pytest.raises(ValueError, match="bounds missing"):
            simulate_coupled(landau_model(0.0, 1.0, 1.0), x0, x0 + 1.0, TimeGrid(0, 1.0, 10),
                             NoiseSpec(seed=1, dim=3))

    def test_landau_excluded_by_flag(self):
        # Even with every coupling bound declared, the Landau diffusion is excluded.
        model = replace(landau_model(0.0, 1.0, 0.0),
                        bounds=ModelBounds(kappa1=0.0, kappa2=2.0, lambda_=1.0))
        x0 = np.zeros((4, 3))
        with pytest.raises(ValueError, match="excluded"):
            simulate_coupled(model, x0, x0 + 1.0, TimeGrid(0, 1.0, 10),
                             NoiseSpec(seed=1, dim=3))

    def test_state_dependent_invertible_sigma(self):
        # Exercises the per-trajectory matrix-solve path of the coupling.
        model = CoefficientModel(
            name="diag_sigma", dim=2,
            drift=lambda t, x, mu: -x,
            diffusion=lambda t, x, mu: np.eye(2) * (1.0 + 0.25 * np.sin(x))[:, None, :],
            additive_noise=False, invertible_sigma=True, distribution_free_sigma=True,
            bounds=ModelBounds(kappa1=0.0, kappa2=0.0, lambda_=1.0 / 0.75, gamma_t=0.25),
        )
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(1500, 2))
        y0 = x0 + np.array([0.5, -0.5])
        res = girsanov(model, (x0, y0), TimeGrid(0.0, 0.5, 200), NoiseSpec(seed=7, dim=2))
        assert abs(res.weight_mean - 1.0) <= 3 * res.weight_mean_se
        assert res.weight_entropy <= res.phi_bound + 3 * res.weight_entropy_se

    def test_shared_sigma_solve_matches_the_precomputed_inverse(self):
        # Without sigma_inverse the shift solves the one (d, d) sigma for every path.
        model = linear_meanfield_model(1.0, 0.25, [[1.0, 0.3], [0.0, 0.8]])
        x0 = normal_block(NoiseSpec(seed=13, dim=2), np.arange(256), 0)
        grid, noise = TimeGrid(0.0, 1.0, 100), NoiseSpec(seed=14, dim=2)
        want = simulate_coupled(model, x0, x0 + [0.5, -0.5], grid, noise)
        got = simulate_coupled(replace(model, sigma_inverse=None), x0, x0 + [0.5, -0.5],
                               grid, noise)
        np.testing.assert_allclose(got.log_r, want.log_r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.gap_sq_penultimate, want.gap_sq_penultimate,
                                   rtol=1e-12, atol=0)

    def test_weight_clip_diagnostic(self):
        x0, y0 = delta_pairs(0.0, 1.0, 500)
        res = girsanov(self.model, (x0, y0), self.grid, self.noise, weight_clip=1e-6)
        assert res.clip_fraction is not None
        assert res.clip_fraction > 0.5  # nearly every weight exceeds a tiny cap

    @pytest.mark.parametrize("shift", [[0.7], [0.7, -0.4]], ids=["d1", "d2"])
    def test_brownian_shift_is_exact(self, shift):
        # b = 0, sigma = I and kappa1 = 0, so xi_t = T - t: each step closes D0 dt / T of
        # the gap, h = D0 / T at every step, and both sides are exact with no sampling.
        d0, t_end = np.asarray(shift), 1.0
        model = linear_meanfield_model(0.0, 0.0, 1.0, dim=len(shift))
        grid = TimeGrid(0.0, t_end, 200)
        x0 = normal_block(NoiseSpec(seed=11, dim=len(shift)), np.arange(64), 0)
        sample = simulate_coupled(model, x0, x0 + d0, grid, NoiseSpec(seed=12, dim=len(shift)))
        gap_sq = float(d0 @ d0) * (grid.dt / t_end) ** 2
        log_r = (sample.x_terminal - x0) @ d0 / t_end - float(d0 @ d0) / (2.0 * t_end)
        np.testing.assert_allclose(sample.gap_sq_penultimate, gap_sq, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sample.log_r, log_r, rtol=0, atol=1e-12)

    def test_coupled_process_steps_through_the_joint_coefficients(self):
        # With drift and diffusion unusable, every step of X, Y and the nu-flow
        # goes through ``coefficients``, and the shift through ``sigma_inverse``.
        def unusable(*args):
            raise AssertionError("drift or diffusion called outside coefficients")
        joint = replace(self.model, drift=unusable, diffusion=unusable,
                        joint=lambda t, x, mu: (self.model.drift(t, x, mu),
                                                self.model.diffusion(t, x, mu)))
        pairs = delta_pairs(0.0, 1.0, 32)
        want = simulate_coupled(self.model, *pairs, TimeGrid(0.0, 1.0, 50), self.noise)
        got = simulate_coupled(joint, *pairs, TimeGrid(0.0, 1.0, 50), self.noise)
        assert np.array_equal(got.log_r, want.log_r)
        assert np.array_equal(got.gap_sq_penultimate, want.gap_sq_penultimate)


class TestLogHarnack:
    model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
    grid = TimeGrid(0.0, 1.0, 400)
    noise = NoiseSpec(seed=202, dim=1)

    def sample(self, m):
        return log_harnack_sample(self.model, EmpiricalMeasure.point_mass([0.0], m),
                                  EmpiricalMeasure.point_mass([1.0], m), self.grid, self.noise)

    @pytest.fixture(scope="class")
    def shared(self):
        """One sample of 2000 pairs for every bundled test function."""
        return self.sample(2000)

    def test_unit_constant_slack_is_exactly_phi_w2(self):
        res = verify_log_harnack(self.sample(512), lambda x: np.ones(x.shape[0]),
                                 self.model, self.grid)
        assert res.lhs == 0.0
        assert res.slack == pytest.approx(res.phi * res.w2_sq)
        assert res.slack >= 0.0

    @pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
    def test_bundled_functions_satisfy_inequality(self, name, shared):
        res = verify_log_harnack(shared, TEST_FUNCTIONS[name], self.model, self.grid)
        assert res.slack >= -3.0 * res.slack_se

    def test_a_sample_with_no_weight_fails(self):
        # Every weight underflows: lhs reads 0 and the slack is positive, but the ESS
        # is undefined, so the sample certifies nothing.
        m = 20
        sample = CoupledSample(np.zeros((m, 1)), np.full(m, -1000.0), np.zeros(m), np.ones(m), 1.0)
        res = verify_log_harnack(sample, TEST_FUNCTIONS["one_plus_tanh"], self.model, self.grid)
        assert res.lhs == 0.0 and res.slack > 0.0 and math.isnan(res.ess)
        assert not res.ok

    def test_function_touching_zero_rejected(self):
        with pytest.raises(NumericalBlowupError, match="f_min"):
            verify_log_harnack(self.sample(256), lambda x: np.maximum(x[:, 0], 0.0),
                               self.model, self.grid)

    def test_brownian_case_matches_gaussian_oracle(self):
        # b = 0, sigma = I: closed forms for f = exp(u x); the sharp constant
        # 1/(2T) makes the inequality an equality at u = (y0 - x0)/T.
        model = linear_meanfield_model(0.0, 0.0, 1.0, dim=1)
        grid = TimeGrid(0.0, 1.0, 200)
        m = 20_000
        x0_val, y0_val, u = 0.0, 1.0, 1.0
        mu0 = EmpiricalMeasure.point_mass([x0_val], m)
        nu0 = EmpiricalMeasure.point_mass([y0_val], m)
        sample = log_harnack_sample(model, mu0, nu0, grid, NoiseSpec(seed=303, dim=1))
        res = verify_log_harnack(sample, lambda x: np.exp(u * x[:, 0]), model, grid)
        lhs_closed = u * y0_val
        log_mean_closed = u * x0_val + u * u * grid.t_end / 2.0
        assert abs(res.lhs - lhs_closed) <= 1e-3 + 3 * res.lhs_se
        assert abs(res.log_mean_f - log_mean_closed) <= 1e-3 + 3 * res.rhs_se
        # sharp-constant slack: log_mean + |x-y|^2/(2T) - lhs should be ~0
        sharp_slack = res.log_mean_f + res.w2_sq / (2.0 * grid.t_end) - res.lhs
        assert abs(sharp_slack) <= 1e-3 + 3 * res.slack_se


class TestPowerHarnack:
    def test_threshold(self):
        assert power_harnack_threshold(2.0, 0.5) == pytest.approx((1 + 4.0) ** 2)

    def test_constant_ranges(self):
        with pytest.raises(ValueError, match="horizon must be positive"):
            power_harnack_constant(4.0, 0.0, 1.0, 1.0, horizon=0.0, lambda_=1.0,
                                   kappa1=0.0, kappa2=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            power_harnack_constant(4.0, 0.0, 1.0, 1.0, horizon=1.0, lambda_=1.0,
                                   kappa1=-1.0, kappa2=0.0)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            power_harnack_constant(2.0, 0.0, 1.0, 1.0, horizon=1.0, lambda_=1.0,
                                   kappa1=0.0, kappa2=0.0, gamma_t=0.5)

    def test_zero_distance_gives_factor_one(self):
        assert power_harnack_constant(4.0, 0.0, 1.0, 0.0, horizon=1.0, lambda_=1.0,
                                      kappa1=1.0, kappa2=0.5) == 1.0

    def test_additive_reduction_formula(self):
        # gamma = 0, kappa2 = 0: the factor collapses to the heat-kernel form.
        lam, k1, p, mt, s, t = 1.3, 0.7, 4.0, 0.8, 0.0, 1.5
        sp = math.sqrt(p)
        expected = math.exp(
            sp * mt * 2.0 * k1 * lam ** 2
            / ((sp + 1.0) * 2.0 * (sp - 1.0) ** 2 * (1.0 - math.exp(-k1 * (t - s))))
        )
        got = power_harnack_constant(p, s, t, mt, horizon=t, lambda_=lam, kappa1=k1, kappa2=0.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_denominator_positive_at_threshold_with_distortion(self):
        lam, gam = 1.0, 0.3
        p_min = power_harnack_threshold(lam, gam)
        sp = math.sqrt(p_min)
        denominator = 2.0 * (sp - 1.0) ** 2 - 16.0 * lam ** 2 * gam ** 2
        assert denominator > 0
        assert np.isfinite(power_harnack_constant(p_min, 0.0, 1.0, 1.0, horizon=1.0,
                                                  lambda_=lam, kappa1=0.5, kappa2=0.2,
                                                  gamma_t=gam))


class TestShiftHarnack:
    model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
    grid = TimeGrid(0.0, 1.0, 400)
    noise = NoiseSpec(seed=404, dim=1)

    @pytest.fixture(scope="class")
    def x_t(self):
        """X_T of 4000 paths from 0.5, shared by every f, v and p of the class."""
        return terminal_states(self.model, EmpiricalMeasure.point_mass([0.5], 4000),
                               self.grid, self.noise)

    def test_zero_shift_reduces_to_jensen(self, x_t):
        res = shift_coupling_verify(self.model, TEST_FUNCTIONS["one_plus_tanh"],
                                    [0.0], x_t, 2.0, self.grid)
        assert res.constant == 1.0
        assert res.slack >= 0.0

    @pytest.mark.parametrize("v", [0.3, -0.8, 1.0])
    def test_inequality_holds_for_shifts(self, v, x_t):
        res = shift_coupling_verify(self.model, TEST_FUNCTIONS["gauss_bump"],
                                    [v], x_t, 2.0, self.grid)
        assert res.slack >= -3.0 * res.slack_se

    def test_log_form(self, x_t):
        res = shift_coupling_verify(self.model, TEST_FUNCTIONS["one_plus_tanh"],
                                    [0.5], x_t, 2.0, self.grid, log_form=True)
        assert res.slack >= -3.0 * res.slack_se

    def test_brownian_gaussian_bump_closed_form(self):
        # b = 0, sigma = I, f = exp(-x^2): every moment is a Gaussian integral.
        model = linear_meanfield_model(0.0, 0.0, 1.0, dim=1)
        grid = TimeGrid(0.0, 1.0, 100)
        m = 40_000
        mu0 = EmpiricalMeasure.point_mass([0.0], m)
        v, p, big_t = 0.5, 2.0, 1.0
        x_t = terminal_states(model, mu0, grid, NoiseSpec(seed=505, dim=1))
        res = shift_coupling_verify(model, lambda x: np.exp(-x[:, 0] ** 2), [v], x_t, p, grid)
        def gauss_mean(scale, mean_shift):
            # E exp(-scale (Z + mean_shift)^2), Z ~ N(0, T)
            return math.exp(-scale * mean_shift ** 2 / (1 + 2 * scale * big_t)) \
                / math.sqrt(1 + 2 * scale * big_t)

        lhs_closed = gauss_mean(1.0, 0.0) ** p
        rhs_closed = gauss_mean(2.0, v) * res.constant
        assert abs(res.lhs - lhs_closed) <= 3 * res.lhs_se + 1e-3
        assert abs(res.rhs - rhs_closed) <= 3 * res.rhs_se + 1e-3
        assert rhs_closed - lhs_closed >= 0.0

    def test_power_requires_p_above_one(self, x_t):
        with pytest.raises(ValueError, match="p > 1"):
            shift_coupling_verify(self.model, TEST_FUNCTIONS["const"], [0.1], x_t, 1.0,
                                  self.grid)

    def test_multiplicative_model_rejected(self):
        model = landau_model(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="additive"):
            shift_coupling_verify(model, TEST_FUNCTIONS["const"], [0.1, 0, 0],
                                  np.zeros((8, 3)), 2.0, TimeGrid(0, 1, 10))


class TestIntegrationByParts:
    model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
    grid = TimeGrid(0.0, 1.0, 500)
    noise = NoiseSpec(seed=606, dim=1)
    x0 = EmpiricalMeasure.point_mass([0.0], 10_000).points

    @pytest.fixture(scope="class")
    def sample(self):
        """X_T and the weight of v = 1 for the paths from x0, shared by every f."""
        return ibp_weights(self.model, [1.0], self.x0, self.grid, self.noise)

    def test_constant_function_gives_zero_both_sides(self, sample):
        res = verify_ibp(lambda x: np.ones(x.shape[0]), lambda x: np.zeros_like(x), [1.0],
                         *sample)
        assert res.lhs == 0.0
        assert abs(res.rhs) <= 3 * res.rhs_se

    def test_linear_function_exact_lhs(self, sample):
        f, grad_f = IBP_FUNCTIONS["linear"]
        res = verify_ibp(f, grad_f, [1.0], *sample)
        assert res.lhs == pytest.approx(1.0)
        assert res.lhs_se == 0.0
        assert abs(res.z_score) <= 3.0

    def test_sin_function(self, sample):
        f, grad_f = IBP_FUNCTIONS["sin"]
        res = verify_ibp(f, grad_f, [1.0], *sample)
        assert abs(res.z_score) <= 3.0

    def test_brownian_closed_form(self):
        # b = 0: lhs = E[cos(W_1)] = e^{-1/2}; rhs must agree.
        model = linear_meanfield_model(0.0, 0.0, 1.0, dim=1)
        f, grad_f = IBP_FUNCTIONS["sin"]
        x0 = EmpiricalMeasure.point_mass([0.0], 20_000).points
        res = verify_ibp(f, grad_f, [1.0],
                         *ibp_weights(model, [1.0], x0, TimeGrid(0.0, 1.0, 200), self.noise))
        assert abs(res.lhs - math.exp(-0.5)) <= 3 * res.lhs_se
        assert abs(res.z_score) <= 3.0

    def test_landau_rejected(self):
        model = landau_model(0.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="additive"):
            ibp_weights(model, [1.0, 0, 0], np.zeros((8, 3)), TimeGrid(0, 1, 10),
                        NoiseSpec(seed=1, dim=3))


class TestPairedStandardErrors:
    """Each slack's SE, and the SE under the IBP z-score, is sd(psi, ddof=1)/sqrt(M)
    of the per-sample influence array psi written out here: the two sides come
    from one sample, so their fluctuations are differenced, not added in quadrature."""

    model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
    grid = TimeGrid(0.0, 1.0, 50)
    noise = NoiseSpec(seed=707, dim=1)
    f = staticmethod(TEST_FUNCTIONS["gauss_bump"])

    @pytest.fixture(scope="class")
    def x_t(self):
        return terminal_states(self.model, EmpiricalMeasure.point_mass([0.5], 300),
                               self.grid, self.noise)

    def test_log_harnack(self):
        sample = log_harnack_sample(self.model, EmpiricalMeasure.point_mass([0.0], 300),
                                    EmpiricalMeasure.point_mass([1.0], 300), self.grid,
                                    self.noise)
        res = verify_log_harnack(sample, self.f, self.model, self.grid)
        fx = self.f(sample.x_terminal)
        psi = fx / fx.mean() - np.exp(sample.log_r) * np.log(fx)
        assert res.slack_se == pytest.approx(mean_se(psi)[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("v", [0.3, -0.8])
    def test_shift_power_form(self, v, x_t):
        p = 2.0
        res = shift_coupling_verify(self.model, self.f, [v], x_t, p, self.grid)
        fx, fxv = self.f(x_t), self.f(x_t + v)
        psi = res.constant * fxv ** p - p * fx.mean() ** (p - 1.0) * fx
        assert res.slack_se == pytest.approx(mean_se(psi)[1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("v", [0.0, 0.5])
    def test_shift_log_form(self, v, x_t):
        res = shift_coupling_verify(self.model, self.f, [v], x_t, 2.0, self.grid,
                                    log_form=True)
        fx, fxv = self.f(x_t), self.f(x_t + v)
        psi = fxv / fxv.mean() - np.log(fx)
        assert res.slack_se == pytest.approx(mean_se(psi)[1], rel=1e-12, abs=0.0)
        if v == 0.0:  # both sides are functions of the same f(X_T): the pairing cancels
            assert res.slack_se < math.hypot(res.lhs_se, res.rhs_se)

    @pytest.mark.parametrize("name", sorted(IBP_FUNCTIONS))
    def test_ibp(self, name):
        f, grad_f = IBP_FUNCTIONS[name]
        x0 = EmpiricalMeasure.point_mass([0.0], 300).points
        x_t, weight = ibp_weights(self.model, [1.0], x0, self.grid, self.noise)
        res = verify_ibp(f, grad_f, [1.0], x_t, weight)
        psi = grad_f(x_t)[:, 0] - f(x_t) * weight
        assert res.z_score == pytest.approx((res.lhs - res.rhs) / mean_se(psi)[1],
                                            rel=1e-12, abs=0.0)


    def test_se_of_a_large_finite_psi(self):
        # _se scales psi by a power of two: an SE that does not overflow keeps the bits of
        # sd(psi, ddof=1)/sqrt(M), and a psi whose squares overflow still has its SE.
        psi = np.random.default_rng(5).lognormal(size=500)
        assert _se(psi) == float(np.std(psi, ddof=1) / np.sqrt(len(psi)))
        assert _se(psi * 2.0 ** 900) == _se(psi) * 2.0 ** 900


class TestCheck:
    @pytest.mark.parametrize("identity", [False, True])
    def test_a_value_or_se_that_is_not_finite_fails(self, identity):
        assert Check(0.0, 1.0, identity).ok
        for value, se in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)):
            assert not Check(value, se, identity).ok


class TestDensityBounds:
    def test_et1_vanishing_gradient(self):
        assert density_bound_rhs("ET1", 2.0, 0.0, 1.0, 1.0, 0.0, 3) == 0.0

    def test_et1_constant_closed_form(self):
        # integrand (r-s)^2 lam^2 g^2: integral = lam^2 g^2 span^3 / 3
        p, s, t, lam, g, d = 3.0, 0.5, 2.0, 1.2, 0.7, 3
        span = t - s
        base = max(1.0, p * (p - 1) / 2.0) / span ** 2 * (lam * g) ** 2 * span ** 3 / 3.0
        want = base ** (p / 2.0 * min(1.0, 1.0 / (p - 1.0)))
        got = density_bound_rhs("ET1", p, s, t, lam, g, d)
        assert got == pytest.approx(want, abs=1e-10)

    def test_et2_constant_closed_form(self):
        p, s, t, lam, g, d = 2.0, 0.0, 1.0, 1.1, 0.4, 3
        integral = lam ** 2 * (1.0 + (t ** 2 / 2.0 - s) * 0.0)  # placeholder
        # direct evaluation: int lam^2 (1 + r g)^2 dr over [0, 1]
        integral = lam ** 2 * (1.0 + g + g * g / 3.0)
        sp = math.sqrt(p)
        base = p * sp * integral / (4 * math.pi * (p - 1) * (sp + 1) * (t - s) ** 2)
        want = base ** (d / (2 * (p - 1)))
        got = density_bound_rhs("ET2", p, s, t, lam, g, d)
        assert got == pytest.approx(want, abs=1e-10)

    def test_et3_constant_closed_form(self):
        p, lam, t, d = 2.0, 1.0, 1.0, 3
        want = d / 2.0 * math.log(lam ** 2 / (4 * math.pi * (math.sqrt(p) + 1) * t))
        got = density_bound_rhs("ET3", p, 0.0, t, lam, 0.0, d)
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("a_coef, s, t", [(1.3, 0.5, 2.0), (0.0, 0.5, 2.0),
                                              (0.7, 0.0, 1.0)])
    def test_gradient_cost_closed_form_matches_quadrature(self, a_coef, s, t):
        from scipy.integrate import quad
        model = linear_meanfield_model(a_coef, 0.0, 0.8, dim=1)  # B0 = |a|, lambda = 1/0.8
        lam, gb = model.bounds.lambda_, model.bounds.B0
        want, _ = quad(lambda r: lam ** 2 * (1.0 + (r - s) * gb) ** 2, s, t)
        assert _gradient_cost_integral(lam, gb, t - s) == pytest.approx(want, rel=1e-13)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            density_bound_rhs("ET1", 1.0, 0.0, 1.0, 1.0, 1.0, 3)
        with pytest.raises(ValueError):
            density_bound_rhs("ET2", 0.5, 0.0, 1.0, 1.0, 1.0, 3)
        with pytest.raises(ValueError, match="kind"):
            density_bound_rhs("ET4", 2.0, 0.0, 1.0, 1.0, 1.0, 3)


class TestHarnackCorollaries:
    def test_total_variation_bound(self):
        # ||P mu - P nu||_var <= sqrt(2 phi) W2(mu, nu), checked on binned
        # terminal histograms with binning slack.
        model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
        grid = TimeGrid(0.0, 1.0, 400)
        m = 8000
        mu0 = EmpiricalMeasure.point_mass([0.0], m)
        nu0 = EmpiricalMeasure.point_mass([0.5], m)
        x_t = evolve_states(model, mu0.points.copy(), 0.0, grid.n_steps, grid.dt,
                            NoiseSpec(seed=708, dim=1))
        y_t = evolve_states(model, nu0.points.copy(), 0.0, grid.n_steps, grid.dt,
                            NoiseSpec(seed=709, dim=1))
        bins = np.linspace(-4.0, 5.0, 41)
        p_hist, _ = np.histogram(x_t[:, 0], bins=bins)
        q_hist, _ = np.histogram(y_t[:, 0], bins=bins)
        tv = 0.5 * np.abs(p_hist / m - q_hist / m).sum()
        b = model.bounds
        bound = math.sqrt(2.0 * phi(0.0, 1.0, b.lambda_, b.kappa1, b.kappa2)) * 0.5
        assert tv <= bound + 0.1

    def test_gradient_bound(self):
        # |grad P_T f|^2 <= 2 phi (P_T f^2 - (P_T f)^2) via finite differences
        # of nearby starting points under synchronous noise.
        model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
        grid = TimeGrid(0.0, 1.0, 400)
        m = 8000
        noise = NoiseSpec(seed=710, dim=1)
        f = np.tanh
        x_a = evolve_states(model, np.full((m, 1), 0.0), 0.0, grid.n_steps, grid.dt, noise)
        x_b = evolve_states(model, np.full((m, 1), 0.25), 0.0, grid.n_steps, grid.dt, noise)
        pf_a, se_a = mean_se(f(x_a[:, 0]))
        pf_b, se_b = mean_se(f(x_b[:, 0]))
        fd_grad = abs(pf_b - pf_a) / 0.25
        var_a = float(np.var(f(x_a[:, 0])))
        var_b = float(np.var(f(x_b[:, 0])))
        b = model.bounds
        phi_val = phi(0.0, 1.0, b.lambda_, b.kappa1, b.kappa2)
        bound_sq = 2.0 * phi_val * (max(var_a, var_b) + 3 * (se_a + se_b))
        assert fd_grad ** 2 <= bound_sq + 0.05


class TestCoupledPairs:
    MODEL = linear_meanfield_model(1.0, 0.0, 1.0, dim=2)

    def test_exact_pairing_small(self):
        rng = np.random.default_rng(3)
        mu = EmpiricalMeasure(rng.normal(size=(32, 2)))
        nu = EmpiricalMeasure(rng.normal(size=(32, 2)) + 1.0)
        x0, y0, _ = coupled_pairs_from_measures(self.MODEL, mu, nu, 0)
        paired = float(np.mean(np.sum((x0 - y0) ** 2, axis=1)))
        assert paired == pytest.approx(wasserstein(mu, nu, theta=2.0) ** 2, rel=1e-9)

    def test_exact_pairing_not_a_translate(self):
        # Past the old 512-point limit, and nu is no translate of mu: an index
        # pairing would overstate W2^2 several times over.
        rng = np.random.default_rng(5)
        mu = EmpiricalMeasure(rng.normal(size=(600, 2)))
        nu = EmpiricalMeasure(rng.normal(size=(600, 2)) * [2.0, 0.5] + 1.0)
        x0, y0, _ = coupled_pairs_from_measures(self.MODEL, mu, nu, 0)
        paired = float(np.mean(np.sum((x0 - y0) ** 2, axis=1)))
        assert paired == pytest.approx(wasserstein(mu, nu, theta=2.0) ** 2, rel=1e-9)

    def test_simulate_coupled_reproducible(self):
        model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
        grid = TimeGrid(0.0, 0.5, 100)
        x0, y0 = delta_pairs(0.0, 0.7, 128)
        a = simulate_coupled(model, x0, y0, grid, NoiseSpec(seed=9, dim=1))
        b = simulate_coupled(model, x0, y0, grid, NoiseSpec(seed=9, dim=1))
        assert np.array_equal(a.log_r, b.log_r)
        assert np.array_equal(a.x_terminal, b.x_terminal)
