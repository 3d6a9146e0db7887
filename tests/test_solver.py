import gc
import itertools
import json
import math
import sys
from dataclasses import asdict

import numpy as np
import pytest

from ddsde import sde, solver
from ddsde.measure import EmpiricalMeasure, wasserstein
from ddsde.models import landau_model, linear_meanfield_model
from ddsde.rng import NoiseSpec, normal_block
from ddsde.sde import TimeGrid, euler_maruyama
from ddsde.solver import (
    ContractionEstimate,
    ContractResult,
    InvariantResult,
    PicardReport,
    PicardResult,
    estimate_contraction,
    evolve_states,
    find_invariant,
    moment_curve,
    picard_solve,
)

from helpers import mean_se


def gaussian_measure(n, d, seed, std=1.0, mean=0.0):
    pts = mean + std * normal_block(NoiseSpec(seed=seed, dim=d), np.arange(n), 0)
    return EmpiricalMeasure(pts)


class TestPicard:
    def test_law_free_model_fixes_after_one_iteration(self):
        # alpha = beta = 0: coefficients ignore the law, so iterate 2 equals
        # iterate 1 exactly (same streams) and the delta hits zero.
        model = landau_model(0.0, 0.0, 0.0)
        mu0 = gaussian_measure(32, 3, seed=1)
        grid = TimeGrid(0.0, 0.3, 60)
        report = picard_solve(model, mu0, grid, NoiseSpec(seed=2, dim=3),
                              max_iter=4, tol=1e-12)
        assert report.converged
        assert report.iterations_used == 2
        assert report.deltas[1] == 0.0
        assert np.array_equal(report.iterates[1], report.iterates[2])

    def test_linear_mean_matches_ode(self):
        model = linear_meanfield_model(2.0, 1.0, 0.2, dim=1)
        mu0 = EmpiricalMeasure.point_mass([1.0], 512)
        grid = TimeGrid(0.0, 1.0, 1000)
        report = picard_solve(model, mu0, grid, NoiseSpec(seed=3, dim=1),
                              max_iter=10, tol=1e-4)
        assert report.converged
        terminal = EmpiricalMeasure(report.iterates[-1][grid.n_steps])
        m, se = mean_se(terminal.points[:, 0])
        assert abs(m - np.exp(-1.0)) < max(3 * se, 5 * grid.dt)

    def test_geometric_decay_on_short_horizon(self):
        model = linear_meanfield_model(2.0, 1.0, 0.2, dim=1)
        mu0 = gaussian_measure(256, 1, seed=5)
        grid = TimeGrid(0.0, 0.5, 500)
        report = picard_solve(model, mu0, grid, NoiseSpec(seed=6, dim=1),
                              max_iter=7, tol=1e-15)
        deltas = np.asarray(report.deltas)
        ratios = deltas[1:] / deltas[:-1]
        assert len(ratios) >= 5
        assert np.all(ratios[:5] <= np.exp(-1.0) + 0.15)

    def test_divergence_reported_with_trace(self):
        # Repulsive drift (a < 0) with strong interaction: on this horizon the
        # deltas first grow (3.61 -> 11.14), then fall factorially; the run
        # uses every iteration and reports the whole trace unconverged.
        model = linear_meanfield_model(-1.0, 3.0, 0.1, dim=1)
        mu0 = gaussian_measure(64, 1, seed=7)
        grid = TimeGrid(0.0, 1.5, 150)
        report = picard_solve(model, mu0, grid, NoiseSpec(seed=8, dim=1),
                              max_iter=12, tol=1e-12)
        assert not report.converged
        assert report.iterations_used == len(report.deltas) == 12
        peak = int(np.argmax(report.deltas))
        assert 0 < peak < 11
        assert np.all(np.diff(report.deltas[:peak + 1]) > 0)
        assert np.all(np.diff(report.deltas[peak:]) < 0)

    def test_expanding_model_converges_after_deltas_rise(self):
        # Picard iteration in distribution converges on any finite horizon with
        # Lipschitz coefficients: the deltas decay like (C T)^n / n!.  Here
        # they rise three times in a row before they fall, and the run still
        # reaches tol (in 16 iterations).
        model = linear_meanfield_model(-1.0, 3.0, 0.1, dim=1)
        mu0 = gaussian_measure(64, 1, seed=52)
        grid = TimeGrid(0.0, 1.5, 150)
        report = picard_solve(model, mu0, grid, NoiseSpec(seed=53, dim=1),
                              max_iter=30, tol=1e-3)
        assert np.all(np.diff(report.deltas[:4]) > 0)
        assert report.converged

    def test_chain_single_window_matches_plain_solve(self):
        from ddsde.solver import picard_chain

        model = linear_meanfield_model(2.0, 1.0, 0.2, dim=1)
        mu0 = gaussian_measure(64, 1, seed=50)
        grid = TimeGrid(0.0, 0.5, 100)
        noise = NoiseSpec(seed=51, dim=1)
        plain = picard_solve(model, mu0, grid, noise, max_iter=6, tol=1e-6)
        chained = picard_chain(model, mu0, grid, noise, windows=1,
                               max_iter=6, tol=1e-6)
        assert len(chained) == 1
        assert chained[0].deltas == plain.deltas

    def test_chain_converges_where_full_horizon_has_not(self):
        # Horizon splitting: within 12 iterations the expanding model has not
        # converged on [0, 1.5], but each of six windows has, because a short
        # window's deltas fall from the first iteration.
        from ddsde.solver import picard_chain

        model = linear_meanfield_model(-1.0, 3.0, 0.1, dim=1)
        mu0 = gaussian_measure(64, 1, seed=52)
        grid = TimeGrid(0.0, 1.5, 150)
        noise = NoiseSpec(seed=53, dim=1)
        full = picard_solve(model, mu0, grid, noise, max_iter=12, tol=1e-3)
        assert not full.converged
        assert full.iterations_used == 12
        reports = picard_chain(model, mu0, grid, noise, windows=6,
                               max_iter=60, tol=1e-3)
        assert len(reports) == 6
        assert all(r.converged for r in reports)

    def test_chain_window_validation(self):
        from ddsde.solver import picard_chain

        model = linear_meanfield_model(1.0, 0.0, 0.1, dim=1)
        with pytest.raises(ValueError, match="divide"):
            picard_chain(model, gaussian_measure(8, 1, seed=1),
                         TimeGrid(0.0, 1.0, 100), NoiseSpec(seed=1, dim=1), windows=7)

    def test_tolerance_validation(self):
        model = linear_meanfield_model(1.0, 0.0, 1.0, dim=1)
        with pytest.raises(ValueError):
            picard_solve(model, gaussian_measure(8, 1, seed=1),
                         TimeGrid(0.0, 0.1, 10), NoiseSpec(seed=1, dim=1), tol=0.0)

    def test_iterate_zero_is_a_broadcast_view(self):
        # The constant curve at mu0 is mu0's points seen at every node, not n_nodes copies.
        mu0 = gaussian_measure(8, 1, seed=37)
        grid = TimeGrid(0.0, 1.0, 1000)
        report = picard_solve(linear_meanfield_model(1.0, 0.0, 1.0, dim=1), mu0, grid,
                              NoiseSpec(seed=38, dim=1), max_iter=1)
        first = report.iterates[0]
        assert first.shape == (grid.n_nodes, 8, 1) and first.strides[0] == 0
        assert np.shares_memory(first, mu0.points)


def brute_force_deltas(report, theta):
    """sup over nodes of exact W_theta between successive iterates, node by node."""
    return [
        max(wasserstein(EmpiricalMeasure(cur[k]), EmpiricalMeasure(prev[k]), theta=theta)
            for k in range(len(cur)))
        for prev, cur in zip(report.iterates, report.iterates[1:])
    ]


class TestPrunedSup:
    def test_landau_deltas_exact_with_fewer_solves(self, monkeypatch):
        model = landau_model(0.0, 1.0, 1.0)
        mu0 = gaussian_measure(48, 3, seed=42)
        grid = TimeGrid(0.0, 0.2, 20)
        calls = []
        plan = solver.transport_plan

        def counted(*args, **kwargs):
            calls.append(args)
            return plan(*args, **kwargs)

        monkeypatch.setattr(solver, "transport_plan", counted)
        report = picard_solve(model, mu0, grid, NoiseSpec(seed=43, dim=3),
                              max_iter=6, tol=1e-4)
        monkeypatch.undo()
        assert report.deltas == brute_force_deltas(report, 2.0)
        assert len(calls) < grid.n_nodes

    def test_linear_theta_one_deltas_exact(self):
        model = linear_meanfield_model(1.0, 1.0, 0.5, dim=2)
        mu0 = gaussian_measure(64, 2, seed=44)
        grid = TimeGrid(0.0, 0.5, 25)
        report = picard_solve(model, mu0, grid, NoiseSpec(seed=45, dim=2),
                              max_iter=6, tol=1e-4, theta=1.0)
        assert report.deltas == brute_force_deltas(report, 1.0)

    @pytest.mark.parametrize("theta", [1.0, 1.5, 2.0])
    def test_chunked_pairing_cost_is_the_one_shot_cost(self, theta):
        rng = np.random.default_rng(46)
        n_nodes = 2 * solver.PAIRING_CHUNK + 3  # a remainder chunk of 3 nodes
        for d in (3, 1):
            x = rng.standard_cauchy((n_nodes, 40, d))
            y = rng.normal(size=(n_nodes, 40, d))
            one_shot = np.mean(np.linalg.norm(x - y, axis=-1) ** theta, axis=-1)
            assert solver._pairing_cost(x, y, theta).tobytes() == one_shot.tobytes()
            assert solver._pairing_cost(x[5:6], y[5:6], theta)[0] == one_shot[5]


class TestParticle:
    def test_mean_matches_ode_at_large_n(self):
        model = linear_meanfield_model(2.0, 1.0, 0.2, dim=1)
        mu0 = EmpiricalMeasure.point_mass([1.0], 2000)
        grid = TimeGrid(0.0, 1.0, 1000)
        law = euler_maruyama(model, mu0.points, grid, NoiseSpec(seed=11, dim=1))
        m, se = mean_se(law[-1, :, 0])
        assert abs(m - np.exp(-1.0)) < max(3 * se, 5 * grid.dt)

    def test_no_interaction_particles_uncorrelated(self):
        model = landau_model(0.0, 0.0, 0.0)
        mu0 = gaussian_measure(2000, 3, seed=12)
        grid = TimeGrid(0.0, 0.5, 100)
        law = euler_maruyama(model, mu0.points, grid, NoiseSpec(seed=13, dim=3))
        first = law[-1, 0::2, 0]
        second = law[-1, 1::2, 0]
        rho = np.corrcoef(first, second)[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(len(first))

    def test_agrees_with_picard(self):
        model = linear_meanfield_model(2.0, 1.0, 0.2, dim=1)
        mu0 = EmpiricalMeasure.point_mass([1.0], 512)
        grid = TimeGrid(0.0, 1.0, 1000)
        noise = NoiseSpec(seed=14, dim=1)
        law_p = euler_maruyama(model, mu0.points, grid, noise)
        report = picard_solve(model, mu0, grid, noise, max_iter=10, tol=1e-4)
        w2 = wasserstein(EmpiricalMeasure(law_p[grid.n_steps]),
                         EmpiricalMeasure(report.iterates[-1][grid.n_steps]), theta=2.0)
        assert w2 <= 0.05

    def test_agrees_with_picard_landau(self):
        # cross-validation of the two solution routes on the Landau model
        model = landau_model(0.0, 1.0, 1.0)
        mu0 = gaussian_measure(512, 3, seed=40)
        grid = TimeGrid(0.0, 0.25, 250)
        noise = NoiseSpec(seed=41, dim=3)
        law_p = euler_maruyama(model, mu0.points, grid, noise)
        report = picard_solve(model, mu0, grid, noise, max_iter=8, tol=1e-3)
        assert report.converged
        w2 = wasserstein(EmpiricalMeasure(law_p[grid.n_steps]),
                         EmpiricalMeasure(report.iterates[-1][grid.n_steps]), theta=2.0)
        assert w2 <= 0.05

    def test_needs_two_particles(self):
        model = linear_meanfield_model(1.0, 0.0, 1.0, dim=1)
        with pytest.raises(ValueError, match="N >= 2"):
            euler_maruyama(model, np.zeros((1, 1)), TimeGrid(0.0, 0.1, 10),
                           NoiseSpec(seed=1, dim=1))

    def test_semigroup_restart_bitwise(self):
        # Running [0, T] equals running [0, T/2] and restarting from the
        # midpoint ensemble with matched streams, node for node.
        model = linear_meanfield_model(1.0, 0.5, 0.5, dim=2)
        mu0 = gaussian_measure(64, 2, seed=15)
        noise = NoiseSpec(seed=16, dim=2)
        full = TimeGrid(0.0, 1.0, 200)
        law_full = euler_maruyama(model, mu0.points, full, noise)
        first = TimeGrid(0.0, 0.5, 100)
        law1 = euler_maruyama(model, mu0.points, first, noise)
        second = TimeGrid(0.5, 1.0, 100)
        law2 = euler_maruyama(model, law1[-1], second, noise.with_step_offset(100))
        assert np.array_equal(law_full[100:], law2)

    def test_nonlinearity_witness(self):
        # The semigroup acts on measures: evolving the two-point mixture
        # differs from mixing the two single-point evolutions.
        model = linear_meanfield_model(1.0, 1.0, 0.3, dim=1)
        grid = TimeGrid(0.0, 1.0, 500)
        n = 256
        w2_vals = []
        for seed in range(6):
            noise = NoiseSpec(seed=100 + seed, dim=1)
            half = n // 2
            mixture0 = EmpiricalMeasure(
                np.concatenate([np.full((half, 1), -2.0), np.full((half, 1), 2.0)])
            )
            law_mix = euler_maruyama(model, mixture0.points, grid, noise)
            law_x = euler_maruyama(model, np.full((half, 1), -2.0), grid, noise.substream(1))
            law_y = euler_maruyama(model, np.full((half, 1), 2.0), grid, noise.substream(2))
            mixed_laws = EmpiricalMeasure(
                np.concatenate([law_x[-1], law_y[-1]])
            )
            w2_vals.append(
                wasserstein(EmpiricalMeasure(law_mix[grid.n_steps]), mixed_laws, theta=2.0)
            )
        m, se = mean_se(w2_vals)
        assert m > 5 * se
        assert m > 0.5  # the cluster means genuinely separate

    def test_lipschitz_flow_bound(self):
        # W2 of the flows grows no faster than e^{(kappa1 + kappa2) t}.
        model = linear_meanfield_model(1.0, 0.5, 0.4, dim=1)
        mu0 = gaussian_measure(256, 1, seed=17)
        nu0 = mu0.shifted([1.0])
        grid = TimeGrid(0.0, 1.0, 200)
        est = estimate_contraction(model, mu0, nu0, grid, NoiseSpec(seed=18, dim=1))
        rate = model.bounds.kappa1 + model.bounds.kappa2
        w2_0 = np.sqrt(est.w2_sq[0])
        bound = w2_0 * np.exp(rate * (est.times - est.times[0])) + 0.05
        assert np.all(np.sqrt(est.w2_sq) <= bound)


class TestContraction:
    def test_linear_rate(self):
        model = linear_meanfield_model(1.0, 0.0, 0.3, dim=1)
        mu0 = gaussian_measure(256, 1, seed=19)
        nu0 = mu0.shifted([1.0])
        grid = TimeGrid(0.0, 1.0, 500)
        est = estimate_contraction(model, mu0, nu0, grid, NoiseSpec(seed=20, dim=1))
        assert est.bound_rate == pytest.approx(-2.0)
        assert abs(est.empirical_rate + 2.0) < 0.1

    def test_identical_initials_merge(self):
        model = linear_meanfield_model(1.0, 0.0, 0.3, dim=1)
        mu0 = gaussian_measure(64, 1, seed=21)
        grid = TimeGrid(0.0, 0.2, 20)
        est = estimate_contraction(model, mu0, mu0, grid, NoiseSpec(seed=22, dim=1))
        assert est.empirical_rate == float("-inf")
        assert est.merge_time == 0.0
        assert np.all(est.w2_sq == 0.0)

    def test_unequal_laws_raise(self):
        model = linear_meanfield_model(1.0, 0.0, 0.3, dim=1)
        with pytest.raises(ValueError, match="size mismatch: 8 vs 4"):
            estimate_contraction(model, EmpiricalMeasure.point_mass([0.0], 8),
                                 EmpiricalMeasure.point_mass([1.0], 4),
                                 TimeGrid(0.0, 0.2, 20), NoiseSpec(seed=22, dim=1))

    def test_threaded_w2_curve_identical(self):
        model = landau_model(0.0, 0.5, 0.5)
        mu0 = gaussian_measure(64, 3, seed=23)
        nu0 = gaussian_measure(64, 3, seed=24, std=1.5)
        grid = TimeGrid(0.0, 0.2, 40)
        a = estimate_contraction(model, mu0, nu0, grid, NoiseSpec(seed=25, dim=3),
                                 threads=1)
        b = estimate_contraction(model, mu0, nu0, grid, NoiseSpec(seed=25, dim=3),
                                 threads=4)
        assert np.array_equal(a.w2_sq, b.w2_sq)
        assert a.empirical_rate == b.empirical_rate


    def test_bad_fit_window_rejected_before_stepping(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped before checking the fit window")

        monkeypatch.setattr(sde, "em_step", no_step)
        model = linear_meanfield_model(1.0, 0.0, 0.3, dim=1)
        mu0 = gaussian_measure(16, 1, seed=46)
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="fewer than two grid nodes"):
            estimate_contraction(model, mu0, mu0.shifted([1.0]), grid,
                                 NoiseSpec(seed=47, dim=1), fit_window=(0.42, 0.48))

    def test_w2_node_budget(self):
        model = linear_meanfield_model(1.0, 0.0, 0.3, dim=1)
        mu0 = gaussian_measure(64, 1, seed=48)
        grid = TimeGrid(0.0, 1.0, 500)
        est = estimate_contraction(model, mu0, mu0.shifted([1.0]), grid,
                                   NoiseSpec(seed=49, dim=1))
        assert len(est.times) <= solver.CONTRACT_FIT_NODES + 2
        assert len(est.times) == len(est.w2_sq)
        assert est.times[0] == grid.s
        assert est.times[-1] == grid.t_end
        assert np.isin(est.times, grid.nodes).all()


def standard_normal_start(noise, n):
    """The n-point standard-normal start of the invariant tests, on its own substream."""
    return normal_block(noise.substream(0xA11CE), np.arange(n), 0)


def four_segment_invariant(model, states, grid_step, noise, burn_in, check_horizon, tol):
    """find_invariant as four evolve_states segments on explicit step offsets,
    all four run; returns (mu_hat, residual, whether the burn-in doubled)."""
    burn, check = (max(1, round(h / grid_step)) for h in (burn_in, check_horizon))
    snaps = []
    for t0, offset, n_steps in [(0.0, 0, burn), (burn_in, burn, check),
                               (burn_in + check_horizon, burn + check, burn),
                               (2 * burn_in + check_horizon, 2 * burn + check, check)]:
        states = evolve_states(model, states, t0, n_steps, grid_step,
                               noise.with_step_offset(offset))
        snaps.append(EmpiricalMeasure(states))
    residual = wasserstein(snaps[0], snaps[1], theta=2.0)
    if residual <= tol:
        return snaps[0], residual, False
    return snaps[2], wasserstein(snaps[2], snaps[3], theta=2.0), True


class TestInvariant:
    @pytest.mark.parametrize("model, grid_step, n, burn_in, tol, doubles", [
        (linear_meanfield_model(1.0, 0.0, 1.0, dim=1), 1e-2, 256, 2.0, 0.15, False),
        (landau_model(0.0, 0.1, 0.0), 1e-2, 64, 2.0, 0.05, True),
        (linear_meanfield_model(1.0, 0.0, 0.0, dim=1), 1e-2, 64, 5.0, 1e-6, True),
    ], ids=["ou", "landau_doubles", "deterministic_doubles"])
    def test_one_stream_is_bitwise_the_four_offset_segments(self, model, grid_step, n,
                                                            burn_in, tol, doubles):
        noise = NoiseSpec(seed=50, dim=model.dim)
        args = (model, standard_normal_start(noise, n), grid_step, noise, burn_in, 0.5, tol)
        mu_hat, residual = find_invariant(*args)
        ref_mu, ref_residual, ref_doubles = four_segment_invariant(*args)
        assert ref_doubles == doubles
        assert mu_hat.points.tobytes() == ref_mu.points.tobytes()
        assert residual == ref_residual

    def test_ou_stationary_law(self):
        model = linear_meanfield_model(1.0, 0.0, 1.0, dim=1)
        noise = NoiseSpec(seed=26, dim=1)
        mu_hat, residual = find_invariant(
            model, standard_normal_start(noise, 1000), grid_step=2e-3, noise=noise,
            burn_in=8.0, check_horizon=0.5, tol=0.06,
        )
        assert residual <= 0.06
        second = float((mu_hat.points ** 2).mean())
        assert abs(second - 0.5) < 0.05

    def test_deterministic_contraction_collapses_to_point(self):
        model = linear_meanfield_model(1.0, 0.0, 0.0, dim=1)
        noise = NoiseSpec(seed=27, dim=1)
        mu_hat, residual = find_invariant(
            model, standard_normal_start(noise, 64), grid_step=1e-2, noise=noise,
            burn_in=20.0, check_horizon=1.0, tol=1e-6,
        )
        assert residual <= 1e-6
        assert np.abs(mu_hat.points).max() < 1e-6

    def test_landau_small_interaction_has_invariant(self):
        # 2(|alpha| + |beta|) + beta^2 = 0.2 < 1: dissipative regime.
        model = landau_model(0.0, 0.1, 0.0)
        noise = NoiseSpec(seed=28, dim=3)
        mu_hat, residual = find_invariant(
            model, standard_normal_start(noise, 256), grid_step=5e-3, noise=noise,
            burn_in=6.0, check_horizon=0.5, tol=0.05,
        )
        assert residual <= 0.05

    def test_non_dissipative_rejected(self):
        model = landau_model(0.0, 1.0, 1.0)  # exponent +8
        noise = NoiseSpec(seed=29, dim=3)
        with pytest.raises(ValueError, match="dissipat"):
            find_invariant(model, standard_normal_start(noise, 32), 1e-2, noise, 1.0, 0.5, 0.1)

    def test_non_convergence_reported(self):
        # A law translating at ever greater speed never stabilizes; the declared
        # bounds claim dissipativity so the search starts, then the residual
        # fails to decrease when the burn-in doubles, and the second snapshot
        # and its residual fail the verdict.
        from ddsde.models import CoefficientModel, ModelBounds

        drifting = CoefficientModel(
            name="drifting", dim=1,
            drift=lambda t, x, mu: (1.0 + t) * np.ones_like(x),
            diffusion=lambda t, x, mu: 0.1 * np.eye(1),
            additive_noise=True, invertible_sigma=True,
            distribution_free_sigma=True,
            bounds=ModelBounds(C1=0.0, C2=1.0),
        )
        noise = NoiseSpec(seed=30, dim=1)
        args = (drifting, standard_normal_start(noise, 128), 1e-2, noise, 0.5, 1.0, 1e-4)
        mu_hat, residual = find_invariant(*args)
        ref_mu, ref_residual, ref_doubles = four_segment_invariant(*args)
        assert ref_doubles
        assert mu_hat.points.tobytes() == ref_mu.points.tobytes()
        assert residual == ref_residual
        assert not InvariantResult.judge(mu_hat, residual, 1e-4).ok


class TestVerdicts:
    """Both sides of each exact verdict: a Check with SE 0 passes at equality."""

    @staticmethod
    def contract(empirical_rate, bound_rate, slope_tolerance=0.1):
        est = ContractionEstimate(empirical_rate, bound_rate, np.array([0.0, 0.5]),
                                  np.array([1.0, 0.5]))
        return ContractResult.judge(est, slope_tolerance)

    def test_contract_passes_up_to_the_tolerance(self):
        edge = -2.0 + 0.1
        assert self.contract(edge, -2.0).ok
        assert not self.contract(math.nextafter(edge, math.inf), -2.0).ok

    def test_contract_without_a_bound_rate_or_once_merged_passes(self):
        assert self.contract(5.0, None).ok
        merged = self.contract(-math.inf, -2.0)
        assert merged.ok
        assert asdict(merged) == {"empirical_rate": -math.inf, "bound_rate": -2.0,
                                  "slope_tolerance": 0.1, "merge_time": None}

    def test_bound_envelope_follows_the_bound_rate(self):
        times, w2_sq = np.array([0.1, 0.6]), np.array([2.0, 1.0])
        est = ContractionEstimate(-1.0, -2.0, times, w2_sq)
        assert np.array_equal(est.bound_envelope,
                              2.0 * np.array([math.exp(g) for g in -2.0 * (times - 0.1)]))
        flat = ContractionEstimate(-1.0, None, times, w2_sq)
        assert np.array_equal(flat.bound_envelope, [2.0, 2.0])

    def test_bound_envelope_is_inf_where_the_exponent_overflows(self):
        # log(DBL_MAX) ~ 709.78 is the last exponent math.exp takes without OverflowError
        edge = math.log(sys.float_info.max)
        times = np.array([0.0, edge, math.nextafter(edge, math.inf), 800.0])
        env = ContractionEstimate(0.5, 1.0, times, np.ones(4)).bound_envelope
        assert np.array_equal(env[:2], [1.0, math.exp(edge)])
        assert np.array_equal(env[2:], [math.inf, math.inf])

    def test_invariant_passes_up_to_tol(self):
        mu_hat = EmpiricalMeasure(np.array([[1.0], [-3.0]]))
        assert InvariantResult.judge(mu_hat, 0.05, 0.05).ok
        assert not InvariantResult.judge(mu_hat, math.nextafter(0.05, math.inf), 0.05).ok
        assert InvariantResult.judge(mu_hat, 0.0, 0.05).second_moment_per_coordinate == [5.0]

    @staticmethod
    def picard(last_deltas, tol=1e-3):
        curve = np.broadcast_to(np.array([[0.0], [2.0]]), (3, 2, 1))
        reports = [PicardReport([curve, curve], [0.5, delta], delta <= tol, 2)
                   for delta in last_deltas]
        return PicardResult.judge(reports, tol)

    def test_picard_fails_when_one_window_is_unconverged(self):
        edge = self.picard([1e-4, 1e-3, 1e-4])
        assert edge.ok and edge.converged
        assert edge.windows == 3 and edge.iterations_used == [2, 2, 2]
        assert edge.terminal_mean == [1.0]
        one_over = self.picard([1e-4, math.nextafter(1e-3, math.inf), 1e-4])
        assert not one_over.ok and not one_over.converged


class TestMomentCurve:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("model, mu0, n_steps", [
        (linear_meanfield_model(2.0, 1.0, 0.2, dim=1), gaussian_measure(300, 1, seed=38), 120),
        (landau_model(0.5, 1.0, 1.0), gaussian_measure(48, 3, seed=39), 20),
    ], ids=["linear_d1", "landau_gamma0.5_d3"])
    def test_streamed_curve_is_bitwise_the_stored_one(self, model, mu0, n_steps, p):
        grid = TimeGrid(0.0, 0.2, n_steps)
        noise = NoiseSpec(seed=40, dim=model.dim)
        law = euler_maruyama(model, mu0.points, grid, noise)
        steps = sde.em_path(model, mu0.points, grid.s, grid.dt, grid.n_steps, noise)
        streamed = moment_curve(itertools.chain([mu0.points], (x for *_, x in steps)), p)
        stored = moment_curve(law, p)
        paths = np.ascontiguousarray(law.transpose(1, 0, 2))  # (M, n_nodes, d)
        rp = np.linalg.norm(paths, axis=2) ** p  # the one-shot (M, n_nodes) estimate
        for curve in (streamed, stored):
            assert curve.per_node.tobytes() == rp.mean(axis=0).tobytes()
            assert curve.sup_moment == float(rp.max(axis=1).mean())
            assert curve.terminal.tobytes() == law[-1].tobytes()

    def test_constant_paths(self):
        model = linear_meanfield_model(0.0, 0.0, 0.0, dim=2)
        mu0 = EmpiricalMeasure.point_mass([3.0, 4.0], 8)
        grid = TimeGrid(0.0, 1.0, 10)
        law = euler_maruyama(model, mu0.points, grid, NoiseSpec(seed=31, dim=2))
        curve = moment_curve(law, 2.0)
        assert np.allclose(curve.per_node, 25.0)
        assert curve.sup_moment == pytest.approx(25.0)

    def test_brownian_second_moment(self):
        model = linear_meanfield_model(0.0, 0.0, 1.0, dim=3)
        mu0 = EmpiricalMeasure.point_mass([0.0, 0.0, 0.0], 4000)
        grid = TimeGrid(0.0, 1.0, 500)
        law = euler_maruyama(model, mu0.points, grid, NoiseSpec(seed=32, dim=3))
        curve = moment_curve(law, 2.0)
        se = np.sqrt(6.0 / 4000)  # Var of chi^2_3 is 6
        assert abs(curve.per_node[-1] - 3.0) < 3 * se

    def test_landau_moments_bounded_both_resolutions(self):
        model = landau_model(0.0, 1.0, 1.0)
        mu0 = gaussian_measure(128, 3, seed=33)
        for n_steps in (200, 400):
            grid = TimeGrid(0.0, 1.0, n_steps)
            law = euler_maruyama(model, mu0.points, grid, NoiseSpec(seed=34, dim=3))
            curve = moment_curve(law, 2.0)
            assert np.isfinite(curve.per_node).all()
            assert curve.sup_moment < 50.0


class TestExportLaw:
    def test_export_and_load_roundtrip(self, tmp_path):
        model = linear_meanfield_model(1.0, 0.2, 0.5, dim=2)
        mu0 = gaussian_measure(16, 2, seed=35)
        grid = TimeGrid(0.0, 0.2, 4)
        law = euler_maruyama(model, mu0.points, grid, NoiseSpec(seed=36, dim=2))
        out = tmp_path / "law"
        for _ in sde.export_law(out, grid, law, 2.0, {"name": "linear_meanfield"}):
            pass
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid"]["n_steps"] == 4
        assert manifest["theta"] == 2.0
        assert manifest["model"]["name"] == "linear_meanfield"
        assert len(manifest["files"]) == 5
        # The documented format: the manifest's files in node order, one point per row.
        back = np.stack([np.loadtxt(out / name, delimiter=",", ndmin=2)
                         for name in manifest["files"]])
        assert np.array_equal(back, law)

    def test_export_leaves_no_class_objects_behind(self, tmp_path):
        # np.savetxt defines a class on every call, which only the cyclic GC frees.
        grid = TimeGrid(0.0, 1.0, 999)
        nodes = np.zeros((grid.n_nodes, 2, 1))

        def classes():
            return sum(isinstance(obj, type) for obj in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = classes()
            for _ in sde.export_law(tmp_path / "law", grid, nodes, 2.0, {}):
                pass
            after = classes()
        finally:
            gc.enable()
        assert len(list((tmp_path / "law").glob("node_*.csv"))) == 1000
        assert after == before
