import json

import numpy as np
import pytest

from ddsde import solver
from ddsde.measure import EmpiricalMeasure, wasserstein
from ddsde.models import landau_model, linear_meanfield_model
from ddsde.rng import NoiseSpec, normal_block
from ddsde.sde import TimeGrid
from ddsde.solver import (
    InvariantSearchError,
    LawCurve,
    estimate_contraction,
    find_invariant,
    moment_curve,
    particle_solve,
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
        assert np.array_equal(report.iterates[1].states, report.iterates[2].states)

    def test_linear_mean_matches_ode(self):
        model = linear_meanfield_model(2.0, 1.0, 0.2, dim=1)
        mu0 = EmpiricalMeasure.point_mass([1.0], 512)
        grid = TimeGrid(0.0, 1.0, 1000)
        report = picard_solve(model, mu0, grid, NoiseSpec(seed=3, dim=1),
                              max_iter=10, tol=1e-4)
        assert report.converged
        terminal = report.iterates[-1].measure_at(grid.n_steps)
        m, se = mean_se(terminal.points[:, 0])
        assert abs(m - np.exp(-1.0)) < max(3 * se, 5 * grid.dt)

    def test_geometric_decay_on_short_horizon(self):
        model = linear_meanfield_model(2.0, 1.0, 0.2, dim=1)
        mu0 = gaussian_measure(256, 1, seed=5)
        grid = TimeGrid(0.0, 0.5, 500)
        report = picard_solve(model, mu0, grid, NoiseSpec(seed=6, dim=1),
                              max_iter=7, tol=1e-15)
        assert not report.diverging
        assert report.geometric_applicable
        ratios = report.delta_ratios()
        assert len(ratios) >= 5
        assert np.all(ratios[:5] <= np.exp(-1.0) + 0.15)

    def test_divergence_reported_with_trace(self):
        # Repulsive drift (a < 0) with strong interaction: the iteration map
        # expands on this horizon, so deltas must grow and be reported.
        model = linear_meanfield_model(-1.0, 3.0, 0.1, dim=1)
        mu0 = gaussian_measure(64, 1, seed=7)
        grid = TimeGrid(0.0, 1.5, 150)
        report = picard_solve(model, mu0, grid, NoiseSpec(seed=8, dim=1),
                              max_iter=12, tol=1e-12)
        assert report.diverging
        assert not report.converged
        assert len(report.deltas) >= 4
        assert report.deltas[-1] > report.deltas[-4]

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

    def test_chain_converges_where_full_horizon_diverges(self):
        # Horizon splitting: the expanding model diverges on [0, 1.5] but each
        # quarter-length window sits inside the contraction regime.
        from ddsde.solver import picard_chain

        model = linear_meanfield_model(-1.0, 3.0, 0.1, dim=1)
        mu0 = gaussian_measure(64, 1, seed=52)
        grid = TimeGrid(0.0, 1.5, 150)
        noise = NoiseSpec(seed=53, dim=1)
        full = picard_solve(model, mu0, grid, noise, max_iter=12, tol=1e-3)
        assert full.diverging
        reports = picard_chain(model, mu0, grid, noise, windows=6,
                               max_iter=60, tol=1e-3)
        assert all(r.converged for r in reports)

    def test_chain_window_validation(self):
        from ddsde.solver import picard_chain

        model = linear_meanfield_model(1.0, 0.0, 0.1, dim=1)
        with pytest.raises(ValueError, match="divide"):
            picard_chain(model, gaussian_measure(8, 1, seed=1),
                         TimeGrid(0.0, 1.0, 100), NoiseSpec(seed=1, dim=1), windows=7)

    def test_theta_below_two_with_law_dependent_sigma_flagged(self):
        model = landau_model(0.0, 1.0, 1.0)  # sigma reads the law
        mu0 = gaussian_measure(16, 3, seed=9)
        grid = TimeGrid(0.0, 0.1, 10)
        report = picard_solve(model, mu0, grid, NoiseSpec(seed=10, dim=3),
                              max_iter=2, tol=1e-9, theta=1.0)
        assert not report.geometric_applicable

    def test_tolerance_validation(self):
        model = linear_meanfield_model(1.0, 0.0, 1.0, dim=1)
        with pytest.raises(ValueError):
            picard_solve(model, gaussian_measure(8, 1, seed=1),
                         TimeGrid(0.0, 0.1, 10), NoiseSpec(seed=1, dim=1), tol=0.0)


def brute_force_deltas(report, theta):
    """sup over nodes of exact W_theta between successive iterates, node by node."""
    return [
        max(wasserstein(cur.measure_at(k), prev.measure_at(k), theta=theta)
            for k in range(cur.grid.n_nodes))
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


class TestParticle:
    def test_mean_matches_ode_at_large_n(self):
        model = linear_meanfield_model(2.0, 1.0, 0.2, dim=1)
        mu0 = EmpiricalMeasure.point_mass([1.0], 2000)
        grid = TimeGrid(0.0, 1.0, 1000)
        _, ens = particle_solve(model, mu0, grid, NoiseSpec(seed=11, dim=1), 2000)
        m, se = mean_se(ens.terminal[:, 0])
        assert abs(m - np.exp(-1.0)) < max(3 * se, 5 * grid.dt)

    def test_no_interaction_particles_uncorrelated(self):
        model = landau_model(0.0, 0.0, 0.0)
        mu0 = gaussian_measure(2000, 3, seed=12)
        grid = TimeGrid(0.0, 0.5, 100)
        _, ens = particle_solve(model, mu0, grid, NoiseSpec(seed=13, dim=3), 2000)
        first = ens.terminal[0::2, 0]
        second = ens.terminal[1::2, 0]
        rho = np.corrcoef(first, second)[0, 1]
        assert abs(rho) < 3.0 / np.sqrt(len(first))

    def test_agrees_with_picard(self):
        model = linear_meanfield_model(2.0, 1.0, 0.2, dim=1)
        mu0 = EmpiricalMeasure.point_mass([1.0], 512)
        grid = TimeGrid(0.0, 1.0, 1000)
        noise = NoiseSpec(seed=14, dim=1)
        law_p, _ = particle_solve(model, mu0, grid, noise, 512)
        report = picard_solve(model, mu0, grid, noise, max_iter=10, tol=1e-4)
        w2 = wasserstein(law_p.measure_at(grid.n_steps),
                         report.iterates[-1].measure_at(grid.n_steps), theta=2.0)
        assert w2 <= 0.05

    def test_agrees_with_picard_landau(self):
        # cross-validation of the two solution routes on the Landau model
        model = landau_model(0.0, 1.0, 1.0)
        mu0 = gaussian_measure(512, 3, seed=40)
        grid = TimeGrid(0.0, 0.25, 250)
        noise = NoiseSpec(seed=41, dim=3)
        law_p, _ = particle_solve(model, mu0, grid, noise, 512)
        report = picard_solve(model, mu0, grid, noise, max_iter=8, tol=1e-3)
        assert report.converged
        w2 = wasserstein(law_p.measure_at(grid.n_steps),
                         report.iterates[-1].measure_at(grid.n_steps), theta=2.0)
        assert w2 <= 0.05

    def test_needs_two_particles(self):
        model = linear_meanfield_model(1.0, 0.0, 1.0, dim=1)
        with pytest.raises(ValueError, match="N >= 2"):
            particle_solve(model, EmpiricalMeasure.point_mass([0.0], 1),
                           TimeGrid(0.0, 0.1, 10), NoiseSpec(seed=1, dim=1), 1)

    def test_semigroup_restart_bitwise(self):
        # Running [0, T] equals running [0, T/2] and restarting from the
        # midpoint ensemble with matched streams, node for node.
        model = linear_meanfield_model(1.0, 0.5, 0.5, dim=2)
        mu0 = gaussian_measure(64, 2, seed=15)
        noise = NoiseSpec(seed=16, dim=2)
        full = TimeGrid(0.0, 1.0, 200)
        law_full, ens_full = particle_solve(model, mu0, full, noise, 64)
        first = TimeGrid(0.0, 0.5, 100)
        _, ens1 = particle_solve(model, mu0, first, noise, 64)
        second = TimeGrid(0.5, 1.0, 100)
        mid = EmpiricalMeasure(ens1.terminal)
        _, ens2 = particle_solve(model, mid, second, noise.with_step_offset(100), 64)
        assert np.array_equal(ens_full.paths[:, 100:, :], ens2.paths)

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
            _, ens_mix = particle_solve(model, mixture0, grid, noise, n)
            _, ens_x = particle_solve(model, EmpiricalMeasure.point_mass([-2.0], half),
                                      grid, noise.substream(1), half)
            _, ens_y = particle_solve(model, EmpiricalMeasure.point_mass([2.0], half),
                                      grid, noise.substream(2), half)
            mixed_laws = EmpiricalMeasure(
                np.concatenate([ens_x.terminal, ens_y.terminal])
            )
            w2_vals.append(
                wasserstein(EmpiricalMeasure(ens_mix.terminal), mixed_laws, theta=2.0)
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
        rate = model.bounds.lipschitz_rate
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

        monkeypatch.setattr(solver, "em_step", no_step)
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


class TestInvariant:
    def test_ou_stationary_law(self):
        model = linear_meanfield_model(1.0, 0.0, 1.0, dim=1)
        mu_hat, residual = find_invariant(
            model, grid_step=2e-3, noise=NoiseSpec(seed=26, dim=1),
            n_particles=1000, burn_in=8.0, check_horizon=0.5, tol=0.06,
        )
        assert residual <= 0.06
        second = float((mu_hat.points ** 2).mean())
        assert abs(second - 0.5) < 0.05

    def test_deterministic_contraction_collapses_to_point(self):
        model = linear_meanfield_model(1.0, 0.0, 0.0, dim=1)
        mu_hat, residual = find_invariant(
            model, grid_step=1e-2, noise=NoiseSpec(seed=27, dim=1),
            n_particles=64, burn_in=20.0, check_horizon=1.0, tol=1e-6,
        )
        assert residual <= 1e-6
        assert np.abs(mu_hat.points).max() < 1e-6

    def test_landau_small_interaction_has_invariant(self):
        # 2(|alpha| + |beta|) + beta^2 = 0.2 < 1: dissipative regime.
        model = landau_model(0.0, 0.1, 0.0)
        mu_hat, residual = find_invariant(
            model, grid_step=5e-3, noise=NoiseSpec(seed=28, dim=3),
            n_particles=256, burn_in=6.0, check_horizon=0.5, tol=0.05,
        )
        assert residual <= 0.05

    def test_non_dissipative_rejected(self):
        model = landau_model(0.0, 1.0, 1.0)  # exponent +8
        with pytest.raises(ValueError, match="dissipat"):
            find_invariant(model, 1e-2, NoiseSpec(seed=29, dim=3), 32, 1.0, 0.5, 0.1)

    def test_non_convergence_reported(self):
        # A law translating at constant speed never stabilizes; the declared
        # bounds claim dissipativity so the search starts, then the residual
        # fails to decrease when the burn-in doubles.
        from ddsde.models import CoefficientModel, ModelBounds

        drifting = CoefficientModel(
            name="drifting", dim=1,
            drift=lambda t, x, mu: (1.0 + t) * np.ones_like(x),
            diffusion=lambda t, x, mu: 0.1 * np.eye(1),
            additive_noise=True, invertible_sigma=True,
            distribution_free_sigma=True,
            bounds=ModelBounds(C1=0.0, C2=1.0),
        )
        with pytest.raises(InvariantSearchError):
            find_invariant(drifting, 1e-2, NoiseSpec(seed=30, dim=1),
                           n_particles=128, burn_in=0.5, check_horizon=1.0, tol=1e-4)


class TestMomentCurve:
    def test_constant_paths(self):
        model = linear_meanfield_model(0.0, 0.0, 0.0, dim=2)
        mu0 = EmpiricalMeasure.point_mass([3.0, 4.0], 8)
        grid = TimeGrid(0.0, 1.0, 10)
        _, ens = particle_solve(model, mu0, grid, NoiseSpec(seed=31, dim=2), 8)
        curve = moment_curve(ens, 2.0)
        assert np.allclose(curve.per_node, 25.0)
        assert curve.sup_moment == pytest.approx(25.0)

    def test_brownian_second_moment(self):
        model = linear_meanfield_model(0.0, 0.0, 1.0, dim=3)
        mu0 = EmpiricalMeasure.point_mass([0.0, 0.0, 0.0], 4000)
        grid = TimeGrid(0.0, 1.0, 500)
        _, ens = particle_solve(model, mu0, grid, NoiseSpec(seed=32, dim=3), 4000)
        curve = moment_curve(ens, 2.0)
        se = np.sqrt(6.0 / 4000)  # Var of chi^2_3 is 6
        assert abs(curve.per_node[-1] - 3.0) < 3 * se

    def test_landau_moments_bounded_both_resolutions(self):
        model = landau_model(0.0, 1.0, 1.0)
        mu0 = gaussian_measure(128, 3, seed=33)
        for n_steps in (200, 400):
            grid = TimeGrid(0.0, 1.0, n_steps)
            _, ens = particle_solve(model, mu0, grid, NoiseSpec(seed=34, dim=3), 128)
            curve = moment_curve(ens, 2.0)
            assert np.isfinite(curve.per_node).all()
            assert curve.sup_moment < 50.0


class TestLawCurve:
    def test_export_and_load_roundtrip(self, tmp_path):
        model = linear_meanfield_model(1.0, 0.2, 0.5, dim=2)
        mu0 = gaussian_measure(16, 2, seed=35)
        grid = TimeGrid(0.0, 0.2, 4)
        law, _ = particle_solve(model, mu0, grid, NoiseSpec(seed=36, dim=2), 16)
        out = tmp_path / "law"
        law.export(out, theta=2.0, model_echo={"name": "linear_meanfield"})
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid"]["n_steps"] == 4
        assert manifest["theta"] == 2.0
        assert manifest["model"]["name"] == "linear_meanfield"
        assert len(manifest["files"]) == 5
        back = LawCurve.load(out)
        assert np.array_equal(back.states, law.states)

    def test_constant_curve_shares_memory(self):
        mu0 = gaussian_measure(8, 1, seed=37)
        law = LawCurve.constant(mu0, TimeGrid(0.0, 1.0, 1000))
        assert law.states.base is not None  # broadcast view, not a copy
