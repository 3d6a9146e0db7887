import numpy as np
import pytest

from ddsde.measure import EmpiricalMeasure
from ddsde.models import CoefficientModel, ModelBounds, landau_model, linear_meanfield_model
from ddsde.rng import NoiseSpec
from ddsde.sde import (
    NumericalBlowupError,
    TimeGrid,
    apply_sigma,
    euler_maruyama,
    synchronous_pair,
)
from ddsde.solver import LawCurve, particle_solve

from helpers import fit_slope


def make_model(drift, diffusion, dim=1, **kwargs):
    defaults = dict(
        name="custom", dim=dim, drift=drift, diffusion=diffusion,
        additive_noise=False, invertible_sigma=False, distribution_free_sigma=True,
        bounds=ModelBounds(),
    )
    defaults.update(kwargs)
    return CoefficientModel(**defaults)


def constant_law(point, n, grid):
    return LawCurve.constant(EmpiricalMeasure.point_mass(point, n), grid)


def test_grid_nodes_exact():
    grid = TimeGrid(0.5, 1.5, 10)
    assert grid.dt == 0.1
    nodes = grid.nodes
    assert np.array_equal(nodes, 0.5 + np.arange(11) * grid.dt)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)


def test_zero_coefficients_keep_paths_constant():
    model = make_model(lambda t, x, mu: np.zeros_like(x),
                       lambda t, x, mu: np.zeros((1, 1)))
    grid = TimeGrid(0.0, 1.0, 100)
    noise = NoiseSpec(seed=1, dim=1)
    ens = euler_maruyama(model, constant_law([0.0], 4, grid), np.full((4, 1), 2.5),
                         grid, noise)
    assert np.all(ens.paths == 2.5)


def test_deterministic_ode_first_order_convergence():
    # b(x) = -x, sigma = 0: terminal e^{-1}; the error halves with dt.
    model = make_model(lambda t, x, mu: -x, lambda t, x, mu: np.zeros((1, 1)))
    noise = NoiseSpec(seed=3, dim=1)
    errs = []
    for n_steps in (100, 200):
        grid = TimeGrid(0.0, 1.0, n_steps)
        ens = euler_maruyama(model, constant_law([0.0], 1, grid),
                             np.array([[1.0]]), grid, noise)
        errs.append(abs(ens.terminal[0, 0] - np.exp(-1.0)))
    assert errs[0] < 0.01
    assert 1.7 < errs[0] / errs[1] < 2.3


def test_brownian_terminal_variance():
    model = make_model(lambda t, x, mu: np.zeros_like(x),
                       lambda t, x, mu: np.eye(2), dim=2)
    grid = TimeGrid(0.0, 1.0, 200)
    noise = NoiseSpec(seed=8, dim=2)
    m = 10_000
    ens = euler_maruyama(model, constant_law([0.0, 0.0], 4, grid),
                         np.zeros((m, 2)), grid, noise)
    var = ens.terminal.var(axis=0)
    # se of the sample variance of a unit normal is about sqrt(2/M)
    assert np.all(np.abs(var - 1.0) < 3 * np.sqrt(2.0 / m))


def test_ensemble_is_pure_function_of_inputs():
    model = linear_meanfield_model(1.0, 0.5, 0.4, dim=2)
    grid = TimeGrid(0.0, 0.5, 50)
    noise = NoiseSpec(seed=77, dim=2)
    law = constant_law([0.0, 0.0], 8, grid)
    init = np.arange(16.0).reshape(8, 2)
    a = euler_maruyama(model, law, init, grid, noise)
    b = euler_maruyama(model, law, init, grid, noise)
    assert np.array_equal(a.paths, b.paths)


def test_flow_property_restart_is_bitwise():
    # Simulating [0, T] equals [0, T/2] then restarting with matching streams.
    model = linear_meanfield_model(1.2, 0.0, 0.5, dim=1)
    noise = NoiseSpec(seed=15, dim=1)
    full = TimeGrid(0.0, 1.0, 100)
    law_full = constant_law([0.0], 4, full)
    ens = euler_maruyama(model, law_full, np.ones((4, 1)), full, noise)

    first = TimeGrid(0.0, 0.5, 50)
    ens1 = euler_maruyama(model, constant_law([0.0], 4, first), np.ones((4, 1)),
                          first, noise)
    second = TimeGrid(0.5, 1.0, 50)
    ens2 = euler_maruyama(model, constant_law([0.0], 4, second),
                          ens1.terminal, second, noise.with_step_offset(50))
    assert np.array_equal(ens.paths[:, 50:, :], ens2.paths)


def test_synchronous_pair_identical_inputs():
    model = linear_meanfield_model(1.0, 0.3, 0.7, dim=1)
    grid = TimeGrid(0.0, 1.0, 100)
    noise = NoiseSpec(seed=4, dim=1)
    law = constant_law([0.0], 6, grid)
    init = np.linspace(-1, 1, 6)[:, None]
    ex, ey = synchronous_pair(model, law, law, init, init, grid, noise)
    assert np.array_equal(ex.paths, ey.paths)


def test_synchronous_pair_linear_gap_decays_deterministically():
    # b(x) = -x with shared noise: the gap follows the ODE, noise cancels.
    model = linear_meanfield_model(1.0, 0.0, 1.0, dim=1)
    grid = TimeGrid(0.0, 1.0, 1000)
    noise = NoiseSpec(seed=5, dim=1)
    law = constant_law([0.0], 8, grid)
    init_x = np.zeros((8, 1))
    init_y = np.ones((8, 1))
    ex, ey = synchronous_pair(model, law, law, init_x, init_y, grid, noise)
    gap = np.abs(ex.paths - ey.paths)[:, -1, 0]
    assert np.allclose(gap, np.exp(-1.0), atol=2e-3)


def test_synchronous_pair_landau_maxwell_gap_exponent_within_bound():
    model = landau_model(0.0, 1.0, 1.0)
    grid = TimeGrid(0.0, 0.25, 250)
    noise = NoiseSpec(seed=6, dim=3)
    rng = np.random.default_rng(0)
    mu_pts = rng.normal(size=(128, 3))
    nu_pts = 1.3 * rng.normal(size=(128, 3)) + np.array([0.7, 0.0, 0.0])
    law_x, _ = particle_solve(model, EmpiricalMeasure(mu_pts), grid, noise.substream(1))
    law_y, _ = particle_solve(model, EmpiricalMeasure(nu_pts), grid, noise.substream(2))
    ex, ey = synchronous_pair(model, law_x, law_y, mu_pts, nu_pts, grid, noise)
    gap_sq = ((ex.paths - ey.paths) ** 2).sum(axis=2).mean(axis=0)
    slope = fit_slope(grid.nodes, np.log(gap_sq))
    assert slope <= 8.0 + 0.5


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_blowup_reports_location():
    model = make_model(lambda t, x, mu: x ** 3, lambda t, x, mu: np.zeros((1, 1)))
    grid = TimeGrid(0.0, 1.0, 100)
    noise = NoiseSpec(seed=2, dim=1)
    init = np.array([[0.0], [30.0]])
    with pytest.raises(NumericalBlowupError) as err:
        euler_maruyama(model, constant_law([0.0], 2, grid), init, grid, noise)
    assert err.value.trajectory == 1
    assert err.value.step >= 1


def test_state_radius_guard():
    model = landau_model(0.5, 1.0, 1.0, state_radius=0.5)
    grid = TimeGrid(0.0, 0.1, 10)
    noise = NoiseSpec(seed=9, dim=3)
    init = np.full((4, 3), 2.0)
    with pytest.raises(NumericalBlowupError, match="radius guard"):
        euler_maruyama(model, constant_law([0.0, 0.0, 0.0], 4, grid), init, grid, noise)


def test_nearby_starts_stay_close_in_supremum():
    # Joint-continuity probe: the probability that the pathwise supremum of
    # |X - Y| exceeds a fixed threshold vanishes as the starts approach.
    model = landau_model(0.0, 1.0, 1.0)
    grid = TimeGrid(0.0, 0.5, 250)
    noise = NoiseSpec(seed=44, dim=3)
    rng = np.random.default_rng(10)
    base = rng.normal(size=(128, 3))
    law, _ = particle_solve(model, EmpiricalMeasure(base), grid, noise.substream(3))
    exceed = []
    for eps0 in (0.5, 0.05, 0.005):
        shift = np.zeros(3)
        shift[0] = eps0
        ex, ey = synchronous_pair(model, law, law, base, base + shift, grid, noise)
        sup_gap = np.linalg.norm(ex.paths - ey.paths, axis=2).max(axis=1)
        exceed.append(float(np.mean(sup_gap >= 0.5)))
    assert exceed[-1] == 0.0
    assert exceed[0] >= exceed[1] >= exceed[2]


def test_paths_are_immutable():
    model = linear_meanfield_model(1.0, 0.0, 0.5, dim=1)
    grid = TimeGrid(0.0, 0.1, 10)
    noise = NoiseSpec(seed=45, dim=1)
    ens = euler_maruyama(model, constant_law([0.0], 4, grid), np.zeros((4, 1)),
                         grid, noise)
    with pytest.raises(ValueError):
        ens.paths[0, 0, 0] = 1.0


def test_law_grid_mismatch_rejected():
    model = linear_meanfield_model(1.0, 0.0, 1.0, dim=1)
    noise = NoiseSpec(seed=1, dim=1)
    grid = TimeGrid(0.0, 1.0, 100)
    law = constant_law([0.0], 4, TimeGrid(0.0, 1.0, 50))
    with pytest.raises(ValueError, match="grid"):
        euler_maruyama(model, law, np.zeros((4, 1)), grid, noise)


@pytest.mark.parametrize("m", [1, 256, 100_000])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_apply_sigma_matches_matmul_bitwise(d, m):
    rng = np.random.default_rng(10 * d + m)
    dw = rng.standard_normal((m, d))
    shared = rng.standard_normal((d, d))
    assert apply_sigma(shared, dw).tobytes() == (dw @ shared.T).tobytes()
    stacked = rng.standard_normal((m, d, d))
    reference = np.einsum("mij,mj->mi", stacked, dw)
    assert apply_sigma(stacked, dw).tobytes() == reference.tobytes()
