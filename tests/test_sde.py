import numpy as np
import pytest

from ddsde.measure import EmpiricalMeasure
from ddsde.models import CoefficientModel, ModelBounds, landau_model, linear_meanfield_model
from ddsde.rng import NoiseSpec
from ddsde.sde import (
    LawCurve,
    NumericalBlowupError,
    TimeGrid,
    apply_sigma,
    em_path,
    em_step,
    euler_maruyama,
)

from helpers import fit_slope, synchronous_pair


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
    ens = euler_maruyama(model, np.full((4, 1), 2.5), grid, noise,
                         law=constant_law([0.0], 4, grid))
    assert np.all(ens.states == 2.5)


def test_deterministic_ode_first_order_convergence():
    # b(x) = -x, sigma = 0: terminal e^{-1}; the error halves with dt.
    model = make_model(lambda t, x, mu: -x, lambda t, x, mu: np.zeros((1, 1)))
    noise = NoiseSpec(seed=3, dim=1)
    errs = []
    for n_steps in (100, 200):
        grid = TimeGrid(0.0, 1.0, n_steps)
        ens = euler_maruyama(model, np.array([[1.0]]), grid, noise,
                             law=constant_law([0.0], 1, grid))
        errs.append(abs(ens.states[-1, 0, 0] - np.exp(-1.0)))
    assert errs[0] < 0.01
    assert 1.7 < errs[0] / errs[1] < 2.3


def test_brownian_terminal_variance():
    model = make_model(lambda t, x, mu: np.zeros_like(x),
                       lambda t, x, mu: np.eye(2), dim=2)
    grid = TimeGrid(0.0, 1.0, 200)
    noise = NoiseSpec(seed=8, dim=2)
    m = 10_000
    ens = euler_maruyama(model, np.zeros((m, 2)), grid, noise,
                         law=constant_law([0.0, 0.0], 4, grid))
    var = ens.states[-1].var(axis=0)
    # se of the sample variance of a unit normal is about sqrt(2/M)
    assert np.all(np.abs(var - 1.0) < 3 * np.sqrt(2.0 / m))


def test_ensemble_is_pure_function_of_inputs():
    model = linear_meanfield_model(1.0, 0.5, 0.4, dim=2)
    grid = TimeGrid(0.0, 0.5, 50)
    noise = NoiseSpec(seed=77, dim=2)
    law = constant_law([0.0, 0.0], 8, grid)
    init = np.arange(16.0).reshape(8, 2)
    a = euler_maruyama(model, init, grid, noise, law=law)
    b = euler_maruyama(model, init, grid, noise, law=law)
    assert np.array_equal(a.states, b.states)


def test_flow_property_restart_is_bitwise():
    # Simulating [0, T] equals [0, T/2] then restarting with matching streams.
    model = linear_meanfield_model(1.2, 0.0, 0.5, dim=1)
    noise = NoiseSpec(seed=15, dim=1)
    full = TimeGrid(0.0, 1.0, 100)
    law_full = constant_law([0.0], 4, full)
    ens = euler_maruyama(model, np.ones((4, 1)), full, noise, law=law_full)

    first = TimeGrid(0.0, 0.5, 50)
    ens1 = euler_maruyama(model, np.ones((4, 1)), first, noise,
                          law=constant_law([0.0], 4, first))
    second = TimeGrid(0.5, 1.0, 50)
    ens2 = euler_maruyama(model, ens1.states[-1], second, noise.with_step_offset(50),
                          law=constant_law([0.0], 4, second))
    assert np.array_equal(ens.states[50:], ens2.states)


def test_synchronous_pair_identical_inputs():
    model = linear_meanfield_model(1.0, 0.3, 0.7, dim=1)
    grid = TimeGrid(0.0, 1.0, 100)
    noise = NoiseSpec(seed=4, dim=1)
    law = constant_law([0.0], 6, grid)
    init = np.linspace(-1, 1, 6)[:, None]
    ex, ey = synchronous_pair(model, law, law, init, init, grid, noise)
    assert np.array_equal(ex.states, ey.states)


def test_synchronous_pair_linear_gap_decays_deterministically():
    # b(x) = -x with shared noise: the gap follows the ODE, noise cancels.
    model = linear_meanfield_model(1.0, 0.0, 1.0, dim=1)
    grid = TimeGrid(0.0, 1.0, 1000)
    noise = NoiseSpec(seed=5, dim=1)
    law = constant_law([0.0], 8, grid)
    init_x = np.zeros((8, 1))
    init_y = np.ones((8, 1))
    ex, ey = synchronous_pair(model, law, law, init_x, init_y, grid, noise)
    gap = np.abs(ex.states - ey.states)[-1, :, 0]
    assert np.allclose(gap, np.exp(-1.0), atol=2e-3)


def test_synchronous_pair_landau_maxwell_gap_exponent_within_bound():
    model = landau_model(0.0, 1.0, 1.0)
    grid = TimeGrid(0.0, 0.25, 250)
    noise = NoiseSpec(seed=6, dim=3)
    rng = np.random.default_rng(0)
    mu_pts = rng.normal(size=(128, 3))
    nu_pts = 1.3 * rng.normal(size=(128, 3)) + np.array([0.7, 0.0, 0.0])
    law_x = euler_maruyama(model, mu_pts, grid, noise.substream(1))
    law_y = euler_maruyama(model, nu_pts, grid, noise.substream(2))
    ex, ey = synchronous_pair(model, law_x, law_y, mu_pts, nu_pts, grid, noise)
    gap_sq = ((ex.states - ey.states) ** 2).sum(axis=2).mean(axis=1)
    slope = fit_slope(grid.nodes, np.log(gap_sq))
    assert slope <= 8.0 + 0.5


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_blowup_reports_location():
    model = make_model(lambda t, x, mu: x ** 3, lambda t, x, mu: np.zeros((1, 1)))
    grid = TimeGrid(0.0, 1.0, 100)
    noise = NoiseSpec(seed=2, dim=1)
    init = np.array([[0.0], [30.0]])
    with pytest.raises(NumericalBlowupError) as err:
        euler_maruyama(model, init, grid, noise, law=constant_law([0.0], 2, grid))
    assert err.value.trajectory == 1
    assert err.value.step >= 1


def test_state_radius_guard():
    model = landau_model(0.5, 1.0, 1.0, state_radius=0.5)
    grid = TimeGrid(0.0, 0.1, 10)
    noise = NoiseSpec(seed=9, dim=3)
    init = np.full((4, 3), 2.0)
    with pytest.raises(NumericalBlowupError, match="radius guard"):
        euler_maruyama(model, init, grid, noise, law=constant_law([0.0, 0.0, 0.0], 4, grid))


def test_nearby_starts_stay_close_in_supremum():
    # Joint-continuity probe: the probability that the pathwise supremum of
    # |X - Y| exceeds a fixed threshold vanishes as the starts approach.
    model = landau_model(0.0, 1.0, 1.0)
    grid = TimeGrid(0.0, 0.5, 250)
    noise = NoiseSpec(seed=44, dim=3)
    rng = np.random.default_rng(10)
    base = rng.normal(size=(128, 3))
    law = euler_maruyama(model, base, grid, noise.substream(3))
    exceed = []
    for eps0 in (0.5, 0.05, 0.005):
        shift = np.zeros(3)
        shift[0] = eps0
        ex, ey = synchronous_pair(model, law, law, base, base + shift, grid, noise)
        sup_gap = np.linalg.norm(ex.states - ey.states, axis=2).max(axis=0)
        exceed.append(float(np.mean(sup_gap >= 0.5)))
    assert exceed[-1] == 0.0
    assert exceed[0] >= exceed[1] >= exceed[2]


def test_paths_are_immutable():
    model = linear_meanfield_model(1.0, 0.0, 0.5, dim=1)
    grid = TimeGrid(0.0, 0.1, 10)
    noise = NoiseSpec(seed=45, dim=1)
    ens = euler_maruyama(model, np.zeros((4, 1)), grid, noise,
                         law=constant_law([0.0], 4, grid))
    with pytest.raises(ValueError):
        ens.states[0, 0, 0] = 1.0


@pytest.mark.parametrize("dim", [1, 3])
def test_particle_system_stores_em_path_nodes_node_major(dim):
    model = linear_meanfield_model(1.0, 0.5, 0.4, dim=dim)
    grid = TimeGrid(0.0, 0.3, 30)
    noise = NoiseSpec(seed=46, dim=dim)
    init = np.linspace(-1.0, 1.0, 12 * dim).reshape(12, dim)
    law = euler_maruyama(model, init, grid, noise)
    assert law.states.shape == (grid.n_nodes, 12, dim)
    assert law.states.flags.c_contiguous and not law.states.flags.writeable
    streamed = [init] + [new for *_, new in em_path(model, init, grid.s, grid.dt,
                                                     grid.n_steps, noise)]
    assert law.states.tobytes() == np.stack(streamed).tobytes()


def test_em_path_steps_against_plain_points():
    # Step k's law is x_k itself, or node k of a frozen law curve's states, as an array.
    laws = []

    def drift(t, x, z):
        laws.append(z)
        return -x

    model = make_model(drift, lambda t, x, z: np.ones((1, 1)))
    grid = TimeGrid(0.0, 0.3, 3)
    noise = NoiseSpec(seed=47, dim=1)
    steps = list(em_path(model, np.zeros((4, 1)), grid.s, grid.dt, grid.n_steps, noise))
    assert [len(step) for step in steps] == [4] * grid.n_steps
    assert all(z is x for z, (_, x, _, _) in zip(laws, steps))
    frozen = LawCurve(grid, np.arange(16.0).reshape(4, 4, 1))
    laws.clear()
    for _ in em_path(model, np.zeros((4, 1)), grid.s, grid.dt, grid.n_steps, noise, frozen):
        pass
    assert all(type(z) is np.ndarray for z in laws)
    assert np.array_equal(np.stack(laws), frozen.states[:-1])


def test_law_grid_mismatch_rejected():
    model = linear_meanfield_model(1.0, 0.0, 1.0, dim=1)
    noise = NoiseSpec(seed=1, dim=1)
    grid = TimeGrid(0.0, 1.0, 100)
    law = constant_law([0.0], 4, TimeGrid(0.0, 1.0, 50))
    with pytest.raises(ValueError, match="grid"):
        euler_maruyama(model, np.zeros((4, 1)), grid, noise, law=law)


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


def test_one_by_one_sigma_is_np_dot_bitwise():
    rng = np.random.default_rng(12)
    dw = rng.standard_normal((100_000, 1)) * 10.0 ** rng.integers(-150, 150, (100_000, 1))
    for s in (np.sqrt(0.01), 0.3, -1.7, 1e-160, 3e140):
        sigma = np.array([[s]])
        assert apply_sigma(sigma, dw).tobytes() == np.dot(dw, sigma.T).tobytes()


def test_em_step_evaluates_a_joint_model_once():
    calls = []

    def joint(t, x, mu):
        calls.append(t)
        return -x, np.ones((1, 1))

    def unused(t, x, mu):
        raise AssertionError("em_step evaluated a coefficient separately")

    model = make_model(unused, unused, joint=joint)
    x = np.array([[1.0], [2.0]])
    new = em_step(model, 0.5, x, x, 0.1, np.array([[0.2], [-0.2]]), 1)
    assert calls == [0.5]
    assert np.array_equal(new, x - 0.1 * x + np.array([[0.2], [-0.2]]))
