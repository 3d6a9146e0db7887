"""Bit pins of every stepping path, and global step numbers in blow-up reports.

The digests were taken from the stepping code before its loops were folded
into ``sde.em_path``; any change to the order or the arithmetic of a step
shows here as a changed digest.  The model is linear with d = 1 and a > 0,
so kappa1 = 0 and the coupling schedule xi_t = T - t involves no ``exp``.

``coupled_log_r`` and ``coupled_gap_sq_penultimate`` were re-recorded when the
coupled process Y began to step through ``em_step`` on the Girsanov-shifted
noise dW - h dt, h = sigma(X)^{-1} (Y - X) / xi, in place of its own Euler
step with a separate pull term; log R now accumulates <h, dW> - |h|^2 dt / 2.
The mathematics is the same and only the rounding moved: on this pin's 64
pairs log R_T moved by at most 1.1e-14 (4.3e-14 relative) and the penultimate
squared gap by at most 4.1e-14 relative.  ``coupled_x_terminal`` kept its bits.
"""

import hashlib

import numpy as np
import pytest

from ddsde.harnack import (
    IBP_FUNCTIONS,
    coupled_pairs_from_measures,
    ibp_weights,
    simulate_coupled,
    verify_ibp,
)
from ddsde.measure import EmpiricalMeasure
from ddsde.models import CoefficientModel, linear_meanfield_model
from ddsde.rng import NoiseSpec, normal_block
from ddsde.sde import LawCurve, NumericalBlowupError, TimeGrid, euler_maruyama
from ddsde.solver import estimate_contraction, evolve_states

GOLDEN = {
    "euler_maruyama_offset":
        "ecd24c7306d4be2128ab39dff3bd189e547a812579c5d04a26f976259234c379",
    "particle_system_paths":
        "bcba99fe2e6e4cc1df237e195631ba502f5e512afd0006a7b471eb1bf4ec88ef",
    "evolve_states":
        "d41123115b8db5d51c8ca9b9924d2832be378b6861d696ed5921b0fdaff2fd7f",
    "contraction_w2_sq":
        "3f2c56ad2535878ec92d499653e3d10cccd5621f9b284fdef09c079f9ad4316e",
    "coupled_x_terminal":
        "948cbd1f64d20dde6b0672ef513d9baf4342f6f174e4729b191327b28bbdd6af",
    "coupled_log_r":
        "49acc5f73f1d93e58977b2cec6c11d4d5b4bd45cbe6dfc0935a6f86792d8bcf3",
    "coupled_gap_sq_penultimate":
        "fc734c65f9a2645d4aae88fea74a8aefc1495331f48bef29c99bf5b3d77702ec",
    "ibp_lhs_rhs":
        "3b2dcf3497c9e280dd3225a0f6e247f99f9c92aaba9188b2d078e086bad99a03",
}


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def _paths(law: LawCurve) -> np.ndarray:
    """The node-major states as the (M, n_nodes, d) paths the digests were taken on."""
    return law.states.transpose(1, 0, 2)


def stepping_digests() -> dict:
    model = linear_meanfield_model(1.5, 0.25, 0.7, dim=1)
    grid = TimeGrid(0.0, 0.5, 50)
    noise = NoiseSpec(seed=2024, dim=1)
    mu0 = EmpiricalMeasure(0.3 + normal_block(NoiseSpec(seed=7, dim=1), np.arange(64), 0))
    nu0 = mu0.shifted([0.8])
    law = LawCurve.constant(nu0, grid)
    coupled = simulate_coupled(model, *coupled_pairs_from_measures(mu0, nu0), grid, noise)
    f, grad_f = IBP_FUNCTIONS["linear"]
    ibp_x0 = np.tile(mu0.points, (8, 1))[:500]  # 500 paths: the 64-point law, tiled
    ibp = verify_ibp(f, grad_f, [1.0], *ibp_weights(model, [1.0], ibp_x0, grid, noise))
    return {
        "euler_maruyama_offset": _digest(_paths(
            euler_maruyama(model, mu0.points, grid, noise.with_step_offset(37), law=law))),
        "particle_system_paths": _digest(_paths(euler_maruyama(model, mu0.points, grid, noise))),
        "evolve_states": _digest(
            evolve_states(model, mu0.points, 0.25, 40, 0.01, noise.with_step_offset(13))),
        "contraction_w2_sq": _digest(estimate_contraction(model, mu0, nu0, grid, noise).w2_sq),
        "coupled_x_terminal": _digest(coupled.x_terminal),
        "coupled_log_r": _digest(coupled.log_r),
        "coupled_gap_sq_penultimate": _digest(coupled.gap_sq_penultimate),
        "ibp_lhs_rhs": _digest([ibp.lhs, ibp.rhs]),
    }


def test_stepping_is_bitwise_pinned():
    assert stepping_digests() == GOLDEN


def _exploding_model() -> CoefficientModel:
    # The state is multiplied by 1e200 per step: finite for one step, inf after two.
    return CoefficientModel(
        name="exploding", dim=1,
        drift=lambda t, x, mu: 1e202 * x, diffusion=lambda t, x, mu: np.zeros((1, 1)),
        additive_noise=True, invertible_sigma=False, distribution_free_sigma=True,
    )


@pytest.mark.parametrize("run", [
    lambda m, mu, g, n: euler_maruyama(m, mu.points, g, n, law=LawCurve.constant(mu, g)),
    lambda m, mu, g, n: euler_maruyama(m, mu.points, g, n),
    lambda m, mu, g, n: evolve_states(m, mu.points, g.s, g.n_steps, g.dt, n),
], ids=["euler_maruyama", "particle_system", "evolve_states"])
def test_blowup_names_the_global_step(run):
    grid = TimeGrid(0.0, 1.0, 10)
    mu0 = EmpiricalMeasure(np.ones((4, 1)))
    with pytest.raises(NumericalBlowupError) as err, np.errstate(over="ignore"):
        run(_exploding_model(), mu0, grid, NoiseSpec(seed=3, dim=1).with_step_offset(100))
    assert err.value.step > 100
    assert f"step {err.value.step}" in str(err.value)
