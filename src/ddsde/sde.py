"""Euler-Maruyama stepping on a fixed time grid.

Coefficients may read a frozen law curve; the lookup is piecewise constant in
time (node k uses the measure stored at node k).  All stepping is driven by
the counter-based streams in :mod:`ddsde.rng`, so a full ensemble is a pure
function of (model, law, init, grid, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import EmpiricalMeasure
from .rng import NoiseSpec, increments


# Largest state coordinate magnitude: squared distances between states (W2
# costs, moments, the coupling gap) stay finite up to about 1e300 * d.
MAX_STATE = 1e150


class NumericalBlowupError(RuntimeError):
    """A state became non-finite, or left the radius guard or MAX_STATE.

    Carries the first offending trajectory and the step at which it happened;
    blow-up usually means the growth condition is violated or dt is too large.
    """

    def __init__(self, message: str, trajectory: int, step: int):
        super().__init__(f"{message} (trajectory {trajectory}, step {step})")
        self.trajectory = trajectory
        self.step = step


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [s, t_end] with n_steps intervals; node k is s + k*dt."""

    s: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.t_end > self.s:
            raise ValueError(f"need t_end > s, got [{self.s}, {self.t_end}]")
        if self.s < 0:
            raise ValueError(f"start time must be >= 0, got {self.s}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.s) / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def nodes(self) -> np.ndarray:
        return self.s + np.arange(self.n_nodes) * self.dt


@dataclass(frozen=True)
class PathEnsemble:
    """M simulated trajectories on a grid."""

    grid: TimeGrid
    paths: np.ndarray  # (M, n_nodes, d)

    @property
    def terminal(self) -> np.ndarray:
        return self.paths[:, -1, :]


def apply_sigma(sigma: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """sigma @ dw per trajectory; sigma is (d, d) shared or (M, d, d)."""
    if sigma.ndim == 2:
        return np.dot(dw, sigma.T)  # BLAS even for d = 1, where matmul is not
    return np.einsum("mij,mj->mi", sigma, dw)


def check_finite(states: np.ndarray, step: int, radius: float | None = None) -> None:
    """Raise on the first trajectory that is not finite, or has a coordinate
    beyond ``radius`` or beyond MAX_STATE."""
    limit = MAX_STATE if radius is None else min(radius, MAX_STATE)
    if -limit <= states.min() and states.max() <= limit:  # false on nan
        return
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        raise NumericalBlowupError("non-finite state", int(np.argmax(bad)), step)
    out = np.abs(states).max(axis=1) > limit
    message = (f"state radius guard {radius} exceeded" if limit == radius else
               f"state beyond {MAX_STATE:g}, where squared distances overflow")
    raise NumericalBlowupError(message, int(np.argmax(out)), step)


def em_step(model, t: float, states: np.ndarray, mu: EmpiricalMeasure,
            dt: float, dw: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama step of every trajectory against the measure mu."""
    drift = model.drift(t, states, mu)
    sigma = model.diffusion(t, states, mu)
    new = drift * dt  # one fresh array, summed into in place: addition commutes bitwise
    new += states
    new += apply_sigma(sigma, dw)
    return new


def em_path(model, states: np.ndarray, t0: float, dt: float, n_steps: int,
            noise: NoiseSpec, law=None):
    """Yield ``(t_k, x_k, mu_k, dw_k, x_{k+1})`` for each Euler-Maruyama step k.

    mu_k is ``law.measure_at(k)`` against a frozen law curve, and the
    ensemble's own empirical measure when ``law`` is None.  Trajectory m
    consumes the increments of stream m; ``states`` is never written to.

    Raises:
        ValueError: if ``states`` is not an (M, noise.dim) array.
        NumericalBlowupError: on the first non-finite state, naming the
            global step ``noise.step0 + k + 1`` (the initial states are step
            ``noise.step0``).
    """
    if states.ndim != 2 or states.shape[1] != noise.dim:
        raise ValueError(f"initial states must be (M, {noise.dim}), got shape {states.shape}")
    check_finite(states, noise.step0, model.state_radius)
    for k, dw in enumerate(increments(noise, np.arange(states.shape[0]), n_steps, np.sqrt(dt))):
        t_k = t0 + k * dt
        mu_k = EmpiricalMeasure(states) if law is None else law.measure_at(k)
        new = em_step(model, t_k, states, mu_k, dt, dw)
        check_finite(new, noise.step0 + k + 1, model.state_radius)
        yield t_k, states, mu_k, dw, new
        states = new


def path_ensemble(model, states: np.ndarray, grid: TimeGrid, noise: NoiseSpec,
                  law=None) -> PathEnsemble:
    """Run ``em_path`` over ``grid`` and keep every node, starting with ``states``."""
    paths = np.empty((len(states), grid.n_nodes, noise.dim))
    steps = em_path(model, states, grid.s, grid.dt, grid.n_steps, noise, law)
    for k, (*_, new) in enumerate(steps, start=1):
        paths[:, k, :] = new
    paths[:, 0, :] = states  # after em_path has checked the shape
    paths.flags.writeable = False  # ensembles are immutable once built
    return PathEnsemble(grid=grid, paths=paths)


def euler_maruyama(model, law, init, grid: TimeGrid, noise: NoiseSpec) -> PathEnsemble:
    """Simulate the classical SDE with coefficients frozen to a law curve.

    ``law`` is a LawCurve covering ``grid``: step k reads its measure at node
    k.  ``init`` is an (M, d) array.  Stepping and blow-up reports are those
    of ``em_path``.
    """
    law.require_grid(grid)
    return path_ensemble(model, np.asarray(init, dtype=np.float64), grid, noise, law)


def synchronous_pair(model, law_x, law_y, init_x, init_y,
                     grid: TimeGrid, noise: NoiseSpec) -> tuple[PathEnsemble, PathEnsemble]:
    """Two runs driven by identical increments per (trajectory, step).

    Marginally each run is ``euler_maruyama`` against its own law curve; the
    shared noise makes the pair a synchronous coupling.
    """
    x = np.asarray(init_x, dtype=np.float64)
    y = np.asarray(init_y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"initial ensembles differ in shape: {x.shape} vs {y.shape}")
    return (euler_maruyama(model, law_x, x, grid, noise),
            euler_maruyama(model, law_y, y, grid, noise))
