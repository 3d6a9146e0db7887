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


class NumericalBlowupError(RuntimeError):
    """A state became non-finite (or left the configured radius guard).

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

    def refined(self) -> "TimeGrid":
        """The same interval at half the step size."""
        return TimeGrid(self.s, self.t_end, 2 * self.n_steps)


@dataclass(frozen=True)
class PathEnsemble:
    """M simulated trajectories on a grid together with their noise spec."""

    grid: TimeGrid
    paths: np.ndarray  # (M, n_nodes, d)
    noise: NoiseSpec

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def dim(self) -> int:
        return self.paths.shape[2]

    def states_at(self, k: int) -> np.ndarray:
        return self.paths[:, k, :]

    @property
    def terminal(self) -> np.ndarray:
        return self.paths[:, -1, :]

    def measure_at(self, k: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.states_at(k))


def _as_points(init, dim_hint: int | None = None) -> np.ndarray:
    """Initial condition as an (M, d) array (accepts EmpiricalMeasure)."""
    if isinstance(init, EmpiricalMeasure):
        pts = init.points
    else:
        pts = np.asarray(init, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None] if dim_hint in (None, 1) else pts[None, :]
    if pts.ndim != 2:
        raise ValueError(f"initial points must be (M, d), got shape {pts.shape}")
    return np.array(pts, dtype=np.float64)


def apply_sigma(sigma: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """sigma @ dw per trajectory; sigma is (d, d) shared or (M, d, d)."""
    if sigma.ndim == 2:
        return np.dot(dw, sigma.T)  # BLAS even for d = 1, where matmul is not
    return np.einsum("mij,mj->mi", sigma, dw)


def check_finite(states: np.ndarray, step: int, radius: float | None = None) -> None:
    bad = ~np.isfinite(states).all(axis=1)
    if bad.any():
        raise NumericalBlowupError("non-finite state", int(np.argmax(bad)), step)
    if radius is not None:
        out = np.abs(states).max(axis=1) > radius
        if out.any():
            raise NumericalBlowupError(
                f"state radius guard {radius} exceeded", int(np.argmax(out)), step
            )


def em_step(model, t: float, states: np.ndarray, mu: EmpiricalMeasure,
            dt: float, dw: np.ndarray) -> np.ndarray:
    """One Euler-Maruyama step of every trajectory against the measure mu."""
    drift = model.drift(t, states, mu)
    sigma = model.diffusion(t, states, mu)
    return states + drift * dt + apply_sigma(sigma, dw)


def euler_maruyama(model, law, init, grid: TimeGrid, noise: NoiseSpec) -> PathEnsemble:
    """Simulate the classical SDE with coefficients frozen to a law curve.

    Args:
        model: CoefficientModel supplying drift/diffusion.
        law: LawCurve covering ``grid``; node k of the simulation reads the
            measure at node k.
        init: initial states, (M, d) array or EmpiricalMeasure.
        noise: trajectory m consumes exactly the increments of stream m.

    Raises:
        NumericalBlowupError: on the first non-finite state, with location.
    """
    law.require_grid(grid)
    states = _as_points(init, noise.dim)
    m, d = states.shape
    if d != noise.dim:
        raise ValueError(f"init dimension {d} != noise dim {noise.dim}")
    check_finite(states, 0, model.state_radius)

    dt = grid.dt
    out = np.empty((m, grid.n_nodes, d))
    out[:, 0, :] = states
    for k, dw in enumerate(increments(noise, np.arange(m), grid.n_steps, np.sqrt(dt))):
        states = em_step(model, grid.s + k * dt, states, law.measure_at(k), dt, dw)
        check_finite(states, k + 1, model.state_radius)
        out[:, k + 1, :] = states
    out.flags.writeable = False  # ensembles are immutable once built
    return PathEnsemble(grid=grid, paths=out, noise=noise)


def synchronous_pair(model, law_x, law_y, init_x, init_y,
                     grid: TimeGrid, noise: NoiseSpec) -> tuple[PathEnsemble, PathEnsemble]:
    """Two runs driven by identical increments per (trajectory, step).

    Marginally each run is ``euler_maruyama`` against its own law curve; the
    shared noise makes the pair a synchronous coupling.
    """
    x = _as_points(init_x, noise.dim)
    y = _as_points(init_y, noise.dim)
    if x.shape != y.shape:
        raise ValueError(f"initial ensembles differ in shape: {x.shape} vs {y.shape}")
    ens_x = euler_maruyama(model, law_x, x, grid, noise)
    ens_y = euler_maruyama(model, law_y, y, grid, noise)
    return ens_x, ens_y
