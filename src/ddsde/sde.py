"""Euler-Maruyama stepping on a fixed time grid, and the law curves it stores.

A law curve is an (n_nodes, N, d) array: node k holds the N points of the
empirical measure at grid node k.  ``euler_maruyama`` fills a read-only,
C-contiguous one, either as the interacting particle system (each step reads
the ensemble's own points) or as one Picard step against a frozen law curve,
whose lookup is piecewise constant in time (step k reads the points at node
k); ``export_law`` writes one to CSV files node by node.  All stepping is
driven by the counter-based streams in :mod:`ddsde.rng`, so a stored curve is
a pure function of (model, law, init, grid, seed).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .measure import write_csv
from .rng import NoiseSpec, increments


# Largest state coordinate magnitude: squared distances between states (W2
# costs, moments, the coupling gap) stay finite up to about 1e300 * d.
MAX_STATE = 1e150


class NumericalBlowupError(RuntimeError):
    """A state became non-finite, or left the radius guard or MAX_STATE; or a
    Harnack test function is not positive on a terminal sample.

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


def export_law(directory, grid: TimeGrid, nodes, theta: float, model_echo: dict):
    """Yield each (N, d) state of ``nodes`` once its CSV point file is written;
    the manifest follows the last, so a run stopped early leaves none."""
    os.makedirs(directory, exist_ok=True)
    files = []
    for k, x in enumerate(nodes):
        files.append(f"node_{k:05d}.csv")
        write_csv(os.path.join(directory, files[-1]), x)
        yield x
    manifest = {"grid": {"s": grid.s, "t_end": grid.t_end, "n_steps": grid.n_steps},
                "theta": theta, "n_points": x.shape[0], "dim": x.shape[1],
                "model": model_echo, "files": files}
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def apply_sigma(sigma: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """sigma @ dw per trajectory; sigma is (d, d) shared or (M, d, d)."""
    if sigma.shape == (1, 1):
        # np.dot's one product per row, bitwise, without waking BLAS threads
        return dw * sigma[0, 0]
    if sigma.ndim == 2:
        return np.dot(dw, sigma.T)
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


def em_step(model, t: float, states: np.ndarray, law: np.ndarray,
            dt: float, dw: np.ndarray, step: int) -> np.ndarray:
    """Euler-Maruyama step against ``law``, the law's (N, d) points, checked as global ``step``."""
    drift, sigma = model.coefficients(t, states, law)
    new = drift * dt  # one fresh array, summed into in place: addition commutes bitwise
    del drift  # before the sigma product allocates
    new += states
    new += apply_sigma(sigma, dw)
    check_finite(new, step, model.state_radius)
    return new


def em_path(model, states: np.ndarray, t0: float, dt: float, n_steps: int,
            noise: NoiseSpec, law=None):
    """Yield ``(t_k, x_k, dw_k, x_{k+1})`` for each Euler-Maruyama step k.

    Step k's law is the (N, d) points x_k when ``law`` is None (the ensemble's
    own law), and ``law[k]``, node k of a frozen (n_nodes, N, d) law curve, otherwise.
    Trajectory m consumes the increments of stream m; ``states`` is never written to.

    Raises:
        ValueError: if ``states`` is not an (M, noise.dim) array.
        NumericalBlowupError: on the first non-finite state, naming the
            global step ``noise.step0 + k + 1`` (the initial states are step
            ``noise.step0``).
    """
    if states.ndim != 2 or states.shape[1] != noise.dim:
        raise ValueError(f"initial states must be (M, {noise.dim}), got shape {states.shape}")
    check_finite(states, noise.step0, model.state_radius)
    for k, dw in enumerate(increments(noise, states.shape[0], n_steps, np.sqrt(dt))):
        t_k = t0 + k * dt
        law_k = states if law is None else law[k]
        new = em_step(model, t_k, states, law_k, dt, dw, noise.step0 + k + 1)
        yield t_k, states, dw, new
        states = new


def euler_maruyama(model, states, grid: TimeGrid, noise: NoiseSpec, law=None) -> np.ndarray:
    """Run ``em_path`` over ``grid`` from the (N, d) ``states`` and store every node.

    With ``law`` None this is the interacting particle system: each step reads
    the ensemble's own law, so it needs N >= 2.  A law curve with one node per
    grid node is one Picard step: step k reads its points at node k.
    Stepping and blow-up reports are those of ``em_path``.  The returned
    (n_nodes, N, d) law curve is C-contiguous and read-only.
    """
    states = np.asarray(states, dtype=np.float64)
    if law is not None:
        if len(law) != grid.n_nodes:
            raise ValueError(f"law curve has {len(law)} nodes, grid {grid} has {grid.n_nodes}")
    elif len(states) < 2:
        raise ValueError(f"particle system needs N >= 2, got {len(states)}")
    nodes = np.empty((grid.n_nodes, len(states), noise.dim))
    steps = em_path(model, states, grid.s, grid.dt, grid.n_steps, noise, law)
    for k, (*_, new) in enumerate(steps, start=1):
        nodes[k] = new
    nodes[0] = states  # after em_path has checked the shape
    nodes.flags.writeable = False  # law curves are immutable once built
    return nodes
