"""Solution schemes for the distribution-dependent SDE.

Two routes to the law curve t -> mu_t: Picard iteration in distribution
(solve classical SDEs against the previous iterate's frozen law) and the
interacting particle system (each particle reads the ensemble's own
empirical measure).  On top of these sit the synchronous-coupling
contraction estimator and the invariant-measure fixed-point search.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .measure import EmpiricalMeasure, transport_plan, wasserstein
from .models import CoefficientModel
from .rng import NoiseSpec, normal_block
from .sde import (NumericalBlowupError, PathEnsemble, TimeGrid, check_finite, em_path, em_step,
                  euler_maruyama, path_ensemble)


class InvariantSearchError(RuntimeError):
    """Fixed-point residual failed to decrease when the burn-in doubled."""


@dataclass(frozen=True)
class LawCurve:
    """A time grid with one empirical measure per node (frozen law curve)."""

    grid: TimeGrid
    states: np.ndarray  # (n_nodes, N, d)

    def __post_init__(self):
        if self.states.ndim != 3:
            raise ValueError(f"states must be (n_nodes, N, d), got {self.states.shape}")
        if self.states.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"law curve has {self.states.shape[0]} nodes, grid has {self.grid.n_nodes}"
            )

    @property
    def n_points(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def measure_at(self, k: int) -> EmpiricalMeasure:
        return EmpiricalMeasure(self.states[k])

    def require_grid(self, grid: TimeGrid) -> None:
        g = self.grid
        if g.n_steps != grid.n_steps or not (
            np.isclose(g.s, grid.s, atol=1e-12) and np.isclose(g.t_end, grid.t_end, atol=1e-12)
        ):
            raise ValueError(f"law curve grid {g} does not cover simulation grid {grid}")

    @classmethod
    def constant(cls, mu0: EmpiricalMeasure, grid: TimeGrid) -> "LawCurve":
        states = np.broadcast_to(mu0.points, (grid.n_nodes,) + mu0.points.shape)
        return cls(grid=grid, states=states)

    @classmethod
    def from_ensemble(cls, ens: PathEnsemble) -> "LawCurve":
        return cls(grid=ens.grid, states=ens.paths.transpose(1, 0, 2))

    def export(self, directory, theta: float = 2.0, model_echo: dict | None = None) -> None:
        """Per-node CSV point files plus a JSON manifest."""
        os.makedirs(directory, exist_ok=True)
        files = []
        for k in range(self.grid.n_nodes):
            name = f"node_{k:05d}.csv"
            np.savetxt(os.path.join(directory, name), self.states[k],
                       fmt="%.17g", delimiter=",")
            files.append(name)
        manifest = {
            "grid": {"s": self.grid.s, "t_end": self.grid.t_end, "n_steps": self.grid.n_steps},
            "theta": theta,
            "n_points": self.n_points,
            "dim": self.dim,
            "model": model_echo or {},
            "files": files,
        }
        with open(os.path.join(directory, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, directory) -> "LawCurve":
        with open(os.path.join(directory, "manifest.json")) as fh:
            manifest = json.load(fh)
        g = manifest["grid"]
        grid = TimeGrid(g["s"], g["t_end"], g["n_steps"])
        states = np.stack([
            np.loadtxt(os.path.join(directory, name), delimiter=",", ndmin=2)
            for name in manifest["files"]
        ])
        return cls(grid=grid, states=states)


@dataclass
class PicardReport:
    """Trace of the iteration in distribution."""

    iterates: list[LawCurve]
    deltas: list[float]          # sup-over-time W_theta between successive iterates
    converged: bool
    iterations_used: int
    diverging: bool = False
    geometric_applicable: bool = True

    def delta_ratios(self) -> np.ndarray:
        d = np.asarray(self.deltas)
        return d[1:] / d[:-1]


# The pruning bounds come from numpy norms, the solver's cost from its own
# per-coordinate sums, so they can differ by rounding; this relative slack keeps
# rounding from pruning a node whose solver cost would exceed the maximum.
PRUNE_SLACK = 1e-9


PAIRING_CHUNK = 64  # nodes per _pairing_cost chunk; bounds its temporaries


def _pairing_cost(x: np.ndarray, y: np.ndarray, theta: float) -> np.ndarray:
    """mean_i |x_i - y_i|^theta along the particle axis (the index pairing) at each
    node of (n_nodes, N, d) stacks; each node's mean is its own, so chunks change no bit."""
    return np.concatenate([
        np.mean(np.linalg.norm(x[k:k + PAIRING_CHUNK] - y[k:k + PAIRING_CHUNK], axis=-1)
                ** theta, axis=-1) for k in range(0, len(x), PAIRING_CHUNK)])


def _sup_wasserstein(a: LawCurve, b: LawCurve, theta: float) -> float:
    """max_k of exact W_theta(a_k, b_k), solving as few nodes as possible.

    Any pairing's cost bounds W_theta^theta from above.  Successive Picard
    iterates share initial points and noise, so the index pairing is a cheap
    and usually tight bound: nodes are visited in descending order of it until it cannot
    beat the best exact cost found, and a node is skipped when its cost under
    the last exact permutation cannot beat that cost either.
    """
    index_cost = _pairing_cost(a.states, b.states, theta)
    best_cost, best, perm = -np.inf, 0.0, None
    for k in np.argsort(-index_cost, kind="stable"):
        if index_cost[k] * (1.0 + PRUNE_SLACK) <= best_cost:
            break
        if perm is not None and _pairing_cost(a.states[k:k + 1], b.states[k:k + 1, perm],
                                              theta)[0] * (1.0 + PRUNE_SLACK) <= best_cost:
            continue
        plan = transport_plan(a.measure_at(k), b.measure_at(k), theta=theta)
        perm = plan.permutation
        if plan.cost > best_cost:
            best_cost, best = plan.cost, plan.distance
    return best


def picard_solve(model: CoefficientModel, mu0: EmpiricalMeasure, grid: TimeGrid,
                 noise: NoiseSpec, max_iter: int = 20, tol: float = 1e-3,
                 theta: float | None = None) -> PicardReport:
    """Iterate classical SDE solves against the previous iterate's law.

    Iterate 0 is the constant-in-time curve at mu0; iterate n is the law of
    the Euler-Maruyama run against iterate n-1.  All iterations reuse the
    same noise streams, which turns the geometric decay of successive
    iterates into a pathwise statement.  Stops at sup-W_theta <= tol, at
    max_iter, or after the delta grows three consecutive times (divergence:
    the horizon exceeds the contraction window; split it and chain runs).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    theta = theta if theta is not None else model.bounds.theta
    iterates = [LawCurve.constant(mu0, grid)]
    deltas: list[float] = []
    converged = False
    diverging = False
    for _ in range(max_iter):
        ens = euler_maruyama(model, iterates[-1], mu0.points, grid, noise)
        cur = LawCurve.from_ensemble(ens)
        deltas.append(_sup_wasserstein(cur, iterates[-1], theta))
        iterates.append(cur)
        if deltas[-1] <= tol:
            converged = True
            break
        if len(deltas) >= 4 and all(
            deltas[-i] > deltas[-i - 1] for i in (1, 2, 3)
        ):
            diverging = True
            break
    return PicardReport(
        iterates=iterates,
        deltas=deltas,
        converged=converged,
        iterations_used=len(deltas),
        diverging=diverging,
        geometric_applicable=(theta >= 2.0 or model.distribution_free_sigma),
    )


def window_steps(grid: TimeGrid, windows: int) -> int:
    """Steps per window of ``picard_chain``; the windows must divide the grid."""
    if windows < 1 or grid.n_steps % windows != 0:
        raise ValueError(
            f"windows must divide n_steps, got {windows} and {grid.n_steps}"
        )
    return grid.n_steps // windows


def picard_chain(model: CoefficientModel, mu0: EmpiricalMeasure, grid: TimeGrid,
                 noise: NoiseSpec, windows: int, max_iter: int = 20,
                 tol: float = 1e-3, theta: float | None = None) -> list[PicardReport]:
    """Solve [s, t_end] as ``windows`` chained short Picard runs.

    When the full horizon exceeds the contraction window (picard_solve
    reports divergence), splitting it and restarting each window from the
    previous terminal ensemble is legitimate by the flow property of the
    scheme.  Window boundaries fall on grid nodes; each window consumes the
    noise streams of its global step range.
    """
    steps = window_steps(grid, windows)
    reports = []
    mu = mu0
    for j in range(windows):
        sub = TimeGrid(grid.s + j * steps * grid.dt,
                       grid.s + (j + 1) * steps * grid.dt, steps)
        rep = picard_solve(model, mu, sub, noise.with_step_offset(noise.step0 + j * steps),
                           max_iter=max_iter, tol=tol, theta=theta)
        reports.append(rep)
        mu = rep.iterates[-1].measure_at(steps)
    return reports


def evolve_states(model: CoefficientModel, states: np.ndarray, t0: float,
                  n_steps: int, dt: float, noise: NoiseSpec, step0: int = 0):
    """Stream the particle system forward without storing the path history.

    Returns the final states; each step reads the ensemble's own empirical
    measure.  ``step0`` offsets the noise stream so chained calls consume
    exactly the increments of the matching global steps.
    """
    ns = noise.with_step_offset(noise.step0 + step0)
    for *_, states in em_path(model, states, t0, dt, n_steps, ns):
        pass
    return states


def particle_solve(model: CoefficientModel, mu0: EmpiricalMeasure, grid: TimeGrid,
                   noise: NoiseSpec, n_particles: int | None = None
                   ) -> tuple[LawCurve, PathEnsemble]:
    """Interacting particle approximation of the nonlinear flow.

    Drift and diffusion of each particle are evaluated against the empirical
    measure of all current particles; the returned law curve shares memory
    with the ensemble's paths.
    """
    n = n_particles if n_particles is not None else mu0.n
    if n < 2:
        raise ValueError(f"particle system needs N >= 2, got {n}")
    ens = path_ensemble(model, mu0.resample(n).points, grid, noise)
    return LawCurve.from_ensemble(ens), ens


@dataclass
class ContractionEstimate:
    """Fitted decay/growth rate of log W2^2 against the analytic envelope."""

    empirical_rate: float
    bound_rate: float | None
    times: np.ndarray
    w2_sq: np.ndarray
    merge_time: float | None = None   # set when the laws merged numerically


# Exact W2 solves per contraction fit, spread evenly across the fit window.
CONTRACT_FIT_NODES = 64


def _thread_map(fn, items, threads: int):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(i) for i in items]


def _fit_window(grid: TimeGrid, fit_window=None) -> tuple[float, float]:
    """``fit_window``, by default the horizon without its first 10% (a transient)."""
    if fit_window is None:
        return grid.s + 0.1 * (grid.t_end - grid.s), grid.t_end
    return tuple(fit_window)


def _w2_nodes(grid: TimeGrid, fit_window: tuple[float, float]) -> np.ndarray:
    """Node 0, at most CONTRACT_FIT_NODES strided window nodes, the window's last."""
    times = grid.nodes
    lo, hi = fit_window
    inside = np.flatnonzero((times >= lo) & (times <= hi))
    if inside.size < 2:
        raise ValueError(f"fit window {fit_window} covers fewer than two grid nodes")
    stride = -(-inside.size // CONTRACT_FIT_NODES)
    return np.unique(np.concatenate(([0], inside[::stride], inside[-1:])))


def estimate_contraction(model: CoefficientModel, mu0: EmpiricalMeasure,
                         nu0: EmpiricalMeasure, grid: TimeGrid, noise: NoiseSpec,
                         fit_window: tuple[float, float] | None = None,
                         threads: int = 1) -> ContractionEstimate:
    """Synchronous-coupling estimate of the W2 contraction/growth rate.

    The two particle systems start from the optimally coupled pairing of
    mu0 and nu0 (so the initial mean-square gap equals W2(mu0, nu0)^2) and
    consume identical increments.  Exact W2 is solved only at the W2 nodes,
    chosen before stepping: node 0 (the envelope's start, the initial
    pairing's own cost), at most
    CONTRACT_FIT_NODES nodes at an integer stride across ``fit_window``
    (default: skip the first 10% of the horizon, a transient) and the
    window's last node.  ``times`` and ``w2_sq`` hold just those nodes, and
    the slope of log W2^2 is fitted by least squares over the ones inside
    the window.  If the laws merge numerically the rate is reported as -inf
    together with the first W2 node at which they had merged.
    """
    fit_window = _fit_window(grid, fit_window)
    nodes = _w2_nodes(grid, fit_window)
    times = grid.nodes[nodes]
    if mu0.n != nu0.n:
        nu0 = nu0.resample(mu0.n)
    for law in (mu0, nu0):  # before their W2 costs can overflow
        check_finite(law.points, noise.step0, model.state_radius)
    plan = transport_plan(mu0, nu0, theta=2.0)  # node 0's W2 is this plan's cost
    y = nu0.points[plan.permutation]

    kept = set(nodes.tolist())
    xs, ys = [mu0.points], [y]
    dt = grid.dt
    steps = em_path(model, mu0.points, grid.s, dt, grid.n_steps, noise)
    for k, (t_k, _, _, dw, x) in enumerate(steps, start=1):
        # Y steps on X's increments: the synchronous coupling.
        y = em_step(model, t_k, y, EmpiricalMeasure(y), dt, dw)
        check_finite(y, noise.step0 + k, model.state_radius)
        if k in kept:
            xs.append(x)
            ys.append(y)

    def w2_at(i):
        return wasserstein(EmpiricalMeasure(xs[i]), EmpiricalMeasure(ys[i]), theta=2.0)

    w2 = np.asarray([plan.distance] + _thread_map(w2_at, range(1, len(nodes)), threads))
    w2_sq = w2 * w2
    bound_rate = model.bounds.contraction_exponent

    merged = w2_sq <= 1e-280
    if merged.any():
        k = int(np.argmax(merged))
        return ContractionEstimate(
            empirical_rate=float("-inf"),
            bound_rate=bound_rate,
            times=times, w2_sq=w2_sq,
            merge_time=float(times[k]),
        )

    lo, hi = fit_window
    mask = (times >= lo) & (times <= hi)
    slope = np.polyfit(times[mask], np.log(w2_sq[mask]), 1)[0]
    return ContractionEstimate(
        empirical_rate=float(slope),
        bound_rate=bound_rate,
        times=times, w2_sq=w2_sq,
    )


def _require_dissipative(model: CoefficientModel) -> None:
    if not model.bounds.dissipative:
        raise ValueError(
            f"{model.name}: invariant search requires declared dissipativity (C2 > C1), "
            f"got C1={model.bounds.C1}, C2={model.bounds.C2}"
        )


def find_invariant(model: CoefficientModel, grid_step: float, noise: NoiseSpec,
                   n_particles: int, burn_in: float, check_horizon: float,
                   tol: float) -> tuple[EmpiricalMeasure, float]:
    """Fixed-point search for the invariant law of a dissipative model.

    Evolves the particle system from a standard-normal ensemble for
    ``burn_in``, snapshots mu_hat, evolves ``check_horizon`` further and
    returns W2(mu_hat, evolved) as the fixed-point residual.  If the
    residual exceeds tol, the burn-in is doubled once; a residual that does
    not decrease raises InvariantSearchError (non-convergence report).
    """
    _require_dissipative(model)
    init_stream = noise.substream(0xA11CE)
    states = normal_block(init_stream, np.arange(n_particles), 0)

    burn_steps = max(1, round(burn_in / grid_step))
    check_steps = max(1, round(check_horizon / grid_step))

    states = evolve_states(model, states, 0.0, burn_steps, grid_step, noise)
    mu_hat = EmpiricalMeasure(states.copy())
    states = evolve_states(model, states, burn_in, check_steps, grid_step, noise,
                           step0=burn_steps)
    residual = wasserstein(mu_hat, EmpiricalMeasure(states), theta=2.0)
    if residual <= tol:
        return mu_hat, float(residual)

    # One doubling: keep evolving from where we stopped.
    offset = burn_steps + check_steps
    states = evolve_states(model, states, burn_in + check_horizon, burn_steps,
                           grid_step, noise, step0=offset)
    mu_hat2 = EmpiricalMeasure(states.copy())
    states = evolve_states(model, states, 2 * burn_in + check_horizon, check_steps,
                           grid_step, noise, step0=offset + burn_steps)
    residual2 = wasserstein(mu_hat2, EmpiricalMeasure(states), theta=2.0)
    if residual2 >= residual:
        raise InvariantSearchError(
            f"residual did not decrease as burn-in doubled: {residual:.3g} -> {residual2:.3g}"
        )
    return mu_hat2, float(residual2)


@dataclass
class MomentCurve:
    per_node: np.ndarray   # (n_nodes,) p-th moment at each node
    sup_moment: float      # mean over paths of the running maximum of |X|^p
    terminal: np.ndarray   # (M, d) states at the last node


def moment_curve(nodes, p: float) -> MomentCurve:
    """Per-node p-th radial moments and the expected pathwise supremum.

    ``nodes`` is a PathEnsemble, or yields the (M, d) states node by node;
    between nodes only the running maximum is kept.

    Raises:
        NumericalBlowupError: if a moment overflows, naming the trajectory and
            the node (as the step).
    """
    if p < 0:
        raise ValueError(f"moment order must be >= 0, got {p}")
    if isinstance(nodes, PathEnsemble):
        nodes = nodes.paths.transpose(1, 0, 2)
    per_node, running_max = [], None
    for k, x in enumerate(nodes):
        with np.errstate(over="ignore"):  # an overflow is reported below
            rp = np.linalg.norm(x, axis=1) ** p
        if not np.isfinite(rp).all():
            raise NumericalBlowupError(f"moment of order {p:g} overflows",
                                       int(np.argmax(~np.isfinite(rp))), k)
        # A sequential sum over paths, as mean(axis=0) of a stored (M, n_nodes) array.
        per_node.append(np.cumsum(rp)[-1] / len(rp))
        running_max = rp if running_max is None else np.maximum(running_max, rp, out=running_max)
    return MomentCurve(per_node=np.array(per_node), sup_moment=float(running_max.mean()),
                       terminal=x)
