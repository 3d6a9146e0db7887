"""Solution schemes for the distribution-dependent SDE.

Two routes to the law curve t -> mu_t, both stored as an ``sde.LawCurve``:
Picard iteration in distribution (``picard_solve``: solve classical SDEs
against the previous iterate's frozen law) and the interacting particle
system (``sde.euler_maruyama`` with ``law=None``: each particle reads the
ensemble's own empirical measure).  On top of these sit the
synchronous-coupling contraction estimator and the invariant-measure
fixed-point search.  ``PicardResult``, ``ContractResult`` and
``InvariantResult`` give the verdicts of the three, each an exact ``Check``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .harnack import Check, _Judged
from .measure import EmpiricalMeasure, transport_plan, wasserstein
from .models import CoefficientModel
from .rng import NoiseSpec, normal_block
from .sde import (LawCurve, NumericalBlowupError, TimeGrid, check_finite, em_path, em_step,
                  euler_maruyama)


class InvariantSearchError(RuntimeError):
    """Fixed-point residual failed to decrease when the burn-in doubled."""


@dataclass
class PicardReport:
    """Trace of the iteration in distribution."""

    iterates: list[LawCurve]
    deltas: list[float]          # sup-over-time W_theta between successive iterates
    converged: bool
    iterations_used: int
    geometric_applicable: bool = True

    def delta_ratios(self) -> np.ndarray:
        d = np.asarray(self.deltas)
        return d[1:] / d[:-1]


@dataclass
class PicardResult(_Judged):
    """The last window's trace of a ``picard_chain`` and whether every window converged."""

    windows: int
    converged: bool
    deltas: list[float]           # of the last window
    iterations_used: list[int]    # per window
    delta_ratios: list[float]     # of the last window
    geometric_applicable: bool
    terminal_mean: list[float]

    @classmethod
    def judge(cls, reports: list[PicardReport], tol: float) -> PicardResult:
        """A window converged iff its last delta is within ``tol``, so the
        largest last delta decides every window at once."""
        check = Check(tol - float(np.max([r.deltas[-1] for r in reports])), 0.0)
        last = reports[-1]
        return cls((check,), len(reports), check.ok, last.deltas,
                   [r.iterations_used for r in reports], last.delta_ratios().tolist(),
                   last.geometric_applicable, last.iterates[-1].states[-1].mean(axis=0).tolist())


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
                 theta: float = 2.0) -> PicardReport:
    """Iterate classical SDE solves against the previous iterate's law.

    Iterate 0 is the constant-in-time curve at mu0; iterate n is the law of
    the Euler-Maruyama run against iterate n-1.  All iterations reuse the
    same noise streams, which turns the decay of successive iterates into a
    pathwise statement.  On a finite horizon with Lipschitz coefficients the
    deltas decay factorially, like (C T)^n / n!, so they may rise for a few
    iterations before they fall.  The run stops only when the sup-W_theta
    delta reaches tol, or after max_iter iterations.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    iterates = [LawCurve.constant(mu0, grid)]
    deltas: list[float] = []
    converged = False
    for _ in range(max_iter):
        cur = euler_maruyama(model, mu0.points, grid, noise, law=iterates[-1])
        deltas.append(_sup_wasserstein(cur, iterates[-1], theta))
        iterates.append(cur)
        if deltas[-1] <= tol:
            converged = True
            break
    return PicardReport(
        iterates=iterates,
        deltas=deltas,
        converged=converged,
        iterations_used=len(deltas),
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
                 tol: float = 1e-3, theta: float = 2.0) -> list[PicardReport]:
    """Solve [s, t_end] as ``windows`` chained short Picard runs.

    By the flow property of the scheme, each window may restart from the
    previous window's terminal ensemble.  A short window's constant C T is
    small, so its deltas fall from the start and it needs fewer iterations
    of fewer steps than the full horizon: with drift x + 3 mean(mu), sigma
    0.1 and 64 particles on [0, 1.5] in 150 steps, six windows reach tol
    1e-3 in 950 window-steps, the full horizon in 16 iterations of 150.
    Window boundaries fall on grid nodes; each window consumes the noise
    streams of its global step range.
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
                  n_steps: int, dt: float, noise: NoiseSpec):
    """Stream the particle system forward without storing the path history.

    Returns the final states; each step reads the ensemble's own empirical
    measure.  A chained call passes ``noise.with_step_offset`` to consume
    exactly the increments of the matching global steps.
    """
    for *_, states in em_path(model, states, t0, dt, n_steps, noise):
        pass
    return states


_LOG_MAX = math.log(np.finfo(float).max)   # the largest g with math.exp(g) finite


@dataclass
class ContractionEstimate:
    """Fitted decay/growth rate of log W2^2 against the analytic envelope."""

    empirical_rate: float
    bound_rate: float | None
    times: np.ndarray
    w2_sq: np.ndarray
    merge_time: float | None = None   # set when the laws merged numerically

    @property
    def bound_envelope(self) -> np.ndarray:
        """w2_sq[0] e^{bound_rate (t - t_0)} at each W2 node; flat when bound_rate is unset."""
        rate = self.bound_rate if self.bound_rate is not None else 0.0
        growth = rate * (self.times - self.times[0])
        # libm, not numpy's SIMD rounding; inf past the double range, where math.exp raises
        return self.w2_sq[0] * np.array([math.inf if g > _LOG_MAX else math.exp(g)
                                         for g in growth])


@dataclass
class ContractResult(_Judged):
    """The fitted rate against the analytic one, within ``slope_tolerance``."""

    empirical_rate: float
    bound_rate: float | None
    slope_tolerance: float
    merge_time: float | None

    @classmethod
    def judge(cls, est: ContractionEstimate, slope_tolerance: float) -> ContractResult:
        """No check without an analytic rate, or once the laws merged (rate -inf)."""
        checks = ()
        if est.bound_rate is not None and np.isfinite(est.empirical_rate):
            checks = (Check(est.bound_rate + slope_tolerance - est.empirical_rate, 0.0),)
        return cls(checks, est.empirical_rate, est.bound_rate, slope_tolerance, est.merge_time)


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
    # Not np.unique: it reads np.ma, whose first import costs a run about 15 ms.
    return np.array(sorted({0, *inside[::stride].tolist(), int(inside[-1])}))


def estimate_contraction(model: CoefficientModel, mu0: EmpiricalMeasure,
                         nu0: EmpiricalMeasure, grid: TimeGrid, noise: NoiseSpec,
                         fit_window: tuple[float, float] | None = None,
                         threads: int = 1) -> ContractionEstimate:
    """Synchronous-coupling estimate of the W2 contraction/growth rate.

    The two particle systems start from the optimally coupled pairing of
    mu0 and nu0, two laws of equal size (so the initial mean-square gap
    equals W2(mu0, nu0)^2), and consume identical increments.  Exact W2 is
    solved only at the W2 nodes, chosen before stepping: node 0 (the
    envelope's start, the initial pairing's own cost), at most
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
    if merged.any():  # a rate of -inf, from the first W2 node at which the laws had merged
        return ContractionEstimate(float("-inf"), bound_rate, times, w2_sq,
                                   merge_time=float(times[int(np.argmax(merged))]))

    lo, hi = fit_window
    mask = (times >= lo) & (times <= hi)
    slope = np.polyfit(times[mask], np.log(w2_sq[mask]), 1)[0]
    return ContractionEstimate(float(slope), bound_rate, times, w2_sq)


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

    Evolves the particle system, on one noise stream, from a standard-normal
    ensemble for ``burn_in``, snapshots mu_hat, evolves ``check_horizon``
    further and returns W2(mu_hat, evolved) as the fixed-point residual.  If
    the residual exceeds tol, the burn-in is doubled once; a residual that
    does not decrease raises InvariantSearchError (non-convergence report).
    """
    _require_dissipative(model)
    init_stream = noise.substream(0xA11CE)
    states = normal_block(init_stream, np.arange(n_particles), 0)

    burn_steps = max(1, round(burn_in / grid_step))
    check_steps = max(1, round(check_horizon / grid_step))

    # One stream: burn-in, check, and on doubling burn-in and check again.
    steps = em_path(model, states, 0.0, grid_step, 2 * (burn_steps + check_steps), noise)

    def advance(n):
        for *_, x in islice(steps, n):
            pass
        return EmpiricalMeasure(x)

    mu_hat = advance(burn_steps)
    residual = wasserstein(mu_hat, advance(check_steps), theta=2.0)
    if residual <= tol:
        return mu_hat, float(residual)

    # One doubling: keep evolving from where we stopped.
    mu_hat2 = advance(burn_steps)
    residual2 = wasserstein(mu_hat2, advance(check_steps), theta=2.0)
    if residual2 >= residual:
        raise InvariantSearchError(
            f"residual did not decrease as burn-in doubled: {residual:.3g} -> {residual2:.3g}"
        )
    return mu_hat2, float(residual2)


@dataclass
class InvariantResult(_Judged):
    residual: float    # W2 between the snapshot and its evolution over the check horizon
    tol: float
    second_moment_per_coordinate: list[float]

    @classmethod
    def judge(cls, mu_hat: EmpiricalMeasure, residual: float, tol: float) -> InvariantResult:
        """The ``find_invariant`` outputs, passing iff ``residual <= tol``."""
        return cls((Check(tol - residual, 0.0),), residual, tol,
                   (mu_hat.points ** 2).mean(axis=0).tolist())


@dataclass
class MomentCurve:
    per_node: np.ndarray   # (n_nodes,) p-th moment at each node
    sup_moment: float      # mean over paths of the running maximum of |X|^p
    terminal: np.ndarray   # (M, d) states at the last node


def moment_curve(nodes, p: float) -> MomentCurve:
    """Per-node p-th radial moments and the expected pathwise supremum.

    ``nodes`` yields the (M, d) states node by node (``LawCurve.states`` is
    one such iterable); between nodes only the running maximum is kept.

    Raises:
        NumericalBlowupError: if a moment overflows, naming the trajectory and
            the node (as the step).
    """
    if p < 0:
        raise ValueError(f"moment order must be >= 0, got {p}")
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
