"""Empirical measures and optimal-transport distances between them.

Every law in this suite is an ensemble of N equally weighted points, so the
exact W_theta distance is an assignment problem; an entropic (Sinkhorn)
approximation takes over past the O(N^3) cost wall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

# Exact assignment above this size is too slow; switch to entropic transport.
EXACT_SIZE_LIMIT = 512
SINKHORN_MARGINAL_TOL = 1e-8
SINKHORN_MAX_ITER = 10_000


@dataclass(frozen=True)
class EmpiricalMeasure:
    """N equally weighted points in R^d (weight 1/N each)."""

    points: np.ndarray  # (N, d)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"points must be a nonempty (N, d) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("empirical measure contains non-finite points")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def point_mass(cls, x, n: int = 1) -> "EmpiricalMeasure":
        """n copies of a single point (empirical stand-in for a Dirac mass)."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return cls(np.tile(x, (n, 1)))

    def mean(self) -> np.ndarray:
        return self.points.mean(axis=0)

    def resample(self, n: int) -> "EmpiricalMeasure":
        """Deterministic resize: strided subsample down, cyclic tile up."""
        if n == self.n:
            return self
        if n < self.n:
            return EmpiricalMeasure(self.points[_strided_indices(self.n, n)])
        reps = -(-n // self.n)
        return EmpiricalMeasure(np.tile(self.points, (reps, 1))[:n])

    def shifted(self, v) -> "EmpiricalMeasure":
        return EmpiricalMeasure(self.points + np.asarray(v, dtype=np.float64))

    def to_csv(self, path) -> None:
        """One point per row, d columns, no header."""
        np.savetxt(path, self.points, fmt="%.17g", delimiter=",")

    @classmethod
    def from_csv(cls, path) -> "EmpiricalMeasure":
        pts = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(pts)


@dataclass(frozen=True)
class TransportPlan:
    """Coupling between two equal-size empirical measures.

    Exact solutions store the optimal permutation (row i of mu pairs with
    ``permutation[i]`` of nu); entropic solutions store the dense coupling.
    """

    cost: float          # transported cost: mean |x - y|^theta under the plan
    theta: float
    permutation: np.ndarray | None = None
    matrix: np.ndarray | None = None   # rows/cols sum to 1/N
    eps: float | None = None           # entropic regularization, if any

    @property
    def distance(self) -> float:
        return float(self.cost) ** (1.0 / self.theta)

    def marginal_violation(self) -> float:
        if self.matrix is None:
            return 0.0
        n, m = self.matrix.shape
        row = np.abs(self.matrix.sum(axis=1) - 1.0 / n).max()
        col = np.abs(self.matrix.sum(axis=0) - 1.0 / m).max()
        return float(max(row, col))


def _strided_indices(n_from: int, n_to: int) -> np.ndarray:
    return (np.arange(n_to) * n_from) // n_to


def _cost_matrix(x: np.ndarray, y: np.ndarray, theta: float) -> np.ndarray:
    d = cdist(x, y, metric="euclidean")
    if theta == 2.0:
        d *= d
    elif theta != 1.0:
        d **= theta
    return d


def _exact_plan(x: np.ndarray, y: np.ndarray, theta: float) -> TransportPlan:
    if x.shape[1] == 1:
        # In one dimension the monotone rearrangement is optimal for any
        # convex cost |x - y|^theta, theta >= 1.
        ix = np.argsort(x[:, 0], kind="stable")
        iy = np.argsort(y[:, 0], kind="stable")
        perm = np.empty(len(ix), dtype=np.intp)
        perm[ix] = iy
        cost = float(np.mean(np.abs(x[ix, 0] - y[iy, 0]) ** theta))
        return TransportPlan(cost=cost, theta=theta, permutation=perm)
    c = _cost_matrix(x, y, theta)
    rows, cols = linear_sum_assignment(c)
    perm = np.empty(len(rows), dtype=np.intp)
    perm[rows] = cols
    return TransportPlan(cost=float(c[rows, cols].mean()), theta=theta, permutation=perm)


def _sinkhorn_plan(x: np.ndarray, y: np.ndarray, theta: float,
                   eps: float | None) -> TransportPlan:
    """Log-domain Sinkhorn with uniform weights.

    Iterates until the free marginal is within SINKHORN_MARGINAL_TOL of 1/N
    or the iteration cap is reached; the returned (feasible up to that
    tolerance) plan's cost upper-bounds the exact optimum.
    """
    c = _cost_matrix(x, y, theta)
    if eps is None:
        med = float(np.median(c))
        eps = 0.05 * med if med > 0 else 1e-6
    n, m = c.shape
    log_a = -np.log(n)
    log_b = -np.log(m)
    f = np.zeros(n)
    g = np.zeros(m)
    for _ in range(SINKHORN_MAX_ITER):
        f = -eps * logsumexp((g[None, :] - c) / eps + log_b, axis=1)
        g = -eps * logsumexp((f[:, None] - c) / eps + log_a, axis=0)
        log_p = (f[:, None] + g[None, :] - c) / eps + log_a + log_b
        row_violation = np.abs(np.exp(logsumexp(log_p, axis=1)) - 1.0 / n).max()
        if row_violation < SINKHORN_MARGINAL_TOL:
            break
    p = np.exp(log_p)
    return TransportPlan(cost=float((p * c).sum()), theta=theta, matrix=p, eps=eps)


def transport_plan(mu: EmpiricalMeasure, nu: EmpiricalMeasure, theta: float = 2.0,
                   method: str = "auto", eps: float | None = None) -> TransportPlan:
    """Optimal (or entropic) coupling between two empirical measures.

    Ensembles of unequal size are first made comparable by strided
    subsampling of the larger one (a documented, deterministic
    approximation).
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    x, y = mu.points, nu.points
    if len(x) != len(y):
        # unequal ensembles: strided-subsample the larger one (a documented,
        # deterministic approximation that keeps the assignment square)
        n = min(len(x), len(y))
        x = x[_strided_indices(len(x), n)]
        y = y[_strided_indices(len(y), n)]
    if method == "auto":
        method = "exact" if (mu.dim == 1 or len(x) <= EXACT_SIZE_LIMIT) else "entropic"
    if method == "exact":
        if len(x) != len(y):
            raise ValueError(f"exact method needs equal sizes, got {len(x)} and {len(y)}")
        return _exact_plan(x, y, theta)
    if method == "entropic":
        return _sinkhorn_plan(x, y, theta, eps)
    raise ValueError(f"unknown method {method!r} (expected exact|entropic|auto)")


def wasserstein(mu: EmpiricalMeasure, nu: EmpiricalMeasure, theta: float = 2.0,
                method: str = "auto", eps: float | None = None) -> float:
    """W_theta between two empirical measures.

    Exact mode returns the true optimum over pairings; entropic mode an
    upper-biased Sinkhorn approximation with regularization ``eps``
    (default 0.05 x median pairwise cost).
    """
    return transport_plan(mu, nu, theta=theta, method=method, eps=eps).distance


def optimal_pairing(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                    theta: float = 2.0) -> np.ndarray:
    """Permutation realizing W_theta: point i of mu pairs with perm[i] of nu."""
    plan = transport_plan(mu, nu, theta=theta, method="exact")
    return plan.permutation


def moment(mu: EmpiricalMeasure, p: float) -> float:
    """(1/N) sum |x_i|^p, the p-th radial moment."""
    if p < 0:
        raise ValueError(f"moment order must be >= 0, got {p}")
    r = np.linalg.norm(mu.points, axis=1)
    return float(np.mean(r ** p))


def convolve(f, mu: EmpiricalMeasure, x) -> np.ndarray | float:
    """(f * mu)(x) = (1/N) sum f(x - z_i); value may be scalar, vector or matrix.

    ``f`` is applied to the (N, d) array of differences when it vectorizes
    over the leading axis, otherwise point by point.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    diffs = x[None, :] - mu.points
    try:
        vals = np.asarray(f(diffs), dtype=np.float64)
        if vals.shape[:1] == (mu.n,) and (mu.n != 1 or vals.ndim > 0):
            out = vals.mean(axis=0)
            return float(out) if out.ndim == 0 else out
    except (TypeError, ValueError, IndexError):
        pass
    vals = np.stack([np.asarray(f(diffs[i]), dtype=np.float64) for i in range(mu.n)])
    out = vals.mean(axis=0)
    return float(out) if out.ndim == 0 else out
