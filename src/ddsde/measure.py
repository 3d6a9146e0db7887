"""Empirical measures and optimal-transport distances between them.

Every law in this suite is an ensemble of N equally weighted points, so the
W_theta distance between two of them is exact at every N: the monotone
rearrangement (a sort) in one dimension, and an assignment problem, solved
in O(N^3) time and N^2 memory, in higher dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist


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
            return EmpiricalMeasure(self.points[(np.arange(n) * self.n) // n])
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
    """Optimal coupling between two equal-size empirical measures.

    Row i of mu pairs with ``permutation[i]`` of nu.
    """

    cost: float          # transported cost: mean |x - y|^theta under the plan
    theta: float
    permutation: np.ndarray
    # Read by perfbench/spans.py, which counts plans with a dense coupling; always None.
    matrix = None

    @property
    def distance(self) -> float:
        return float(self.cost) ** (1.0 / self.theta)


def _cost_matrix(x: np.ndarray, y: np.ndarray, theta: float) -> np.ndarray:
    d = cdist(x, y, metric="euclidean")
    if theta == 2.0:
        d *= d
    elif theta != 1.0:
        d **= theta
    return d


def transport_plan(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                   theta: float = 2.0) -> TransportPlan:
    """Optimal coupling between two empirical measures of equal size."""
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.n != nu.n:
        raise ValueError(f"size mismatch: {mu.n} vs {nu.n} points; resample one first")
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    x, y = mu.points, nu.points
    if mu.dim == 1:
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


def wasserstein(mu: EmpiricalMeasure, nu: EmpiricalMeasure, theta: float = 2.0) -> float:
    """Exact W_theta between two empirical measures of equal size."""
    return transport_plan(mu, nu, theta=theta).distance


def optimal_pairing(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                    theta: float = 2.0) -> np.ndarray:
    """Permutation realizing W_theta: point i of mu pairs with perm[i] of nu."""
    return transport_plan(mu, nu, theta=theta).permutation


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
