"""Empirical measures and optimal-transport distances between them.

Every law in this suite is an ensemble of N equally weighted points, so the
W_theta distance between two of them is exact at every N: the monotone
rearrangement (a sort) in one dimension, and an assignment problem, solved
in O(N^3) time and N^2 memory, in higher dimensions.  For W_2 the assignment
is solved on costs reduced by the Gaussian map's potentials, 2-5x sooner.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
import types
import warnings
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import scipy


def write_csv(path, rows: np.ndarray, header: str | None = None) -> None:
    """The (n, d) ``rows`` as "%.17g" numbers joined by commas, after an optional header
    line: ``np.savetxt``'s bytes, without the class it defines on every call for the GC."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("" if header is None else header + "\n")
        fh.writelines(line % tuple(row) for row in rows)


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

    def shifted(self, v) -> "EmpiricalMeasure":
        return EmpiricalMeasure(self.points + np.asarray(v, dtype=np.float64))

    def to_csv(self, path) -> None:
        """One point per row, d columns, no header."""
        write_csv(path, self.points)

    @classmethod
    def from_csv(cls, path) -> "EmpiricalMeasure":
        with warnings.catch_warnings():  # a file with no rows fails in cls, not as a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
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


_EXTENSION_LOCK = threading.Lock()  # transport_plan runs on a thread pool under --threads


def _scipy_extension(package: str, name: str):
    """The compiled module ``scipy.<package>.<name>``, without importing its package.

    The noise needs only ``ndtri`` of ``scipy.special``, whose import clones
    numpy for scipy's array-API support (about 0.3 s and 17 MB); 3-D runs call
    one function each of ``scipy.optimize`` and ``scipy.spatial``, whose
    imports would also load ``scipy.sparse`` and ``scipy.linalg`` (about
    20 MB).  The module is registered under its own name before it runs, as
    importlib does, so a later ``import scipy.<package>`` reuses it.

    A module whose init imports its compiled siblings (``_ufuncs``) needs a
    parent package to find them.  If ``scipy.<package>`` is not imported yet,
    a bare stub package whose ``__path__`` is the real directory stands in for
    it during the load only, and is removed when the load ends.  If the load
    raises ImportError, the module is removed too, and it is imported the
    usual way, as it is when there is no compiled file.
    """
    full_name = f"scipy.{package}.{name}"
    with _EXTENSION_LOCK:
        module = sys.modules.get(full_name)
        if module is not None:
            return module
        directory = os.path.join(os.path.dirname(scipy.__file__), package)
        spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(full_name)
        if spec is None:
            return importlib.import_module(full_name)
        parent = f"scipy.{package}"
        stub = None
        # The siblings loaded under the stub (_ufuncs_cxx, _special_ufuncs,
        # _gufuncs, _ellip_harm_2) stay in sys.modules but are not attributes
        # of a scipy.special imported later, since importlib binds a submodule
        # to its parent only when it loads it: hasattr(scipy.special,
        # "_gufuncs") is False, while "from scipy.special import _gufuncs"
        # works.  Neither ddsde nor scipy outside its tests reads them as
        # attributes.
        if parent not in sys.modules:
            stub = sys.modules[parent] = types.ModuleType(parent)
            stub.__path__ = [directory]
        try:
            module = sys.modules[full_name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except ImportError:  # an import the stub parent cannot satisfy
            sys.modules.pop(full_name, None)
        finally:
            if stub is not None:
                sys.modules.pop(parent, None)
        return importlib.import_module(full_name)


def theta_cost(d: np.ndarray, theta: float) -> np.ndarray:
    """Distances d raised to the power theta, in place (no other code raises one); for theta
    not 1 or 2, FloatingPointError if a positive distance's power leaves the normal range."""
    if theta == 2.0:
        d *= d
    elif theta != 1.0:
        positive, double = d > 0, np.finfo(np.float64)
        with np.errstate(over="ignore", under="ignore"):
            d **= theta
        if not (double.tiny <= np.min(d, where=positive, initial=np.inf) and d.max() <= double.max):
            raise FloatingPointError(
                f"the W_theta cost |x - y|^theta under- or overflows at theta = {theta:g}")
    return d


def _reduce_by_gaussian_potentials(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Subtract potentials u_i + v_j from c = |x_i - y_j|^2: every assignment's cost
    drops by sum(u) + sum(v), so the optimum stays, and the solver reaches it sooner.

    u is the centered potential of the Gaussian map x -> m_y + a (x - m_x),
    a = sqrt(var_y / var_x) per coordinate (|x|^2 - 2 phi(x) would add a constant
    of order |m_x|^2 that swamps c far from 0); v is the c-transform.
    """
    mx, my = x.mean(axis=0), y.mean(axis=0)
    xc = x - mx
    sx, sy = x.var(axis=0), y.var(axis=0)
    a = np.sqrt(np.divide(sy, sx, out=np.ones_like(sx), where=sx > 0))
    u = (xc * ((1.0 - a) * xc + 2.0 * (mx - my))).sum(axis=1)
    c -= u[:, None]
    c -= c.min(axis=0)


def transport_plan(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                   theta: float = 2.0) -> TransportPlan:
    """Optimal coupling between two empirical measures of equal size.

    For theta = 2 in d > 1 the assignment is solved on the reduced costs; the
    cost is read from the matched pairs' distances, summed per coordinate with
    the sqrt last as ``cdist`` does, so it is bitwise the plain matrix's cost.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.n != nu.n:
        raise ValueError(f"size mismatch: {mu.n} vs {nu.n} points")
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
        cost = float(np.mean(theta_cost(np.abs(x[ix, 0] - y[iy, 0]), theta)))
        return TransportPlan(cost=cost, theta=theta, permutation=perm)
    c = theta_cost(_scipy_extension("spatial", "_distance_pybind").cdist_euclidean(x, y), theta)
    if theta == 2.0:
        _reduce_by_gaussian_potentials(c, x, y)
    rows, cols = _scipy_extension("optimize", "_lsap").linear_sum_assignment(c)
    sq = sum((x[rows, j] - y[cols, j]) ** 2 for j in range(mu.dim))
    perm = np.empty(len(rows), dtype=np.intp)
    perm[rows] = cols
    return TransportPlan(cost=float(theta_cost(np.sqrt(sq), theta).mean()), theta=theta,
                         permutation=perm)


def wasserstein(mu: EmpiricalMeasure, nu: EmpiricalMeasure, theta: float = 2.0) -> float:
    """Exact W_theta between two empirical measures of equal size."""
    return transport_plan(mu, nu, theta=theta).distance

