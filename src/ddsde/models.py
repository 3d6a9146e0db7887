"""Bundled coefficient models and their analytic constants.

Two families ship with the suite:

* the homogeneous Landau family on R^3, built by convolving the kernel pair
  (b0, sigma0) against the current law, with independent interaction
  strengths alpha (drift) and beta (noise);
* a linear mean-field model with closed-form oracles for every statistic the
  test-suite needs.

Analytic constants (monotonicity, Lipschitz, contraction rates) are carried
as metadata in ModelBounds; they are inputs, never inferred from the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measure import _scipy_extension


@dataclass(frozen=True)
class ModelBounds:
    """Analytic constants attached to a model; None where not applicable.

    kappa1/kappa2 are the drift monotonicity constants, lambda_ bounds the
    diffusion inverse, gamma_t the diffusion distortion; C1/C2 are the
    dissipativity constants (contraction exponent C1 - C2); K0/B0/C0 are the
    kernel constants of the convolution family.
    """

    kappa1: float | None = None
    kappa2: float | None = None
    lambda_: float | None = None
    gamma_t: float | None = None
    C1: float | None = None
    C2: float | None = None
    K0: float | None = None
    B0: float | None = None
    C0: float | None = None

    @property
    def contraction_exponent(self) -> float | None:
        if self.C1 is None or self.C2 is None:
            return None
        return self.C1 - self.C2

    @property
    def dissipative(self) -> bool:
        return self.C1 is not None and self.C2 is not None and self.C2 > self.C1


@dataclass(frozen=True)
class CoefficientModel:
    """Drift/diffusion pair with structural flags and analytic metadata.

    drift(t, X, z) maps (float, (M, d), (N, d)) -> (M, d), where z holds
    the law's N points; diffusion(t, X, z) -> (M, d, d), or (d, d) when
    shared by all trajectories.  Flags must be truthful.  ``joint``, where
    set, returns both from one evaluation; ``coefficients`` uses it.
    """

    name: str
    dim: int
    drift: Callable
    diffusion: Callable
    additive_noise: bool
    invertible_sigma: bool
    distribution_free_sigma: bool
    bounds: ModelBounds = field(default_factory=ModelBounds)
    params: dict = field(default_factory=dict)
    grad_b: Callable | None = None     # (t, X, z, v) -> (M, d), x-gradient in direction v
    sigma_inverse: Callable | None = None  # t -> (d, d), additive models only
    state_radius: float | None = None  # abort guard for locally-Lipschitz drifts
    joint: Callable | None = None      # (t, X, z) -> (drift, diffusion)

    def coefficients(self, t, x, z) -> tuple[np.ndarray, np.ndarray]:
        """(drift, diffusion) at (t, x) against the law whose (N, d) points are z."""
        if self.joint is not None:
            return self.joint(t, x, z)
        return self.drift(t, x, z), self.diffusion(t, x, z)


# ---------------------------------------------------------------------------
# Homogeneous Landau family
# ---------------------------------------------------------------------------

def landau_b0(x: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel drift -2|x|^gamma x on R^3 (divergence of the collision matrix)."""
    x = np.asarray(x, dtype=np.float64)
    if gamma == 0.0:
        return -2.0 * x
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    return -2.0 * r ** gamma * x


def landau_sigma0(x: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel diffusion factor: |x|^{gamma/2} [[x2,0,x3],[-x1,x3,0],[0,-x2,-x1]].

    Satisfies sigma0 sigma0* = |x|^gamma (|x|^2 I - x (x) x), the Landau
    collision matrix; x = 0 maps to the zero matrix for every gamma >= 0.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != 3:
        raise ValueError(f"landau_sigma0 needs 3-vectors, got dim {x.shape[-1]}")
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    m = np.zeros(x.shape + (3,))
    m[..., 0, 0] = x2
    m[..., 0, 2] = x3
    m[..., 1, 0] = -x1
    m[..., 1, 1] = x3
    m[..., 2, 1] = -x2
    m[..., 2, 2] = -x1
    if gamma == 0.0:
        return m
    r = np.linalg.norm(x, axis=-1)
    return r[..., None, None] ** (gamma / 2.0) * m


# Row panels of the evaluation points, each of at most ceil(M / PANELS) rows;
# the kernel holds the distances of one panel at a time.
PANELS = 8


def _landau_coefficients_pairwise(x: np.ndarray, z: np.ndarray, alpha: float, beta: float,
                                  gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Drift and diffusion of the points x against the law of the points z.

    Each row panel P of the drift weights |x_i - alpha z_j|^gamma adds
    P [z | 1] into G, whose last column is the row sum of the weights, and
    likewise for the diffusion weights |x_i - beta z_j|^(gamma/2) into G'.  At
    alpha = beta those are the square roots of the drift weights.  When
    ``z is x`` the caller passed the states as their own law; there, at
    alpha = beta = 1, the weights are symmetric, so a panel starts at its
    diagonal and, transposed, also serves the rows below it.
    """
    m, n = len(x), len(z)
    rows = -(-m // PANELS) or 1
    cdist = _scipy_extension("spatial", "_distance_pybind").cdist_sqeuclidean
    mirror = z is x and alpha == beta == 1.0
    scales, powers = (alpha, beta), (gamma / 2.0, gamma / 4.0)
    scaled = [s * z for s in scales]
    z1 = np.hstack((z, np.ones((n, 1))))
    g = np.zeros((2, m, 4))
    for i0 in range(0, m, rows):
        i1 = min(i0 + rows, m)
        j0 = i0 if mirror else 0
        for k in range(2):
            if k and alpha == beta:
                np.sqrt(p, out=p)
            else:
                p = cdist(x[i0:i1], scaled[k][j0:])
                p **= powers[k]
            g[k, i0:i1] += p @ z1[j0:]
            if mirror:
                g[k, i1:] += p[:, i1 - i0:].T @ z1[i0:i1]
    drift, sigma = ((x * gk[:, 3:] - s * gk[:, :3]) / n for gk, s in zip(g, scales))
    return -2.0 * drift, landau_sigma0(sigma, 0.0)


def landau_model(gamma: float, alpha: float, beta: float,
                 state_radius: float | None = None) -> CoefficientModel:
    """Landau-type model: drift and diffusion convolve kernels with the law's (N, d) points z.

    drift(t, x, z)     = (1/N) sum_i b0(x - alpha z_i)
    diffusion(t, x, z) = (1/N) sum_i sigma0(x - beta z_i)

    At gamma = 0 both kernels are linear in x, so the convolution collapses
    to a single kernel evaluation at the mean-shifted point.  For gamma > 0
    each kernel is |w|^p times a map linear in w, so the convolution is that
    map applied to x * rowmean(W) - s W z / N, with the (M, N) weight matrix
    W_ij = |x_i - s z_j|^p and s = alpha (p = gamma) for the drift, s = beta
    (p = gamma / 2) for the diffusion.  ``joint`` builds no (M, N) matrix:
    it takes the row panels of W one at a time (of the upper triangle only,
    against the ensemble's own law at alpha = beta = 1), raises the squared
    distances in place, takes the diffusion weights as the square roots of
    the drift weights when alpha = beta, and multiplies each panel by
    [z | 1]; ``drift`` and ``diffusion`` are its two halves.  A state-radius
    guard applies for gamma > 0 (the drift is only locally Lipschitz, so no
    rate claims are made).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if state_radius is not None and not state_radius > 0:
        raise ValueError(f"state_radius must be positive, got {state_radius}")
    if state_radius is None and gamma > 0:
        state_radius = 1e3

    if gamma == 0.0:
        def drift(t, x, z):
            return landau_b0(x - alpha * z.mean(axis=0), 0.0)

        def diffusion(t, x, z):
            return landau_sigma0(x - beta * z.mean(axis=0), 0.0)
        joint = None
    else:
        def joint(t, x, z):
            return _landau_coefficients_pairwise(x, z, alpha, beta, gamma)

        def drift(t, x, z):
            return joint(t, x, z)[0]

        def diffusion(t, x, z):
            return joint(t, x, z)[1]

    if gamma == 0.0:
        k0, b0c, c0 = -2.0, 2.0, 2.0
        c1 = abs(alpha) * b0c + c0 * abs(beta) * (1.0 + abs(beta))
        c2 = -(2.0 * k0 + abs(alpha) * b0c + c0 * (1.0 + abs(beta)))
        bounds = ModelBounds(K0=k0, B0=b0c, C0=c0, C1=c1, C2=c2)
    else:
        bounds = ModelBounds()

    return CoefficientModel(
        name="landau",
        dim=3,
        drift=drift,
        diffusion=diffusion,
        additive_noise=False,
        invertible_sigma=False,
        distribution_free_sigma=(beta == 0.0),
        bounds=bounds,
        params={"gamma": gamma, "alpha": alpha, "beta": beta},
        state_radius=state_radius,
        joint=joint,
    )


# ---------------------------------------------------------------------------
# Linear mean-field model (closed-form oracle)
# ---------------------------------------------------------------------------

def _as_sigma_matrix(sigma_const, dim: int | None) -> tuple[np.ndarray, int]:
    s = np.asarray(sigma_const, dtype=np.float64)
    if s.ndim == 0:
        d = dim if dim is not None else 1
        return float(s) * np.eye(d), d
    if s.ndim == 1 or (s.ndim == 2 and s.shape[0] == s.shape[1]):
        if dim is not None and dim != s.shape[0]:
            raise ValueError(f"dim {dim} conflicts with sigma shape {s.shape}")
        return (np.diag(s) if s.ndim == 1 else s), s.shape[0]
    raise ValueError(f"sigma_const must be scalar, diagonal, or (d, d), got shape {s.shape}")


def linear_meanfield_model(a_coef: float, c_coef: float, sigma_const,
                           dim: int | None = None) -> CoefficientModel:
    """drift(t, x, z) = -a x + c mean(z), z the law's (N, d) points; constant additive sigma.

    The ensemble mean obeys m' = (c - a) m, and with c = 0 each coordinate
    is an Ornstein-Uhlenbeck process; both give exact oracles for tests.
    """
    sigma, d = _as_sigma_matrix(sigma_const, dim)
    singular_values = np.linalg.svd(sigma, compute_uv=False)
    invertible = bool(singular_values.min() > 1e-12 * max(1.0, singular_values.max()))
    sigma_inv = np.linalg.inv(sigma) if invertible else None
    lam = float(np.linalg.norm(sigma_inv, 2)) if invertible else None

    def drift(t, x, z):
        return -a_coef * x + c_coef * z.mean(axis=0)

    def diffusion(t, x, z):
        return sigma

    def grad_b(t, x, z, v):
        return np.broadcast_to(-a_coef * np.asarray(v, dtype=np.float64), x.shape).copy()

    bounds = ModelBounds(
        kappa1=max(0.0, -2.0 * a_coef),
        kappa2=2.0 * abs(c_coef),
        lambda_=lam,
        gamma_t=0.0,
        C1=abs(c_coef),
        C2=2.0 * a_coef - abs(c_coef),
        K0=-a_coef,
        B0=abs(a_coef),
        C0=0.0,
    )
    return CoefficientModel(
        name="linear_meanfield",
        dim=d,
        drift=drift,
        diffusion=diffusion,
        additive_noise=True,
        invertible_sigma=invertible,
        distribution_free_sigma=True,
        bounds=bounds,
        params={"a": a_coef, "c": c_coef, "sigma": sigma.tolist()},
        grad_b=grad_b,
        sigma_inverse=(lambda t: sigma_inv) if invertible else None,
    )


# ---------------------------------------------------------------------------
# Explicit rate formulas
# ---------------------------------------------------------------------------

def contraction_exponent_cc(alpha: float, beta: float) -> float:
    """Growth exponent of the squared W2 gap for the Landau family at gamma=0."""
    return 4.0 * (abs(alpha) + abs(beta)) + 2.0 * beta ** 2 - 2.0


def contraction_exponent_tn(K0: float, B0: float, C0: float,
                            alpha: float, beta: float) -> float:
    """Growth exponent for a general convolution pair with kernel constants."""
    return 2.0 * K0 + C0 * (1.0 + abs(beta)) ** 2 + 2.0 * abs(alpha) * B0

