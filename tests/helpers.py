"""Shared oracles for the test suite (kept independent of the library paths)."""

import itertools

import mpmath
import numpy as np

from ddsde.measure import EmpiricalMeasure
from ddsde.models import landau_sigma0
from ddsde.sde import LawCurve, TimeGrid, euler_maruyama


def brute_force_wasserstein(x: np.ndarray, y: np.ndarray, theta: float) -> float:
    """Exhaustive search over all pairings; the independent transport oracle."""
    n = len(x)
    diff = x[:, None, :] - y[None, :, :]
    cost = np.linalg.norm(diff, axis=2) ** theta
    best = min(
        cost[np.arange(n), perm].sum()
        for perm in itertools.permutations(range(n))
    )
    return (best / n) ** (1.0 / theta)


def mean_se(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(len(values)))


def fit_slope(t, y) -> float:
    return float(np.polyfit(np.asarray(t), np.asarray(y), 1)[0])


def landau_a(x: np.ndarray, gamma: float) -> np.ndarray:
    """Collision matrix a(x) = |x|^gamma (|x|^2 I - x (x) x), the reference for sigma0 sigma0*."""
    x = np.asarray(x, dtype=np.float64)
    r2 = np.sum(x * x, axis=-1)
    outer = x[..., :, None] * x[..., None, :]
    core = r2[..., None, None] * np.eye(3) - outer
    if gamma == 0.0:
        return core
    return (r2 ** (gamma / 2.0))[..., None, None] * core


def verify_flags(model, n_probes: int = 8, seed: int = 0) -> None:
    """Probe a model's declared-True structural flags at random (t, x, mu); raise on a lie.

    A False flag is a no-guarantee marker and cannot be falsified by finitely
    many probes (e.g. an averaged singular kernel is generically full rank),
    so only True claims are checked.
    """
    rng = np.random.default_rng(seed)
    d = model.dim

    def probe_sigma(t, x, mu):
        s = np.asarray(model.diffusion(t, x, mu), dtype=np.float64)
        return s if s.ndim == 3 else np.broadcast_to(s, (x.shape[0],) + s.shape)

    for _ in range(n_probes):
        t = float(rng.uniform(0.0, 1.0))
        x = rng.normal(size=(2, d))
        mu = EmpiricalMeasure(rng.normal(size=(5, d)))
        mu2 = EmpiricalMeasure(rng.normal(size=(5, d)))
        s_x0 = probe_sigma(t, x, mu)[0]
        s_x1 = probe_sigma(t, x, mu)[1]
        s_mu2 = probe_sigma(t, x, mu2)[0]
        if model.additive_noise and not (
            np.allclose(s_x0, s_x1, atol=1e-12) and np.allclose(s_x0, s_mu2, atol=1e-12)
        ):
            raise ValueError(f"{model.name}: additive_noise declared but sigma varies")
        if model.distribution_free_sigma and not np.allclose(s_x0, s_mu2, atol=1e-12):
            raise ValueError(
                f"{model.name}: distribution_free_sigma declared but sigma reads mu"
            )
        if model.invertible_sigma:
            sv = np.linalg.svd(s_x0, compute_uv=False)
            if sv.min() <= 1e-10 * max(1.0, sv.max()):
                raise ValueError(
                    f"{model.name}: invertible_sigma declared but a probe is singular"
                )


def moment(mu: EmpiricalMeasure, p: float) -> float:
    """(1/N) sum |x_i|^p, the p-th radial moment."""
    if p < 0:
        raise ValueError(f"moment order must be >= 0, got {p}")
    r = np.linalg.norm(mu.points, axis=1)
    return float(np.mean(r ** p))


def synchronous_pair(model, law_x, law_y, init_x, init_y,
                     grid: TimeGrid, noise) -> tuple[LawCurve, LawCurve]:
    """Two runs driven by identical increments per (trajectory, step).

    Marginally each run is ``euler_maruyama`` against its own law curve; the
    shared noise makes the pair a synchronous coupling.
    """
    x = np.asarray(init_x, dtype=np.float64)
    y = np.asarray(init_y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"initial ensembles differ in shape: {x.shape} vs {y.shape}")
    return (euler_maruyama(model, x, grid, noise, law=law_x),
            euler_maruyama(model, y, grid, noise, law=law_y))


_LANDAU_SUMS = {}  # (x, z, gamma, scale) -> 40-digit sums, as the cases share laws and scales


def _landau_sums(x: np.ndarray, z: np.ndarray, gamma: float, scale: float):
    """The (drift, sigma) direct sums of the points x against scale * z, each rounded once."""
    key = (x.shape, x.tobytes(), z.shape, z.tobytes(), gamma, scale)
    if key in _LANDAU_SUMS:
        return _LANDAU_SUMS[key]
    n = len(z)
    with mpmath.workdps(40):
        quarter = mpmath.mpf(gamma) / 4
        points = [[mpmath.mpf(scale) * mpmath.mpf(c) for c in row] for row in z]
        drift, sigma = [], []
        for row in x:
            xi = [mpmath.mpf(c) for c in row]
            acc2, acc4 = [mpmath.mpf(0)] * 3, [mpmath.mpf(0)] * 3
            for zj in points:
                diff = [a - b for a, b in zip(xi, zj)]
                w4 = (diff[0] ** 2 + diff[1] ** 2 + diff[2] ** 2) ** quarter
                w2 = w4 * w4
                for k in range(3):
                    acc2[k] += w2 * diff[k]
                    acc4[k] += w4 * diff[k]
            drift.append([float(-2 * c / n) for c in acc2])
            sigma.append([float(c / n) for c in acc4])
    _LANDAU_SUMS[key] = drift, sigma
    return drift, sigma


def landau_reference(x: np.ndarray, z: np.ndarray, alpha: float, beta: float,
                     gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Landau drift and diffusion (gamma > 0) of the points x against the law of
    the points z, as 40-digit direct sums over every pair, rounded once."""
    drift, sigma = _landau_sums(x, z, gamma, alpha)[0], _landau_sums(x, z, gamma, beta)[1]
    return np.array(drift), landau_sigma0(np.array(sigma), 0.0)
