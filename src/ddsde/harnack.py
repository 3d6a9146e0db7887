"""Coupling by change of measure and the inequalities it certifies.

The coupled process Y carries an attracting drift sigma(Y) sigma(X)^{-1}
(X - Y) / xi_t on top of its own dynamics; the Girsanov weight R of that
extra drift makes X and Y coincide at the terminal time under the weighted
measure Q = R_T P.  From the simulated (X, Y, R) triple the module checks
the log-Harnack inequality, the entropy bound on E[R log R], the shift
Harnack inequality for additive noise, and the integration-by-parts
identity; companion calculators evaluate the analytic constants.

Models with law-dependent or non-invertible diffusion (the Landau family)
are excluded by flag: the coupling construction requires sigma = sigma_t(x)
invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import EmpiricalMeasure, optimal_pairing
from .models import CoefficientModel
from .rng import NoiseSpec, normal_block  # noqa: F401 (perfbench/test_perfbench.py reads it)
from .sde import TimeGrid, apply_sigma, check_finite, em_path
from .sde import em_step  # noqa: F401 (perfbench/test_perfbench.py reads it)
from .solver import evolve_states

_NU_FLOW_TAG = 0x57EA4  # substream tag for the independent nu-flow particle run


@dataclass(frozen=True)
class CouplingConfig:
    """Constants of the coupling construction over a fixed horizon.

    kappa1/kappa2 are the drift monotonicity constants, lambda_ bounds
    ||sigma^{-1}||, gamma_t the diffusion distortion.  kappa1 = 0 is allowed;
    every formula uses the analytic limit rather than small-kappa evaluation.
    """

    horizon: float
    kappa1: float
    kappa2: float
    lambda_: float
    gamma_t: float = 0.0
    weight_clip: float | None = None

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.kappa1 < 0 or self.kappa2 < 0:
            raise ValueError("kappa1 and kappa2 must be nonnegative")

    @classmethod
    def from_model(cls, model: CoefficientModel, horizon: float,
                   weight_clip: float | None = None) -> "CouplingConfig":
        b = model.bounds
        missing = [k for k, val in
                   (("kappa1", b.kappa1), ("kappa2", b.kappa2), ("lambda", b.lambda_))
                   if val is None]
        if missing:
            raise ValueError(f"{model.name}: bounds missing {missing} for coupling")
        return cls(horizon=horizon, kappa1=b.kappa1, kappa2=b.kappa2,
                   lambda_=b.lambda_, gamma_t=b.gamma_t or 0.0,
                   weight_clip=weight_clip)


def xi_schedule(T: float, kappa1: float):
    """The attraction schedule t -> xi_t, positive on [0, T), zero at T.

    xi_t = (1 - e^{kappa1 (t - T)}) / kappa1, with the analytic kappa1 -> 0
    limit xi_t = T - t.
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if kappa1 == 0.0:
        return lambda t: T - t
    return lambda t: (1.0 - math.exp(kappa1 * (t - T))) / kappa1


def phi(s: float, t: float, lambda_: float, kappa1: float, kappa2: float) -> float:
    """Entropy-cost constant of the coupling over [s, t].

    lambda^2 ( kappa1 / (1 - e^{-kappa1 (t-s)})
               + t kappa2^2 e^{2 (t-s)(kappa1 + kappa2)} / 2 ),
    with the kappa1 -> 0 limit 1/(t-s) for the first term.
    """
    if not t > s:
        raise ValueError(f"need t > s, got s={s}, t={t}")
    if kappa1 == 0.0:
        first = 1.0 / (t - s)
    else:
        first = kappa1 / (1.0 - math.exp(-kappa1 * (t - s)))
    second = t * kappa2 ** 2 * math.exp(2.0 * (t - s) * (kappa1 + kappa2)) / 2.0
    return lambda_ ** 2 * (first + second)


# ---------------------------------------------------------------------------
# Coupled simulation engine
# ---------------------------------------------------------------------------

@dataclass
class CoupledSample:
    """Terminal data of one coupled run (per-pair arrays of length M)."""

    x_terminal: np.ndarray      # (M, d); equals y_terminal by the merge convention
    log_r: np.ndarray           # (M,) log R_T
    gap_sq_penultimate: np.ndarray  # (M,) |X - Y|^2 one node before the merge
    r_penultimate: np.ndarray   # (M,) running weight at that node
    w2_sq_initial: float
    series: dict | None = None  # node curves: t, gap_q, weight_mean, weight_entropy


def _require_coupling_model(model: CoefficientModel) -> None:
    if not (model.invertible_sigma and model.distribution_free_sigma):
        raise ValueError(
            f"{model.name}: coupling by change of measure needs invertible, "
            "distribution-free sigma (the Landau family is excluded)"
        )


def _sigma_solver(model, t, states, mu):
    """A solver for sigma(t, states, mu)^{-1} v; a model's precomputed inverse
    spares evaluating sigma."""
    if model.sigma_inverse is not None:
        inv = model.sigma_inverse(t)
        return lambda v: apply_sigma(inv, v)
    sigma = np.asarray(model.diffusion(t, states, mu), dtype=np.float64)
    if sigma.ndim == 3:
        return lambda v: np.linalg.solve(sigma, v[..., None])[..., 0]
    inv = np.linalg.inv(sigma)
    return lambda v: apply_sigma(inv, v)


def simulate_coupled(model: CoefficientModel, x0: np.ndarray, y0: np.ndarray,
                     config: CouplingConfig, grid: TimeGrid, noise: NoiseSpec,
                     record_series: bool = False) -> CoupledSample:
    """Run the drift-corrected coupling and accumulate the Girsanov weight.

    X evolves as its own particle system (so its law curve is the particle
    approximation of the mu-flow); the marginal nu-flow needed by Y's drift
    runs in lockstep from the Y-initials on a fresh substream.  Y consumes
    exactly X's increments.  log R uses the left-point Ito discretization of
    both the stochastic integral and the quadratic-variation term.  The final
    step sets Y_T := X_T (the 1/xi drift blows up at t = T; the continuous
    construction guarantees the merge, the discrete scheme imposes it) and
    accounts the corresponding increment at the penultimate node.
    """
    _require_coupling_model(model)
    if abs(config.horizon - grid.t_end) > 1e-9 * max(1.0, abs(grid.t_end)):
        raise ValueError(
            f"config horizon {config.horizon} != grid end {grid.t_end}"
        )
    x0 = np.asarray(x0, dtype=np.float64)
    y = np.asarray(y0, dtype=np.float64)
    if x0.shape != y.shape:
        raise ValueError(f"pair shapes differ: {x0.shape} vs {y.shape}")
    dt, n = grid.dt, grid.n_steps
    nu_flow = None if np.array_equal(x0, y) else em_path(
        model, y, grid.s, dt, n, noise.substream(_NU_FLOW_TAG))

    w2_sq_initial = float(np.mean(np.sum((x0 - y) ** 2, axis=1)))
    xi = xi_schedule(config.horizon, config.kappa1)
    log_r = np.zeros(x0.shape[0])
    series = None
    if record_series:
        series = {
            "t": grid.nodes,
            "gap_q": np.full(grid.n_nodes, w2_sq_initial),   # nodes 1..n are set below
            "weight_mean": np.ones(grid.n_nodes),
            "weight_entropy": np.zeros(grid.n_nodes),
        }

    for k, (t_k, x, mu_k, dw, x_next) in enumerate(em_path(model, x0, grid.s, dt, n, noise)):
        nu_k = mu_k if nu_flow is None else next(nu_flow)[2]
        xi_k = xi(t_k)
        u = _sigma_solver(model, t_k, x, mu_k)(y - x)   # sigma(X)^{-1} (Y - X)
        if k == n - 1:
            gap_sq_pen = np.sum((x - y) ** 2, axis=1)
            r_pen = np.exp(log_r)
            y = x_next
        else:
            sigma_y = np.asarray(model.diffusion(t_k, y, nu_k), dtype=np.float64)
            pull = -apply_sigma(sigma_y, u) / xi_k
            y = y + (model.drift(t_k, y, nu_k) + pull) * dt + apply_sigma(sigma_y, dw)
            check_finite(y, noise.step0 + k + 1, model.state_radius)
        log_r += (u * dw).sum(axis=1) / xi_k - 0.5 * (u * u).sum(axis=1) * dt / xi_k ** 2

        if record_series:
            r_now = np.exp(log_r)
            gap_sq = np.sum((x_next - y) ** 2, axis=1)
            series["gap_q"][k + 1] = float(np.mean(r_now * gap_sq))
            series["weight_mean"][k + 1] = float(np.mean(r_now))
            series["weight_entropy"][k + 1] = float(np.mean(r_now * log_r))

    return CoupledSample(
        x_terminal=x_next,
        log_r=log_r,
        gap_sq_penultimate=gap_sq_pen,
        r_penultimate=r_pen,
        w2_sq_initial=w2_sq_initial,
        series=series,
    )


@dataclass
class CouplingResult:
    """Summary statistics of a Girsanov-coupled run."""

    terminal_gap_q: float      # E_Q |X - Y|^2 at the node before the merge
    weight_mean: float         # E[R_T]; 1 within noise when the martingale holds
    weight_mean_se: float
    weight_entropy: float      # E[R_T log R_T]
    weight_entropy_se: float
    phi_bound: float           # phi(s, T) * W2(mu0, nu0)^2
    ess: float                 # (sum R)^2 / sum R^2; nan when every R^2 underflows
    success: bool
    series: dict | None = None
    clip_fraction: float | None = None


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return m, se


def coupled_girsanov(model: CoefficientModel, x0_pairs, config: CouplingConfig,
                     grid: TimeGrid, noise: NoiseSpec,
                     record_series: bool = True) -> CouplingResult:
    """Simulate the coupling and report weight/entropy/gap statistics.

    ``x0_pairs`` is a pair of (M, d) arrays of optimally coupled initial
    states (the pairing realizes W2(mu0, nu0)^2 as the mean square gap).
    Q-expectations are importance-weighted under P (multiplied by R), never
    resampled; weight degeneracy shows up in the reported effective sample
    size.
    """
    x0, y0 = x0_pairs
    sample = simulate_coupled(model, x0, y0, config, grid, noise,
                              record_series=record_series)
    r = np.exp(sample.log_r)
    weight_mean, weight_mean_se = _mean_se(r)
    entropy, entropy_se = _mean_se(r * sample.log_r)
    gap_q, _ = _mean_se(sample.r_penultimate * sample.gap_sq_penultimate)
    phi_bound = phi(grid.s, grid.t_end, config.lambda_, config.kappa1, config.kappa2) \
        * sample.w2_sq_initial
    r_sq = (r * r).sum()
    ess = float(r.sum() ** 2 / r_sq) if r_sq > 0 else math.nan  # every weight underflowed
    success = (abs(weight_mean - 1.0) <= 3.0 * max(weight_mean_se, 1e-15)
               and entropy <= phi_bound + 3.0 * entropy_se)
    clip_fraction = None
    if config.weight_clip is not None:
        clip_fraction = float(np.mean(np.abs(sample.log_r) > config.weight_clip))
    return CouplingResult(
        terminal_gap_q=gap_q,
        weight_mean=weight_mean,
        weight_mean_se=weight_mean_se,
        weight_entropy=entropy,
        weight_entropy_se=entropy_se,
        phi_bound=phi_bound,
        ess=ess,
        success=success,
        series=sample.series,
        clip_fraction=clip_fraction,
    )


# ---------------------------------------------------------------------------
# Log-Harnack verification
# ---------------------------------------------------------------------------

@dataclass
class LogHarnackResult:
    lhs: float        # Q-weighted mean of log f at the terminal state
    rhs: float        # log of the plain mean of f, plus phi * W2^2
    slack: float      # rhs - lhs
    lhs_se: float
    rhs_se: float
    slack_se: float
    phi_value: float
    w2_sq: float
    log_mean_f: float  # the rhs without the phi term, for sharp-constant oracles


def coupled_pairs_from_measures(mu0: EmpiricalMeasure, nu0: EmpiricalMeasure,
                                n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, d) initial pairs realizing the optimal W2 coupling of the resampled laws."""
    x0 = mu0.resample(n_samples)
    y0 = nu0.resample(n_samples)
    perm = optimal_pairing(x0, y0, theta=2.0)
    return x0.points.copy(), y0.points[perm].copy()


def verify_log_harnack(model: CoefficientModel, f, mu0: EmpiricalMeasure,
                       nu0: EmpiricalMeasure, config: CouplingConfig,
                       grid: TimeGrid, noise: NoiseSpec, n_samples: int,
                       f_min: float = 1e-12) -> LogHarnackResult:
    """Monte-Carlo check of the log-Harnack inequality.

    lhs estimates the semigroup acting on log f at nu0 via E[R_T log f(X_T)]
    (X_T = Y_T under Q); rhs is log E[f(X_T)] + phi(s, T) W2(mu0, nu0)^2.
    A negative slack beyond its standard error flags bad constants or a
    too-coarse step.
    """
    for law in (mu0, nu0):
        check_finite(law.points, noise.step0, model.state_radius)
    x0, y0 = coupled_pairs_from_measures(mu0, nu0, n_samples)
    sample = simulate_coupled(model, x0, y0, config, grid, noise)
    fx = np.asarray(f(sample.x_terminal), dtype=np.float64)
    if fx.min() < f_min:
        raise ValueError(
            f"test function dips to {fx.min():.3g} < f_min={f_min}; "
            "log-Harnack needs f bounded away from zero"
        )
    r = np.exp(sample.log_r)
    lhs, lhs_se = _mean_se(r * np.log(fx))
    mean_f, mean_f_se = _mean_se(fx)
    phi_value = phi(grid.s, grid.t_end, config.lambda_, config.kappa1, config.kappa2)
    log_mean_f = math.log(mean_f)
    rhs = log_mean_f + phi_value * sample.w2_sq_initial
    rhs_se = mean_f_se / mean_f
    slack = rhs - lhs
    return LogHarnackResult(
        lhs=lhs, rhs=rhs, slack=slack,
        lhs_se=lhs_se, rhs_se=rhs_se,
        slack_se=math.hypot(lhs_se, rhs_se),
        phi_value=phi_value,
        w2_sq=sample.w2_sq_initial,
        log_mean_f=log_mean_f,
    )


# ---------------------------------------------------------------------------
# Power-Harnack constant
# ---------------------------------------------------------------------------

def power_harnack_threshold(config: CouplingConfig) -> float:
    """Smallest admissible power p(t) = (1 + 4 lambda gamma)^2."""
    return (1.0 + 4.0 * config.lambda_ * config.gamma_t) ** 2


def power_harnack_constant(p: float, s: float, t: float, config: CouplingConfig,
                           moment_term: float) -> float:
    """Explicit exponential factor of the power-Harnack inequality.

    ``moment_term`` is the squared initial distance |x - y|^2.  Requires
    p >= p(t) = (1 + 4 lambda gamma)^2, with a strictly positive
    denominator 2 (sqrt(p) - 1)^2 - 16 lambda^2 gamma^2.
    """
    if not t > s:
        raise ValueError(f"need t > s, got s={s}, t={t}")
    threshold = power_harnack_threshold(config)
    if p < threshold:
        raise ValueError(f"power p={p} below the admissible threshold p(t)={threshold}")
    lam, gam = config.lambda_, config.gamma_t
    k1, k2 = config.kappa1, config.kappa2
    sp = math.sqrt(p)
    denom = (sp + 1.0) * (2.0 * (sp - 1.0) ** 2 - 16.0 * lam ** 2 * gam ** 2)
    if denom <= 0:
        raise ValueError(
            f"degenerate denominator at p={p} (threshold {threshold}); need p > p(t)"
        )
    big_gamma = k2 ** 2 * lam ** 2 * config.horizon * math.exp(2.0 * k1 + 2.0 * k2)
    if k1 == 0.0:
        heat = 2.0 * lam ** 2 / (t - s)
    else:
        heat = 2.0 * k1 * lam ** 2 / (1.0 - math.exp(-k1 * (t - s)))
    return math.exp(sp * moment_term * (big_gamma + heat) / denom)


# ---------------------------------------------------------------------------
# Shift Harnack and integration by parts (additive noise)
# ---------------------------------------------------------------------------

def _require_additive(model: CoefficientModel) -> None:
    if not (model.additive_noise and model.invertible_sigma):
        raise ValueError(
            f"{model.name}: shift coupling needs additive, invertible noise"
        )


@dataclass
class ShiftHarnackResult:
    lhs: float
    rhs: float
    slack: float
    lhs_se: float
    rhs_se: float
    slack_se: float
    constant: float   # the exponential factor multiplying the shifted mean


def _gradient_cost_integral(model: CoefficientModel, s: float, t: float) -> float:
    """integral of lambda_r^2 (1 + (r - s) ||grad b_r||)^2 over [s, t]."""
    lam = model.bounds.lambda_
    gb = model.bounds.B0
    if lam is None or gb is None:
        raise ValueError(f"{model.name}: bounds need lambda_ and B0 for shift estimates")
    span = t - s
    return lam ** 2 * (span + gb * span ** 2 + gb ** 2 * span ** 3 / 3.0)


def shift_harnack_constant(model: CoefficientModel, v: np.ndarray, p: float,
                           s: float, t: float, log_form: bool = False) -> float:
    """The shift Harnack constant: exp(p sqrt(p) |v|^2 I / (2 (p-1) (sqrt(p)+1) (t-s)^2))
    in the power form, |v|^2 I / (2 (t-s)^2) in the log form.

    Raises:
        OverflowError: if the constant is not a finite number.
    """
    integral = _gradient_cost_integral(model, s, t)
    span = t - s
    vsq = float(v @ v)
    if log_form:
        constant = vsq * integral / (2.0 * span ** 2)
    else:
        sp = math.sqrt(p)
        try:
            constant = math.exp(p * sp * vsq * integral
                                / (2.0 * (p - 1.0) * (sp + 1.0) * span ** 2))
        except OverflowError:
            constant = math.inf
    if not math.isfinite(constant):
        raise OverflowError(f"the shift Harnack constant overflows at |v|^2 = {vsq:g}")
    return constant


def shift_coupling_verify(model: CoefficientModel, f, v, mu0: EmpiricalMeasure,
                          p: float, grid: TimeGrid, noise: NoiseSpec,
                          n_samples: int, log_form: bool = False) -> ShiftHarnackResult:
    """Monte-Carlo check of the shift Harnack inequality.

    Power form:  (E f(X_T))^p  <=  E[f(X_T + v)^p] * C(p, v),
    log form:    E log f(X_T)  <=  log E[f(X_T + v)] + |v|^2 I / (2 (t-s)^2),
    where I integrates lambda_r^2 (1 + (r-s)||grad b_r||)^2 over [s, t], in
    closed form for the constant lambda and gradient bound of model metadata.
    """
    _require_additive(model)
    if not log_form and p <= 1:
        raise ValueError(f"power form needs p > 1, got {p}")
    v = np.asarray(v, dtype=np.float64)
    constant = shift_harnack_constant(model, v, p, grid.s, grid.t_end, log_form)
    x0 = mu0.resample(n_samples).points
    x_t = evolve_states(model, x0, grid.s, grid.n_steps, grid.dt, noise)
    fx = np.asarray(f(x_t), dtype=np.float64)
    fxv = np.asarray(f(x_t + v), dtype=np.float64)
    if fx.min() <= 0 or fxv.min() <= 0:
        raise ValueError("shift Harnack needs a positive test function")

    if log_form:
        lhs, lhs_se = _mean_se(np.log(fx))
        mean_fv, mean_fv_se = _mean_se(fxv)
        rhs = math.log(mean_fv) + constant
        rhs_se = mean_fv_se / mean_fv
    else:
        mean_f, mean_f_se = _mean_se(fx)
        lhs = mean_f ** p
        lhs_se = p * mean_f ** (p - 1.0) * mean_f_se
        mean_fvp, mean_fvp_se = _mean_se(fxv ** p)
        rhs = mean_fvp * constant
        rhs_se = constant * mean_fvp_se
    slack = rhs - lhs
    return ShiftHarnackResult(
        lhs=lhs, rhs=rhs, slack=slack,
        lhs_se=lhs_se, rhs_se=rhs_se,
        slack_se=math.hypot(lhs_se, rhs_se),
        constant=constant,
    )


@dataclass
class IBPResult:
    lhs: float       # Monte-Carlo mean of the directional derivative of f
    rhs: float       # mean of f(X_T) times the stochastic-integral weight
    lhs_se: float
    rhs_se: float
    z_score: float


def integration_by_parts_check(model: CoefficientModel, f, grad_f, v,
                               mu0: EmpiricalMeasure, grid: TimeGrid,
                               noise: NoiseSpec, n_samples: int) -> IBPResult:
    """Monte-Carlo check of the integration-by-parts identity.

    lhs = E[(grad_v f)(X_T)];
    rhs = E[ f(X_T)/(t-s) * sum_k <sigma^{-1}(v - (t_k - s) grad_v b(t_k, X_k, mu_k)), dW_k> ],
    with the left-point (Ito) discretization of the stochastic integral.
    The weight is the epsilon-derivative of the Girsanov density of the
    interpolating shift X + eps (r-s) v/(t-s); at b = 0 it reduces to the
    classical Gaussian identity E[grad_v f] = E[f <v, W_T>]/T.  This is an
    equality, so it is sensitive to sign and indexing mistakes in the
    accumulation.
    """
    _require_additive(model)
    if model.grad_b is None:
        raise ValueError(f"{model.name}: needs a closed-form drift gradient for IBP")
    if model.sigma_inverse is None:
        raise ValueError(f"{model.name}: needs sigma_inverse for IBP")
    v = np.asarray(v, dtype=np.float64)
    x0 = mu0.resample(n_samples).points
    weight, term = np.zeros(x0.shape[0]), np.empty(x0.shape[0])
    for t_k, x, mu_k, dw, states in em_path(model, x0, grid.s, grid.dt, grid.n_steps, noise):
        direction = (t_k - grid.s) * model.grad_b(t_k, x, mu_k, v)
        np.subtract(v[None, :], direction, out=direction)
        direction = apply_sigma(model.sigma_inverse(t_k), direction)
        direction *= dw
        weight += direction.sum(axis=1, out=term)
        del x, mu_k, dw, direction  # lets em_path free X_k and its increments before the next step
    weight /= (grid.t_end - grid.s)

    fx = np.asarray(f(states), dtype=np.float64)
    directional = np.asarray(grad_f(states), dtype=np.float64) @ v
    lhs, lhs_se = _mean_se(directional)
    rhs, rhs_se = _mean_se(fx * weight)
    denom = math.hypot(lhs_se, rhs_se)
    z = (lhs - rhs) / denom if denom > 0 else 0.0
    return IBPResult(lhs=lhs, rhs=rhs, lhs_se=lhs_se, rhs_se=rhs_se, z_score=z)


# ---------------------------------------------------------------------------
# Density-bound right-hand sides
# ---------------------------------------------------------------------------

def _as_curve(c):
    return c if callable(c) else (lambda r, _v=float(c): _v)


def density_bound_rhs(kind: str, p: float, s: float, t: float,
                      lambda_curve, gradb_curve, d: int) -> float:
    """Quadrature evaluation of the analytic density estimates.

    kind selects the functional of the law's density rho bounded by the
    result: "ET1" the p-th moment of the log-gradient, "ET2" the
    p/(p-1)-norm, "ET3" the entropy.  lambda_curve and gradb_curve are
    ||sigma_r^{-1}|| and ||grad b_r|| as constants or callables of r.
    """
    # Local: scipy.integrate is most of the CLI's import time; only bounds runs need it.
    from scipy.integrate import quad
    kind = kind.upper()
    if not t > s:
        raise ValueError(f"need t > s, got s={s}, t={t}")
    lam = _as_curve(lambda_curve)
    gb = _as_curve(gradb_curve)
    span = t - s
    if kind == "ET1":
        if p <= 1:
            raise ValueError(f"ET1 needs p > 1, got {p}")
        integral, _ = quad(lambda r: (r - s) ** 2 * lam(r) ** 2 * gb(r) ** 2, s, t)
        base = max(1.0, p * (p - 1.0) / 2.0) / span ** 2 * integral
        return base ** (p / 2.0 * min(1.0, 1.0 / (p - 1.0)))
    integral, _ = quad(lambda r: lam(r) ** 2 * (1.0 + (r - s) * gb(r)) ** 2, s, t)
    sp = math.sqrt(p)
    if kind == "ET2":
        if p <= 1:
            raise ValueError(f"ET2 needs p > 1, got {p}")
        base = p * sp * integral / (4.0 * math.pi * (p - 1.0) * (sp + 1.0) * span ** 2)
        return base ** (d / (2.0 * (p - 1.0)))
    if kind == "ET3":
        return d / 2.0 * math.log(integral / (4.0 * math.pi * (sp + 1.0) * span ** 2))
    raise ValueError(f"unknown kind {kind!r} (expected ET1|ET2|ET3)")


# ---------------------------------------------------------------------------
# Bundled positive test functions (for the inequality verifications)
# ---------------------------------------------------------------------------

TEST_FUNCTIONS = {
    "const": lambda x: np.full(x.shape[0], 2.0),
    "one_plus_tanh": lambda x: 1.0 + np.tanh(x[:, 0]),
    "half_sin": lambda x: 1.0 + 0.5 * np.sin(x[:, 0]),
    "gauss_bump": lambda x: 0.2 + np.exp(-np.sum(x * x, axis=1)),
    "logistic": lambda x: 0.1 + 1.0 / (1.0 + np.exp(-x[:, 0])),
}

IBP_FUNCTIONS = {
    # name -> (f, grad_f); grad_f returns the full gradient, (M, d)
    "linear": (
        lambda x: x[:, 0],
        lambda x: np.concatenate(
            [np.ones((x.shape[0], 1)), np.zeros((x.shape[0], x.shape[1] - 1))], axis=1
        ),
    ),
    "sin": (
        lambda x: np.sin(x[:, 0]),
        lambda x: np.concatenate(
            [np.cos(x[:, 0])[:, None], np.zeros((x.shape[0], x.shape[1] - 1))], axis=1
        ),
    ),
}
