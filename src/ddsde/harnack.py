"""Coupling by change of measure and the inequalities it certifies.

The coupled process Y solves the same equation as X, driven by the shifted noise
dW - h dt, h = sigma(X)^{-1} (Y - X) / xi_t: each of its steps is ``em_step`` on
that noise.  The shift makes X and Y coincide at the terminal time, and its
Girsanov density R_T makes dW - h dt Brownian under Q = R_T P.  From the
simulated (X, Y, R) triple the module checks the log-Harnack inequality, the
entropy bound on E[R log R], the shift Harnack inequality for additive noise,
and the integration-by-parts identity; companion calculators evaluate the
analytic constants, and the density bounds in closed form.

The coupling constants kappa1, kappa2 and lambda are the model's
``bounds``, and the horizon [s, T] is the grid's, so one set of constants
serves the simulation and every bound checked against it.

Each Monte-Carlo check is a sample and a pure estimator over it.  The sample
steps once from the initial states the caller gives, so the caller alone
decides how many paths there are and where they start:
``simulate_coupled`` gives (X_T, R_T), over which ``coupled_girsanov`` and
``verify_log_harnack`` estimate; ``solver.evolve_states`` gives the X_T of
``shift_coupling_verify``; ``ibp_weights`` gives X_T and the
integration-by-parts weight of a direction v, over which ``verify_ibp``
estimates.  The test function and the shift enter only at the terminal
time, so one sample serves every f, and every v of the Harnack checks.

Every experiment's verdict is the ``ok`` of a ``_Judged`` result built from
``Check`` records, here and in ``solver``.  A Monte-Carlo SE is
sd(psi, ddof=1)/sqrt(M) over a per-sample influence array psi (``_se``); a
slack or a residual takes the difference of its two sides' psi, a paired SE,
as both come from one sample.  An exact comparison is a ``Check`` with SE 0.

Models with law-dependent or non-invertible diffusion (the Landau family)
are excluded by flag: the coupling construction requires sigma = sigma_t(x)
invertible.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .measure import EmpiricalMeasure, transport_plan
from .models import CoefficientModel
from .rng import NoiseSpec, normal_block  # noqa: F401 (perfbench/test_perfbench.py reads it)
from .sde import NumericalBlowupError, TimeGrid, apply_sigma, check_finite, em_path, em_step

VERDICT_SIGMAS = 3.0  # a Check fails beyond this many standard errors on the wrong side

_NU_FLOW_TAG = 0x57EA4  # substream tag for the independent nu-flow particle run


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


def _coupling_phi(model: CoefficientModel, grid: TimeGrid) -> float:
    """phi over the grid's span, with the model's bounds."""
    b = model.bounds
    return phi(grid.s, grid.t_end, b.lambda_, b.kappa1, b.kappa2)


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
    b = model.bounds
    missing = [k for k, val in
               (("kappa1", b.kappa1), ("kappa2", b.kappa2), ("lambda", b.lambda_))
               if val is None]
    if missing:
        raise ValueError(f"{model.name}: bounds missing {missing} for coupling")
    if not (model.invertible_sigma and model.distribution_free_sigma):
        raise ValueError(
            f"{model.name}: coupling by change of measure needs invertible, "
            "distribution-free sigma (the Landau family is excluded)"
        )


def _sigma_solver(model, t, states, mu, v):
    """sigma(t, states, mu)^{-1} v; a model's precomputed inverse spares evaluating sigma."""
    if model.sigma_inverse is not None:
        return apply_sigma(model.sigma_inverse(t), v)
    sigma = np.asarray(model.diffusion(t, states, mu), dtype=np.float64)
    if sigma.ndim == 3:
        return np.linalg.solve(sigma, v[..., None])[..., 0]
    return apply_sigma(np.linalg.inv(sigma), v)


def simulate_coupled(model: CoefficientModel, x0: np.ndarray, y0: np.ndarray,
                     grid: TimeGrid, noise: NoiseSpec,
                     record_series: bool = False) -> CoupledSample:
    """Run the coupling by change of measure and accumulate the Girsanov weight.

    X evolves as its own particle system (so its law curve is the particle
    approximation of the mu-flow); the marginal nu-flow needed by Y's drift
    runs in lockstep from the Y-initials on a fresh substream.  Step k shifts
    X's increment to dW_k - h_k dt, h_k = sigma(X_k)^{-1} (Y_k - X_k) / xi_k,
    steps Y by ``em_step`` on it, and adds <h_k, dW_k> - |h_k|^2 dt / 2 to
    log R (left-point Ito).  The final step sets Y_T := X_T (h blows up at
    t = T; the continuous construction guarantees the merge, the discrete
    scheme imposes it) and accounts the last increment at the penultimate node.
    """
    _require_coupling_model(model)
    x0 = np.asarray(x0, dtype=np.float64)
    y = np.asarray(y0, dtype=np.float64)
    if x0.shape != y.shape:
        raise ValueError(f"pair shapes differ: {x0.shape} vs {y.shape}")
    dt, n = grid.dt, grid.n_steps
    nu_flow = None if np.array_equal(x0, y) else em_path(
        model, y, grid.s, dt, n, noise.substream(_NU_FLOW_TAG))

    w2_sq_initial = float(np.mean(np.sum((x0 - y) ** 2, axis=1)))
    xi = xi_schedule(grid.t_end, model.bounds.kappa1)
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
        h = _sigma_solver(model, t_k, x, mu_k, y - x) / xi(t_k)
        if k == n - 1:
            gap_sq_pen = np.sum((x - y) ** 2, axis=1)
            r_pen = np.exp(log_r)
            y = x_next
        else:
            y = em_step(model, t_k, y, nu_k, dt, dw - h * dt)
            check_finite(y, noise.step0 + k + 1, model.state_radius)
        log_r += (h * dw).sum(axis=1) - 0.5 * (h * h).sum(axis=1) * dt

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


def _se(psi: np.ndarray) -> float:
    """sd(psi, ddof=1)/sqrt(M), the SE of the mean of a per-sample influence array psi."""
    return float(np.std(psi, ddof=1) / np.sqrt(len(psi))) if len(psi) > 1 else 0.0


class Check(NamedTuple):
    """An estimate, its SE and its verdict: a slack passes at -VERDICT_SIGMAS se or above, a
    residual within VERDICT_SIGMAS se of 0, se floored at 1e-15 so that rounding noise passes."""

    value: float   # an inequality's slack rhs - lhs, or an identity's residual lhs - rhs
    se: float
    identity: bool = False

    @property
    def ok(self) -> bool:
        return (abs(self.value) <= VERDICT_SIGMAS * max(self.se, 1e-15) if self.identity
                else self.value >= -VERDICT_SIGMAS * self.se)


@dataclass
class _Judged:
    """A result whose ``ok`` (no field, so ``asdict`` leaves it out) is its checks' verdict."""

    checks: InitVar[tuple[Check, ...]]

    def __post_init__(self, checks: tuple[Check, ...]) -> None:
        self.ok = all(check.ok for check in checks)


@dataclass
class CouplingResult(_Judged):
    """Summary statistics of a Girsanov-coupled run."""

    terminal_gap_q: float      # E_Q |X - Y|^2 at the node before the merge
    weight_mean: float         # E[R_T]; 1 within noise when the martingale holds
    weight_mean_se: float
    weight_entropy: float      # E[R_T log R_T]
    weight_entropy_se: float
    phi_bound: float           # phi(s, T) * W2(mu0, nu0)^2
    ess: float                 # (sum R)^2 / sum R^2; nan when every R^2 underflows
    clip_fraction: float | None = None
    ess_warning: str | None = None   # set when ess is below M/10 or undefined
    success: bool = field(init=False)

    def __post_init__(self, checks: tuple[Check, ...]) -> None:
        super().__post_init__(checks)
        self.success = self.ok


def coupled_girsanov(sample: CoupledSample, model: CoefficientModel, grid: TimeGrid,
                     weight_clip: float | None = None) -> CouplingResult:
    """Weight, entropy and gap statistics of one ``simulate_coupled`` sample of
    ``model`` on ``grid``.

    The pairs start optimally coupled (the pairing realizes W2(mu0, nu0)^2 as
    the mean square gap).  Q-expectations are importance-weighted under P
    (multiplied by R); weight degeneracy shows up in the effective sample size,
    with an ``ess_warning`` below M/10.  With ``weight_clip`` set, the result
    also reports the fraction of pairs whose |log R_T| exceeds it.
    """
    r = np.exp(sample.log_r)
    r_log_r = r * sample.log_r
    weight_mean, entropy = float(np.mean(r)), float(np.mean(r_log_r))
    phi_bound = _coupling_phi(model, grid) * sample.w2_sq_initial
    martingale = Check(weight_mean - 1.0, _se(r), identity=True)
    entropy_bound = Check(phi_bound - entropy, _se(r_log_r))
    r_sq = (r * r).sum()
    ess = float(r.sum() ** 2 / r_sq) if r_sq > 0 else math.nan  # every weight underflowed
    gap_q = float(np.mean(sample.r_penultimate * sample.gap_sq_penultimate))
    clip = None if weight_clip is None else float(np.mean(np.abs(sample.log_r) > weight_clip))
    warning = ("effective sample size undefined: every weight underflowed" if math.isnan(ess)
               else f"effective sample size {ess:.1f} < M/10" if ess < len(r) / 10 else None)
    return CouplingResult((martingale, entropy_bound), gap_q, weight_mean, martingale.se,
                          entropy, entropy_bound.se, phi_bound, ess, clip, warning)


@dataclass
class _Inequality(_Judged):
    """An inequality lhs <= rhs whose two sides are estimated from one sample."""

    lhs: float
    rhs: float
    slack: float      # rhs - lhs
    lhs_se: float
    rhs_se: float
    slack_se: float   # paired: of the difference of the two sides' psi

    @classmethod
    def judge(cls, lhs: float, rhs: float, lhs_psi: np.ndarray, rhs_psi: np.ndarray, **extra):
        """The result for sides with these psi; the slack's psi overwrites rhs_psi."""
        lhs_se, rhs_se = _se(lhs_psi), _se(rhs_psi)
        rhs_psi -= lhs_psi
        slack = Check(rhs - lhs, _se(rhs_psi))
        return cls((slack,), lhs, rhs, slack.value, lhs_se, rhs_se, slack.se, **extra)


# ---------------------------------------------------------------------------
# Log-Harnack verification
# ---------------------------------------------------------------------------

@dataclass
class LogHarnackResult(_Inequality):  # lhs = E[R_T log f(X_T)], rhs = log E f(X_T) + phi w2_sq
    phi: float        # phi(s, T)
    w2_sq: float      # W2(mu0, nu0)^2

    @property
    def log_mean_f(self) -> float:  # the rhs without the phi term, for sharp-constant oracles
        return self.rhs - self.phi * self.w2_sq


def coupled_pairs_from_measures(mu0: EmpiricalMeasure,
                                nu0: EmpiricalMeasure) -> tuple[np.ndarray, np.ndarray]:
    """(N, d) initial pairs realizing the exact W2 coupling of two equal-size laws."""
    return mu0.points, nu0.points[transport_plan(mu0, nu0, theta=2.0).permutation]


def verify_log_harnack(sample: CoupledSample, f, model: CoefficientModel, grid: TimeGrid,
                       f_min: float = 1e-12) -> LogHarnackResult:
    """Monte-Carlo check of the log-Harnack inequality over one ``simulate_coupled``
    sample of ``model`` on ``grid``.

    lhs estimates the semigroup acting on log f at nu0 via E[R_T log f(X_T)]
    (X_T = Y_T under Q); rhs is log E[f(X_T)] + phi(s, T) W2(mu0, nu0)^2.
    A negative slack beyond its standard error flags bad constants or a
    too-coarse step.

    Raises:
        NumericalBlowupError: if f dips below ``f_min`` at a terminal state,
            naming the first such sample and the grid's last step.
    """
    fx = np.asarray(f(sample.x_terminal), dtype=np.float64)
    if fx.min() < f_min:
        raise NumericalBlowupError(
            f"test function dips to {fx.min():.3g} < f_min={f_min}; "
            "log-Harnack needs f bounded away from zero",
            int(np.argmax(fx < f_min)), grid.n_steps)
    lhs_psi, mean_f = np.exp(sample.log_r) * np.log(fx), float(np.mean(fx))
    phi_value = _coupling_phi(model, grid)
    rhs = math.log(mean_f) + phi_value * sample.w2_sq_initial
    return LogHarnackResult.judge(float(np.mean(lhs_psi)), rhs, lhs_psi, fx / mean_f,
                                  phi=phi_value, w2_sq=sample.w2_sq_initial)


# ---------------------------------------------------------------------------
# Power-Harnack constant
# ---------------------------------------------------------------------------

def power_harnack_threshold(lambda_: float, gamma_t: float) -> float:
    """Smallest admissible power p(t) = (1 + 4 lambda gamma)^2."""
    return (1.0 + 4.0 * lambda_ * gamma_t) ** 2


def power_harnack_constant(p: float, s: float, t: float, moment_term: float, *,
                           horizon: float, lambda_: float, kappa1: float, kappa2: float,
                           gamma_t: float = 0.0) -> float:
    """Explicit exponential factor of the power-Harnack inequality.

    ``moment_term`` is the squared initial distance |x - y|^2; kappa1/kappa2
    are the drift monotonicity constants, lambda_ bounds ||sigma^{-1}||,
    gamma_t is the diffusion distortion and ``horizon`` the T of the factor's
    Gamma term.  Requires p >= p(t) = (1 + 4 lambda gamma)^2, with a strictly
    positive denominator 2 (sqrt(p) - 1)^2 - 16 lambda^2 gamma^2.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if kappa1 < 0 or kappa2 < 0:  # kappa1 = 0 takes the analytic limit below
        raise ValueError("kappa1 and kappa2 must be nonnegative")
    if not t > s:
        raise ValueError(f"need t > s, got s={s}, t={t}")
    threshold = power_harnack_threshold(lambda_, gamma_t)
    if p < threshold:
        raise ValueError(f"power p={p} below the admissible threshold p(t)={threshold}")
    lam, gam, k1, k2 = lambda_, gamma_t, kappa1, kappa2
    sp = math.sqrt(p)
    denom = (sp + 1.0) * (2.0 * (sp - 1.0) ** 2 - 16.0 * lam ** 2 * gam ** 2)
    if denom <= 0:
        raise ValueError(
            f"degenerate denominator at p={p} (threshold {threshold}); need p > p(t)"
        )
    big_gamma = k2 ** 2 * lam ** 2 * horizon * math.exp(2.0 * k1 + 2.0 * k2)
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
class ShiftHarnackResult(_Inequality):
    constant: float   # the exponential factor multiplying the shifted mean


def _gradient_cost_integral(lambda_: float, grad_b: float, span: float) -> float:
    """integral of lambda^2 (1 + (r - s) grad_b)^2 over [s, s + span], for a
    constant ||sigma^{-1}|| bound lambda and drift-gradient bound grad_b."""
    return lambda_ ** 2 * (span + grad_b * span ** 2 + grad_b ** 2 * span ** 3 / 3.0)


def shift_harnack_constant(model: CoefficientModel, v: np.ndarray, p: float,
                           s: float, t: float, log_form: bool = False) -> float:
    """The shift Harnack constant: exp(p sqrt(p) |v|^2 I / (2 (p-1) (sqrt(p)+1) (t-s)^2))
    in the power form, |v|^2 I / (2 (t-s)^2) in the log form.

    Raises:
        OverflowError: if the constant is not a finite number.
    """
    lam, gb = model.bounds.lambda_, model.bounds.B0
    if lam is None or gb is None:
        raise ValueError(f"{model.name}: bounds need lambda_ and B0 for shift estimates")
    span = t - s
    integral = _gradient_cost_integral(lam, gb, span)
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


def shift_coupling_verify(model: CoefficientModel, f, v, x_terminal: np.ndarray,
                          p: float, grid: TimeGrid,
                          log_form: bool = False) -> ShiftHarnackResult:
    """Monte-Carlo check of the shift Harnack inequality over X_T, the terminal
    states of ``solver.evolve_states`` on ``grid``.

    Power form:  (E f(X_T))^p  <=  E[f(X_T + v)^p] * C(p, v),
    log form:    E log f(X_T)  <=  log E[f(X_T + v)] + |v|^2 I / (2 (t-s)^2),
    where I integrates lambda_r^2 (1 + (r-s)||grad b_r||)^2 over [s, t], in
    closed form for the constant lambda and gradient bound of model metadata.

    Raises:
        NumericalBlowupError: if f(X_T) or f(X_T + v) is not positive, naming
            the first such sample and the grid's last step.
    """
    _require_additive(model)
    if not log_form and p <= 1:
        raise ValueError(f"power form needs p > 1, got {p}")
    v = np.asarray(v, dtype=np.float64)
    constant = shift_harnack_constant(model, v, p, grid.s, grid.t_end, log_form)
    fx = np.asarray(f(x_terminal), dtype=np.float64)
    fxv = np.asarray(f(x_terminal + v), dtype=np.float64)
    if fx.min() <= 0 or fxv.min() <= 0:
        raise NumericalBlowupError("shift Harnack needs a positive test function",
                                   int(np.argmax((fx <= 0) | (fxv <= 0))), grid.n_steps)

    if log_form:
        lhs_psi, mean_fv = np.log(fx), float(np.mean(fxv))
        lhs, rhs, rhs_psi = float(np.mean(lhs_psi)), math.log(mean_fv) + constant, fxv / mean_fv
    else:
        mean_f, rhs_psi = float(np.mean(fx)), fxv ** p
        lhs_psi = p * mean_f ** (p - 1.0) * fx
        lhs, rhs = mean_f ** p, float(np.mean(rhs_psi)) * constant
        rhs_psi *= constant
    return ShiftHarnackResult.judge(lhs, rhs, lhs_psi, rhs_psi, constant=constant)


@dataclass
class IBPResult(_Judged):
    lhs: float       # Monte-Carlo mean of the directional derivative of f
    rhs: float       # mean of f(X_T) times the stochastic-integral weight
    lhs_se: float
    rhs_se: float
    z_score: float   # lhs - rhs over its paired SE


def ibp_weights(model: CoefficientModel, v, states: np.ndarray, grid: TimeGrid,
                noise: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """X_T and the integration-by-parts weight of each path started at ``states``.

    weight = sum_k <sigma^{-1}(v - (t_k - s) grad_v b(t_k, X_k, mu_k)), dW_k> / (t-s),
    with the left-point (Ito) discretization of the stochastic integral.
    The weight is the epsilon-derivative of the Girsanov density of the
    interpolating shift X + eps (r-s) v/(t-s); at b = 0 it reduces to <v, W_T>/T.
    """
    _require_additive(model)
    if model.grad_b is None:
        raise ValueError(f"{model.name}: needs a closed-form drift gradient for IBP")
    if model.sigma_inverse is None:
        raise ValueError(f"{model.name}: needs sigma_inverse for IBP")
    v = np.asarray(v, dtype=np.float64)
    weight, term = np.zeros(states.shape[0]), np.empty(states.shape[0])
    for t_k, x, mu_k, dw, states in em_path(model, states, grid.s, grid.dt, grid.n_steps,
                                            noise):
        direction = (t_k - grid.s) * model.grad_b(t_k, x, mu_k, v)
        np.subtract(v[None, :], direction, out=direction)
        direction = apply_sigma(model.sigma_inverse(t_k), direction)
        direction *= dw
        weight += direction.sum(axis=1, out=term)
        del x, mu_k, dw, direction  # lets em_path free X_k and its increments before the next step
    weight /= (grid.t_end - grid.s)
    return states, weight


def verify_ibp(f, grad_f, v, x_terminal: np.ndarray, weight: np.ndarray) -> IBPResult:
    """Monte-Carlo check of the integration-by-parts identity over one
    ``ibp_weights`` sample of the same direction v.

    lhs = E[(grad_v f)(X_T)], rhs = E[f(X_T) weight]; at b = 0 this is the
    classical Gaussian identity E[grad_v f] = E[f <v, W_T>]/T.  This is an
    equality, so it is sensitive to sign and indexing mistakes in the
    weight's accumulation.
    """
    lhs_psi = np.asarray(grad_f(x_terminal), dtype=np.float64) @ np.asarray(v, dtype=np.float64)
    rhs_psi = np.asarray(f(x_terminal), dtype=np.float64) * weight
    lhs, rhs = float(np.mean(lhs_psi)), float(np.mean(rhs_psi))
    lhs_se, rhs_se = _se(lhs_psi), _se(rhs_psi)
    lhs_psi -= rhs_psi
    check = Check(lhs - rhs, _se(lhs_psi), identity=True)
    return IBPResult((check,), lhs, rhs, lhs_se, rhs_se, check.value / max(check.se, 1e-15))


# ---------------------------------------------------------------------------
# Density-bound right-hand sides
# ---------------------------------------------------------------------------

def density_bound_rhs(kind: str, p: float, s: float, t: float,
                      lambda_: float, grad_b: float, d: int) -> float:
    """Closed-form evaluation of the analytic density estimates.

    kind selects the functional of the law's density rho bounded by the
    result: "ET1" the p-th moment of the log-gradient, "ET2" the
    p/(p-1)-norm, "ET3" the entropy.  lambda_ and grad_b are constant bounds
    on ||sigma_r^{-1}|| and ||grad b_r|| over [s, t].
    """
    kind = kind.upper()
    if not t > s:
        raise ValueError(f"need t > s, got s={s}, t={t}")
    span = t - s
    if kind == "ET1":
        if p <= 1:
            raise ValueError(f"ET1 needs p > 1, got {p}")
        integral = lambda_ ** 2 * grad_b ** 2 * span ** 3 / 3.0  # of (r-s)^2 lambda^2 grad_b^2
        base = max(1.0, p * (p - 1.0) / 2.0) / span ** 2 * integral
        return base ** (p / 2.0 * min(1.0, 1.0 / (p - 1.0)))
    integral = _gradient_cost_integral(lambda_, grad_b, span)
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
