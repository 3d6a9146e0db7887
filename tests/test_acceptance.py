"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is fixed here, taken from the project's quantitative
envelopes; nothing is calibrated at runtime.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from ddsde.cli import main as cli_main
from ddsde.harnack import (
    IBP_FUNCTIONS,
    TEST_FUNCTIONS,
    coupled_girsanov,
    coupled_pairs_from_measures,
    density_bound_rhs,
    ibp_weights,
    phi,
    power_harnack_constant,
    shift_coupling_verify,
    simulate_coupled,
    verify_ibp,
    verify_log_harnack,
)
from ddsde.measure import EmpiricalMeasure, wasserstein
from ddsde.models import (
    contraction_exponent_cc,
    landau_model,
    landau_sigma0,
    linear_meanfield_model,
)
from ddsde.rng import NoiseSpec, normal_block
from ddsde.sde import TimeGrid, euler_maruyama
from ddsde.solver import (
    estimate_contraction,
    evolve_states,
    find_invariant,
    picard_solve,
)

from helpers import brute_force_wasserstein, landau_a, mean_se

mpmath.mp.dps = 50


def gaussian_measure(n, d, seed, std=1.0, mean=0.0):
    pts = mean + std * normal_block(NoiseSpec(seed=seed, dim=d), np.arange(n), 0)
    return EmpiricalMeasure(pts)


def report(criterion, text):
    print(f"ACCEPTANCE {criterion:02d} PASS: {text}")


def test_criterion_01_landau_structure():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for gamma in (0.0, 0.5, 1.0):
        x = rng.normal(size=(1000, 3)) * 2.0
        s = landau_sigma0(x, gamma)
        prod = np.einsum("nij,nkj->nik", s, s)
        worst = max(worst, float(np.abs(prod - landau_a(x, gamma)).max()))
    assert worst < 1e-12
    report(1, f"factorization defect {worst:.2e} < 1e-12 on 10^3 points x 3 exponents")


def test_criterion_02_picard_geometric_decay():
    model = linear_meanfield_model(2.0, 1.0, 0.2, dim=1)
    mu0 = gaussian_measure(256, 1, seed=21)
    grid = TimeGrid(0.0, 0.5, 500)
    rep = picard_solve(model, mu0, grid, NoiseSpec(seed=22, dim=1),
                       max_iter=7, tol=1e-15)
    assert rep.geometric_applicable
    ratios = rep.delta_ratios()[:5]
    assert len(ratios) == 5
    bound = math.exp(-1.0) + 0.15
    assert np.all(ratios <= bound)
    report(2, f"delta ratios {np.round(ratios, 3).tolist()} all <= e^-1+0.15 = {bound:.3f}")


def test_criterion_03_picard_particle_oracle_agreement():
    target = math.exp(-1.0)
    model = linear_meanfield_model(2.0, 1.0, 0.2, dim=1)
    mu0 = EmpiricalMeasure.point_mass([1.0], 512)
    lines = []
    for n_steps in (1000, 2000):          # dt and dt/2 refinement pass
        grid = TimeGrid(0.0, 1.0, n_steps)
        noise = NoiseSpec(seed=23, dim=1)
        law_p = euler_maruyama(model, mu0.points, grid, noise)
        m_part, se_part = mean_se(law_p.states[-1, :, 0])
        tol = max(3 * se_part, 5 * grid.dt)
        assert abs(m_part - target) < tol
        rep = picard_solve(model, mu0, grid, noise, max_iter=10, tol=1e-4)
        assert rep.converged
        terminal = rep.iterates[-1].measure_at(grid.n_steps)
        m_pic, se_pic = mean_se(terminal.points[:, 0])
        assert abs(m_pic - target) < max(3 * se_pic, 5 * grid.dt)
        w2 = wasserstein(law_p.measure_at(grid.n_steps), terminal, theta=2.0)
        assert w2 <= 0.05
        lines.append(f"dt={grid.dt:g}: particle {m_part:.4f}, picard {m_pic:.4f}, W2 {w2:.3g}")
    report(3, f"target e^-1={target:.4f}; " + "; ".join(lines))


def test_criterion_04_contraction_envelopes():
    results = []
    # linear model, a = 1, c = 0: slope -2 +- 0.1
    model = linear_meanfield_model(1.0, 0.0, 0.3, dim=1)
    mu0 = gaussian_measure(256, 1, seed=24)
    nu0 = mu0.shifted([1.0])
    for n_steps in (1000, 2000):
        est = estimate_contraction(model, mu0, nu0, TimeGrid(0.0, 1.0, n_steps),
                                   NoiseSpec(seed=25, dim=1))
        assert abs(est.empirical_rate + 2.0) <= 0.1
    results.append(f"linear {est.empirical_rate:+.3f} in -2+-0.1")

    # Landau Maxwell (alpha = beta = 1): slope <= 8 + 0.5; nu0 is scaled and
    # shifted (a pure translate is preserved exactly and the check trivializes)
    maxwell = landau_model(0.0, 1.0, 1.0)
    mu0 = gaussian_measure(256, 3, seed=26)
    nu0 = EmpiricalMeasure(1.4 * mu0.points + np.array([0.7, 0.0, 0.0]))
    for n_steps in (500, 1000):
        est = estimate_contraction(maxwell, mu0, nu0, TimeGrid(0.0, 0.5, n_steps),
                                   NoiseSpec(seed=27, dim=3))
        assert est.empirical_rate <= 8.0 + 0.5
    results.append(f"maxwell {est.empirical_rate:+.3f} <= 8.5")

    # Landau alpha = 0.1, beta = 0: slope <= -2(1 - 0.2) + 0.3 = -1.3
    dissipative = landau_model(0.0, 0.1, 0.0)
    mu0 = gaussian_measure(256, 3, seed=28)
    nu0 = mu0.shifted([1.0, 0.0, 0.0])
    for n_steps in (1000, 2000):
        est = estimate_contraction(dissipative, mu0, nu0, TimeGrid(0.0, 1.0, n_steps),
                                   NoiseSpec(seed=29, dim=3))
        assert est.empirical_rate <= -1.3
    results.append(f"dissipative {est.empirical_rate:+.3f} <= -1.3")
    report(4, "; ".join(results))


def test_criterion_05_invariant_measure():
    model = linear_meanfield_model(1.0, 0.0, 1.0, dim=1)
    mu_hat, residual = find_invariant(
        model, grid_step=1e-3, noise=NoiseSpec(seed=30, dim=1),
        n_particles=2000, burn_in=10.0, check_horizon=0.5, tol=0.05,
    )
    assert residual <= 0.05
    second = float((mu_hat.points ** 2).mean())
    assert abs(second - 0.5) <= 0.03
    report(5, f"fixed-point residual {residual:.4f} <= 0.05; "
              f"second moment {second:.4f} in 0.5+-0.03")


def test_criterion_06_girsanov_coupling():
    model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
    m = 10_000
    x0 = np.zeros((m, 1))
    y0 = np.ones((m, 1))         # W2(mu0, nu0) = 1
    noise = NoiseSpec(seed=31, dim=1)
    coarse_grid, fine_grid = TimeGrid(0.0, 1.0, 1000), TimeGrid(0.0, 1.0, 2000)
    coarse = coupled_girsanov(simulate_coupled(model, x0, y0, coarse_grid, noise),
                              model, coarse_grid)
    assert abs(coarse.weight_mean - 1.0) <= 3 * coarse.weight_mean_se
    assert coarse.weight_entropy <= coarse.phi_bound + 3 * coarse.weight_entropy_se
    fine = coupled_girsanov(simulate_coupled(model, x0, y0, fine_grid, noise),
                            model, fine_grid)
    ratio = coarse.terminal_gap_q / fine.terminal_gap_q
    assert ratio >= 1.3
    report(6, f"E[R]={coarse.weight_mean:.4f}+-{coarse.weight_mean_se:.4f}; "
              f"entropy {coarse.weight_entropy:.4f} <= {coarse.phi_bound:.4f}; "
              f"gap ratio {ratio:.2f} >= 1.3")


def test_criterion_07_log_harnack():
    model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
    grid = TimeGrid(0.0, 1.0, 1000)
    mu0 = EmpiricalMeasure.point_mass([0.0], 5000)
    nu0 = EmpiricalMeasure.point_mass([1.0], 5000)
    sample = simulate_coupled(model, *coupled_pairs_from_measures(mu0, nu0), grid,
                              NoiseSpec(seed=32, dim=1))
    slacks = {}
    for name in sorted(TEST_FUNCTIONS):  # one sample serves every test function
        res = verify_log_harnack(sample, TEST_FUNCTIONS[name], model, grid)
        assert res.slack >= -3.0 * res.slack_se, name
        slacks[name] = round(res.slack, 3)

    # exact-constant Gaussian case: b = 0, sigma = I, sharp phi -> 1/(2T)
    brown = linear_meanfield_model(0.0, 0.0, 1.0, dim=1)
    bgrid = TimeGrid(0.0, 1.0, 200)
    m = 40_000
    u, x0_val, y0_val = 1.0, 0.0, 1.0
    pairs = coupled_pairs_from_measures(EmpiricalMeasure.point_mass([x0_val], m),
                                        EmpiricalMeasure.point_mass([y0_val], m))
    res = verify_log_harnack(
        simulate_coupled(brown, *pairs, bgrid, NoiseSpec(seed=33, dim=1)),
        lambda x: np.exp(u * x[:, 0]), brown, bgrid,
    )
    lhs_closed = u * y0_val
    log_mean_closed = u * x0_val + u * u * bgrid.t_end / 2.0
    assert abs(res.lhs - lhs_closed) <= 1e-3 + 3 * res.lhs_se
    assert abs(res.log_mean_f - log_mean_closed) <= 1e-3 + 3 * res.rhs_se
    sharp_slack = res.log_mean_f + res.w2_sq / (2.0 * bgrid.t_end) - res.lhs
    assert abs(sharp_slack) <= 1e-3 + 3 * res.slack_se
    report(7, f"slacks {slacks} all >= -3 s.e.; Gaussian oracle: "
              f"lhs err {abs(res.lhs - lhs_closed):.2e}, sharp slack {sharp_slack:+.2e}")


def test_criterion_08_integration_by_parts():
    model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
    grid = TimeGrid(0.0, 1.0, 1000)
    mu0 = EmpiricalMeasure.point_mass([0.0], 100_000)
    noise = NoiseSpec(seed=34, dim=1)
    x_t, weight = ibp_weights(model, [1.0], mu0.points, grid, noise)
    lines = []
    for name in ("linear", "sin"):  # one weight pass serves both test functions
        f, grad_f = IBP_FUNCTIONS[name]
        res = verify_ibp(f, grad_f, [1.0], x_t, weight)
        assert abs(res.lhs - res.rhs) <= 3 * math.hypot(res.lhs_se, res.rhs_se)
        if name == "linear":
            assert res.lhs == 1.0     # exact <u, v> with u = v = e_1
        lines.append(f"{name}: lhs {res.lhs:.4f} rhs {res.rhs:.4f} z {res.z_score:+.2f}")
    report(8, "; ".join(lines) + " at M=1e5")


def test_criterion_09_shift_harnack():
    model = linear_meanfield_model(1.0, 0.25, 1.0, dim=1)
    grid = TimeGrid(0.0, 1.0, 1000)
    mu0 = EmpiricalMeasure.point_mass([0.5], 20_000)
    noise = NoiseSpec(seed=35, dim=1)
    x_t = evolve_states(model, mu0.points, grid.s, grid.n_steps, grid.dt, noise)
    slacks = []
    for v in (0.25, -0.5, 1.0):  # one terminal sample serves every shift
        res = shift_coupling_verify(model, TEST_FUNCTIONS["gauss_bump"], [v], x_t, 2.0, grid)
        assert res.slack >= -3.0 * res.slack_se
        slacks.append(round(res.slack, 4))
    res0 = shift_coupling_verify(model, TEST_FUNCTIONS["gauss_bump"], [0.0], x_t, 2.0, grid)
    assert res0.constant == 1.0
    assert res0.slack >= 0.0          # Jensen, holds exactly
    report(9, f"slacks {slacks} >= -3 s.e. for |v| <= 1; v=0 Jensen slack "
              f"{res0.slack:.4f} >= 0")


def test_criterion_10_bound_calculators():
    assert contraction_exponent_cc(1.0, 1.0) == 8.0

    # phi against 50-digit arithmetic
    lam, k1, k2, s, t = 1.3, 0.8, 0.4, 0.2, 1.7
    got = phi(s, t, lam, k1, k2)
    L, K1, K2, S, T = map(mpmath.mpf, (lam, k1, k2, s, t))
    want = L ** 2 * (K1 / (1 - mpmath.e ** (-K1 * (T - S)))
                     + T * K2 ** 2 * mpmath.e ** (2 * (T - S) * (K1 + K2)) / 2)
    phi_err = abs(got - float(want))
    assert phi_err < 1e-10

    # power-Harnack factor against 50-digit arithmetic
    p, mt = 9.0, 0.7
    got_p = power_harnack_constant(p, s, t, mt, horizon=t, lambda_=lam, kappa1=k1, kappa2=k2,
                                   gamma_t=0.1)
    P, MT, G = map(mpmath.mpf, (p, mt, 0.1))
    sp = mpmath.sqrt(P)
    big_gamma = K2 ** 2 * L ** 2 * T * mpmath.e ** (2 * K1 + 2 * K2)
    heat = 2 * K1 * L ** 2 / (1 - mpmath.e ** (-K1 * (T - S)))
    denom = (sp + 1) * (2 * (sp - 1) ** 2 - 16 * L ** 2 * G ** 2)
    want_p = mpmath.e ** (sp * MT * (big_gamma + heat) / denom)
    power_err = abs(got_p - float(want_p)) / float(want_p)
    assert power_err < 1e-10

    # density bounds against closed forms for constant inputs
    lam_c, g_c, d = 1.1, 0.4, 3
    span = mpmath.mpf(1.0)
    for p_val in (2.0, 3.0):
        P = mpmath.mpf(p_val)
        want1 = (mpmath.mpf(max(1.0, p_val * (p_val - 1) / 2.0)) / span ** 2
                 * mpmath.mpf(lam_c) ** 2 * mpmath.mpf(g_c) ** 2 * span ** 3 / 3
                 ) ** (P / 2 * min(mpmath.mpf(1), 1 / (P - 1)))
        got1 = density_bound_rhs("ET1", p_val, 0.0, 1.0, lam_c, g_c, d)
        assert abs(got1 - float(want1)) < 1e-10
        integral = mpmath.mpf(lam_c) ** 2 * ((1 + mpmath.mpf(g_c)) ** 3 - 1) / (3 * mpmath.mpf(g_c))
        sp = mpmath.sqrt(P)
        want2 = (P * sp * integral / (4 * mpmath.pi * (P - 1) * (sp + 1) * span ** 2)
                 ) ** (mpmath.mpf(d) / (2 * (P - 1)))
        got2 = density_bound_rhs("ET2", p_val, 0.0, 1.0, lam_c, g_c, d)
        assert abs(got2 - float(want2)) < 1e-10
        want3 = mpmath.mpf(d) / 2 * mpmath.log(integral / (4 * mpmath.pi * (sp + 1) * span ** 2))
        got3 = density_bound_rhs("ET3", p_val, 0.0, 1.0, lam_c, g_c, d)
        assert abs(got3 - float(want3)) < 1e-10
    report(10, f"cc(1,1)=8 exact; phi err {phi_err:.1e}; power err {power_err:.1e}; "
               "ET1/ET2/ET3 match closed forms to 1e-10")


def test_criterion_11_transport_oracle():
    rng = np.random.default_rng(20240811)
    worst = 0.0
    count = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        theta = float(rng.choice([1.0, 2.0]))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, d))
        got = wasserstein(EmpiricalMeasure(x), EmpiricalMeasure(y), theta=theta)
        want = brute_force_wasserstein(x, y, theta)
        worst = max(worst, abs(got - want))
        count += 1
    assert worst < 1e-10
    report(11, f"{count} random instances (N<=6, d<=3, theta in {{1,2}}): "
               f"max |assignment - brute force| = {worst:.2e} < 1e-10")


def test_criterion_12_cli_determinism(tmp_path):
    def config_for(out_dir):
        return {
            "model": {"name": "linear_meanfield", "a": 2.0, "c": 1.0,
                      "sigma": 0.2, "dim": 1},
            "sim": {"n_particles": 512, "dt": 0.001, "t_end": 1.0, "seed": 77,
                    "init": {"kind": "gaussian", "std": 1.0}},
            "experiment": {"type": "simulate", "moment_p": 2.0, "export_law": True},
            "output": {"directory": str(out_dir)},
        }

    paths = {}
    for label, threads in (("a", 1), ("b", 4)):
        cfg_path = tmp_path / f"{label}.json"
        cfg_path.write_text(json.dumps(config_for(tmp_path / label)))
        assert cli_main(["run", str(cfg_path), "--threads", str(threads)]) == 0
        paths[label] = tmp_path / label

    csv_a = (paths["a"] / "simulate.csv").read_bytes()
    csv_b = (paths["b"] / "simulate.csv").read_bytes()
    assert csv_a == csv_b
    law_a = sorted((paths["a"] / "law_curve").glob("node_*.csv"))
    law_b = sorted((paths["b"] / "law_curve").glob("node_*.csv"))
    assert len(law_a) == len(law_b) == 1001
    for fa, fb in zip(law_a[::100], law_b[::100]):
        assert fa.read_bytes() == fb.read_bytes()
    metrics_a = json.loads((paths["a"] / "report.json").read_text())["metrics"]
    metrics_b = json.loads((paths["b"] / "report.json").read_text())["metrics"]
    assert metrics_a == metrics_b
    report(12, "path-level CSVs bitwise identical and report metrics equal "
               "across --threads 1 vs 4")
