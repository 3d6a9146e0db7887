"""Workload definitions: ddsde configs generated from a workload seed, and
the checks each experiment's output must pass.

Each workload stresses one layer of ddsde (see README.md for the layer each
end-to-end and per-layer metric should move).  The sizes are fixed; only the
simulation seeds change with the workload seed.
"""

from __future__ import annotations

import math

LANDAU_MAXWELL = {"name": "landau", "gamma": 0.0, "alpha": 1.0, "beta": 1.0}
LINEAR = {"name": "linear_meanfield", "a": 1.0, "c": 0.25, "sigma": 1.0, "dim": 1}
LINEAR_STIFF = {"name": "linear_meanfield", "a": 2.0, "c": 1.0, "sigma": 0.2, "dim": 1}
OU = {"name": "linear_meanfield", "a": 1.0, "c": 0.0, "sigma": 1.0, "dim": 1}
GAUSSIAN = {"kind": "gaussian", "std": 1.0}


def _exp(model, n, dt, t_end, experiment, init=None):
    sim = {"n_particles": n, "dt": dt, "t_end": t_end}
    if init is not None:
        sim["init"] = init
    return {"model": dict(model), "sim": sim, "experiment": experiment}


# Why each workload exists, and what was left out on purpose:
#
# maxwell_transport: Landau gamma = 0 runs whose cost is the exact 3-D
#   assignment behind every W2 (measure is ~95% of the time).  The
#   dissipative Landau contract config runs the same code path and is left
#   out; so is the entropic Sinkhorn path (N > 512 in 3-D), which takes ~113 s
#   per call at N = 1024 -- too long for a workload until EXACT_SIZE_LIMIT
#   is recalibrated.
# linear_mc: the eight bundled linear-model configs at their bundled sizes;
#   the large-M Monte Carlo is bound by the counter-based RNG, and its
#   transport is 1-D sorting, so a change to 3-D transport must not move it.
# hard_pairwise: Landau gamma > 0, where the O(N^2) pairwise drift and
#   diffusion take ~99% of the time, with no transport and little RNG.
WORKLOADS = {
    "maxwell_transport": [
        ("contract_landau_maxwell", _exp(
            LANDAU_MAXWELL, 256, 1e-3, 0.5,
            {"type": "contract", "init2": {"kind": "gaussian", "std": 1.4, "mean": 0.7},
             "slope_tolerance": 0.5},
            GAUSSIAN)),
        ("picard_landau_maxwell", _exp(
            LANDAU_MAXWELL, 512, 1e-3, 0.1,
            {"type": "picard", "max_iter": 12, "tol": 1e-3}, GAUSSIAN)),
    ],
    "linear_mc": [
        ("simulate_linear", _exp(
            LINEAR_STIFF, 512, 1e-3, 1.0,
            {"type": "simulate", "moment_p": 2.0, "export_law": False},
            {"kind": "point", "value": 1.0})),
        ("picard_linear", _exp(
            LINEAR_STIFF, 256, 1e-3, 0.5,
            {"type": "picard", "max_iter": 7, "tol": 1e-6}, GAUSSIAN)),
        ("contract_linear", _exp(
            {**LINEAR, "c": 0.0, "sigma": 0.3}, 256, 1e-3, 1.0,
            {"type": "contract", "shift": 1.0, "slope_tolerance": 0.1}, GAUSSIAN)),
        ("couple_linear", _exp(
            LINEAR, 10_000, 1e-3, 1.0, {"type": "couple", "shift": 1.0},
            {"kind": "point", "value": 0.0})),
        ("log_harnack_linear", _exp(
            LINEAR, 5_000, 1e-3, 1.0,
            {"type": "log_harnack", "shift": 1.0, "f": "one_plus_tanh"},
            {"kind": "point", "value": 0.0})),
        ("shift_harnack_linear", _exp(
            LINEAR, 10_000, 1e-3, 1.0,
            {"type": "shift_harnack", "f": "gauss_bump", "v": 0.5, "p": 2.0},
            {"kind": "point", "value": 0.5})),
        ("ibp_linear", _exp(
            LINEAR, 100_000, 1e-3, 1.0, {"type": "ibp", "f": "linear", "v": 1.0},
            {"kind": "point", "value": 0.0})),
        ("invariant_ou", _exp(
            OU, 2_000, 1e-3, 0.5,
            {"type": "invariant", "burn_in": 10.0, "check_horizon": 0.5, "tol": 0.05})),
    ],
    "hard_pairwise": [
        (f"simulate_landau_gamma{gamma}", _exp(
            {**LANDAU_MAXWELL, "gamma": gamma}, 512, 1e-3, 0.05,
            {"type": "simulate", "moment_p": 2.0}, GAUSSIAN))
        for gamma in (0.5, 1.0)
    ],
}


def configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's (label, config) list; simulation seeds derive from ``seed``."""
    out = []
    for index, (label, cfg) in enumerate(WORKLOADS[workload]):
        cfg = {**cfg, "sim": {**cfg["sim"], "seed": 1000 * seed + index}}
        out.append((label, cfg))
    return out


def dimension(cfg: dict) -> int:
    return 3 if cfg["model"]["name"] == "landau" else int(cfg["model"]["dim"])


def _linear_mean_oracle(cfg: dict, initial_mean: float) -> tuple[float, float]:
    """Terminal ensemble mean of the linear model and the spread of its noise.

    The mean obeys dm = (c - a) m dt + (sigma / sqrt(N)) dB, so given the
    initial empirical mean m0 it is Gaussian with mean m0 e^{(c-a)t} and
    variance sigma^2 (1 - e^{2(c-a)t}) / (2 (a - c) N).
    """
    model, sim = cfg["model"], cfg["sim"]
    rate = model["c"] - model["a"]
    t = sim["t_end"]
    var = model["sigma"] ** 2 * (1.0 - math.exp(2.0 * rate * t)) / (-2.0 * rate * sim["n_particles"])
    return initial_mean * math.exp(rate * t), math.sqrt(var)


def check(label: str, cfg: dict, metrics: dict, initial_mean: float) -> list[str]:
    """Oracle failures of one experiment's report metrics (empty when it passes).

    ``initial_mean`` is the mean of the experiment's initial ensemble.
    """
    etype = cfg["experiment"]["type"]
    failures = []
    if cfg["model"]["name"] == "linear_meanfield" and etype in ("simulate", "picard"):
        expect, sd = _linear_mean_oracle(cfg, initial_mean)
        got = metrics["terminal_mean"][0]
        if abs(got - expect) > 5.0 * sd:
            failures.append(f"terminal mean {got:.6g}, oracle {expect:.6g} +- 5 x {sd:.3g}")
    if etype == "invariant":
        n = cfg["sim"]["n_particles"]
        model = cfg["model"]
        expect = model["sigma"] ** 2 / (2.0 * model["a"])
        got = metrics["second_moment_per_coordinate"][0]
        tol = 5.0 * expect * math.sqrt(2.0 / n)   # 5 standard errors of a Gaussian second moment
        if abs(got - expect) > tol:
            failures.append(f"invariant second moment {got:.6g}, oracle {expect} +- {tol:.3g}")
    if cfg["model"]["name"] == "landau" and etype == "picard":
        deltas = metrics["deltas"]
        if not all(b < a for a, b in zip(deltas, deltas[1:])):
            failures.append(f"Picard deltas do not decrease: {deltas}")
    if cfg["model"]["name"] == "landau" and etype == "simulate":
        for key in ("terminal_moment", "sup_moment"):
            if not (math.isfinite(metrics[key]) and metrics[key] > 0):
                failures.append(f"{key} = {metrics[key]} is not finite and positive")
    return failures
