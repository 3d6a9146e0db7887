"""Experiment runner: reproducible batch runs from JSON configs.

Usage:
    ddsde run <config.json> [--threads K] [--refine]
    ddsde describe <model>
    ddsde list-models

Exit codes: 0 success, 1 usage/config error, 2 verification failure
(a bound violated beyond its slack), 3 numerical abort from a lower module.
CSV column conventions per experiment type are documented in docs/cli_outputs.md.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import harnack, models, solver
from .measure import EmpiricalMeasure
from .rng import NoiseSpec, normal_block
from .sde import NumericalBlowupError, TimeGrid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3

_INIT_TAG = 0x1517


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

MODEL_PARAM_KEYS = {
    "landau": {"gamma", "alpha", "beta", "state_radius"},
    "linear_meanfield": {"a", "c", "sigma", "dim"},
}

SIM_KEYS = {"n_particles", "dt", "t_end", "t_start", "seed", "theta", "init"}
INIT_KEYS = {"kind", "value", "mean", "std", "path"}
SIM_NUMBERS = ("n_particles", "dt", "t_end", "t_start", "seed", "theta")
EXPERIMENT_NUMBERS = ("moment_p", "max_iter", "tol", "windows", "slope_tolerance",
                      "burn_in", "check_horizon", "weight_clip", "f_min", "p")
# Lower limit of each experiment number its runner enforces, and whether the
# limit itself is excluded; a shift_harnack "p" counts only in the power form.
EXPERIMENT_MINIMA = {"moment_p": (0, False), "max_iter": (1, False), "tol": (0, True),
                     "burn_in": (0, False), "check_horizon": (0, False), "p": (1, True)}
OUTPUT_KEYS = {"directory", "formats"}
TOP_KEYS = {"model", "sim", "experiment", "output"}

EXPERIMENT_KEYS = {
    "simulate": {"moment_p", "export_law"},
    "picard": {"max_iter", "tol", "windows"},
    "contract": {"shift", "init2", "fit_window", "slope_tolerance"},
    "invariant": {"burn_in", "check_horizon", "tol"},
    "couple": {"shift", "init2", "weight_clip"},
    "log_harnack": {"shift", "init2", "f", "f_min"},
    "shift_harnack": {"f", "v", "p", "log_form"},
    "ibp": {"f", "v"},
    "bounds": {"quantity", "params"},
}

# Keys of ``params`` each bounds quantity reads without a default.
BOUNDS_PARAMS = {
    "cc": ("alpha", "beta"),
    "tn": ("K0", "B0", "C0", "alpha", "beta"),
    "phi": ("lambda", "kappa1", "kappa2"),
    "power": ("p", "lambda", "kappa1", "kappa2"),
    "p_threshold": ("lambda",),
    "ET1": ("lambda",),
    "ET2": ("lambda",),
    "ET3": ("lambda",),
}


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    for key in block:
        if key not in allowed:
            hint = difflib.get_close_matches(key, allowed, n=1)
            suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ConfigError(f"unknown key {key!r} in {where}{suggestion}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_numbers(block: dict, where: str, keys, integers) -> None:
    for key in keys:
        if key in block and not _is_number(block[key]):
            raise ConfigError(f"{where}.{key} must be a number, got {block[key]!r}")
    for key in integers:
        if key in block and not (isinstance(block[key], int) or block[key].is_integer()):
            raise ConfigError(f"{where}.{key} must be an integer, got {block[key]!r}")


def _vector(value, where: str, dim: int) -> list:
    """``value`` as a list of 1 or ``dim`` numbers; a config error otherwise."""
    values = value if isinstance(value, list) else [value]
    if len(values) not in (1, dim) or not all(map(_is_number, values)):
        raise ConfigError(f"{where} must be a number or a list of {dim} numbers, "
                          f"got {value!r}")
    return values


def _check_init(init, where: str, dim: int) -> None:
    """Reject an initial-law block that ``build_init`` could not build."""
    if not isinstance(init, dict):
        raise ConfigError(f"{where} must be an object, got {init!r}")
    _reject_unknown(init, INIT_KEYS, f"{where} block")
    if init.get("kind", "gaussian") not in ("point", "gaussian", "csv"):
        raise ConfigError(f"unknown {where}.kind {init['kind']!r} (point, gaussian or csv)")
    for key in ("value", "mean"):
        if key in init:
            _vector(init[key], f"{where}.{key}", dim)
    if "std" in init and not (_is_number(init["std"]) and init["std"] > 0):
        raise ConfigError(f"{where}.std must be a number > 0, got {init['std']!r}")
    if init.get("kind") == "csv" and not os.path.isfile(str(init.get("path"))):
        raise ConfigError(f"{where}.path must name a CSV file, got {init.get('path')!r}")


def validate_config(cfg: dict) -> "ExperimentConfig":
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(cfg, TOP_KEYS, "config")
    for block in ("model", "sim", "experiment"):
        if block not in cfg:
            raise ConfigError(f"missing required block {block!r}")
    for block, value in cfg.items():
        if not isinstance(value, dict):
            raise ConfigError(f"{block} block must be an object, got {value!r}")

    model = cfg["model"]
    name = model.get("name")
    if not isinstance(name, str) or name not in MODEL_PARAM_KEYS:
        raise ConfigError(
            f"unknown model {name!r}; available: {sorted(MODEL_PARAM_KEYS)}"
        )
    _reject_unknown({k: v for k, v in model.items() if k != "name"},
                    MODEL_PARAM_KEYS[name], f"model block for {name!r}")

    sim = cfg["sim"]
    _reject_unknown(sim, SIM_KEYS, "sim block")
    for key in ("n_particles", "dt", "t_end", "seed"):
        if key not in sim:
            raise ConfigError(f"sim block missing required key {key!r}")
    _check_numbers(sim, "sim", SIM_NUMBERS, ("n_particles", "seed"))
    if sim["dt"] <= 0 or not 0 <= sim.get("t_start", 0.0) < sim["t_end"]:
        raise ConfigError("sim block needs dt > 0 and 0 <= t_start < t_end")
    if sim["n_particles"] < 2 or sim.get("theta", 2.0) < 1:
        raise ConfigError("sim block needs n_particles >= 2 and theta >= 1")

    exp = cfg["experiment"]
    etype = exp.get("type")
    if not isinstance(etype, str) or etype not in EXPERIMENT_KEYS:
        hint = difflib.get_close_matches(str(etype), EXPERIMENT_KEYS, n=1)
        suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
        raise ConfigError(f"unknown experiment type {etype!r}{suggestion}")
    _reject_unknown({k: v for k, v in exp.items() if k != "type"},
                    EXPERIMENT_KEYS[etype], f"experiment block for {etype!r}")
    _check_numbers(exp, "experiment", EXPERIMENT_NUMBERS, ("max_iter", "windows"))
    for key, (low, strict) in EXPERIMENT_MINIMA.items():
        if key in exp and (exp[key] <= low if strict else exp[key] < low) \
                and not (key == "p" and exp.get("log_form")):
            raise ConfigError(f"experiment.{key} must be {'>' if strict else '>='} {low}, "
                              f"got {exp[key]!r}")
    if "f" in exp:
        table = harnack.IBP_FUNCTIONS if etype == "ibp" else harnack.TEST_FUNCTIONS
        if not isinstance(exp["f"], str) or exp["f"] not in table:
            raise ConfigError(f"unknown test function {exp['f']!r} for {etype!r}; "
                              f"available: {sorted(table)}")
    if etype == "bounds":
        quantity = exp.get("quantity")
        if not isinstance(quantity, str) or quantity not in BOUNDS_PARAMS:
            raise ConfigError(f"unknown bounds quantity {quantity!r}; "
                              f"available: {sorted(BOUNDS_PARAMS)}")
        params = exp.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"bounds params must be an object, got {params!r}")
        missing = [k for k in BOUNDS_PARAMS[quantity] if k not in params]
        if missing:
            raise ConfigError(f"bounds quantity {quantity!r} needs params {missing}")
        _check_numbers(params, "experiment.params", params, ("d",))
    try:
        built = build_model(model)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"model {name!r}: {err}") from None
    if "init" in sim:
        _check_init(sim["init"], "sim.init", built.dim)
    if "init2" in exp:
        _check_init(exp["init2"], "experiment.init2", built.dim)
    for key in ("shift", "v"):
        if key in exp:
            _shift_vector(exp[key], built.dim, key)
    grid = _time_grid(sim)
    window = exp.get("fit_window")
    if window is not None and not (isinstance(window, list) and len(window) == 2
                                   and all(map(_is_number, window))):
        raise ConfigError(f"experiment.fit_window must be a list of two numbers, got {window!r}")
    try:
        if etype in ("couple", "log_harnack"):
            harnack.CouplingConfig.from_model(built, horizon=sim["t_end"])
        if etype in ("shift_harnack", "ibp"):
            harnack._require_additive(built)
        if etype == "invariant":
            solver._require_dissipative(built)
        if etype == "bounds":
            # Evaluating the bound checks each param against the range its formula needs.
            _run_bounds(quantity, params, built, float(sim["t_end"]))
        if etype == "picard":
            solver.window_steps(grid, int(exp.get("windows", 1)))
        if etype == "contract":
            solver._w2_nodes(grid, solver._fit_window(grid, window))
    except (ValueError, ArithmeticError) as err:
        raise ConfigError(f"{etype!r} experiment: {err}") from None

    out = cfg.get("output", {})
    _reject_unknown(out, OUTPUT_KEYS, "output block")
    formats = out.get("formats", ["json", "csv"])
    if not isinstance(formats, list) or not all(f in ("json", "csv") for f in formats):
        raise ConfigError(f"output.formats must be a list of 'json' and 'csv', got {formats!r}")
    if not isinstance(out.get("directory", "."), str):
        raise ConfigError(f"output.directory must be a string, got {out['directory']!r}")
    return ExperimentConfig(model=model, sim=sim, experiment=exp, output=out)


@dataclass(frozen=True)
class ExperimentConfig:
    model: dict
    sim: dict
    experiment: dict
    output: dict

    def as_dict(self) -> dict:
        return {"model": self.model, "sim": self.sim,
                "experiment": self.experiment, "output": self.output}

    def content_hash(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class RunReport:
    config: dict
    config_hash: str
    experiment: str
    metrics: dict
    ok: bool
    wall_time_s: float
    refinement: dict | None = None

    def to_json(self) -> str:
        body = {
            "config": self.config,
            "config_hash": self.config_hash,
            "experiment": self.experiment,
            "metrics": self.metrics,
            "ok": self.ok,
            "wall_time_s": self.wall_time_s,
        }
        if self.refinement is not None:
            body["refinement"] = self.refinement
        return json.dumps(body, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _model_number(model_cfg: dict, key: str, default: float) -> float:
    value = model_cfg.get(key, default)
    if not _is_number(value):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def build_model(model_cfg: dict) -> models.CoefficientModel:
    name = model_cfg["name"]
    if name == "landau":
        radius = model_cfg.get("state_radius")
        if radius is not None:
            radius = _model_number(model_cfg, "state_radius", 0.0)
        return models.landau_model(
            gamma=_model_number(model_cfg, "gamma", 0.0),
            alpha=_model_number(model_cfg, "alpha", 1.0),
            beta=_model_number(model_cfg, "beta", 1.0),
            state_radius=radius,
        )
    if name == "linear_meanfield":
        return models.linear_meanfield_model(
            a_coef=_model_number(model_cfg, "a", 1.0),
            c_coef=_model_number(model_cfg, "c", 0.0),
            sigma_const=model_cfg.get("sigma", 1.0),
            dim=model_cfg.get("dim"),
        )
    raise ConfigError(f"unknown model {name!r}")


def build_init(init_cfg: dict | None, dim: int, n: int, noise: NoiseSpec) -> EmpiricalMeasure:
    init_cfg = init_cfg or {"kind": "gaussian"}
    kind = init_cfg.get("kind", "gaussian")
    if kind == "point":
        value = np.broadcast_to(
            np.atleast_1d(np.asarray(init_cfg.get("value", 0.0), dtype=np.float64)), (dim,)
        )
        return EmpiricalMeasure.point_mass(value, n)
    if kind == "gaussian":
        mean = np.broadcast_to(
            np.atleast_1d(np.asarray(init_cfg.get("mean", 0.0), dtype=np.float64)), (dim,)
        )
        std = float(init_cfg.get("std", 1.0))
        stream = noise.substream(_INIT_TAG)
        pts = mean + std * normal_block(
            NoiseSpec(seed=stream.seed, dim=dim), np.arange(n), 0
        )
        return EmpiricalMeasure(pts)
    # csv; validate_config admits no other kind
    return EmpiricalMeasure.from_csv(init_cfg["path"]).resample(n)


def _time_grid(sim: dict) -> TimeGrid:
    t0, t_end = float(sim.get("t_start", 0.0)), float(sim["t_end"])
    steps = (t_end - t0) / float(sim["dt"])
    limit = np.iinfo(np.intp).max
    if not steps <= limit:  # also rejects inf and nan
        raise ConfigError(f"sim block needs at most {limit} steps, got {steps:g}")
    return TimeGrid(t0, t_end, max(1, round(steps)))


def _shift_vector(shift, dim: int, key: str) -> np.ndarray:
    values = _vector(shift, f"experiment.{key}", dim)
    v = np.zeros(dim)
    v[:len(values)] = values     # a scalar shift lands in the first coordinate
    return v


def _second_init(exp: dict, mu0: EmpiricalMeasure, dim: int, n: int,
                 noise: NoiseSpec) -> EmpiricalMeasure:
    if "init2" in exp:
        return build_init(exp["init2"], dim, n, noise.substream(0xB0B))
    return mu0.shifted(_shift_vector(exp.get("shift", 1.0), dim, "shift"))


def _write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    data = np.column_stack(columns)
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _run_experiment(cfg: ExperimentConfig, out_dir: str, formats: list[str],
                    threads: int) -> tuple[dict, bool]:
    sim = cfg.sim
    exp = cfg.experiment
    etype = exp["type"]
    model = build_model(cfg.model)
    n = int(sim["n_particles"])
    dt = float(sim["dt"])
    t_end = float(sim["t_end"])
    grid = _time_grid(sim)
    noise = NoiseSpec(seed=int(sim["seed"]), dim=model.dim)
    mu0 = build_init(sim.get("init"), model.dim, n, noise)
    csv_on = "csv" in formats

    if etype == "simulate":
        p = float(exp.get("moment_p", 2.0))
        law, ens = solver.particle_solve(model, mu0, grid, noise, n)
        curve = solver.moment_curve(ens, p)
        if csv_on:
            _write_csv(os.path.join(out_dir, "simulate.csv"),
                       ["t", f"moment_p{p:g}"], [grid.nodes, curve.per_node])
        if exp.get("export_law"):
            law.export(os.path.join(out_dir, "law_curve"),
                       theta=float(sim.get("theta", 2.0)), model_echo=cfg.model)
        metrics = {
            "terminal_mean": ens.terminal.mean(axis=0).tolist(),
            "terminal_moment": float(curve.per_node[-1]),
            "sup_moment": curve.sup_moment,
            "moment_p": p,
        }
        return metrics, True

    if etype == "picard":
        windows = int(exp.get("windows", 1))
        reports = solver.picard_chain(
            model, mu0, grid, noise, windows,
            max_iter=int(exp.get("max_iter", 12)),
            tol=float(exp.get("tol", 1e-3)),
            theta=float(sim.get("theta", 2.0)),
        )
        report = reports[-1]
        all_converged = all(r.converged for r in reports)
        if csv_on:
            its = np.arange(1, len(report.deltas) + 1, dtype=float)
            _write_csv(os.path.join(out_dir, "picard.csv"),
                       ["iteration", "delta"], [its, np.asarray(report.deltas)])
        metrics = {
            "windows": windows,
            "converged": all_converged,
            "diverging": any(r.diverging for r in reports),
            "deltas": report.deltas,
            "iterations_used": [r.iterations_used for r in reports],
            "delta_ratios": report.delta_ratios().tolist(),
            "geometric_applicable": report.geometric_applicable,
            "terminal_mean": report.iterates[-1]
            .measure_at(report.iterates[-1].grid.n_steps).mean().tolist(),
        }
        return metrics, all_converged

    if etype == "contract":
        nu0 = _second_init(exp, mu0, model.dim, n, noise)
        est = solver.estimate_contraction(model, mu0, nu0, grid, noise,
                                          fit_window=exp.get("fit_window"), threads=threads)
        tol = float(exp.get("slope_tolerance", 0.5))
        if csv_on:
            envelope = est.w2_sq[0] * np.exp(
                (est.bound_rate if est.bound_rate is not None else 0.0)
                * (est.times - est.times[0])
            )
            _write_csv(os.path.join(out_dir, "contract.csv"),
                       ["t", "w2_sq", "bound_envelope"],
                       [est.times, est.w2_sq, envelope])
        ok = True
        if est.bound_rate is not None and np.isfinite(est.empirical_rate):
            ok = est.empirical_rate <= est.bound_rate + tol
        metrics = {
            "empirical_rate": est.empirical_rate,
            "bound_rate": est.bound_rate,
            "slope_tolerance": tol,
            "merge_time": est.merge_time,
        }
        return metrics, ok

    if etype == "invariant":
        tol = float(exp.get("tol", 0.05))
        try:
            mu_hat, residual = solver.find_invariant(
                model, dt, noise, n,
                burn_in=float(exp.get("burn_in", 10.0)),
                check_horizon=float(exp.get("check_horizon", 0.5)),
                tol=tol,
            )
        except solver.InvariantSearchError as err:
            return {"error": str(err), "tol": tol}, False
        if csv_on:
            mu_hat.to_csv(os.path.join(out_dir, "invariant_measure.csv"))
        metrics = {
            "residual": residual,
            "tol": tol,
            "second_moment_per_coordinate": (mu_hat.points ** 2).mean(axis=0).tolist(),
        }
        return metrics, residual <= tol

    if etype == "couple":
        nu0 = _second_init(exp, mu0, model.dim, n, noise)
        config = harnack.CouplingConfig.from_model(
            model, horizon=t_end, weight_clip=exp.get("weight_clip")
        )
        pairs = harnack.coupled_pairs_from_measures(mu0, nu0, n)
        result = harnack.coupled_girsanov(model, pairs, config, grid, noise)
        if csv_on and result.series is not None:
            s = result.series
            _write_csv(os.path.join(out_dir, "couple.csv"),
                       ["t", "gap_q", "weight_mean", "weight_entropy"],
                       [s["t"], s["gap_q"], s["weight_mean"], s["weight_entropy"]])
        metrics = result.to_json_dict()
        if result.clip_fraction is not None:
            metrics["clip_fraction"] = result.clip_fraction
        if result.ess < n / 10:
            metrics["ess_warning"] = f"effective sample size {result.ess:.1f} < M/10"
        return metrics, result.success

    if etype == "log_harnack":
        nu0 = _second_init(exp, mu0, model.dim, n, noise)
        config = harnack.CouplingConfig.from_model(model, horizon=t_end)
        f = harnack.TEST_FUNCTIONS[exp.get("f", "one_plus_tanh")]
        result = harnack.verify_log_harnack(
            model, f, mu0, nu0, config, grid, noise, n,
            f_min=float(exp.get("f_min", 1e-12)),
        )
        metrics = {
            "lhs": result.lhs, "rhs": result.rhs, "slack": result.slack,
            "lhs_se": result.lhs_se, "rhs_se": result.rhs_se,
            "slack_se": result.slack_se,
            "phi": result.phi_value, "w2_sq": result.w2_sq,
        }
        return metrics, result.slack >= -3.0 * result.slack_se

    if etype == "shift_harnack":
        f = harnack.TEST_FUNCTIONS[exp.get("f", "one_plus_tanh")]
        v = _shift_vector(exp.get("v", 0.5), model.dim, "v")
        result = harnack.shift_coupling_verify(
            model, f, v, mu0,
            p=float(exp.get("p", 2.0)),
            grid=grid, noise=noise, n_samples=n,
            log_form=bool(exp.get("log_form", False)),
        )
        metrics = {
            "lhs": result.lhs, "rhs": result.rhs, "slack": result.slack,
            "lhs_se": result.lhs_se, "rhs_se": result.rhs_se,
            "slack_se": result.slack_se, "constant": result.constant,
        }
        return metrics, result.slack >= -3.0 * result.slack_se

    if etype == "ibp":
        fname = exp.get("f", "linear")
        f, grad_f = harnack.IBP_FUNCTIONS[fname]
        v = _shift_vector(exp.get("v", 1.0), model.dim, "v")
        result = harnack.integration_by_parts_check(
            model, f, grad_f, v, mu0, grid, noise, n
        )
        metrics = {
            "lhs": result.lhs, "rhs": result.rhs,
            "lhs_se": result.lhs_se, "rhs_se": result.rhs_se,
            "z_score": result.z_score, "f": fname,
        }
        return metrics, abs(result.z_score) <= 3.0

    if etype == "bounds":
        return _run_bounds(exp.get("quantity"), exp.get("params", {}), model, t_end)

    raise ConfigError(f"unhandled experiment type {etype!r}")


def _run_bounds(quantity: str, params: dict, model, t_end: float) -> tuple[dict, bool]:
    if quantity == "cc":
        value = models.contraction_exponent_cc(params["alpha"], params["beta"])
    elif quantity == "tn":
        value = models.contraction_exponent_tn(
            params["K0"], params["B0"], params["C0"], params["alpha"], params["beta"]
        )
    elif quantity == "phi":
        value = harnack.phi(params.get("s", 0.0), params.get("t", t_end),
                            params["lambda"], params["kappa1"], params["kappa2"])
    elif quantity == "power":
        config = harnack.CouplingConfig(
            horizon=params.get("T", t_end), kappa1=params["kappa1"],
            kappa2=params["kappa2"], lambda_=params["lambda"],
            gamma_t=params.get("gamma_t", 0.0),
        )
        value = harnack.power_harnack_constant(
            params["p"], params.get("s", 0.0), params.get("t", t_end),
            config, params.get("moment_term", 0.0),
        )
    elif quantity == "p_threshold":
        config = harnack.CouplingConfig(
            horizon=params.get("T", t_end), kappa1=params.get("kappa1", 0.0),
            kappa2=params.get("kappa2", 0.0), lambda_=params["lambda"],
            gamma_t=params.get("gamma_t", 0.0),
        )
        value = harnack.power_harnack_threshold(config)
    else:  # ET1, ET2, ET3; validate_config admits no other quantity
        value = harnack.density_bound_rhs(
            quantity, params.get("p", 2.0), params.get("s", 0.0),
            params.get("t", t_end), params["lambda"], params.get("grad_b", 0.0),
            int(params.get("d", model.dim)),
        )
    return {"quantity": quantity, "value": value}, True


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(config_path: str, threads: int = 1, refine: bool = False) -> int:
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as err:
        print(f"error: invalid JSON in {config_path}: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = validate_config(raw)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = os.environ.get("DDSDE_OUTPUT_DIR") or cfg.output.get("directory", ".")
    formats = cfg.output.get("formats", ["json", "csv"])
    os.makedirs(out_dir, exist_ok=True)

    started = time.perf_counter()
    try:
        metrics, ok = _run_experiment(cfg, out_dir, formats, threads)
        refinement = None
        if refine:
            fine_sim = dict(cfg.sim)
            fine_sim["dt"] = cfg.sim["dt"] / 2.0
            fine_cfg = ExperimentConfig(model=cfg.model, sim=fine_sim,
                                        experiment=cfg.experiment, output=cfg.output)
            fine_dir = os.path.join(out_dir, "refined")
            os.makedirs(fine_dir, exist_ok=True)
            fine_metrics, fine_ok = _run_experiment(fine_cfg, fine_dir, formats, threads)
            refinement = {"dt": fine_sim["dt"], "metrics": fine_metrics, "ok": fine_ok}
            if cfg.experiment["type"] == "couple" and fine_metrics.get("terminal_gap_q"):
                refinement["gap_ratio"] = (
                    metrics["terminal_gap_q"] / fine_metrics["terminal_gap_q"]
                )
            ok = ok and fine_ok
    except NumericalBlowupError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    report = RunReport(
        config=cfg.as_dict(),
        config_hash=cfg.content_hash(),
        experiment=cfg.experiment["type"],
        metrics=metrics,
        ok=ok,
        wall_time_s=time.perf_counter() - started,
        refinement=refinement,
    )
    if "json" in formats:
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(report.to_json() + "\n")
    status = "ok" if ok else "FAILED verification"
    print(f"{cfg.experiment['type']}: {status} (hash {report.config_hash}, "
          f"{report.wall_time_s:.2f}s) -> {out_dir}")
    return EXIT_OK if ok else EXIT_VERIFY


def list_models() -> int:
    for name in sorted(MODEL_PARAM_KEYS):
        print(name)
    return EXIT_OK


def describe(name: str) -> int:
    if name not in MODEL_PARAM_KEYS:
        print(f"error: unknown model {name!r}; available: {sorted(MODEL_PARAM_KEYS)}",
              file=sys.stderr)
        return EXIT_CONFIG
    if name == "landau":
        model = models.landau_model(gamma=0.0, alpha=1.0, beta=1.0)
        print("landau: homogeneous Landau family on R^3")
        print("  parameters: gamma in [0, 1] (kernel exponent; 0 = Maxwell molecules),")
        print("              alpha (drift interaction), beta (noise interaction),")
        print("              state_radius (guard for gamma > 0, default 1e3)")
    else:
        model = models.linear_meanfield_model(1.0, 0.0, 1.0)
        print("linear_meanfield: drift -a x + c mean(mu), constant diffusion sigma")
        print("  parameters: a, c, sigma (scalar, diagonal, or d x d), dim")
    print(f"  flags: additive_noise={model.additive_noise}, "
          f"invertible_sigma={model.invertible_sigma}, "
          f"distribution_free_sigma={model.distribution_free_sigma}")
    b = model.bounds
    print(f"  bounds: theta={b.theta}, K0={b.K0}, B0={b.B0}, C0={b.C0}, "
          f"C1={b.C1}, C2={b.C2},")
    print(f"          kappa1={b.kappa1}, kappa2={b.kappa2}, lambda={b.lambda_}, "
          f"gamma_t={b.gamma_t}, lipschitz_rate={b.lipschitz_rate}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ddsde", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--threads", type=int, default=1,
                       help="workers for the contract experiment's per-node W2; "
                            "never affects results")
    p_run.add_argument("--refine", action="store_true",
                       help="also run a dt/2 companion and report both")

    p_desc = sub.add_parser("describe", help="print a model's parameters and bounds")
    p_desc.add_argument("model")

    sub.add_parser("list-models", help="list bundled models")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, threads=args.threads, refine=args.refine)
    if args.command == "describe":
        return describe(args.model)
    if args.command == "list-models":
        return list_models()
    parser.print_help()
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
