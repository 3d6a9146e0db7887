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
import math
import os
import sys
import time
from dataclasses import asdict
from itertools import chain

import numpy as np

from . import harnack, models, solver
from .measure import EmpiricalMeasure
from .rng import NoiseSpec, normal_block
from .sde import MAX_STATE, NumericalBlowupError, TimeGrid, check_finite, em_path

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3

MAX_COUNT = np.iinfo(np.intp).max  # largest particle or step count an index can hold

_INIT_TAG = 0x1517


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

# Parameters of each model family and their defaults (None: unset).  Each is a
# number, except sigma (a scalar, a diagonal or a d x d matrix) and dim (an
# integer), which the model builder checks.
MODELS = {
    "landau": {"gamma": 0.0, "alpha": 1.0, "beta": 1.0, "state_radius": None},
    "linear_meanfield": {"a": 1.0, "c": 0.0, "sigma": 1.0, "dim": None},
}

SIM_KEYS = {"n_particles", "dt", "t_end", "t_start", "seed", "theta", "init"}
INIT_KEYS = {"kind", "value", "mean", "std", "path"}
SIM_NUMBERS = ("n_particles", "dt", "t_end", "t_start", "seed", "theta")
OUTPUT_KEYS = {"directory", "formats"}
TOP_KEYS = {"model", "sim", "experiment", "output"}

# Keys of each experiment type and their defaults; None marks an optional key
# with no default.  A default's type is its key's type: a float admits any
# number, an int an integer, a bool true or false, and a list a number or a
# list of model-dimension numbers.
EXPERIMENTS = {
    "simulate": {"moment_p": 2.0, "export_law": False},
    "picard": {"max_iter": 12, "tol": 1e-3, "windows": 1},
    "contract": {"shift": [1.0], "init2": None, "fit_window": None, "slope_tolerance": 0.5},
    "invariant": {"burn_in": 10.0, "check_horizon": 0.5, "tol": 0.05},
    "couple": {"shift": [1.0], "init2": None, "weight_clip": None},
    "log_harnack": {"shift": [1.0], "init2": None, "f": "one_plus_tanh", "f_min": 1e-12},
    "shift_harnack": {"f": "one_plus_tanh", "v": [0.5], "p": 2.0, "log_form": False},
    "ibp": {"f": "linear", "v": [1.0]},
    "bounds": {"quantity": None, "params": {}},
}
# Lower limit of each experiment number its runner enforces, and whether the
# limit itself is excluded; a shift_harnack "p" counts only in the power form.
EXPERIMENT_MINIMA = {"moment_p": (0, False), "max_iter": (1, False), "tol": (0, True),
                     "burn_in": (0, False), "check_horizon": (0, False), "p": (1, True)}

# The (required, optional) params each bounds quantity reads; ``_run_bounds``
# gives the optional ones their defaults.
_DENSITY_PARAMS = (("lambda",), ("p", "s", "t", "grad_b", "d"))
BOUNDS_PARAMS = {
    "cc": (("alpha", "beta"), ()),
    "tn": (("K0", "B0", "C0", "alpha", "beta"), ()),
    "phi": (("lambda", "kappa1", "kappa2"), ("s", "t")),
    "power": (("p", "lambda", "kappa1", "kappa2"), ("s", "t", "T", "gamma_t", "moment_term")),
    "p_threshold": (("lambda",), ("kappa1", "kappa2", "T", "gamma_t")),
    "ET1": _DENSITY_PARAMS,
    "ET2": _DENSITY_PARAMS,
    "ET3": _DENSITY_PARAMS,
}


def _reject_unknown(block: dict, allowed, where: str) -> None:
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
    if "std" in init and not (_is_number(init["std"]) and 0 < init["std"] <= MAX_STATE):
        raise ConfigError(f"{where}.std must be a number in (0, {MAX_STATE:g}], "
                          f"got {init['std']!r}")
    if init.get("kind") == "csv":
        path = init.get("path")
        if not os.path.isfile(str(path)):
            raise ConfigError(f"{where}.path must name a CSV file, got {path!r}")
        try:
            columns = EmpiricalMeasure.from_csv(path).dim
        except ValueError as err:
            raise ConfigError(f"{where}.path {path!r}: {err}") from None
        if columns != dim:
            raise ConfigError(f"{where}.path {path!r} has {columns} columns, "
                              f"but the model has dimension {dim}")


def validate_config(cfg: dict) -> dict:
    """The config's four blocks (``output`` defaults to empty), once every check passes."""
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
    if not isinstance(name, str) or name not in MODELS:
        raise ConfigError(f"unknown model {name!r}; available: {sorted(MODELS)}")
    _reject_unknown({k: v for k, v in model.items() if k != "name"},
                    MODELS[name], f"model block for {name!r}")

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
    if not sim["n_particles"] <= MAX_COUNT:
        raise ConfigError(f"sim block needs at most {MAX_COUNT} particles, "
                          f"got {sim['n_particles']:g}")

    exp = cfg["experiment"]
    etype = exp.get("type")
    if not isinstance(etype, str) or etype not in EXPERIMENTS:
        hint = difflib.get_close_matches(str(etype), EXPERIMENTS, n=1)
        suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
        raise ConfigError(f"unknown experiment type {etype!r}{suggestion}")
    spec = EXPERIMENTS[etype]
    _reject_unknown({k: v for k, v in exp.items() if k != "type"},
                    spec, f"experiment block for {etype!r}")
    numbers = [k for k, default in spec.items() if _is_number(default) or k == "weight_clip"]
    _check_numbers(exp, "experiment", numbers, [k for k in numbers if isinstance(spec[k], int)])
    for key, default in spec.items():
        if isinstance(default, bool) and key in exp and not isinstance(exp[key], bool):
            raise ConfigError(f"experiment.{key} must be true or false, got {exp[key]!r}")
    for key, (low, strict) in EXPERIMENT_MINIMA.items():
        if key in exp and (exp[key] <= low if strict else exp[key] < low) \
                and not (key == "p" and exp.get("log_form")):
            raise ConfigError(f"experiment.{key} must be {'>' if strict else '>='} {low}, "
                              f"got {exp[key]!r}")
    full = {**spec, **exp}
    if "f" in exp:
        table = harnack.IBP_FUNCTIONS if etype == "ibp" else harnack.TEST_FUNCTIONS
        if not isinstance(exp["f"], str) or exp["f"] not in table:
            raise ConfigError(f"unknown test function {exp['f']!r} for {etype!r}; "
                              f"available: {sorted(table)}")
    if etype == "bounds":
        quantity, params = full["quantity"], full["params"]
        if not isinstance(quantity, str) or quantity not in BOUNDS_PARAMS:
            raise ConfigError(f"unknown bounds quantity {quantity!r}; "
                              f"available: {sorted(BOUNDS_PARAMS)}")
        if not isinstance(params, dict):
            raise ConfigError(f"bounds params must be an object, got {params!r}")
        required, optional = BOUNDS_PARAMS[quantity]
        _reject_unknown(params, required + optional, f"params of bounds quantity {quantity!r}")
        missing = [k for k in required if k not in params]
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
    for key, default in spec.items():
        if isinstance(default, list) and key in exp:
            _vector(exp[key], f"experiment.{key}", built.dim)
    if etype in ("shift_harnack", "ibp") and any(
            abs(c) > MAX_STATE for c in _vector(full["v"], "experiment.v", built.dim)):
        raise ConfigError(f"experiment.v must have coordinates of magnitude at most "
                          f"{MAX_STATE:g}, got {full['v']!r}")
    grid = _time_grid(sim)
    window = full.get("fit_window")
    if window is not None and not (isinstance(window, list) and len(window) == 2
                                   and all(map(_is_number, window))):
        raise ConfigError(f"experiment.fit_window must be a list of two numbers, got {window!r}")
    try:
        if etype in ("couple", "log_harnack"):
            harnack.CouplingConfig.from_model(built, horizon=sim["t_end"])
        if etype in ("shift_harnack", "ibp"):
            harnack._require_additive(built)
        if etype == "shift_harnack":
            harnack.shift_harnack_constant(built, _shift_vector(full["v"], built.dim, "v"),
                                           float(full["p"]), grid.s, grid.t_end,
                                           full["log_form"])
        if etype == "invariant":
            solver._require_dissipative(built)
            for key in ("burn_in", "check_horizon"):
                _step_count(float(full[key]), float(sim["dt"]), f"experiment.{key}")
        if etype == "bounds":
            # Evaluating the bound checks each param against the range its formula needs.
            _run_bounds(quantity, params, built, float(sim["t_end"]))
        if etype == "picard":
            solver.window_steps(grid, int(full["windows"]))
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
    return {"model": model, "sim": sim, "experiment": exp, "output": out}


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_model(model_cfg: dict) -> models.CoefficientModel:
    """The model ``model_cfg`` names, its unset parameters defaulted from ``MODELS``."""
    name = model_cfg["name"]
    params = {**MODELS[name], **model_cfg}
    for key, default in MODELS[name].items():
        if key in ("sigma", "dim") or params[key] is None and default is None:
            continue
        if not _is_number(params[key]):
            raise ValueError(f"{key} must be a number, got {params[key]!r}")
        params[key] = float(params[key])
    if name == "landau":
        return models.landau_model(params["gamma"], params["alpha"], params["beta"],
                                   params["state_radius"])
    return models.linear_meanfield_model(params["a"], params["c"], params["sigma"],
                                         params["dim"])


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


def _step_count(span: float, dt: float, where: str) -> int:
    steps = span / dt
    if not steps <= MAX_COUNT:  # also rejects inf and nan
        raise ConfigError(f"{where} needs at most {MAX_COUNT} steps, got {steps:g}")
    return max(1, round(steps))


def _time_grid(sim: dict) -> TimeGrid:
    t0, t_end = float(sim.get("t_start", 0.0)), float(sim["t_end"])
    return TimeGrid(t0, t_end, _step_count(t_end - t0, float(sim["dt"]), "sim block"))


def _shift_vector(shift, dim: int, key: str) -> np.ndarray:
    values = _vector(shift, f"experiment.{key}", dim)
    v = np.zeros(dim)
    v[:len(values)] = values     # a scalar shift lands in the first coordinate
    return v


def _second_init(exp: dict, mu0: EmpiricalMeasure, dim: int, n: int,
                 noise: NoiseSpec) -> EmpiricalMeasure:
    if exp["init2"] is not None:
        return build_init(exp["init2"], dim, n, noise.substream(0xB0B))
    return mu0.shifted(_shift_vector(exp["shift"], dim, "shift"))


def _write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    data = np.column_stack(columns)
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _run_experiment(cfg: dict, out_dir: str, formats: list[str],
                    threads: int) -> tuple[dict, bool]:
    sim = cfg["sim"]
    exp = {**EXPERIMENTS[cfg["experiment"]["type"]], **cfg["experiment"]}
    etype = exp["type"]
    model = build_model(cfg["model"])
    n = int(sim["n_particles"])
    dt = float(sim["dt"])
    t_end = float(sim["t_end"])
    grid = _time_grid(sim)
    noise = NoiseSpec(seed=int(sim["seed"]), dim=model.dim)
    mu0 = build_init(sim.get("init"), model.dim, n, noise)
    csv_on = "csv" in formats

    if etype == "simulate":
        p = float(exp["moment_p"])
        if exp["export_law"]:
            law, ens = solver.particle_solve(model, mu0, grid, noise, n)
            law.export(os.path.join(out_dir, "law_curve"),
                       theta=float(sim.get("theta", 2.0)), model_echo=cfg["model"])
            curve = solver.moment_curve(ens, p)
        else:  # streamed: only the current states are kept
            check_finite(mu0.points, noise.step0, model.state_radius)  # before its moment
            steps = em_path(model, mu0.points, grid.s, grid.dt, grid.n_steps, noise)
            curve = solver.moment_curve(chain([mu0.points], (x for *_, x in steps)), p)
        if csv_on:
            _write_csv(os.path.join(out_dir, "simulate.csv"),
                       ["t", f"moment_p{p:g}"], [grid.nodes, curve.per_node])
        metrics = {
            "terminal_mean": curve.terminal.mean(axis=0).tolist(),
            "terminal_moment": float(curve.per_node[-1]),
            "sup_moment": curve.sup_moment,
            "moment_p": p,
        }
        return metrics, True

    if etype == "picard":
        windows = int(exp["windows"])
        reports = solver.picard_chain(
            model, mu0, grid, noise, windows,
            max_iter=int(exp["max_iter"]),
            tol=float(exp["tol"]),
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
                                          fit_window=exp["fit_window"], threads=threads)
        tol = float(exp["slope_tolerance"])
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
        tol = float(exp["tol"])
        try:
            mu_hat, residual = solver.find_invariant(
                model, dt, noise, n,
                burn_in=float(exp["burn_in"]),
                check_horizon=float(exp["check_horizon"]),
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
            model, horizon=t_end, weight_clip=exp["weight_clip"]
        )
        for law in (mu0, nu0):
            check_finite(law.points, noise.step0, model.state_radius)
        pairs = harnack.coupled_pairs_from_measures(mu0, nu0, n)
        result = harnack.coupled_girsanov(model, pairs, config, grid, noise)
        if csv_on and result.series is not None:
            s = result.series
            _write_csv(os.path.join(out_dir, "couple.csv"),
                       ["t", "gap_q", "weight_mean", "weight_entropy"],
                       [s["t"], s["gap_q"], s["weight_mean"], s["weight_entropy"]])
        metrics = {key: value for key, value in vars(result).items()
                   if key != "series" and value is not None}
        if result.ess < n / 10:
            metrics["ess_warning"] = f"effective sample size {result.ess:.1f} < M/10"
        return metrics, result.success

    if etype == "log_harnack":
        nu0 = _second_init(exp, mu0, model.dim, n, noise)
        config = harnack.CouplingConfig.from_model(model, horizon=t_end)
        result = harnack.verify_log_harnack(
            model, harnack.TEST_FUNCTIONS[exp["f"]], mu0, nu0, config, grid, noise, n,
            f_min=float(exp["f_min"]),
        )
        metrics = {
            "lhs": result.lhs, "rhs": result.rhs, "slack": result.slack,
            "lhs_se": result.lhs_se, "rhs_se": result.rhs_se,
            "slack_se": result.slack_se,
            "phi": result.phi_value, "w2_sq": result.w2_sq,
        }
        return metrics, result.slack >= -3.0 * result.slack_se

    if etype == "shift_harnack":
        result = harnack.shift_coupling_verify(
            model, harnack.TEST_FUNCTIONS[exp["f"]], _shift_vector(exp["v"], model.dim, "v"),
            mu0, p=float(exp["p"]), grid=grid, noise=noise, n_samples=n,
            log_form=exp["log_form"],
        )
        return asdict(result), result.slack >= -3.0 * result.slack_se

    if etype == "ibp":
        f, grad_f = harnack.IBP_FUNCTIONS[exp["f"]]
        v = _shift_vector(exp["v"], model.dim, "v")
        result = harnack.integration_by_parts_check(
            model, f, grad_f, v, mu0, grid, noise, n
        )
        return {**asdict(result), "f": exp["f"]}, abs(result.z_score) <= 3.0

    # bounds; validate_config admits no other type
    return _run_bounds(exp["quantity"], exp["params"], model, t_end)


def _run_bounds(quantity: str, params: dict, model, t_end: float) -> tuple[dict, bool]:
    a = {"s": 0.0, "t": t_end, "T": t_end, "p": 2.0, "kappa1": 0.0, "kappa2": 0.0,
         "gamma_t": 0.0, "moment_term": 0.0, "grad_b": 0.0, "d": model.dim, **params}
    if quantity == "cc":
        value = models.contraction_exponent_cc(a["alpha"], a["beta"])
    elif quantity == "tn":
        value = models.contraction_exponent_tn(a["K0"], a["B0"], a["C0"], a["alpha"], a["beta"])
    elif quantity == "phi":
        value = harnack.phi(a["s"], a["t"], a["lambda"], a["kappa1"], a["kappa2"])
    elif quantity in ("power", "p_threshold"):
        config = harnack.CouplingConfig(horizon=a["T"], kappa1=a["kappa1"], kappa2=a["kappa2"],
                                        lambda_=a["lambda"], gamma_t=a["gamma_t"])
        value = (harnack.power_harnack_threshold(config) if quantity == "p_threshold" else
                 harnack.power_harnack_constant(a["p"], a["s"], a["t"], config, a["moment_term"]))
    else:  # ET1, ET2, ET3; validate_config admits no other quantity
        value = harnack.density_bound_rhs(quantity, a["p"], a["s"], a["t"], a["lambda"],
                                          a["grad_b"], int(a["d"]))
    if not math.isfinite(value):
        raise OverflowError(f"{quantity} is {value} at these params")
    return {"quantity": quantity, "value": value}, True


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(config_path: str, threads: int = 1, refine: bool = False) -> int:
    try:
        with open(config_path) as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:  # also NaN, Infinity and text that is not UTF-8
        print(f"error: invalid JSON in {config_path}: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = validate_config(raw)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = os.environ.get("DDSDE_OUTPUT_DIR") or cfg["output"].get("directory", ".")
    formats = cfg["output"].get("formats", ["json", "csv"])
    os.makedirs(out_dir, exist_ok=True)

    started = time.perf_counter()
    try:
        metrics, ok = _run_experiment(cfg, out_dir, formats, threads)
        refinement = None
        if refine:
            fine_cfg = {**cfg, "sim": {**cfg["sim"], "dt": cfg["sim"]["dt"] / 2.0}}
            fine_dir = os.path.join(out_dir, "refined")
            os.makedirs(fine_dir, exist_ok=True)
            fine_metrics, fine_ok = _run_experiment(fine_cfg, fine_dir, formats, threads)
            refinement = {"dt": fine_cfg["sim"]["dt"], "metrics": fine_metrics, "ok": fine_ok}
            if cfg["experiment"]["type"] == "couple" and fine_metrics.get("terminal_gap_q"):
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

    config_hash = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:12]
    report = {"config": cfg, "config_hash": config_hash, "experiment": cfg["experiment"]["type"],
              "metrics": metrics, "ok": ok, "wall_time_s": time.perf_counter() - started}
    if refinement is not None:
        report["refinement"] = refinement
    if "json" in formats:
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            # A non-finite number (a merged contract's rate, a 0/0 ess) is written as null.
            report = json.loads(json.dumps(report), parse_constant=lambda name: None)
            fh.write(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    status = "ok" if ok else "FAILED verification"
    print(f"{cfg['experiment']['type']}: {status} (hash {config_hash}, "
          f"{report['wall_time_s']:.2f}s) -> {out_dir}")
    return EXIT_OK if ok else EXIT_VERIFY


def list_models() -> int:
    for name in sorted(MODELS):
        print(name)
    return EXIT_OK


def describe(name: str) -> int:
    if name not in MODELS:
        print(f"error: unknown model {name!r}; available: {sorted(MODELS)}", file=sys.stderr)
        return EXIT_CONFIG
    model = build_model({"name": name})
    if name == "landau":
        print("landau: homogeneous Landau family on R^3")
        print("  parameters: gamma in [0, 1] (kernel exponent; 0 = Maxwell molecules),")
        print("              alpha (drift interaction), beta (noise interaction),")
        print("              state_radius (guard for gamma > 0, default 1e3)")
    else:
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
