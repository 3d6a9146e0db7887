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
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from . import harnack, models, solver
from .measure import EmpiricalMeasure, write_csv
from .rng import NoiseSpec, normal_block
from .sde import MAX_STATE, LawCurve, NumericalBlowupError, TimeGrid, check_finite, em_path

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
OUTPUT_KEYS = {"directory"}
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
                     "burn_in": (0, False), "check_horizon": (0, False), "p": (1, True),
                     "weight_clip": (0, True), "f_min": (0, True)}

# The (required, optional) params each bounds quantity reads; ``_run_bounds``
# gives the optional ones their defaults.
_DENSITY_PARAMS = (("lambda",), ("p", "s", "t", "grad_b", "d"))
BOUNDS_PARAMS = {
    "cc": (("alpha", "beta"), ()),
    "tn": (("K0", "B0", "C0", "alpha", "beta"), ()),
    "phi": (("lambda", "kappa1", "kappa2"), ("s", "t")),
    "power": (("p", "lambda", "kappa1", "kappa2"), ("s", "t", "T", "gamma_t", "moment_term")),
    "p_threshold": (("lambda",), ("gamma_t",)),
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


@dataclass(frozen=True)
class Run:
    """A validated config and everything its run uses, built once."""
    config: dict                  # the four blocks, echoed in the report
    exp: dict                     # the experiment keys with their defaults; shift and v as vectors
    model: models.CoefficientModel
    grid: TimeGrid
    noise: NoiseSpec
    mu0: EmpiricalMeasure
    nu0: EmpiricalMeasure | None  # the second law of contract, couple and log_harnack


def validate_config(cfg: dict) -> Run:
    """The run ``cfg`` describes (``output`` defaults to empty), once every check passes."""
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
    for key, default in spec.items():
        if isinstance(default, list):
            values = _vector(full[key], f"experiment.{key}", built.dim)
            if any(abs(c) > MAX_STATE for c in values):
                raise ConfigError(f"experiment.{key} must have coordinates of magnitude at "
                                  f"most {MAX_STATE:g}, got {full[key]!r}")
            full[key] = np.zeros(built.dim)
            full[key][:len(values)] = values  # a scalar shift lands in the first coordinate
    t0, t_end = float(sim.get("t_start", 0.0)), float(sim["t_end"])
    grid = TimeGrid(t0, t_end, _step_count(t_end - t0, float(sim["dt"]), "sim block"))
    window = full.get("fit_window")
    if window is not None and not (isinstance(window, list) and len(window) == 2
                                   and all(map(_is_number, window))):
        raise ConfigError(f"experiment.fit_window must be a list of two numbers, got {window!r}")
    try:
        if etype in ("couple", "log_harnack"):
            harnack._require_coupling_model(built)
        if etype in ("shift_harnack", "ibp"):
            harnack._require_additive(built)
        if etype == "shift_harnack":
            harnack.shift_harnack_constant(built, full["v"], float(full["p"]), grid.s,
                                           grid.t_end, full["log_form"])
        if etype == "invariant":
            solver._require_dissipative(built)
            for key in ("burn_in", "check_horizon"):
                _step_count(float(full[key]), float(sim["dt"]), f"experiment.{key}")
            if "init" in sim:
                raise ValueError("sim.init is not read: the search starts from its own "
                                 "standard-normal ensemble")
        if etype == "bounds":
            # Evaluating the bound checks each param against the range its formula needs.
            _run_bounds(quantity, params, built, t_end)
        if etype == "picard":
            solver.window_steps(grid, int(full["windows"]))
        if etype == "contract":
            solver._w2_nodes(grid, solver._fit_window(grid, window))
    except (ValueError, ArithmeticError) as err:
        raise ConfigError(f"{etype!r} experiment: {err}") from None

    out = cfg.get("output", {})
    _reject_unknown(out, OUTPUT_KEYS, "output block")
    if not isinstance(out.get("directory", "."), str):
        raise ConfigError(f"output.directory must be a string, got {out['directory']!r}")

    n = int(sim["n_particles"])
    noise = NoiseSpec(seed=int(sim["seed"]), dim=built.dim)
    mu0 = build_init(sim.get("init"), built.dim, n, noise)
    nu0 = None
    if "init2" in spec:
        nu0 = (mu0.shifted(full["shift"]) if full["init2"] is None else build_init(
            full["init2"], built.dim, n, noise.substream(0xB0B), "experiment.init2"))
    return Run({"model": model, "sim": sim, "experiment": exp, "output": out}, full,
               built, grid, noise, mu0, nu0)


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
    dim = params["dim"]
    if dim is not None and not (_is_number(dim) and dim >= 1 and float(dim).is_integer()):
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    return models.linear_meanfield_model(params["a"], params["c"], params["sigma"],
                                         None if dim is None else int(dim))


def build_init(init_cfg: dict | None, dim: int, n: int, noise: NoiseSpec,
               where: str = "sim.init") -> EmpiricalMeasure:
    """The ``n``-point initial law ``init_cfg`` describes (None: a standard
    Gaussian); a config error, naming ``where``, if it cannot be built."""
    init_cfg = {"kind": "gaussian"} if init_cfg is None else init_cfg
    if not isinstance(init_cfg, dict):
        raise ConfigError(f"{where} must be an object, got {init_cfg!r}")
    _reject_unknown(init_cfg, INIT_KEYS, f"{where} block")
    kind = init_cfg.get("kind", "gaussian")
    if kind not in ("point", "gaussian", "csv"):
        raise ConfigError(f"unknown {where}.kind {kind!r} (point, gaussian or csv)")
    # the point's value and the Gaussian's mean, each checked whatever the kind
    center = {key: np.broadcast_to(np.asarray(
        _vector(init_cfg.get(key, 0.0), f"{where}.{key}", dim), dtype=np.float64), (dim,))
        for key in ("value", "mean")}
    std = init_cfg.get("std", 1.0)
    if not (_is_number(std) and 0 < std <= MAX_STATE):
        raise ConfigError(f"{where}.std must be a number in (0, {MAX_STATE:g}], got {std!r}")
    if kind == "point":
        return EmpiricalMeasure.point_mass(center["value"], n)
    if kind == "gaussian":
        stream = noise.substream(_INIT_TAG)
        return EmpiricalMeasure(center["mean"] + float(std) * normal_block(
            NoiseSpec(seed=stream.seed, dim=dim), np.arange(n), 0))
    path = init_cfg.get("path")
    if not os.path.isfile(str(path)):
        raise ConfigError(f"{where}.path must name a CSV file, got {path!r}")
    try:
        law = EmpiricalMeasure.from_csv(path)
    except ValueError as err:
        raise ConfigError(f"{where}.path {path!r}: {err}") from None
    if law.dim != dim:
        raise ConfigError(f"{where}.path {path!r} has {law.dim} columns, "
                          f"but the model has dimension {dim}")
    if n % law.n:
        raise ConfigError(f"{where}.path {path!r} has {law.n} rows, which do not "
                          f"divide n_particles {n}")
    return EmpiricalMeasure(np.tile(law.points, (n // law.n, 1)))  # keeps the empirical law


def _step_count(span: float, dt: float, where: str) -> int:
    steps = span / dt
    if not steps <= MAX_COUNT:  # also rejects inf and nan
        raise ConfigError(f"{where} needs at most {MAX_COUNT} steps, got {steps:g}")
    return max(1, round(steps))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _run_experiment(run: Run, out_dir: str, threads: int) -> tuple[dict, bool]:
    sim, exp, model, grid, noise, mu0, nu0 = (
        run.config["sim"], run.exp, run.model, run.grid, run.noise, run.mu0, run.nu0)
    etype = exp["type"]

    if etype == "simulate":
        p = float(exp["moment_p"])
        check_finite(mu0.points, noise.step0, model.state_radius)  # before its moment
        steps = em_path(model, mu0.points, grid.s, grid.dt, grid.n_steps, noise)
        nodes = chain([mu0.points], (x for *_, x in steps))  # only the current states are kept
        if exp["export_law"]:
            nodes = LawCurve.export(os.path.join(out_dir, "law_curve"), grid, nodes,
                                    float(sim.get("theta", 2.0)), run.config["model"])
        curve = solver.moment_curve(nodes, p)
        write_csv(os.path.join(out_dir, "simulate.csv"),
                  np.column_stack([grid.nodes, curve.per_node]), f"t,moment_p{p:g}")
        return {"terminal_mean": curve.terminal.mean(axis=0).tolist(),
                "terminal_moment": float(curve.per_node[-1]),
                "sup_moment": curve.sup_moment, "moment_p": p}, True

    if etype == "picard":
        tol = float(exp["tol"])
        reports = solver.picard_chain(model, mu0, grid, noise, int(exp["windows"]),
                                      max_iter=int(exp["max_iter"]), tol=tol,
                                      theta=float(sim.get("theta", 2.0)))
        result = solver.PicardResult.judge(reports, tol)
        write_csv(os.path.join(out_dir, "picard.csv"), np.column_stack(
            [np.arange(1, len(result.deltas) + 1, dtype=float), result.deltas]), "iteration,delta")
    elif etype == "contract":
        est = solver.estimate_contraction(model, mu0, nu0, grid, noise,
                                          fit_window=exp["fit_window"], threads=threads)
        write_csv(os.path.join(out_dir, "contract.csv"), np.column_stack(
            [est.times, est.w2_sq, est.bound_envelope]), "t,w2_sq,bound_envelope")
        result = solver.ContractResult.judge(est, float(exp["slope_tolerance"]))
    elif etype == "invariant":
        tol = float(exp["tol"])
        try:
            mu_hat, residual = solver.find_invariant(
                model, float(sim["dt"]), noise, mu0.n, burn_in=float(exp["burn_in"]),
                check_horizon=float(exp["check_horizon"]), tol=tol)
        except solver.InvariantSearchError as err:
            return {"error": str(err), "tol": tol}, False
        mu_hat.to_csv(os.path.join(out_dir, "invariant_measure.csv"))
        result = solver.InvariantResult.judge(mu_hat, residual, tol)
    elif etype in ("couple", "log_harnack"):
        for law in (mu0, nu0):  # before their W2 costs can overflow
            check_finite(law.points, noise.step0, model.state_radius)
        sample = harnack.simulate_coupled(
            model, *harnack.coupled_pairs_from_measures(mu0, nu0), grid, noise,
            record_series=etype == "couple")
        if etype == "couple":
            result = harnack.coupled_girsanov(sample, model, grid, exp.get("weight_clip"))
            s = sample.series
            write_csv(os.path.join(out_dir, "couple.csv"), np.column_stack(
                [s["t"], s["gap_q"], s["weight_mean"], s["weight_entropy"]]),
                "t,gap_q,weight_mean,weight_entropy")
            # clip_fraction and ess_warning are left out when unset
            return {key: value for key, value in asdict(result).items()
                    if value is not None}, result.ok
        result = harnack.verify_log_harnack(sample, harnack.TEST_FUNCTIONS[exp["f"]],
                                            model, grid, f_min=float(exp["f_min"]))
    elif etype == "shift_harnack":
        x_t = solver.evolve_states(model, mu0.points, grid.s, grid.n_steps, grid.dt, noise)
        result = harnack.shift_coupling_verify(
            model, harnack.TEST_FUNCTIONS[exp["f"]], exp["v"], x_t,
            p=float(exp["p"]), grid=grid, log_form=exp["log_form"])
    elif etype == "ibp":
        f, grad_f = harnack.IBP_FUNCTIONS[exp["f"]]
        x_t, weight = harnack.ibp_weights(model, exp["v"], mu0.points, grid, noise)
        result = harnack.verify_ibp(f, grad_f, exp["v"], x_t, weight)
        return {**asdict(result), "f": exp["f"]}, result.ok
    else:  # bounds; validate_config admits no other type
        return _run_bounds(exp["quantity"], exp["params"], model, grid.t_end)
    return asdict(result), result.ok


def _run_bounds(quantity: str, params: dict, model, t_end: float) -> tuple[dict, bool]:
    a = {"s": 0.0, "t": t_end, "T": t_end, "p": 2.0, "kappa1": 0.0, "kappa2": 0.0,
         "gamma_t": 0.0, "moment_term": 0.0, "grad_b": 0.0, "d": model.dim, **params}
    if quantity == "cc":
        value = models.contraction_exponent_cc(a["alpha"], a["beta"])
    elif quantity == "tn":
        value = models.contraction_exponent_tn(a["K0"], a["B0"], a["C0"], a["alpha"], a["beta"])
    elif quantity == "phi":
        value = harnack.phi(a["s"], a["t"], a["lambda"], a["kappa1"], a["kappa2"])
    elif quantity == "power":
        value = harnack.power_harnack_constant(
            a["p"], a["s"], a["t"], a["moment_term"], horizon=a["T"], lambda_=a["lambda"],
            kappa1=a["kappa1"], kappa2=a["kappa2"], gamma_t=a["gamma_t"])
    elif quantity == "p_threshold":
        value = harnack.power_harnack_threshold(a["lambda"], a["gamma_t"])
    else:  # ET1, ET2, ET3; validate_config admits no other quantity
        value = harnack.density_bound_rhs(quantity, a["p"], a["s"], a["t"], a["lambda"],
                                          a["grad_b"], int(a["d"]))
    if not math.isfinite(value):
        raise OverflowError(f"{quantity} is {value} at these params")
    return {"quantity": quantity, "value": value}, True


def _float64(parse):
    """``parse`` for JSON number literals; NaN, Infinity and those beyond float64 raise."""
    def checked(text: str):
        if not math.isfinite(float(text)):
            shown = text if len(text) <= 24 else f"{text[:20]}... ({len(text)} characters)"
            raise ValueError(f"{shown} is not a JSON number within the float64 range")
        return parse(text)
    return checked


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(config_path: str, threads: int = 1, refine: bool = False) -> int:
    try:
        with open(config_path) as fh:
            raw = json.load(fh, parse_constant=_float64(float), parse_float=_float64(float),
                            parse_int=_float64(int))
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:  # also a number _float64 rejects, and text that is not UTF-8
        print(f"error: invalid JSON in {config_path}: {err}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        runs = [validate_config(raw)]
        if refine:
            fine = {**raw, "sim": {**raw["sim"], "dt": raw["sim"]["dt"] / 2.0}}
            try:
                runs.append(validate_config(fine))
            except ConfigError as err:
                raise ConfigError(f"--refine companion at dt {fine['sim']['dt']:g}: {err}")
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as err:  # an ensemble or a matrix too large to allocate
        print(f"error: {err or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG

    cfg = runs[0].config
    out_dir = os.environ.get("DDSDE_OUTPUT_DIR") or cfg["output"].get("directory", ".")
    os.makedirs(out_dir, exist_ok=True)

    started = time.perf_counter()
    try:
        metrics, ok = _run_experiment(runs[0], out_dir, threads)
        if refine:
            fine_dir = os.path.join(out_dir, "refined")
            os.makedirs(fine_dir, exist_ok=True)
            fine_metrics, fine_ok = _run_experiment(runs[1], fine_dir, threads)
            refinement = {"dt": fine["sim"]["dt"], "metrics": fine_metrics, "ok": fine_ok}
            ok = ok and fine_ok
    except NumericalBlowupError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return EXIT_NUMERIC

    config_hash = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:12]
    report = {"config": cfg, "config_hash": config_hash, "experiment": cfg["experiment"]["type"],
              "metrics": metrics, "ok": ok, "wall_time_s": time.perf_counter() - started}
    if refine:
        report["refinement"] = refinement
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
    print(f"  bounds: K0={b.K0}, B0={b.B0}, C0={b.C0}, C1={b.C1}, C2={b.C2},")
    print(f"          kappa1={b.kappa1}, kappa2={b.kappa2}, lambda={b.lambda_}, "
          f"gamma_t={b.gamma_t}")
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
