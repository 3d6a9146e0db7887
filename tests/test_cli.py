import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ddsde.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    main,
    validate_config,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def small_simulate_config(out_dir, **overrides):
    cfg = {
        "model": {"name": "linear_meanfield", "a": 2.0, "c": 1.0, "sigma": 0.2, "dim": 1},
        "sim": {"n_particles": 64, "dt": 0.01, "t_end": 1.0, "seed": 7,
                "init": {"kind": "point", "value": 1.0}},
        "experiment": {"type": "simulate", "moment_p": 2.0},
        "output": {"directory": str(out_dir)},
    }
    cfg.update(overrides)
    return cfg


def test_run_simulate_and_report(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, small_simulate_config(out))
    assert main(["run", cfg_path]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "simulate"
    assert report["ok"] is True
    assert "terminal_mean" in report["metrics"]
    header = (out / "simulate.csv").read_text().splitlines()[0]
    assert header == "t,moment_p2"


def test_unknown_key_suggestion(tmp_path, capsys):
    cfg = small_simulate_config(tmp_path / "out")
    cfg["sim"]["n_partciles"] = 10
    del cfg["sim"]["n_particles"]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "n_partciles" in err
    assert "n_particles" in err  # the suggestion


def test_unknown_experiment_suggestion(tmp_path, capsys):
    cfg = small_simulate_config(tmp_path / "out")
    cfg["experiment"] = {"type": "contarct"}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_CONFIG
    assert "contract" in capsys.readouterr().err


def test_missing_block_rejected(tmp_path):
    cfg = small_simulate_config(tmp_path / "out")
    del cfg["sim"]
    with pytest.raises(ConfigError, match="sim"):
        validate_config(cfg)


def test_invalid_json_exits_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == EXIT_CONFIG


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("experiment, model_update, code, null_key, named_key", [
    ({"type": "contract", "shift": 0.0}, {"a": 1.0, "c": 0.0, "sigma": 0.3}, EXIT_OK,
     "empirical_rate", "merge_time"),
    # Every weight underflows to 0, so the effective sample size is 0/0.
    ({"type": "couple", "shift": 1e4}, {"a": 1.0, "c": 0.25, "sigma": 0.01}, EXIT_VERIFY,
     "ess", "weight_mean"),
], ids=["contract_merged", "couple_weights_underflow"])
def test_non_finite_metrics_are_null_in_strict_json(tmp_path, experiment, model_update, code,
                                                    null_key, named_key):
    cfg = small_simulate_config(tmp_path / "out", experiment=experiment)
    cfg["model"].update(model_update)
    cfg["sim"].update(n_particles=16, t_end=0.2)
    assert main(["run", write_config(tmp_path, cfg), "--refine"]) == code
    text = (tmp_path / "out" / "report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    for metrics in (report["metrics"], report["refinement"]["metrics"]):
        assert metrics[null_key] is None and metrics[named_key] is not None


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path):
    def peak_bytes(n_steps, name):
        cfg = small_simulate_config(tmp_path / name)
        cfg["sim"].update(n_particles=512, dt=1.0 / n_steps)
        path = write_config(tmp_path, cfg, f"{name}.json")
        tracemalloc.start()
        try:
            assert main(["run", path]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(100, "warm_up")  # lazy imports and first-call caches
    short, long = peak_bytes(100, "short"), peak_bytes(1000, "long")
    assert long <= 2 * short, (short, long)


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "env_out"
    monkeypatch.setenv("DDSDE_OUTPUT_DIR", str(override))
    cfg_path = write_config(tmp_path, small_simulate_config(tmp_path / "ignored"))
    assert main(["run", cfg_path]) == EXIT_OK
    assert (override / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_verification_failure_exits_two(tmp_path):
    cfg = {
        "model": {"name": "linear_meanfield", "a": 1.0, "c": 0.0, "sigma": 1.0, "dim": 1},
        "sim": {"n_particles": 128, "dt": 0.01, "t_end": 0.5, "seed": 3},
        "experiment": {"type": "invariant", "burn_in": 0.05, "check_horizon": 2.0,
                       "tol": 1e-9},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_VERIFY


@pytest.mark.parametrize("model, sim, experiment, named", [
    ({"name": "landau", "gamma": 1.0, "alpha": 1.0, "beta": 1.0, "state_radius": 0.2},
     {"n_particles": 16, "dt": 0.01, "t_end": 0.5, "seed": 4,
      "init": {"kind": "gaussian", "std": 2.0}},
     {"type": "simulate"}, "radius guard"),
    # The states stay finite, but the W2 costs, their squared distances, would not.
    ({"name": "landau", "gamma": 0.0, "alpha": 1e6, "beta": 0.0},
     {"n_particles": 8, "dt": 0.001, "t_end": 0.05, "seed": 1005,
      "init": {"kind": "gaussian", "std": 1.0}},
     {"type": "contract", "shift": 1.0, "slope_tolerance": 0.3},
     "squared distances overflow (trajectory 0, step 46)"),
    # A second law whose W2 costs overflow is caught before the laws are paired.
    ({"name": "landau", "gamma": 0.0, "alpha": 1.0, "beta": 1.0},
     {"n_particles": 8, "dt": 0.001, "t_end": 0.05, "seed": 1004,
      "init": {"kind": "gaussian", "std": 1.0}},
     {"type": "contract", "init2": {"kind": "gaussian", "std": 1.4, "mean": 1e200}},
     "squared distances overflow (trajectory 0, step 0)"),
    ({"name": "linear_meanfield", "a": 1.0, "c": 0.0, "sigma": 1.0, "dim": 2},
     {"n_particles": 8, "dt": 0.01, "t_end": 0.05, "seed": 1},
     {"type": "couple", "init2": {"kind": "gaussian", "mean": 1e200}},
     "squared distances overflow (trajectory 0, step 0)"),
    ({"name": "linear_meanfield", "a": 1.0, "c": 0.0, "sigma": 1.0, "dim": 2},
     {"n_particles": 8, "dt": 0.01, "t_end": 0.05, "seed": 1},
     {"type": "log_harnack", "f": "one_plus_tanh",
      "init2": {"kind": "gaussian", "mean": 1e200}},
     "squared distances overflow (trajectory 0, step 0)"),
    ({"name": "linear_meanfield", "a": 1.0, "c": 0.0, "sigma": 1.0, "dim": 1},
     {"n_particles": 8, "dt": 0.01, "t_end": 0.05, "seed": 1,
      "init": {"kind": "point", "value": 2.0}},
     {"type": "simulate", "moment_p": 1e4},
     "moment of order 10000 overflows (trajectory 0, step 0)"),
], ids=["radius_guard", "squared_distance_overflow", "contract_init2_overflow",
        "couple_init2_overflow", "log_harnack_init2_overflow", "moment_overflow"])
def test_numerical_abort_exits_three(tmp_path, capsys, model, sim, experiment, named):
    cfg = {"model": model, "sim": sim, "experiment": experiment,
           "output": {"directory": str(tmp_path / "out")}}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: ") and err.count("\n") == 1
    assert named in err


def test_threads_flag_reproduces_outputs_bitwise(tmp_path):
    cfg = small_simulate_config(tmp_path / "a")
    cfg["experiment"]["export_law"] = True
    path_a = write_config(tmp_path, cfg, "a.json")
    cfg_b = small_simulate_config(tmp_path / "b")
    cfg_b["experiment"]["export_law"] = True
    path_b = write_config(tmp_path, cfg_b, "b.json")
    assert main(["run", path_a, "--threads", "1"]) == EXIT_OK
    assert main(["run", path_b, "--threads", "4"]) == EXIT_OK
    a_csv = (tmp_path / "a" / "simulate.csv").read_bytes()
    b_csv = (tmp_path / "b" / "simulate.csv").read_bytes()
    assert a_csv == b_csv
    ra = json.loads((tmp_path / "a" / "report.json").read_text())
    rb = json.loads((tmp_path / "b" / "report.json").read_text())
    assert ra["metrics"] == rb["metrics"]
    for node in ("node_00000.csv", "node_00100.csv"):
        assert (tmp_path / "a" / "law_curve" / node).read_bytes() == \
            (tmp_path / "b" / "law_curve" / node).read_bytes()


def test_landau_pairwise_bitwise_across_blas_and_cli_threads(tmp_path):
    # N = 512 puts the (N, N) @ (N, 3) weight product above OpenBLAS's
    # single-thread size cutoff, so the default BLAS thread count is exercised.
    cfg = {
        "model": {"name": "landau", "gamma": 0.5, "alpha": 1.0, "beta": 1.0},
        "sim": {"n_particles": 512, "dt": 0.01, "t_end": 0.05, "seed": 9,
                "init": {"kind": "gaussian", "std": 1.0}},
        "experiment": {"type": "simulate", "moment_p": 2.0},
    }
    cfg_path = write_config(tmp_path, cfg)
    base_env = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    runs = {"blas1": ({"OPENBLAS_NUM_THREADS": "1"}, "1"),
            "blas_default": ({}, "1"),
            "threads4": ({}, "4")}
    outputs = {}
    for label, (extra_env, threads) in runs.items():
        out = tmp_path / label
        result = subprocess.run(
            [sys.executable, "-m", "ddsde", "run", cfg_path, "--threads", threads],
            env={**base_env, **extra_env, "DDSDE_OUTPUT_DIR": str(out)},
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == EXIT_OK, result.stderr
        report = json.loads((out / "report.json").read_text())
        outputs[label] = ((out / "simulate.csv").read_bytes(), report["metrics"])
    assert outputs["blas1"] == outputs["blas_default"] == outputs["threads4"]


MALFORMED_CSV = {"text.csv": "a,b\n", "nan.csv": "0.5\nnan\n",
                 "two_columns.csv": "0.5,1.0\n1.5,2.0\n"}


@pytest.mark.parametrize("experiment, sim_update, model_update, named", [
    ({"type": "log_harnack", "shift": 1.0, "f": "tanh"}, {}, {}, "tanh"),
    ({"type": "shift_harnack", "f": "tanh"}, {}, {}, "tanh"),
    ({"type": "ibp", "f": "tanh"}, {}, {}, "tanh"),
    ({"type": "simulate"}, {"dt": "0.01"}, {}, "dt"),
    ({"type": "bounds", "quantity": "cc", "params": {}}, {}, {}, "alpha"),
    ({"type": "couple", "shift": 1.0}, {}, {"sigma": 0.0}, "lambda"),
    ({"type": "simulate"}, {}, {"name": "landau", "gamma": 2.0}, "gamma"),
    ({"type": "simulate"}, {}, {"a": "fast"}, "a must be a number"),
    ({"type": "simulate"}, {}, {"name": "landau", "gamma": 0.5, "state_radius": "big"},
     "state_radius"),
    ({"type": "simulate"}, {"init": {"kind": "gaussian", "std": "wide"}}, {}, "std"),
    ({"type": "simulate"}, {"init": {"kind": "gaussian", "std": 0.0}}, {}, "std"),
    ({"type": "simulate"}, {"init": {"kind": "point", "value": "x"}}, {}, "value"),
    ({"type": "simulate"}, {"init": {"kind": "gaussian", "mean": [0.0, 1.0, 2.0]}}, {},
     "mean"),
    ({"type": "simulate"}, {"init": {"kind": "csv"}}, {}, "path"),
    ({"type": "simulate"}, {"init": {"kind": "csv", "path": "no_such_points.csv"}}, {},
     "no_such_points.csv"),
    ({"type": "simulate"}, {"init": {"kind": "uniform"}}, {}, "uniform"),
    ({"type": "simulate"}, {"init": "gaussian"}, {}, "sim.init must be an object"),
    ({"type": "contract", "init2": {"kind": "gaussian", "mean": "far"}}, {}, {},
     "experiment.init2.mean"),
    ({"type": "contract", "init2": {"kind": "gaussian", "spread": 1.0}}, {}, {}, "spread"),
    ({"type": "simulate"}, {"n_particles": 0}, {}, "n_particles"),
    ({"type": "simulate"}, {"n_particles": 16.5}, {}, "n_particles"),
    ({"type": "simulate"}, {"seed": 1.5}, {}, "seed"),
    ({"type": "simulate"}, {"theta": 0.5}, {}, "theta"),
    ({"type": "simulate"}, {"theta": "2"}, {}, "theta"),
    ({"type": ["simulate"]}, {}, {}, "unknown experiment type"),
    ({"type": "simulate"}, {}, {"name": ["landau"]}, "unknown model"),
    ({"type": "bounds", "quantity": ["cc"], "params": {}}, {}, {}, "unknown bounds quantity"),
    ({"type": "simulate"}, {}, ["linear_meanfield"], "model block must be an object"),
    ({"type": "simulate"}, 3, {}, "sim block must be an object"),
    ("simulate", {}, {}, "experiment block must be an object"),
    ({"type": "contract", "shift": [1.0, 2.0]}, {}, {}, "experiment.shift"),
    ({"type": "shift_harnack", "v": [1, 2, 3]}, {}, {}, "experiment.v"),
    ({"type": "ibp", "v": "x"}, {}, {}, "experiment.v"),
    ({"type": "picard", "windows": 7}, {}, {}, "windows must divide"),
    ({"type": "picard", "windows": 2.5}, {}, {}, "experiment.windows"),
    ({"type": "picard", "max_iter": "x"}, {}, {}, "experiment.max_iter"),
    ({"type": "contract", "fit_window": [0.421, 0.429]}, {}, {}, "fewer than two grid nodes"),
    ({"type": "contract", "fit_window": 0.5}, {}, {}, "experiment.fit_window"),
    ({"type": "picard", "tol": 0}, {}, {}, "experiment.tol must be > 0"),
    ({"type": "picard", "max_iter": 0}, {}, {}, "experiment.max_iter must be >= 1"),
    ({"type": "simulate", "moment_p": -1}, {}, {}, "experiment.moment_p must be >= 0"),
    ({"type": "shift_harnack", "f": "gauss_bump", "v": 0.5, "p": 0.5}, {}, {},
     "experiment.p must be > 1"),
    ({"type": "invariant", "burn_in": -1}, {}, {}, "experiment.burn_in must be >= 0"),
    ({"type": "bounds", "quantity": "ET1", "params": {"lambda": 1.0, "p": 1.0}}, {}, {},
     "ET1 needs p > 1"),
    ({"type": "bounds", "quantity": "power",
      "params": {"p": 0.5, "lambda": 1.0, "kappa1": 0.0, "kappa2": 0.0}}, {}, {},
     "below the admissible threshold"),
    ({"type": "bounds", "quantity": "phi",
      "params": {"lambda": 1.0, "kappa1": 0.0, "kappa2": 0.0, "s": 2.0}}, {}, {},
     "need t > s"),
    ({"type": "bounds", "quantity": "power",
      "params": {"p": 4.0, "lambda": 1.0, "kappa1": 0.0, "kappa2": 0.0, "moment_term": 1e6}},
     {}, {}, "math range error"),
    ({"type": "bounds", "quantity": "cc", "params": {"alpha": "x", "beta": 1.0}}, {}, {},
     "experiment.params.alpha"),
    ({"type": "bounds", "quantity": "cc", "params": {"alpha": [1.0], "beta": 1.0}}, {}, {},
     "experiment.params.alpha"),
    ({"type": "bounds", "quantity": "cc", "params": {"alpha": None, "beta": 1.0}}, {}, {},
     "experiment.params.alpha"),
    ({"type": "ibp"}, {}, {"sigma": 0.0}, "additive, invertible noise"),
    ({"type": "shift_harnack"}, {}, {"sigma": 0.0}, "additive, invertible noise"),
    ({"type": "invariant"}, {}, {"a": 0.0}, "declared dissipativity"),
    ({"type": "invariant"}, {}, {"a": 1.0, "c": -1.0}, "declared dissipativity"),
    ({"type": "simulate"}, {"t_end": 1e308}, {}, "got inf"),
    ({"type": "simulate"}, {"dt": 1e-300}, {}, "got 1e+300"),
    ({"type": "contract"}, {"t_end": 0.05, "dt": 0.5}, {}, "fewer than two grid nodes"),
    ({"type": "simulate"}, {"t_start": -1.0}, {}, "0 <= t_start"),
    ({"type": "shift_harnack", "log_form": "no"}, {}, {},
     "experiment.log_form must be true or false"),
    ({"type": "simulate", "export_law": "false"}, {}, {},
     "experiment.export_law must be true or false"),
    ({"type": "bounds", "quantity": "phi",
      "params": {"lambda": 1.0, "kappa1": 0.0, "kappa2": 0.0, "tt": 0.5}}, {}, {},
     "unknown key 'tt' in params of bounds quantity 'phi' (did you mean 't'?)"),
    ({"type": "simulate"}, {"init": {"kind": "csv", "path": "text.csv"}}, {},
     "could not convert"),
    ({"type": "simulate"}, {"init": {"kind": "csv", "path": "nan.csv"}}, {}, "non-finite"),
    ({"type": "simulate"}, {"init": {"kind": "csv", "path": "two_columns.csv"}}, {},
     "has 2 columns, but the model has dimension 1"),
    ({"type": "simulate"}, {}, {"sigma": [0.2, 0.3], "dim": 1},
     "dim 1 conflicts with sigma shape (2,)"),
    ({"type": "bounds", "quantity": "cc", "params": {"alpha": 1e308, "beta": 0.0}}, {}, {},
     "cc is inf at these params"),
    ({"type": "simulate"}, {"dt": float("nan")}, {}, "NaN is not a JSON number"),
    ({"type": "shift_harnack", "v": 1e4}, {}, {"sigma": 0.01},
     "the shift Harnack constant overflows"),
    ({"type": "ibp", "v": 1e308}, {}, {}, "experiment.v must have coordinates"),
    ({"type": "simulate"}, {"init": {"kind": "gaussian", "std": 1e308}}, {},
     "sim.init.std must be a number in (0, 1e+150]"),
    ({"type": "simulate"}, {"n_particles": 1e308}, {}, "particles, got 1e+308"),
    ({"type": "invariant", "burn_in": 1e308}, {}, {}, "experiment.burn_in needs at most"),
], ids=["log_harnack_f", "shift_harnack_f", "ibp_f", "dt_string",
        "bounds_missing_param", "couple_missing_bound", "landau_gamma_range",
        "linear_a_string", "landau_state_radius_string",
        "init_std_string", "init_std_zero", "init_value_string", "init_mean_size",
        "init_csv_no_path", "init_csv_missing_file", "init_unknown_kind", "init_not_object",
        "init2_mean_string", "init2_unknown_key", "n_particles_zero",
        "n_particles_fraction", "seed_fraction", "theta_below_one", "theta_string",
        "type_list", "model_name_list", "bounds_quantity_list", "model_not_object",
        "sim_not_object", "experiment_not_object", "shift_size", "v_size", "v_string",
        "windows_not_dividing", "windows_fraction", "max_iter_string",
        "fit_window_empty", "fit_window_not_pair", "picard_tol_zero",
        "picard_max_iter_zero", "moment_p_negative", "shift_harnack_p_half",
        "burn_in_negative", "bounds_et1_p_one", "bounds_power_p_half",
        "bounds_phi_s_past_t_end", "bounds_power_overflow", "bounds_param_string", "bounds_param_list",
        "bounds_param_null", "ibp_sigma_zero", "shift_harnack_sigma_zero",
        "invariant_a_zero", "invariant_c_negative", "t_end_overflow", "dt_underflow",
        "default_fit_window_empty", "t_start_negative", "log_form_string",
        "export_law_string", "bounds_param_unknown", "init_csv_text", "init_csv_nan",
        "init_csv_columns", "sigma_list_dim_conflict", "bounds_value_infinite",
        "dt_nan_literal", "shift_harnack_constant_overflow", "ibp_v_beyond_max_state",
        "init_std_beyond_max_state", "n_particles_overflow", "burn_in_overflow"])
def test_malformed_config_exits_one_without_traceback(tmp_path, capsys, monkeypatch,
                                                      experiment, sim_update, model_update,
                                                      named):
    monkeypatch.chdir(tmp_path)  # where the malformed CSV laws are
    for csv_name, text in MALFORMED_CSV.items():
        (tmp_path / csv_name).write_text(text)
    cfg = small_simulate_config(tmp_path / "out", experiment=experiment)
    if isinstance(sim_update, dict):
        cfg["sim"].update(sim_update)
    else:  # a malformed block replaces the whole one
        cfg["sim"] = sim_update
    if not isinstance(model_update, dict) or "name" in model_update:
        # another model family, or a malformed block, replaces the whole block
        cfg["model"] = model_update
    else:
        cfg["model"].update(model_update)
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", [
    # The log form has no power, so p is not range-checked there.
    {"type": "shift_harnack", "log_form": True, "p": 0.5},
    # The invariant search runs at least one step of each, so 0 is allowed.
    {"type": "invariant", "burn_in": 0, "check_horizon": 0},
], ids=["shift_harnack_log_form_p", "invariant_zero_spans"])
def test_experiment_range_edges_accepted(tmp_path, experiment):
    validate_config(small_simulate_config(tmp_path / "out", experiment=experiment))


def test_run_imports_only_what_it_uses(tmp_path):
    # A 1-D linear run needs no quadrature, assignment or cdist. A d = 2 W2 and a
    # gamma > 0 Landau drift load only scipy's compiled assignment and distance
    # modules, and a later import of their packages reuses them.
    cfg_path = write_config(tmp_path, small_simulate_config(tmp_path / "out"))
    script = f"""
import sys
import numpy as np
from ddsde import cli, measure, models
lazy = ("scipy.integrate", "scipy.optimize", "scipy.spatial")
assert cli.run({cfg_path!r}) == 0
print(sorted(m for m in lazy if m in sys.modules))
pts = measure.EmpiricalMeasure(np.arange(8.0).reshape(4, 2))
print(measure.wasserstein(pts, pts.shifted([1.0, 0.0])))
x = np.arange(12.0).reshape(4, 3)
models.landau_model(0.5, 1.0, 1.0).drift(0.0, x, measure.EmpiricalMeasure(x))
print(sorted(m for m in lazy if m in sys.modules))
print(sorted(m for m in sys.modules if m in ("scipy.optimize._lsap", "scipy.spatial._distance_pybind")))
solver = sys.modules["scipy.optimize._lsap"].linear_sum_assignment
import scipy.optimize
print(scipy.optimize.linear_sum_assignment is solver)
"""
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-5:] == [
        "[]", "1.0", "[]", "['scipy.optimize._lsap', 'scipy.spatial._distance_pybind']", "True"]


def test_scipy_extension_falls_back_to_package_import(tmp_path):
    # Where no compiled file is found, the module comes from the package import.
    script = f"""
import sys
import types
from ddsde import measure
measure.scipy = types.SimpleNamespace(__file__={str(tmp_path / "scipy" / "__init__.py")!r})
module = measure._scipy_extension("optimize", "_lsap")
import scipy.optimize
print(module is scipy.optimize._lsap, "scipy.optimize" in sys.modules)
"""
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "True True"


def test_scipy_extension_loads_once_across_threads():
    # Threads that ask for the module at once must all get the one registered module.
    script = """
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from ddsde import measure
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
def load(_):
    barrier.wait(timeout=30)
    return measure._scipy_extension("optimize", "_lsap")
with ThreadPoolExecutor(8) as pool:
    modules = list(pool.map(load, range(8)))
print(all(m is sys.modules["scipy.optimize._lsap"] for m in modules))
"""
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("output, named", [
    ({"formats": 5}, "output.formats"),
    ({"formats": ["json", "yaml"]}, "output.formats"),
    ({"directory": 5}, "output.directory"),
    ("out", "output block must be an object"),
], ids=["formats_number", "formats_unknown", "directory_number", "output_not_object"])
def test_malformed_output_block_exits_one(tmp_path, capsys, output, named):
    cfg = small_simulate_config(tmp_path / "out")
    if isinstance(output, dict):
        cfg["output"].update(output)
    else:
        cfg["output"] = output
    assert main(["run", write_config(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert not (tmp_path / "out").exists()


def test_refine_attaches_companion(tmp_path):
    cfg = small_simulate_config(tmp_path / "out")
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path, "--refine"]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["refinement"]["dt"] == pytest.approx(0.005)
    assert "terminal_mean" in report["refinement"]["metrics"]


def test_bounds_experiment(tmp_path):
    cfg = {
        "model": {"name": "landau", "gamma": 0.0, "alpha": 1.0, "beta": 1.0},
        "sim": {"n_particles": 2, "dt": 0.01, "t_end": 1.0, "seed": 1},
        "experiment": {"type": "bounds", "quantity": "cc",
                       "params": {"alpha": 1.0, "beta": 1.0}},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metrics"]["value"] == 8.0


def test_list_models(capsys):
    assert main(["list-models"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "landau" in out and "linear_meanfield" in out


def test_describe_landau(capsys):
    assert main(["describe", "landau"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gamma in [0, 1]" in out
    assert "K0=-2.0" in out and "B0=2.0" in out and "C0=2.0" in out


def test_describe_linear(capsys):
    assert main(["describe", "linear_meanfield"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "additive_noise=True" in out


def test_describe_unknown(capsys):
    assert main(["describe", "nope"]) == EXIT_CONFIG


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "ddsde", "list-models"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "landau" in result.stdout


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_bundled_configs_validate(name):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    validate_config(cfg)  # raises on schema violations


def test_landau_contract_config_runs(tmp_path, monkeypatch):
    # the Maxwell-molecules contraction experiment end to end: CSV + exit 0
    monkeypatch.setenv("DDSDE_OUTPUT_DIR", str(tmp_path))
    cfg = json.loads((CONFIG_DIR / "contract_landau_maxwell.json").read_text())
    cfg["sim"].update({"n_particles": 96, "dt": 0.005, "t_end": 0.3})
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["metrics"]["bound_rate"] == 8.0
    assert report["metrics"]["empirical_rate"] <= 8.0 + 0.5
    header = (tmp_path / "contract.csv").read_text().splitlines()[0]
    assert header == "t,w2_sq,bound_envelope"


def test_ibp_config_reports_z_score(tmp_path, monkeypatch):
    monkeypatch.setenv("DDSDE_OUTPUT_DIR", str(tmp_path))
    cfg = json.loads((CONFIG_DIR / "ibp_linear.json").read_text())
    cfg["sim"].update({"n_particles": 20000, "dt": 0.002})
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["metrics"]["z_score"]) <= 3.0
    assert report["metrics"]["lhs"] == 1.0


def test_small_picard_config_roundtrip(tmp_path):
    cfg = {
        "model": {"name": "linear_meanfield", "a": 2.0, "c": 1.0, "sigma": 0.2, "dim": 1},
        "sim": {"n_particles": 128, "dt": 0.005, "t_end": 0.5, "seed": 11,
                "init": {"kind": "gaussian", "std": 1.0}},
        "experiment": {"type": "picard", "max_iter": 6, "tol": 1e-5},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metrics"]["converged"] is True
    header = (tmp_path / "out" / "picard.csv").read_text().splitlines()[0]
    assert header == "iteration,delta"


def test_picard_window_splitting(tmp_path):
    cfg = {
        "model": {"name": "linear_meanfield", "a": -1.0, "c": 3.0, "sigma": 0.1, "dim": 1},
        "sim": {"n_particles": 64, "dt": 0.01, "t_end": 1.5, "seed": 14,
                "init": {"kind": "gaussian", "std": 1.0}},
        "experiment": {"type": "picard", "max_iter": 60, "tol": 1e-3, "windows": 6},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metrics"]["windows"] == 6
    assert report["metrics"]["converged"] is True


def test_small_contract_config(tmp_path):
    cfg = {
        "model": {"name": "linear_meanfield", "a": 1.0, "c": 0.0, "sigma": 0.3, "dim": 1},
        "sim": {"n_particles": 128, "dt": 0.005, "t_end": 1.0, "seed": 12,
                "init": {"kind": "gaussian", "std": 1.0}},
        "experiment": {"type": "contract", "shift": 1.0, "slope_tolerance": 0.15},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_OK
    header = (tmp_path / "out" / "contract.csv").read_text().splitlines()[0]
    assert header == "t,w2_sq,bound_envelope"


def test_small_couple_config(tmp_path):
    cfg = {
        "model": {"name": "linear_meanfield", "a": 1.0, "c": 0.25, "sigma": 1.0, "dim": 1},
        "sim": {"n_particles": 1000, "dt": 0.005, "t_end": 1.0, "seed": 13,
                "init": {"kind": "point", "value": 0.0}},
        "experiment": {"type": "couple", "shift": 1.0},
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for key in ("terminal_gap_q", "weight_mean", "weight_mean_se", "weight_entropy",
                "weight_entropy_se", "phi_bound", "ess", "success"):
        assert key in report["metrics"]
    header = (tmp_path / "out" / "couple.csv").read_text().splitlines()[0]
    assert header == "t,gap_q,weight_mean,weight_entropy"
