import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ddsde import cli, harnack, solver
from ddsde.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    build_init,
    main,
    validate_config,
)
from ddsde.measure import EmpiricalMeasure
from ddsde.rng import NoiseSpec

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


def test_couple_warns_when_every_weight_underflows(tmp_path):
    cfg = small_simulate_config(tmp_path / "out", experiment={"type": "couple", "shift": 1e4})
    cfg["model"].update(a=1.0, c=0.25, sigma=0.01)
    cfg["sim"].update(n_particles=16, t_end=0.2)
    assert main(["run", write_config(tmp_path, cfg)]) == EXIT_VERIFY
    metrics = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
    assert metrics["ess"] is None
    assert "every weight underflowed" in metrics["ess_warning"]


def test_csv_law_is_tiled_to_n_particles(tmp_path):
    rows = np.array([[0.5], [1.0], [2.5], [-1.0]])
    path = tmp_path / "law.csv"
    EmpiricalMeasure(rows).to_csv(path)
    noise = NoiseSpec(seed=1, dim=1)
    for n in (4, 12):
        law = build_init({"kind": "csv", "path": str(path)}, 1, n, noise)
        assert np.array_equal(law.points, np.tile(rows, (n // 4, 1)))


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


def test_law_export_memory_does_not_grow_with_the_horizon(tmp_path):
    # Each node file is written as the node passes. Storing the nodes of the
    # longer run would add 450 x 2000 x 8 bytes, about 7 MB, to its peak RSS.
    def peak_mb(n_steps):
        cfg = small_simulate_config(tmp_path / f"out_{n_steps}", experiment={
            "type": "simulate", "export_law": True})
        cfg["sim"].update(n_particles=2000, dt=1.0 / n_steps)
        # VmHWM, not ru_maxrss: a child's ru_maxrss keeps the peak of the process it forked from.
        script = ("import re, sys\nfrom ddsde.cli import main\n"
                  "assert main(['run', sys.argv[1]]) == 0\n"
                  "print(re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1])")
        result = subprocess.run(
            [sys.executable, "-c", script, write_config(tmp_path, cfg, f"{n_steps}.json")],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return int(result.stdout.split()[-1]) / 1024

    short, long = peak_mb(50), peak_mb(500)
    assert long - short < 2.0, (short, long)


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


def test_invariant_search_starts_from_sim_init(tmp_path):
    # From a point law at 5 the OU particles are far from N(0, 1/2) after a burn-in
    # of 0.05 and its doubling, so the search fails its check, reporting the residual
    # it failed on and writing the snapshot.
    out = tmp_path / "out"
    cfg = {
        "model": {"name": "linear_meanfield", "a": 1.0, "c": 0.0, "sigma": 1.0, "dim": 1},
        "sim": {"n_particles": 256, "dt": 0.01, "t_end": 0.5, "seed": 3,
                "init": {"kind": "point", "value": 5.0}},
        "experiment": {"type": "invariant", "burn_in": 0.05},
        "output": {"directory": str(out)},
    }
    assert main(["run", write_config(tmp_path, cfg)]) == EXIT_VERIFY
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["residual"] > 0.5
    assert report["metrics"]["second_moment_per_coordinate"][0] > 4.0
    assert (out / "invariant_measure.csv").exists()


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
    # 1 + tanh(x) underflows to 0 near the terminal states of a law started at -40.
    ({"name": "linear_meanfield", "a": 1.0, "c": 0.0, "sigma": 1.0, "dim": 1},
     {"n_particles": 16, "dt": 0.01, "t_end": 0.2, "seed": 1,
      "init": {"kind": "point", "value": -40.0}},
     {"type": "shift_harnack", "f": "one_plus_tanh"},
     "positive test function (trajectory 0, step 20)"),
    ({"name": "linear_meanfield", "a": 1.0, "c": 0.0, "sigma": 1.0, "dim": 1},
     {"n_particles": 16, "dt": 0.01, "t_end": 0.2, "seed": 1},
     {"type": "log_harnack", "f": "const", "f_min": 5.0},
     "< f_min=5.0; log-Harnack needs f bounded away from zero (trajectory 0, step 20)"),
    # (1 + tanh)^2000 overflows near 2; the constant, 1.33, is finite.
    ({"name": "linear_meanfield", "a": 1.0, "c": 0.25, "sigma": 1.0},
     {"n_particles": 2000, "dt": 0.01, "t_end": 1.0, "seed": 3,
      "init": {"kind": "point", "value": 0.5}},
     {"type": "shift_harnack", "f": "one_plus_tanh", "v": 0.5, "p": 2000},
     "f(X_T + v)^p or (E f)^p overflows at p = 2000 (trajectory 0, step 100)"),
    # Picard's W_theta costs |x - y|^theta: at theta = 100 a distance below 8.4e-4
    # underflows, at 1e300 every distance other than 1 under- or overflows, and at
    # 700 the Landau distances above 2.76 overflow; each used to read a delta of 0.0.
    *[({"name": name, **params},
       {"n_particles": 16, "dt": 0.01, "t_end": 0.1, "seed": 1, "theta": theta},
       {"type": "picard", "max_iter": 3, "tol": 1e-3},
       f"|x - y|^theta under- or overflows at theta = {theta:g}")
      for name, params, theta in [
          ("linear_meanfield", {"a": 1.0, "c": 0.5, "sigma": 1.0}, 100.0),
          ("linear_meanfield", {"a": 1.0, "c": 0.5, "sigma": 1.0}, 1e300),
          ("landau", {"gamma": 0.0}, 700.0),
          ("landau", {"gamma": 0.0}, 1e300)]],
], ids=["radius_guard", "squared_distance_overflow", "contract_init2_overflow",
        "couple_init2_overflow", "log_harnack_init2_overflow", "moment_overflow",
        "shift_harnack_f_not_positive", "log_harnack_f_below_f_min",
        "shift_harnack_power_overflow", "picard_theta_100", "picard_theta_1e300",
        "picard_landau_theta_700", "picard_landau_theta_1e300"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_abort_exits_three(tmp_path, capsys, model, sim, experiment, named):
    cfg = {"model": model, "sim": sim, "experiment": experiment,
           "output": {"directory": str(tmp_path / "out")}}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_harnack_reports_an_empty_weight_sample(tmp_path):
    # At a shift of 40 every Girsanov weight underflows: lhs reads 0 over an empty
    # sample, and the report says so, as couple's does on the same run.  Both fail:
    # log_harnack on its undefined ESS, couple on its martingale check.
    cfg = {"model": {"name": "linear_meanfield", "a": 1.0, "c": 0.25, "sigma": 1.0},
           "sim": {"n_particles": 256, "dt": 0.01, "t_end": 0.1, "seed": 3,
                   "init": {"kind": "point", "value": 0.0}},
           "experiment": {"type": "log_harnack", "shift": 40.0}}
    reports = {}
    for etype, code in (("log_harnack", EXIT_VERIFY), ("couple", EXIT_VERIFY)):
        cfg["experiment"]["type"] = etype
        cfg["output"] = {"directory": str(tmp_path / etype)}
        assert main(["run", write_config(tmp_path, cfg, f"{etype}.json")]) == code
        reports[etype] = json.loads((tmp_path / etype / "report.json").read_text())["metrics"]
    for metrics in reports.values():
        assert metrics["ess"] is None
        assert metrics["ess_warning"] == "effective sample size undefined: every weight underflowed"
    assert reports["log_harnack"]["lhs"] == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shift_harnack_reports_the_se_of_a_large_finite_psi(tmp_path):
    # At p = 1000, f(X_T + v)^p reaches 1.9e297: finite, but its squares overflow
    # a plain standard deviation.  The SE is reported, finite, and the run passes.
    cfg = {"model": {"name": "linear_meanfield", "a": 1.0, "c": 0.25, "sigma": 1.0},
           "sim": {"n_particles": 2000, "dt": 0.01, "t_end": 1.0, "seed": 3,
                   "init": {"kind": "point", "value": 0.5}},
           "experiment": {"type": "shift_harnack", "f": "one_plus_tanh", "v": 0.5, "p": 1000},
           "output": {"directory": str(tmp_path / "out")}}
    assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
    metrics = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
    assert 1e296 < metrics["rhs_se"] < 1e298
    assert 1e296 < metrics["slack_se"] < 1e298


# Each experiment a particle run serves, at 200 steps and at 400: a contract fit
# window from t = 0.3625 holds 128 and 256 nodes, both strided to 64 and the
# last, and one Picard iteration from a point law solves one node.
PER_STEP_EXPERIMENTS = {
    "simulate": {"type": "simulate"},
    "picard": {"type": "picard", "max_iter": 1, "tol": 100.0},
    "contract": {"type": "contract", "fit_window": [0.3625, 2.0]},
    "couple": {"type": "couple", "shift": 0.5},
    "ibp": {"type": "ibp"},
    "invariant": {"type": "invariant", "burn_in": 0.5, "check_horizon": 0.25, "tol": 10.0},
}


@pytest.mark.parametrize("etype", sorted(PER_STEP_EXPERIMENTS))
def test_a_particle_run_builds_no_measure_per_step(tmp_path, monkeypatch, etype):
    built = []
    post_init = EmpiricalMeasure.__post_init__
    monkeypatch.setattr(EmpiricalMeasure, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    counts = []
    for n_steps in (200, 400):
        cfg = small_simulate_config(tmp_path / str(n_steps),
                                    experiment=PER_STEP_EXPERIMENTS[etype])
        cfg["model"].update(a=1.0, c=0.0, sigma=1.0)
        cfg["sim"].update(n_particles=16, dt=1.0 / n_steps)
        built.clear()
        assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_export_stopped_by_a_numerical_abort_leaves_no_manifest(tmp_path):
    cfg = small_simulate_config(tmp_path / "out", experiment={
        "type": "simulate", "moment_p": 1e4, "export_law": True})
    cfg["sim"]["init"]["value"] = 2.0  # 2^10000 overflows at node 0
    assert main(["run", write_config(tmp_path, cfg)]) == EXIT_NUMERIC
    law_dir = tmp_path / "out" / "law_curve"
    assert (law_dir / "node_00000.csv").exists()
    assert not (law_dir / "manifest.json").exists()


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


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_landau_pairwise_bitwise_across_blas_and_cli_threads(tmp_path, beta):
    # The gamma > 0 kernel multiplies row panels of N / 8 rows by the (N, 4)
    # array [x | 1]. At N = 1536 and beta = 1 (the ensemble's own law, upper
    # triangle only) its largest products, (192 x 1536) @ (1536 x 4) and the
    # transposed (1344 x 192) @ (192 x 4), take 1.18e6 and 1.03e6
    # multiply-adds; at beta = 0.5 every panel spans all columns, and each
    # (192 x 1536) @ (1536 x 4) takes 192 * 1536 * 4 = 1.18e6. OpenBLAS 0.3.31
    # (Haswell kernels) runs a product on one thread up to between 9.9e5 and
    # 1.03e6 multiply-adds, so these run on the default BLAS thread count.
    # N = 1024 (5.2e5) would stay below it.
    cfg = {
        "model": {"name": "landau", "gamma": 0.5, "alpha": 1.0, "beta": beta},
        "sim": {"n_particles": 1536, "dt": 0.01, "t_end": 0.05, "seed": 9,
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
                 "two_columns.csv": "0.5,1.0\n1.5,2.0\n", "three_rows.csv": "0.5\n1.0\n1.5\n",
                 "empty.csv": "", "blank.csv": "\n\n"}


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
    ({"type": "simulate"}, {"init": {"kind": "csv", "path": "three_rows.csv"}}, {},
     "has 3 rows, which do not divide n_particles 64"),
    ({"type": "bounds", "quantity": "power",
      "params": {"p": 4.0, "lambda": 1.0, "kappa1": 0.0, "kappa2": 0.0, "T": 0}}, {}, {},
     "horizon must be positive, got 0"),
    ({"type": "bounds", "quantity": "power",
      "params": {"p": 4.0, "lambda": 1.0, "kappa1": -1, "kappa2": 0.0}}, {}, {},
     "kappa1 and kappa2 must be nonnegative"),
    ({"type": "bounds", "quantity": "p_threshold", "params": {"lambda": 1.0, "kappa2": -1}},
     {}, {}, "unknown key 'kappa2' in params of bounds quantity 'p_threshold'"),
    ({"type": "couple", "shift": 1.0, "weight_clip": -1}, {}, {},
     "experiment.weight_clip must be > 0, got -1"),
    ({"type": "log_harnack", "f_min": 0}, {}, {}, "experiment.f_min must be > 0, got 0"),
    # Unchecked, the shift would carry the second law past the float64 range.
    *[({"type": etype, "shift": 1e308}, {"init": {"kind": "point", "value": 1e308}}, {},
       "experiment.shift must have coordinates of magnitude at most 1e+150")
      for etype in ("contract", "couple", "log_harnack")],
    ({"type": "simulate"}, {}, {"dim": 0}, "dim must be an integer >= 1, got 0"),
    # An identity sigma of 1e7 x 1e7 and 1e15 particles need more bytes than a
    # 47-bit address space holds, so each allocation fails on any machine.
    ({"type": "simulate"}, {}, {"dim": 10 ** 7}, "Unable to allocate 728. TiB"),
    ({"type": "simulate"}, {"n_particles": 1e15}, {}, "Unable to allocate 7.11 PiB"),
    # A file with no rows fails as an empty law, with no numpy warning before the line.
    *[({"type": "simulate"}, {"init": {"kind": "csv", "path": name}}, {},
       "points must be a nonempty (N, d) array") for name in ("empty.csv", "blank.csv")],
    # A radius of 0 or less would abort the run at its first state.
    *[({"type": "simulate"}, {}, {"name": "landau", "gamma": 0.5, "state_radius": radius},
       f"state_radius must be positive, got {radius}") for radius in (0.0, -1.0)],
    *[({"type": "bounds", "quantity": quantity, "params": {"lambda": 1.0, "d": d}}, {}, {},
       f"the dimension d must be >= 1, got {d}")
      for quantity in ("ET1", "ET2", "ET3") for d in (0, -3)],
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
        "init_std_beyond_max_state", "n_particles_overflow", "burn_in_overflow",
        "init_csv_rows_not_dividing", "bounds_power_horizon_zero",
        "bounds_power_kappa_negative", "bounds_p_threshold_kappa_negative",
        "couple_weight_clip_negative", "log_harnack_f_min_zero", "contract_shift_overflow",
        "couple_shift_overflow", "log_harnack_shift_overflow", "dim_zero", "dim_unallocatable",
        "n_particles_unallocatable", "init_csv_empty", "init_csv_blank",
        "landau_state_radius_zero", "landau_state_radius_negative", "bounds_et1_d_zero",
        "bounds_et1_d_negative", "bounds_et2_d_zero", "bounds_et2_d_negative",
        "bounds_et3_d_zero", "bounds_et3_d_negative"])
@pytest.mark.filterwarnings("error")  # a warning printed before the error line fails
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


@pytest.mark.parametrize("sim_update, experiment, literal", [
    ({"init": {"kind": "point", "value": "@"}}, {"type": "simulate"}, "1e309"),
    ({"init": {"kind": "gaussian", "mean": "@"}}, {"type": "simulate"}, "1e309"),
    ({}, {"type": "couple", "shift": "@"}, "1e309"),
    ({}, {"type": "couple", "shift": "@"}, "1" + "0" * 400),
], ids=["init_value_1e309", "init_mean_1e309", "shift_1e309", "shift_int_beyond_float64"])
def test_number_beyond_float64_exits_one_as_invalid_json(tmp_path, capsys, sim_update,
                                                         experiment, literal):
    # The literals are valid JSON, but a float64 cannot hold them.
    cfg = small_simulate_config(tmp_path / "out", experiment=experiment)
    cfg["sim"].update(sim_update)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg).replace('"@"', literal))
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid JSON in {cfg_path}: ") and err.count("\n") == 1
    assert "is not a JSON number within the float64 range" in err
    assert not (tmp_path / "out").exists()


def test_a_64_bit_seed_parses(tmp_path):
    cfg = small_simulate_config(tmp_path / "out")
    cfg["sim"]["seed"] = 2 ** 64 - 1
    assert main(["run", write_config(tmp_path, cfg)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["sim"]["seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("experiment", [
    # The log form has no power, so p is not range-checked there.
    {"type": "shift_harnack", "log_form": True, "p": 0.5},
    # The invariant search runs at least one step of each, so 0 is allowed.
    {"type": "invariant", "burn_in": 0, "check_horizon": 0},
], ids=["shift_harnack_log_form_p", "invariant_zero_spans"])
def test_experiment_range_edges_accepted(tmp_path, experiment):
    validate_config(small_simulate_config(tmp_path / "out", experiment=experiment))


def test_run_imports_only_what_it_uses(tmp_path):
    # A 1-D linear run needs no quadrature, assignment or cdist, and draws its noise
    # through scipy's compiled special-function module alone. A d = 2 W2 and a
    # gamma > 0 Landau drift load only scipy's compiled assignment and distance
    # modules. A later import of their packages reuses them. An ET2 bound is a closed
    # form and imports no quadrature. Its value moved by one ulp, from
    # 0.40490675723825564, when the quadrature gave way to the closed form: the 50-digit
    # value is 0.4049067572382555631..., so the closed form's value is the closer one.
    cfg_path = write_config(tmp_path, small_simulate_config(tmp_path / "out"))
    bounds_path = write_config(tmp_path, {
        "model": {"name": "linear_meanfield", "a": 1.0, "c": 0.5, "sigma": 1.0, "dim": 1},
        "sim": {"n_particles": 2, "dt": 0.01, "t_end": 1.0, "seed": 1},
        "experiment": {"type": "bounds", "quantity": "ET2",
                       "params": {"lambda": 1.1, "grad_b": 0.4, "p": 2.0}},
        "output": {"directory": str(tmp_path / "bounds")}}, name="bounds.json")
    script = f"""
import json
import sys
import numpy as np
from ddsde import cli, measure, models, rng
lazy = ("scipy.integrate", "scipy.optimize", "scipy.spatial", "scipy.special")
assert cli.run({cfg_path!r}) == 0
print(sorted(m for m in lazy if m in sys.modules))
pts = measure.EmpiricalMeasure(np.arange(8.0).reshape(4, 2))
print(measure.wasserstein(pts, pts.shifted([1.0, 0.0])))
x = np.arange(12.0).reshape(4, 3)
models.landau_model(0.5, 1.0, 1.0).drift(0.0, x, x)
print(sorted(m for m in lazy if m in sys.modules))
print(sorted(m for m in sys.modules if m in ("scipy.optimize._lsap", "scipy.spatial._distance_pybind")))
solver = sys.modules["scipy.optimize._lsap"].linear_sum_assignment
import scipy.optimize
print(scipy.optimize.linear_sum_assignment is solver)
assert cli.run({bounds_path!r}) == 0
with open({str(tmp_path / "bounds" / "report.json")!r}) as fh:
    value = json.load(fh)["metrics"]["value"]
print(sorted(m for m in lazy if m in sys.modules))
import scipy.special
print(value, scipy.special.ndtri is rng.ndtri)
"""
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()  # each cli.run also prints a line of its own
    assert lines[-8:-3] == [
        "[]", "1.0", "[]", "['scipy.optimize._lsap', 'scipy.spatial._distance_pybind']", "True"]
    # (the import of scipy.optimize above brings in scipy.spatial and scipy.special)
    assert lines[-2:] == ["['scipy.optimize', 'scipy.spatial', 'scipy.special']",
                          "0.4049067572382556 True"]


# measure imports no ddsde module, so it loads alone, before any scipy.<package> is imported.
LOAD_MEASURE_ALONE = f"""
import importlib.util
import sys
spec = importlib.util.spec_from_file_location(
    "measure", {str(Path(__file__).resolve().parent.parent / "src" / "ddsde" / "measure.py")!r})
measure = sys.modules["measure"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(measure)
"""


@pytest.mark.parametrize("package, name", [("optimize", "_lsap"), ("special", "_ufuncs")])
def test_scipy_extension_falls_back_to_package_import(tmp_path, package, name):
    # Where no compiled file is found, the module comes from the package import.
    script = LOAD_MEASURE_ALONE + f"""
import types
measure.scipy = types.SimpleNamespace(__file__={str(tmp_path / "scipy" / "__init__.py")!r})
module = measure._scipy_extension({package!r}, {name!r})
parent = importlib.import_module("scipy.{package}")
print(module is getattr(parent, {name!r}), hasattr(parent, "__file__"))
"""
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "True True"


def test_scipy_extension_failed_load_leaves_no_stub():
    # A compiled module whose init fails under the stub parent is dropped with the
    # stub before the package import, which then loads both for real.
    script = LOAD_MEASURE_ALONE + """
import types
from importlib.machinery import ExtensionFileLoader
real_exec = ExtensionFileLoader.exec_module
failed = []
def exec_module(self, module):
    if module.__name__ == "scipy.special._ufuncs" and not failed:
        failed.append(True)
        raise ImportError("init failed")
    real_exec(self, module)
ExtensionFileLoader.exec_module = exec_module
def import_module(name):
    print("scipy.special" in sys.modules, "scipy.special._ufuncs" in sys.modules)
    return importlib.import_module(name)
measure.importlib = types.SimpleNamespace(util=importlib.util, import_module=import_module)
module = measure._scipy_extension("special", "_ufuncs")
import scipy.special
print(failed, module is sys.modules["scipy.special._ufuncs"], scipy.special.ndtri is module.ndtri)
"""
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["False False", "[True] True True"]


def test_noise_reuses_an_imported_scipy_special():
    script = """
import scipy.special
from ddsde import rng
print(rng.ndtri is scipy.special.ndtri)
"""
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "True"


def test_siblings_loaded_under_the_stub_are_not_attributes_of_scipy_special():
    # importlib binds a submodule to its parent only when it loads it, so the
    # siblings _ufuncs imported under the stub parent are not attributes of the
    # real package imported later; they stay importable from sys.modules.
    script = """
from ddsde import rng
import scipy.special
print(hasattr(scipy.special, "_gufuncs"))
from scipy.special import _gufuncs
print(_gufuncs.__name__, scipy.special.ndtri is rng.ndtri)
"""
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["False", "scipy.special._gufuncs True"]


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
    ({"formats": 5}, "unknown key 'formats' in output block"),
    ({"formats": ["json", "yaml"]}, "unknown key 'formats' in output block"),
    ({"formats": ["json"]}, "unknown key 'formats' in output block"),
    ({"directory": 5}, "output.directory"),
    ("out", "output block must be an object"),
], ids=["formats_number", "formats_unknown", "formats_unknown_key", "directory_number",
        "output_not_object"])
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


@pytest.mark.parametrize("blocker, directory, env, refine", [
    ("file", "file", None, False),
    ("file", "out", "file/out", False),
    ("out/refined", "out", None, True),
], ids=["directory_names_a_file", "env_directory_below_a_file", "refined_names_a_file"])
def test_output_directory_that_cannot_be_made_exits_one(tmp_path, capsys, monkeypatch,
                                                        blocker, directory, env, refine):
    (tmp_path / blocker).parent.mkdir(exist_ok=True)
    (tmp_path / blocker).write_text("")
    if env:
        monkeypatch.setenv("DDSDE_OUTPUT_DIR", str(tmp_path / env))
    cfg_path = write_config(tmp_path, small_simulate_config(tmp_path / directory))
    assert main(["run", cfg_path] + ["--refine"] * refine) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create the output directory: ")
    assert err.count("\n") == 1 and str(tmp_path / blocker) in err
    assert not (tmp_path / "out" / "simulate.csv").exists()  # nothing ran


def test_refine_attaches_companion(tmp_path):
    cfg = small_simulate_config(tmp_path / "out")
    cfg_path = write_config(tmp_path, cfg)
    assert main(["run", cfg_path, "--refine"]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["refinement"]["dt"] == pytest.approx(0.005)
    assert "terminal_mean" in report["refinement"]["metrics"]


def test_couple_refinement_holds_dt_metrics_and_ok(tmp_path):
    # The bundled couple config at the golden pins' size, which passes at dt and dt/2.
    cfg = json.loads((CONFIG_DIR / "couple_linear.json").read_text())
    cfg["sim"].update(n_particles=64, dt=0.01)
    cfg["output"]["directory"] = str(tmp_path / "out")
    assert main(["run", write_config(tmp_path, cfg), "--refine"]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert sorted(report["refinement"]) == ["dt", "metrics", "ok"]
    assert "terminal_gap_q" in report["refinement"]["metrics"]


def test_refine_validates_its_companion_before_writing(tmp_path, capsys):
    # 0.25 / 0.1 rounds to 2 steps, which 2 windows divide; the dt/2 companion has 5.
    cfg = small_simulate_config(tmp_path / "out", experiment={"type": "picard", "windows": 2})
    cfg["sim"].update(t_end=0.25, dt=0.1)
    assert main(["run", write_config(tmp_path, cfg), "--refine"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: --refine companion at dt 0.05: ") and err.count("\n") == 1
    assert "windows must divide" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("refine, builds", [(False, 1), (True, 2)])
def test_each_run_builds_its_model_and_reads_its_law_once(tmp_path, monkeypatch, refine,
                                                          builds):
    counts = {"model": 0, "csv": 0}
    build_model, from_csv = cli.build_model, EmpiricalMeasure.from_csv

    def counted_build_model(model_cfg):
        counts["model"] += 1
        return build_model(model_cfg)

    def counted_from_csv(path):
        counts["csv"] += 1
        return from_csv(path)

    monkeypatch.setattr(cli, "build_model", counted_build_model)
    monkeypatch.setattr(EmpiricalMeasure, "from_csv", staticmethod(counted_from_csv))
    EmpiricalMeasure(np.array([[0.5], [1.0]])).to_csv(tmp_path / "law.csv")
    cfg = small_simulate_config(tmp_path / "out")
    cfg["sim"]["init"] = {"kind": "csv", "path": str(tmp_path / "law.csv")}
    assert main(["run", write_config(tmp_path, cfg)] + ["--refine"] * refine) == EXIT_OK
    assert counts == {"model": builds, "csv": builds}


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
    assert "theta" not in out


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
    validate_config({**cfg, "sim": {**cfg["sim"], "dt": cfg["sim"]["dt"] / 2}})  # --refine


DOCS = Path(__file__).resolve().parent.parent / "docs" / "cli_outputs.md"


def _doc_table(header: str) -> dict:
    """The body rows of the docs table whose header row starts with ``header``,
    keyed by their first cell with its backticks stripped."""
    rows, inside = {}, False
    for line in DOCS.read_text().splitlines():
        inside = line.startswith(header) or inside and line.startswith("|")
        if inside and not line.startswith((header, "|--")):
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            rows[cells[0].strip("`")] = cells[1:]
    assert rows, f"no table under {header!r} in {DOCS.name}"
    return rows


def _doc_names(cell: str) -> tuple:
    """The backticked names of a docs cell, outside its parenthesised defaults."""
    return tuple(name.strip() for code in re.findall(r"`([^`]*)`", re.sub(r"\(.*?\)", "", cell))
                 for name in code.split(","))


def test_docs_experiment_keys_match_the_schema():
    rows = _doc_table("| experiment      | keys and defaults")
    assert sorted(rows) == sorted(cli.EXPERIMENTS)
    for etype, (cell,) in rows.items():
        documented = {}
        for entry in re.sub(r"\(.*?\)", "", cell).split(","):
            key, default = re.fullmatch(r"\s*`(\w+)` (.*?)\s*", entry).groups()
            default = default.strip("`")
            if default == "-":
                default = None
            elif default[0] in "0123456789[{tf":  # a JSON number, list, object or boolean
                default = json.loads(default)
            documented[key] = default
        assert documented == cli.EXPERIMENTS[etype], etype
        for key, default in documented.items():
            assert type(default) is type(cli.EXPERIMENTS[etype][key]), (etype, key)


def test_docs_bounds_params_match_the_schema():
    rows = _doc_table("| quantity ")
    documented = {}
    for quantities, (required, optional) in rows.items():
        for quantity in quantities.split(", "):
            documented[quantity] = (_doc_names(required),
                                    () if optional == "none" else _doc_names(optional))
    assert documented == cli.BOUNDS_PARAMS


def test_docs_verdicts_name_the_result_types_that_decide_them():
    """Each ok rule with a check names a result of solver or harnack whose ``ok`` is
    its checks' verdict and whose fields are the documented metrics keys."""
    rows = _doc_table("| experiment      | metrics keys")
    assert sorted(rows) == sorted(cli.EXPERIMENTS)
    for etype, (keys, rule) in rows.items():
        names = re.findall(r"`(\w+Result)`", rule)
        if etype in ("simulate", "bounds"):
            assert not names and rule.startswith("always"), etype
            continue
        (name,) = names
        result_type = getattr(solver, name, None) or getattr(harnack, name)
        assert issubclass(result_type, harnack._Judged), name
        fields = {field.name for field in dataclasses.fields(result_type)}
        assert fields <= set(_doc_names(keys)) <= fields | {"f"}, name


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_docs_metrics_keys_match_each_bundled_report(tmp_path, monkeypatch, name):
    """At golden size (at most 64 particles, a step of at least 0.01) each bundled
    config writes every metrics key documented for its experiment, an unset one
    as null, and no undocumented one."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg["sim"]["n_particles"] = min(cfg["sim"]["n_particles"], 64)
    cfg["sim"]["dt"] = max(cfg["sim"]["dt"], 0.01)
    monkeypatch.setenv("DDSDE_OUTPUT_DIR", str(tmp_path))
    assert main(["run", write_config(tmp_path, cfg)]) in (EXIT_OK, EXIT_VERIFY)
    written = set(json.loads((tmp_path / "report.json").read_text())["metrics"])
    cell = _doc_table("| experiment      | metrics keys")[cfg["experiment"]["type"]][0]
    documented = set(_doc_names(cell))
    assert written == documented


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
                "weight_entropy_se", "phi_bound", "ess", "ess_warning", "clip_fraction"):
        assert key in report["metrics"]
    header = (tmp_path / "out" / "couple.csv").read_text().splitlines()[0]
    assert header == "t,gap_q,weight_mean,weight_entropy"
