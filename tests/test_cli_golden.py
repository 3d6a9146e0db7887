"""Golden pins of ``ddsde run`` on every bundled config, at reduced size.

Each config runs under ``--refine`` with at most 64 particles and a step of
at least 0.01. The test compares the exit code and sha256 digests (first 16
hex digits) of the report without ``wall_time_s`` (as sorted-key JSON: the
config echo, its hash, the metrics, the ok flag and the dt/2 companion) and
of every CSV file, with values recorded before the CLI's experiment table
was introduced. A refactor of the CLI must leave all of them unchanged.

The bundled configs are all gamma = 0, so small gamma > 0 Landau runs are
pinned the same way; they cover the pairwise kernel.  The gamma = 0.5 pins
were recorded before the distance kernels were loaded without their scipy
packages; the gamma = 1.0 pin (the square-root power) and the beta = 0.5 pin
(drift and diffusion on different distance matrices) before drift and
diffusion shared one distance pass.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ddsde.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _clamped(cfg: dict) -> dict:
    sim = cfg["sim"]
    sim["n_particles"] = min(sim["n_particles"], 64)
    sim["dt"] = max(sim["dt"], 0.01)
    return cfg


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


PINS = {
    "bounds_cc.json": {
        "exit": 0,
        "report": "c0622bf0e252aa0b",
    },
    "contract_landau_dissipative.json": {
        "exit": 0,
        "report": "b6e2b98bf9a3a130",
        "contract.csv": "2007544c178b95d6",
        "refined/contract.csv": "769642394e82d72c",
    },
    "contract_landau_maxwell.json": {
        "exit": 0,
        "report": "6c7f993713e15f13",
        "contract.csv": "5d0a34312c1181ed",
        "refined/contract.csv": "8faf143fe5c7d499",
    },
    "contract_linear.json": {
        "exit": 0,
        "report": "9e75359b6038f20b",
        "contract.csv": "2b235f4caeffe388",
        "refined/contract.csv": "16495a12aef78a93",
    },
    "couple_linear.json": {
        "exit": 0,
        "report": "257787c219783bb0",
        "couple.csv": "17158e49f4b6ebad",
        "refined/couple.csv": "9f62b1337e359c22",
    },
    "ibp_linear.json": {
        "exit": 0,
        "report": "ded639a745bd63ba",
    },
    "invariant_ou.json": {
        "exit": 2,
        "report": "35407b7f0c4d3f03",
        "invariant_measure.csv": "90f7caf3b8a26d5a",
        "refined/invariant_measure.csv": "efebe19a59fc9b4b",
    },
    "log_harnack_linear.json": {
        "exit": 0,
        "report": "1a7cc695dc991246",
    },
    "picard_linear.json": {
        "exit": 0,
        "report": "c8e8a7ed9fcb4d20",
        "picard.csv": "33d8ae856a094edd",
        "refined/picard.csv": "077bae10c73e32fe",
    },
    "shift_harnack_linear.json": {
        "exit": 0,
        "report": "b0602f1af7d10689",
    },
    "simulate_linear.json": {
        "exit": 0,
        "report": "fd5bcce7990a565c",
        "refined/simulate.csv": "a58cd9d08547f6b3",
        "simulate.csv": "c7252e39dbcdfd4c",
    },
}


LANDAU_GAMMA = {"name": "landau", "gamma": 0.5, "alpha": 1.0, "beta": 1.0}
GAMMA_SIM = {"n_particles": 32, "dt": 0.01, "t_end": 0.05, "seed": 7,
             "init": {"kind": "gaussian", "std": 1.0}}
GAMMA_CONFIGS = {
    "simulate": {"model": LANDAU_GAMMA, "sim": GAMMA_SIM,
                 "experiment": {"type": "simulate", "moment_p": 2.0}},
    "picard": {"model": LANDAU_GAMMA, "sim": GAMMA_SIM,
               "experiment": {"type": "picard", "max_iter": 4, "tol": 1e-3}},
    "simulate_gamma1": {"model": {**LANDAU_GAMMA, "gamma": 1.0}, "sim": GAMMA_SIM,
                        "experiment": {"type": "simulate", "moment_p": 2.0}},
    "simulate_beta_half": {"model": {**LANDAU_GAMMA, "beta": 0.5}, "sim": GAMMA_SIM,
                           "experiment": {"type": "simulate", "moment_p": 2.0}},
}

GAMMA_PINS = {
    "picard": {
        "exit": 0,
        "report": "94ae0502b5c2ba61",
        "picard.csv": "9d230dc19f56e7dd",
        "refined/picard.csv": "e46a8dcedf1d226a",
    },
    "simulate": {
        "exit": 0,
        "report": "c9c07f28054e05a0",
        "refined/simulate.csv": "06bdd33e2ab96320",
        "simulate.csv": "d6856edd7e8820f2",
    },
    "simulate_beta_half": {
        "exit": 0,
        "report": "1db3d0d8b6e03817",
        "refined/simulate.csv": "9f0975362dbf280d",
        "simulate.csv": "14027b2fbc933d15",
    },
    "simulate_gamma1": {
        "exit": 0,
        "report": "808c978f217e9756",
        "refined/simulate.csv": "11ce38770dea8ba3",
        "simulate.csv": "49bb35aded5ad6bd",
    },
}


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _outputs(tmp_path, monkeypatch, cfg: dict) -> dict:
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    monkeypatch.setenv("DDSDE_OUTPUT_DIR", str(out))
    code = main(["run", str(cfg_path), "--refine"])
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    del report["wall_time_s"]
    got = {"exit": code, "report": _digest(json.dumps(report, sort_keys=True).encode())}
    for csv in sorted(out.rglob("*.csv")):
        got[str(csv.relative_to(out))] = _digest(csv.read_bytes())
    return got


@pytest.mark.parametrize("name", sorted(PINS))
def test_bundled_config_outputs_match_golden(tmp_path, monkeypatch, name):
    cfg = _clamped(json.loads((CONFIG_DIR / name).read_text()))
    assert _outputs(tmp_path, monkeypatch, cfg) == PINS[name]


@pytest.mark.parametrize("name", sorted(GAMMA_CONFIGS))
def test_landau_gamma_outputs_match_golden(tmp_path, monkeypatch, name):
    assert _outputs(tmp_path, monkeypatch, GAMMA_CONFIGS[name]) == GAMMA_PINS[name]


def test_every_bundled_config_is_pinned():
    assert sorted(PINS) == sorted(p.name for p in CONFIG_DIR.glob("*.json"))
