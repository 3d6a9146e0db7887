"""Golden pins of ``ddsde run`` on every bundled config, at reduced size.

Each config runs under ``--refine`` with at most 64 particles and a step of
at least 0.01. The test compares the exit code and sha256 digests (first 16
hex digits) of the report without ``wall_time_s`` (as sorted-key JSON: the
config echo, its hash, the metrics, the ok flag and the dt/2 companion) and
of every CSV file, with values recorded before the CLI's experiment table
was introduced. A refactor of the CLI must leave all of them unchanged.

The bundled configs are all gamma = 0, so small gamma > 0 Landau runs are
pinned the same way; they cover the pairwise kernel.  The beta = 0.5 pin
(drift and diffusion on different distance matrices) was recorded before
drift and diffusion shared one distance pass; its outputs kept their bits
through that change and through the row panels below.  The ``simulate`` and
``simulate_gamma1`` pins (alpha = beta = 1 on the ensemble's own law) were
re-recorded when that self-interaction kernel began to sum W [x | 1] from the
upper-triangle panels and to take the diffusion weights as square roots of
the drift weights.  The ``picard`` pin (a frozen law curve) was re-recorded
when every other law went through the same row panels: its row sums come
from P [z | 1] instead of a row mean, and its diffusion weights from the
square roots of the drift weights.  Each time the sums round differently,
and the kernel stays within 1e-15 (max-norm, relative) of a 40-digit direct
sum.  The two picard report pins (``picard_linear.json`` and the gamma > 0
``picard``) were re-recorded when the Picard iteration lost its early stop on
three rising deltas, and with it the report's ``diverging`` key.  Neither run
ever tripped that stop: their reports equal the old ones with ``diverging``
deleted, and every CSV kept its bytes.  The ``log_harnack_linear.json`` and
``shift_harnack_linear.json`` report pins were re-recorded when ``slack_se``
became the paired SE, sd(psi)/sqrt(M) of the slack's per-sample influence
array, in place of the hypot of the two sides' SEs; ``ibp_linear.json`` kept
its pin, as its paired array 1 - x w has the SE of x w to the bit at this size.
The ``couple_linear.json`` pins (report and both CSVs) and the
``log_harnack_linear.json`` report pin were re-recorded when the coupled
process Y began to step through ``em_step`` on the Girsanov-shifted noise
dW - h dt, with log R accumulating <h, dW> - |h|^2 dt / 2: the same scheme,
rounded differently.  The couple report also lost the ``refinement.gap_ratio``
key then.  The ``contract.csv`` pins of the three contract configs (coarse and
refined) were re-recorded when ``bound_envelope`` moved from numpy's SIMD
``exp`` to ``math.exp``; 2 to 6 envelope entries per file moved by one or two
ulps, and every ``w2_sq`` and report kept its bits.  The ``invariant_ou.json``
pins (report and both CSVs) were re-recorded when the invariant search began
to start from the run's ``sim.init``, here its default standard Gaussian, in
place of a standard-normal ensemble drawn on a substream of its own; the run
still exits 2 at this size.  The two picard report pins were re-recorded again
when the report lost ``delta_ratios`` and ``geometric_applicable``, which no
verdict read: each new report equals the old one with the two keys deleted,
and every CSV kept its bytes.  The ``couple_linear.json`` report pin was
re-recorded when the couple report lost ``success`` (a copy of the report's
``ok``) and began to write ``clip_fraction`` and ``ess_warning`` as null when
unset, where it had left them out; the ``log_harnack_linear.json`` report pin
when that report gained the Girsanov weights' ``ess`` and ``ess_warning``, so
that a sample whose weights all underflowed says so.  Each new report equals the
old one with those keys changed, and both couple CSVs kept their bytes.
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
        "contract.csv": "55e46f5bf76bd349",
        "refined/contract.csv": "6dbc4008d56ec6a8",
    },
    "contract_landau_maxwell.json": {
        "exit": 0,
        "report": "6c7f993713e15f13",
        "contract.csv": "7f078602bed4e2e7",
        "refined/contract.csv": "c6769857f54e4e8a",
    },
    "contract_linear.json": {
        "exit": 0,
        "report": "9e75359b6038f20b",
        "contract.csv": "d8993faba32f3d36",
        "refined/contract.csv": "ad06470a81cd1c4a",
    },
    "couple_linear.json": {
        "exit": 0,
        "report": "593e2b86e0e10d12",
        "couple.csv": "938df017bf3dc144",
        "refined/couple.csv": "85092da71b14fc14",
    },
    "ibp_linear.json": {
        "exit": 0,
        "report": "ded639a745bd63ba",
    },
    "invariant_ou.json": {
        "exit": 2,
        "report": "7f55fee4cedbffd2",
        "invariant_measure.csv": "f0835ac350a7ed50",
        "refined/invariant_measure.csv": "d1a729083d8d4e51",
    },
    "log_harnack_linear.json": {
        "exit": 0,
        "report": "f882dddbd9f4fd56",
    },
    "picard_linear.json": {
        "exit": 0,
        "report": "c6e5a8de3b4e2c86",
        "picard.csv": "33d8ae856a094edd",
        "refined/picard.csv": "077bae10c73e32fe",
    },
    "shift_harnack_linear.json": {
        "exit": 0,
        "report": "37b615a8dd780684",
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
        "report": "e242f0841df99eb2",
        "picard.csv": "bb85f5f5ce58745a",
        "refined/picard.csv": "e29847b514544362",
    },
    "simulate": {
        "exit": 0,
        "report": "0c727a394d9822eb",
        "refined/simulate.csv": "2f80722c024800c2",
        "simulate.csv": "b58af24e3eaf9436",
    },
    "simulate_beta_half": {
        "exit": 0,
        "report": "1db3d0d8b6e03817",
        "refined/simulate.csv": "9f0975362dbf280d",
        "simulate.csv": "14027b2fbc933d15",
    },
    "simulate_gamma1": {
        "exit": 0,
        "report": "dccb9145abb396c0",
        "refined/simulate.csv": "6ed8d7d06f24fcbb",
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
