"""End-to-end benchmark of ddsde experiment runs, with a traced per-layer profile.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ddsde source tree: the program is imported from
``src/``.  One client runs the workload's experiments one after another
through ``ddsde.cli.run`` (in process, ``--threads 1``) and repeats the batch
until ``--seconds`` have passed.  Every experiment must exit 0 with
``ok: true``, pass its oracle check, and report the same metrics in every
pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the batch
untraced and then traced, reports the per-layer metrics from the traced
pass, and checks that tracing left every report's metrics unchanged.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run context.  Spans and the full result are written to
``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import EXACT_COUNTS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
EXPERIMENT_TYPES = ("contract", "picard", "simulate", "couple", "log_harnack",
                    "shift_harnack", "ibp", "invariant")
LAYERS = ("rng", "sde", "models", "measure", "solver", "harnack", "cli")


def _python_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DDSDE_OUTPUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds() -> list[float]:
    """Times to import ddsde.cli (numpy and scipy included) in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ddsde.cli"], env=_python_env(),
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                found[os.path.basename(lib)] = fn()
                break
    return found


def run_context(cfgs) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "cli_threads": 1,
        "experiments": [{"label": label, "type": cfg["experiment"]["type"],
                         "N": cfg["sim"]["n_particles"], "d": workloads.dimension(cfg)}
                        for label, cfg in cfgs],
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(cfgs, work_dir: Path, tracer: Tracer | None = None) -> dict:
    """Run every experiment once; returns the pass wall time and per-experiment records."""
    from ddsde import cli

    records = []
    start = time.perf_counter()
    for index, (label, cfg) in enumerate(cfgs):
        out_dir = work_dir / f"{index:02d}_{label}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        config_path = out_dir / "config.json"
        config_path.write_text(json.dumps({**cfg, "output": {"directory": str(out_dir)}}))
        if tracer is not None:
            tracer.experiment = index
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.run(str(config_path), threads=1)
        seconds = time.perf_counter() - t0
        report = json.loads((out_dir / "report.json").read_text()) if code in (0, 2) else {}
        records.append({
            "label": label,
            "type": cfg["experiment"]["type"],
            "exit": code,
            "ok": report.get("ok", False),
            "seconds": seconds,
            "metrics": report.get("metrics"),
            "stderr": err.getvalue().strip(),
            "bytes_written": _dir_bytes(out_dir) - config_path.stat().st_size,
        })
    return {"wall_s": time.perf_counter() - start, "experiments": records}


def _initial_mean(cfg: dict) -> float:
    from ddsde.cli import build_init
    from ddsde.rng import NoiseSpec

    dim = workloads.dimension(cfg)
    sim = cfg["sim"]
    mu0 = build_init(sim.get("init"), dim, sim["n_particles"], NoiseSpec(seed=sim["seed"], dim=dim))
    return float(mu0.mean()[0])


def verify(cfgs, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons): exit code, ok flag, oracle, same metrics in every pass."""
    initial = [_initial_mean(cfg) for _, cfg in cfgs]
    reference = [json.dumps(r["metrics"], sort_keys=True) for r in passes[0]["experiments"]]
    attempted, failed, reasons = 0, 0, []
    for number, p in enumerate(passes):
        for (label, cfg), rec, ref, m0 in zip(cfgs, p["experiments"], reference, initial):
            attempted += 1
            problems = []
            if rec["exit"] != 0 or not rec["ok"]:
                problems.append(f"exit {rec['exit']}, ok {rec['ok']}: {rec['stderr']}")
            else:
                problems += workloads.check(label, cfg, rec["metrics"], m0)
                if json.dumps(rec["metrics"], sort_keys=True) != ref:
                    problems.append("metrics differ from the first pass")
            if problems:
                failed += 1
                reasons += [f"pass {number} {label}: {p}" for p in problems]
    return attempted, failed, reasons


def _median_by_type(passes) -> tuple[dict, dict]:
    by_type = {t: [] for t in EXPERIMENT_TYPES}
    for p in passes:
        for rec in p["experiments"]:
            by_type[rec["type"]].append(rec["seconds"])
    medians = {t: statistics.median(v) if v else 0.0 for t, v in by_type.items()}
    return medians, {t: len(v) for t, v in by_type.items()}


def end_to_end_metrics(passes, attempted, failed, setup) -> dict:
    medians, samples = _median_by_type(passes)
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "verified_frac": ((attempted - failed) / attempted, "fraction"),
    }, {"type_median_s": medians, "type_samples": samples}


def layer_metrics(traced_pass: dict, tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass."""
    self_s, layer_s, calls = tracer.self_times()
    counts = tracer.counts
    m = {
        "rng.normal_block.calls": (calls["rng.normal_block"], "count"),
        "rng.normal_block.self_s": (self_s.get("rng.normal_block", 0.0), "s"),
        "rng.draws": (counts["rng.draws"], "count"),
        "rng.draws_per_s": (counts["rng.draws"] / max(self_s.get("rng.normal_block", 0.0), 1e-9),
                            "1/s"),
        "sde.em_step.calls": (calls["sde.em_step"], "count"),
        "sde.em_step.self_s": (self_s.get("sde.em_step", 0.0), "s"),
        "sde.check_finite.self_s": (self_s.get("sde.check_finite", 0.0), "s"),
        "sde.euler_maruyama.calls": (calls["sde.euler_maruyama"], "count"),
        "sde.particle_steps": (counts["sde.particle_steps"], "count"),
        "models.drift.calls": (calls["models.drift"], "count"),
        "models.drift.self_s": (self_s.get("models.drift", 0.0), "s"),
        "models.diffusion.calls": (calls["models.diffusion"], "count"),
        "models.diffusion.self_s": (self_s.get("models.diffusion", 0.0), "s"),
        "models.grad_b.self_s": (self_s.get("models.grad_b", 0.0), "s"),
        "models.pair_evals": (counts["models.pair_evals"], "count"),
        "measure.transport.calls": (calls["measure.transport"], "count"),
        "measure.transport.self_s": (self_s.get("measure.transport", 0.0), "s"),
        "measure.transport.sort1d.calls": (counts["measure.transport.sort1d.calls"], "count"),
        "measure.transport.assign.calls": (counts["measure.transport.assign.calls"], "count"),
        "measure.transport.entropic.calls": (counts["measure.transport.entropic.calls"], "count"),
        "measure.cost_matrix_bytes": (counts["measure.cost_matrix_bytes"], "bytes"),
        "solver.picard.iterations": (counts["solver.picard.iterations"], "count"),
        "solver.picard_solve.calls": (calls["solver.picard_solve"], "count"),
        "harnack.weighted_paths": (counts["harnack.weighted_paths"], "count"),
        "cli.bytes_written": (sum(r["bytes_written"] for r in traced_pass["experiments"]),
                              "bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_s.get(layer, 0.0), "s")
    return m


def per_layer_metrics(untraced, traced, per_pass) -> tuple[dict, list[str]]:
    """Medians over the traced passes, plus the untraced per-type times.

    Returns the metrics and the names of exact counts that differed between
    traced passes.
    """
    metrics = {k: (statistics.median(p[k][0] for p in per_pass), u)
               for k, (_, u) in per_pass[0].items()}
    unstable = [k for k in EXACT_COUNTS if len({p[k][0] for p in per_pass}) > 1]
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0, "fraction")
    medians, samples = _median_by_type(untraced)
    for etype in EXPERIMENT_TYPES:
        metrics[f"{etype}_s"] = (medians[etype], "s")
        metrics[f"{etype}_s.samples"] = (samples[etype], "count")
    return metrics, unstable


def measure(cfgs, seconds: float, trace: bool, work_dir: Path):
    """Repeat the batch (untraced, then traced when ``trace``) until ``seconds`` pass.

    Returns the untraced passes, the traced passes and their tracers.
    """
    untraced, traced, tracers = [], [], []
    started = time.perf_counter()
    while True:
        untraced.append(run_pass(cfgs, work_dir))
        if trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append(run_pass(cfgs, work_dir, tracer))
            tracers.append(tracer)
        if time.perf_counter() - started >= seconds:
            return untraced, traced, tracers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ddsde" / "cli.py").is_file():
        print(f"error: no ddsde sources under {SRC}; run from a ddsde source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("DDSDE_OUTPUT_DIR", None)

    cfgs = workloads.configs(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"{tag}-{os.getpid()}"
    setup = [] if args.trace else setup_seconds()
    import ddsde.cli  # noqa: F401  (import cost is setup_s, not part of the first pass)

    try:
        untraced, traced, tracers = measure(cfgs, args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed, reasons = verify(cfgs, untraced + traced)
    if args.trace:
        per_pass = [layer_metrics(p, t) for p, t in zip(traced, tracers)]
        metrics, unstable = per_layer_metrics(untraced, traced, per_pass)
        reasons += [f"count {k} differs between traced passes" for k in unstable]
        extra = {"layer_self_s": {k: metrics[f"{k}.self_s"][0] for k in LAYERS},
                 "spans": [len(t.spans) for t in tracers]}
    else:
        unstable = []
        metrics, extra = end_to_end_metrics(untraced, attempted, failed, setup)
        extra["setup_samples_s"] = setup
    correct = failed == 0 and not unstable

    context = run_context(cfgs)
    OUT.mkdir(exist_ok=True)
    for number, tracer in enumerate(tracers):
        tracer.write(OUT / f"spans-{tag}-pass{number}.csv")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {**result, "workload": args.workload, "seed": args.seed, "context": context,
              "passes": [{"wall_s": p["wall_s"],
                          "experiments": [{k: r[k] for k in ("label", "type", "exit", "ok",
                                                             "seconds", "bytes_written")}
                                          for r in p["experiments"]]}
                         for p in untraced + traced],
              "failures": reasons, **extra}
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    for reason in reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
