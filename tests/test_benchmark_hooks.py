"""The names the benchmark in ``perfbench/`` binds to, exercised through its tracer.

perfbench wraps ddsde's functions by the names its modules look them up
under, counts from their arguments and results, and reads the initial law's
mean through ``cli.build_init``.  A rename or a changed result there fails
here, in the tier-1 suite, rather than in a benchmark run.
"""

import json
import sys
from pathlib import Path

from ddsde import cli, sde
from ddsde.rng import NoiseSpec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402  (perfbench is a directory of scripts, not a package)

LINEAR = {"name": "linear_meanfield", "a": 1.0, "c": 0.25, "sigma": 1.0, "dim": 1}
CONFIGS = {
    "picard": {"model": LINEAR, "sim": {"n_particles": 32, "dt": 0.01, "t_end": 0.1, "seed": 3},
               "experiment": {"type": "picard", "max_iter": 8, "tol": 1e-3}},
    "couple": {"model": LINEAR, "sim": {"n_particles": 1000, "dt": 0.01, "t_end": 1.0, "seed": 4,
                                        "init": {"kind": "point", "value": 0.0}},
               "experiment": {"type": "couple", "shift": 1.0}},
    # 3-D exact assignments, the transport of the maxwell_transport workload.
    "contract": {"model": {"name": "landau", "gamma": 0.0, "alpha": 0.1, "beta": 0.0},
                 "sim": {"n_particles": 16, "dt": 0.01, "t_end": 0.2, "seed": 5},
                 "experiment": {"type": "contract", "shift": 1.0}},
}


def test_traced_runs_fill_the_counters_the_benchmark_reads(tmp_path, capsys):
    original = sde.em_step
    tracer = spans.Tracer()
    with tracer.installed():
        assert sde.em_step is not original
        for etype, cfg in CONFIGS.items():
            path = tmp_path / f"{etype}.json"
            path.write_text(json.dumps({**cfg, "output": {"directory": str(tmp_path / etype)}}))
            assert cli.run(str(path)) == cli.EXIT_OK, capsys.readouterr().err
    assert sde.em_step is original
    for name in ("sde.particle_steps", "solver.picard.iterations", "harnack.weighted_paths",
                 "measure.transport.sort1d.calls", "measure.transport.assign.calls",
                 "measure.cost_matrix_bytes"):
        assert tracer.counts[name] > 0, name
    mu0 = cli.build_init({"kind": "gaussian", "mean": 0.5}, 1, 8, NoiseSpec(seed=5, dim=1))
    assert mu0.mean().shape == (1,)
