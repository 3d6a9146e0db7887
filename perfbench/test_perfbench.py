"""Checks of the benchmark itself.  Run with ``python3 -m pytest perfbench``
from the repository root (about three minutes on a 2-core machine)."""

from __future__ import annotations

import sys

import pytest

import run
import workloads
from spans import EXACT_COUNTS, Tracer

sys.path.insert(0, str(run.SRC))


def _traced_pass(workload: str, seed: int, work_dir) -> dict:
    cfgs = workloads.configs(workload, seed)
    tracer = Tracer()
    with tracer.installed():
        traced = run.run_pass(cfgs, work_dir, tracer)
    attempted, failed, reasons = run.verify(cfgs, [traced])
    assert failed == 0, reasons
    return run.layer_metrics(traced, tracer)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_two_seeds_verify(workload, tmp_path):
    first = _traced_pass(workload, run.DEFAULT_SEED, tmp_path)
    second = _traced_pass(workload, run.DEFAULT_SEED, tmp_path)
    assert {k: first[k] for k in EXACT_COUNTS} == {k: second[k] for k in EXACT_COUNTS}
    _traced_pass(workload, run.DEFAULT_SEED + 1, tmp_path)


def test_tracer_restores_the_program():
    from ddsde import cli, harnack, sde, solver

    originals = (sde.em_step, solver.em_step, harnack.normal_block, cli.build_model, cli.run)
    with Tracer().installed():
        assert solver.em_step is not originals[1]
        assert solver.em_step is harnack.em_step
    assert (sde.em_step, solver.em_step, harnack.normal_block, cli.build_model,
            cli.run) == originals
