"""Spans and counters recorded around ddsde's layer functions, from outside.

``Tracer.installed()`` replaces each traced function under every name by
which a ddsde module looks it up (the modules import each other's functions
by name, so patching only the defining module would miss most calls), and
restores the originals on exit.  The model's ``drift``, ``diffusion`` and
``grad_b`` are wrapped on the object ``ddsde.cli.build_model`` returns.

A span is ``(name, start, end, parent, experiment)``; spans are kept in
memory and written out by the caller when the run ends.  A span's self time
is its duration minus the durations of its direct children (the program is
single-threaded at ``--threads 1``, so children never overlap).
"""

from __future__ import annotations

import csv
import dataclasses
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("rng", "sde", "measure", "models", "solver", "harnack", "cli")

# Counts that are pure functions of the inputs: they repeat exactly on a seed.
EXACT_COUNTS = (
    "rng.draws",
    "sde.particle_steps",
    "models.pair_evals",
    "measure.transport.sort1d.calls",
    "measure.transport.assign.calls",
    "measure.transport.entropic.calls",
    "measure.cost_matrix_bytes",
    "solver.picard.iterations",
    "harnack.weighted_paths",
)


def _count_draws(counts, args, kwargs, result):
    counts["rng.draws"] += result.size


def _count_particle_steps(counts, args, kwargs, result):
    counts["sde.particle_steps"] += result.shape[0]


def _count_pair_evals(counts, args, kwargs, result):
    # drift(t, X, mu) / diffusion(t, X, mu): one kernel evaluation per pair.
    counts["models.pair_evals"] += args[1].shape[0] * args[2].n


def _count_transport(counts, args, kwargs, result):
    # The method actually used is visible in the plan: a permutation from a
    # one-dimensional input is the sorted matching, one from a d > 1 input is
    # an assignment, a dense matrix is the entropic plan.
    if result.matrix is not None:
        counts["measure.transport.entropic.calls"] += 1
        counts["measure.cost_matrix_bytes"] += result.matrix.size * 8
    elif args[0].dim == 1:
        counts["measure.transport.sort1d.calls"] += 1
    else:
        counts["measure.transport.assign.calls"] += 1
        counts["measure.cost_matrix_bytes"] += len(result.permutation) ** 2 * 8


def _count_picard(counts, args, kwargs, result):
    counts["solver.picard.iterations"] += result.iterations_used


def _weighted_paths(fn, paths_of):
    """Counter of M * steps for a Girsanov or IBP weight accumulation."""
    sig = inspect.signature(fn)

    def count(counts, args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        counts["harnack.weighted_paths"] += paths_of(bound, result) * bound["grid"].n_steps
    return count


# Span name -> factory taking the wrapped function and returning its counter.
_COUNTERS = {
    "rng.normal_block": lambda fn: _count_draws,
    "sde.em_step": lambda fn: _count_particle_steps,
    "measure.transport": lambda fn: _count_transport,
    "solver.picard_solve": lambda fn: _count_picard,
    "harnack.simulate_coupled":
        lambda fn: _weighted_paths(fn, lambda bound, result: result.log_r.size),
    "harnack.integration_by_parts_check":
        lambda fn: _weighted_paths(fn, lambda bound, result: bound["n_samples"]),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.experiment = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.experiment)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace ddsde's layers for the duration of the block."""
        mods = [importlib.import_module(f"ddsde.{m}") for m in MODULES]
        rng, sde, measure, _, solver, harnack, cli = mods
        targets = {
            rng.normal_block: "rng.normal_block",
            sde.em_step: "sde.em_step",
            sde.check_finite: "sde.check_finite",
            sde.euler_maruyama: "sde.euler_maruyama",
            measure.transport_plan: "measure.transport",
            cli.run: "cli.run",
        }
        for mod in (solver, harnack):
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[value] = f"{short}.{attr}"
        wrappers = {}
        for fn, name in targets.items():
            counter = _COUNTERS.get(name)
            wrappers[fn] = self.wrap(name, fn, counter(fn) if counter else None)

        build_model = cli.build_model

        def traced_build_model(*args, **kwargs):
            model = build_model(*args, **kwargs)
            pairwise = model.params.get("gamma", 0.0) > 0
            count = _count_pair_evals if pairwise else None
            return dataclasses.replace(
                model,
                drift=self.wrap("models.drift", model.drift, count),
                diffusion=self.wrap("models.diffusion", model.diffusion, count),
                grad_b=(None if model.grad_b is None
                        else self.wrap("models.grad_b", model.grad_b)),
            )

        wrappers[build_model] = traced_build_model
        patched = [(mod, attr, value) for mod in mods
                   for attr, value in list(vars(mod).items())
                   if inspect.isfunction(value) and value in wrappers]
        for mod, attr, value in patched:
            setattr(mod, attr, wrappers[value])
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def self_times(self) -> tuple[dict, dict, Counter]:
        """Self seconds per span name, self seconds per layer, calls per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: Counter = Counter()
        by_layer: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            own = end - start - covered
            by_name[name] += own
            by_layer[name.split(".", 1)[0]] += own
            calls[name] += 1
        return dict(by_name), dict(by_layer), calls

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_s", "end_s", "parent", "experiment"])
            for name, start, end, parent, exp in self.spans:
                out.writerow([name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, exp])

