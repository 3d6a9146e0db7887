import hashlib
import multiprocessing
import os
import threading
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from ddsde import rng
from ddsde.models import linear_meanfield_model
from ddsde.rng import (
    BLOCK_DRAWS,
    NoiseSpec,
    derive_seed,
    increments,
    normal_block,
)
from ddsde.sde import NumericalBlowupError, em_path


def test_same_stream_is_bitwise_identical():
    noise = NoiseSpec(seed=123, dim=4)
    a = normal_block(noise, np.array([17]), 99)[0]
    b = normal_block(noise, np.array([17]), 99)[0]
    assert np.array_equal(a, b)


def test_block_and_single_draws_agree():
    noise = NoiseSpec(seed=5, dim=3)
    block = normal_block(noise, np.arange(50), 7)
    for m in (0, 13, 49):
        assert np.array_equal(block[m], normal_block(noise, np.array([m]), 7)[0])


def test_chunked_evaluation_is_order_independent():
    # Evaluating trajectories in any chunking/order yields the same draws.
    noise = NoiseSpec(seed=99, dim=2)
    full = normal_block(noise, np.arange(1000), 3)
    pieces = np.concatenate([
        normal_block(noise, np.arange(500, 1000), 3),
        normal_block(noise, np.arange(0, 500), 3),
    ])
    assert np.array_equal(full, np.concatenate([pieces[500:], pieces[:500]]))


def test_law_of_large_numbers_mean():
    # 1e6 draws per coordinate; 3 standard errors is 0.003, spec allows 0.01.
    noise = NoiseSpec(seed=2024, dim=1)
    draws = normal_block(noise, np.arange(1_000_000), 0)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01


def test_distinct_streams_uncorrelated():
    noise = NoiseSpec(seed=7, dim=1)
    a = normal_block(noise, np.arange(1_000_000), 0)[:, 0]
    b = normal_block(noise, np.arange(1_000_000), 1)[:, 0]
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.01


def test_step_offset_matches_global_indexing():
    noise = NoiseSpec(seed=11, dim=2)
    shifted = noise.with_step_offset(10)
    assert np.array_equal(
        normal_block(noise, np.arange(8), 13),
        normal_block(shifted, np.arange(8), 3),
    )


def test_substream_is_reproducible_and_distinct():
    noise = NoiseSpec(seed=21, dim=2)
    sub = noise.substream(42)
    assert sub.seed == derive_seed(21, 42)
    assert sub.seed != noise.seed
    a = normal_block(noise, np.arange(1_000_00), 0)[:, 0]
    b = normal_block(sub, np.arange(1_000_00), 0)[:, 0]
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def test_dim_validation():
    with pytest.raises(ValueError):
        NoiseSpec(seed=1, dim=0)


# sha256 of normal_block(...).tobytes() (little-endian float64), recorded before
# normal_block learned to draw several steps at once; any drift of the hash,
# the uniform mapping or the trajectory/step addressing changes them.  Each spec
# is (seed, dim, step0, offset); the offset is added to the trajectory indices.
GOLDEN = [
    ((7, 1, 0, 0), np.arange(5), 0,
     "110d0fcab2a17dc166dc16b4c432790cd9180dbf0547807cdd7aef22a8ecded4"),
    ((7, 3, 0, 0), np.arange(5), 0,
     "f1775c300886083e1e0d3d9e7d680f01cd8b8989ec479993e7dc30a7a5420da9"),
    ((2024, 1, 1000, 17), np.array([0, 3, 99, 4096]), 12,
     "9ba4780d9f5308cc369bf75695a87fc6cb295f60e690c5694d435a7f191bf6a4"),
    ((2024, 3, 1000, 17), np.array([0, 3, 99, 4096]), 12,
     "5208a0aaeaee0662e8019730499aab43969ffed026f45ab37050b47da3c88812"),
    ((2 ** 64 - 1, 3, 2 ** 40, 2 ** 33), np.arange(257), 999,
     "f38d1d7eb58f8652e428809c661a1332cc7cbc6d3f716722d3981fc5e0a557b9"),
]


@pytest.mark.parametrize("spec, traj, step, digest", GOLDEN)
def test_stream_matches_golden_hash(spec, traj, step, digest):
    seed, dim, step0, offset = spec
    block = normal_block(NoiseSpec(seed=seed, dim=dim, step0=step0), traj + offset, step)
    assert block.shape == (len(traj), dim)
    assert hashlib.sha256(block.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("dim", [1, 3])
def test_array_of_steps_stacks_scalar_steps(dim):
    noise = NoiseSpec(seed=31, dim=dim, step0=5)
    traj = np.array([4, 0, 17, 3])
    steps = np.array([0, 1, 7, 2, 40])
    block = normal_block(noise, traj, steps)
    assert block.shape == (len(steps), len(traj), dim)
    for row, k in zip(block, steps):
        assert row.tobytes() == normal_block(noise, traj, int(k)).tobytes()


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("m", [1, 7, 256, 3 * BLOCK_DRAWS + 5])
def test_increments_match_per_step_draws(m, dim, monkeypatch):
    noise = NoiseSpec(seed=8, dim=dim, step0=11)
    traj = np.arange(m)
    scale = np.sqrt(0.01)
    # Steps per hash call (1 for the large M); 2 blocks and a remainder.
    span = max(1, BLOCK_DRAWS // dim // m)
    n_steps = 2 * span + 3 if span > 1 else 3
    sizes = []
    uniforms = rng._uniforms

    def counted(noise, traj, steps, out):
        sizes.append(out.size)
        return uniforms(noise, traj, steps, out)

    monkeypatch.setattr(rng, "_uniforms", counted)
    # A yielded row is valid until the next one is requested: keep copies.
    drawn = [row.copy() for row in increments(noise, m, n_steps, scale)]
    assert len(drawn) == n_steps
    assert sum(sizes) == n_steps * m * dim and max(sizes) <= BLOCK_DRAWS
    assert len(sizes) == -(-n_steps // span) * -(-m // (BLOCK_DRAWS // dim))
    for k in sorted({0, span - 1, span, n_steps - 1}):
        assert drawn[k].shape == (m, dim)
        assert drawn[k].tobytes() == (normal_block(noise, traj, k) * scale).tobytes()


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("ddsde-ndtri")]


def _rows_match(noise, traj, stream, scale, start=0):
    return all(row.tobytes() == (normal_block(noise, traj, k) * scale).tobytes()
               for k, row in enumerate(stream, start))


def test_interleaved_abandoned_and_aborted_streams_share_one_helper():
    traj = np.arange(3000)  # 10 steps a block
    x_noise = NoiseSpec(seed=4, dim=1)
    nu_noise = x_noise.substream(7)
    # Two streams stepped in lockstep, as the X and nu-flow streams of a coupling.
    pairs = zip(increments(x_noise, traj.size, 35, 0.5),
                increments(nu_noise, traj.size, 35, 0.5))
    for k, (x_row, nu_row) in enumerate(pairs):
        assert x_row.tobytes() == (normal_block(x_noise, traj, k) * 0.5).tobytes()
        assert nu_row.tobytes() == (normal_block(nu_noise, traj, k) * 0.5).tobytes()
    # A stream left mid-block through islice, as the invariant search leaves
    # its one stream; a run aborts while its next block is in flight; then the
    # first stream resumes and is dropped.
    left = increments(x_noise, traj.size, 100, 1.0)
    assert _rows_match(x_noise, traj, islice(left, 13), 1.0)
    model = replace(linear_meanfield_model(0.0, 0.0, 1.0), state_radius=1.0)
    with pytest.raises(NumericalBlowupError):
        for _ in em_path(model, np.zeros((3000, 1)), 0.0, 0.01, 200, x_noise):
            pass
    assert _rows_match(x_noise, traj, islice(left, 30), 1.0, start=13)
    del left
    assert _rows_match(nu_noise, traj, increments(nu_noise, traj.size, 25, 1.0), 1.0)
    assert len(_helper_threads()) == 1


def _draw_in_child(noise, traj, n_steps):
    os._exit(0 if _rows_match(noise, traj, increments(noise, traj.size, n_steps, 1.0), 1.0) else 1)


def test_a_forked_child_draws_a_stream():
    noise = NoiseSpec(seed=6, dim=2)
    traj = np.arange(500)
    assert _rows_match(noise, traj, increments(noise, traj.size, 40, 1.0), 1.0)
    assert _helper_threads()
    child = multiprocessing.get_context("fork").Process(
        target=_draw_in_child, args=(noise, traj, 80))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung drawing a stream")
    assert child.exitcode == 0
