"""Counter-based Gaussian noise streams.

Every increment is a pure function of (seed, trajectory, step, component):
a 64-bit mixing chain hashes the counter words, the resulting word is mapped
to a uniform in (0, 1), and the inverse normal CDF turns it into a standard
normal draw.  There is no generator state, so trajectories can be evaluated
in any order, in chunks, or on any number of threads and still produce
bit-identical output.

``increments`` splits the work over two threads: the caller hashes each
block, and one helper thread per process always applies the inverse normal
CDF, one block ahead of the caller.  That transform works element by element
on a block that is a pure function of (seed, trajectory, step), so the
output never depends on the helper.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .measure import _scipy_extension

ndtri = _scipy_extension("special", "_ufuncs").ndtri

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_INV53 = float(2.0 ** -53)

# Draws per hash call made by ``increments``; bounds its uint64 scratch.
BLOCK_DRAWS = 1 << 15


def _mix(h: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer (bijective, full avalanche), in place on an array ``h``."""
    scratch = np.empty_like(h) if scratch is None else scratch
    h += _GOLDEN
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(h, _U64(shift), out=scratch)
        h ^= scratch
        h *= mult
    np.right_shift(h, _U64(31), out=scratch)
    h ^= scratch
    return h


def derive_seed(seed: int, tag: int) -> int:
    """Deterministically derive an independent seed (e.g. for a fresh substream)."""
    with np.errstate(over="ignore"):
        h = _mix(_mix(_U64(seed & 0xFFFFFFFFFFFFFFFF)) ^ _U64(tag & 0xFFFFFFFFFFFFFFFF))
    return int(h)


@dataclass(frozen=True)
class NoiseSpec:
    """Addressing of the Brownian increments driving a simulation.

    The increment consumed by trajectory ``m`` at step ``k`` is keyed by
    ``(seed, m, step0 + k)``.  The step offset lets a run restarted from a
    midpoint consume exactly the increments of the matching global steps.
    """

    seed: int
    dim: int
    step0: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    def with_step_offset(self, step0: int) -> "NoiseSpec":
        return replace(self, step0=step0)

    def substream(self, tag: int) -> "NoiseSpec":
        """An independent stream (fresh seed derived from this one)."""
        return replace(self, seed=derive_seed(self.seed, tag), step0=0)


def _uniforms(noise: NoiseSpec, traj: np.ndarray, steps: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Hash stage of ``normal_block``: the uniforms of the counters, in place.

    ``traj`` and ``steps`` are the uint64 trajectory and global step words;
    ``out`` is a float64 array of shape ``steps.shape + (traj.size, dim)``
    that holds the hash words first and the uniforms on return.
    """
    h = out.view(_U64)
    scratch = np.empty_like(h)
    with np.errstate(over="ignore"):
        key = _mix(_U64(noise.seed & 0xFFFFFFFFFFFFFFFF) ^ steps)
        # The per-trajectory word is hashed once, in column 0, then spread.
        np.bitwise_xor(key[..., None], traj, out=h[..., 0])
        _mix(h[..., 0], scratch[..., 0])
        if noise.dim > 1:  # at dim 1 the spread and the XOR with column 0 change nothing
            h[..., 1:] = h[..., :1]
            h ^= np.arange(noise.dim, dtype=_U64)
        _mix(h, scratch)
    # 53-bit uniform strictly inside (0, 1): ndtri is finite at both ends.
    np.right_shift(h, _U64(11), out=h)
    u = np.add(h, 0.5, out=scratch.view(np.float64))
    return np.multiply(u, _INV53, out=out)


def normal_block(noise: NoiseSpec, trajectories: np.ndarray, step) -> np.ndarray:
    """Standard-normal draws for the given trajectories at one step or several.

    Args:
        trajectories: integer array of trajectory indices, shape (M,).
        step: local step index (the global index is ``noise.step0 + step``),
            or a 1-D array of K such indices.

    Returns:
        (M, dim) array for a scalar step, (K, M, dim) for an array of steps;
        row i of step k depends only on (seed, trajectories[i],
        step0 + k, column).
    """
    traj = np.asarray(trajectories, dtype=np.int64).astype(_U64)
    steps = np.asarray(step, dtype=np.int64).astype(_U64) + _U64(noise.step0)
    out = np.empty(steps.shape + (traj.size, noise.dim))
    _uniforms(noise, traj, steps, out)
    return ndtri(out, out=out)


def _reset_helper() -> None:
    """Make the process's one helper, at import and in a forked child (which has
    no thread behind the parent's); its thread starts on the first submit."""
    global _helper
    _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ddsde-ndtri")


_reset_helper()
os.register_at_fork(after_in_child=_reset_helper)


def _transform(block: np.ndarray, scale) -> None:
    ndtri(block, out=block)
    block *= scale


def increments(noise: NoiseSpec, n_paths: int, n_steps: int, scale):
    """Yield ``normal_block(noise, np.arange(n_paths), k) * scale`` for k < n_steps.

    Hashes at most BLOCK_DRAWS per call: many steps for a small ensemble, one
    step in row chunks for a large one, with the bits of per-step calls.  It
    works one block ahead: the caller hashes block j + 1 and hands its
    inverse-normal transform to the helper thread while it steps through
    block j.  The two block buffers alternate, so a yielded row is valid
    until the next row is requested.
    """
    rows = max(1, BLOCK_DRAWS // noise.dim)
    span = max(1, rows // n_paths)
    starts = range(0, n_steps, span)
    # Both buffers in one allocation: at 2 x BLOCK_DRAWS draws glibc maps it on
    # its own, and freeing it lifts the mmap threshold above the stepping loop's
    # per-step arrays, which then stay on the heap instead of being faulted in
    # again every step.
    buffers = np.empty((min(2, len(starts)), min(span, n_steps), n_paths, noise.dim))

    def launch(k0, buffer):
        steps = np.arange(k0, min(k0 + span, n_steps), dtype=_U64) + _U64(noise.step0)
        block = buffer[:steps.size]
        for i in range(0, n_paths, rows):
            traj = np.arange(i, min(i + rows, n_paths), dtype=_U64)
            _uniforms(noise, traj, steps, block[:, i:i + rows])
        return block, _helper.submit(_transform, block, scale)

    ahead = launch(0, buffers[0]) if starts else None
    for j, k0 in enumerate(starts):
        block, done = ahead
        if k0 + span < n_steps:
            ahead = launch(k0 + span, buffers[(j + 1) % 2])
        done.result()
        yield from block
