"""Counter-based Gaussian noise streams.

Every increment is a pure function of (seed, trajectory, step, component):
a 64-bit mixing chain hashes the counter words, the resulting word is mapped
to a uniform in (0, 1), and the inverse normal CDF turns it into a standard
normal draw.  There is no generator state, so trajectories can be evaluated
in any order, in chunks, or on any number of threads and still produce
bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .measure import _scipy_extension

ndtri = _scipy_extension("special", "_ufuncs").ndtri

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_INV53 = float(2.0 ** -53)

# Draws per normal_block call made by ``increments``; bounds its uint64 scratch.
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


def normal_block(noise: NoiseSpec, trajectories: np.ndarray, step,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal draws for the given trajectories at one step or several.

    Args:
        trajectories: integer array of trajectory indices, shape (M,).
        step: local step index (the global index is ``noise.step0 + step``),
            or a 1-D array of K such indices.

    Returns:
        (M, dim) array for a scalar step, (K, M, dim) for an array of steps;
        row i of step k depends only on (seed, trajectories[i],
        step0 + k, column).  Written into ``out`` when given.
    """
    traj = np.asarray(trajectories, dtype=np.int64).astype(_U64)
    steps = np.asarray(step, dtype=np.int64).astype(_U64) + _U64(noise.step0)
    h = np.empty(steps.shape + (traj.size, noise.dim), dtype=_U64)
    scratch = np.empty_like(h)
    with np.errstate(over="ignore"):
        key = _mix(_U64(noise.seed & 0xFFFFFFFFFFFFFFFF) ^ steps)
        # The per-trajectory word is hashed once, in column 0, then spread.
        np.bitwise_xor(key[..., None], traj, out=h[..., 0])
        _mix(h[..., 0], scratch[..., 0])
        h[..., 1:] = h[..., :1]
        h ^= np.arange(noise.dim, dtype=_U64)
        _mix(h, scratch)
    # 53-bit uniform strictly inside (0, 1): ndtri is finite at both ends.
    np.right_shift(h, _U64(11), out=h)
    u = np.add(h, 0.5, out=scratch.view(np.float64))
    u *= _INV53
    return ndtri(u, out=u if out is None else out)


def increments(noise: NoiseSpec, trajectories: np.ndarray, n_steps: int, scale):
    """Yield ``normal_block(noise, trajectories, k) * scale`` for k < n_steps.

    Draws at most BLOCK_DRAWS per call: many steps for a small ensemble, one
    step in row chunks for a large one, with the bits of per-step calls.
    """
    traj = np.asarray(trajectories)
    rows = max(1, BLOCK_DRAWS // noise.dim)
    span = max(1, rows // traj.size)
    for k0 in range(0, n_steps, span):
        steps = np.arange(k0, min(k0 + span, n_steps))
        block = np.empty((len(steps), traj.size, noise.dim))
        for i in range(0, traj.size, rows):
            normal_block(noise, traj[i:i + rows], steps, block[:, i:i + rows])  # fills it in place
        block *= scale
        yield from block

