"""Property tests: RNG addressing and W2 identities over generated inputs.

Examples are derandomized and bounded in number, so the suite stays
deterministic and fast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ddsde.measure import EmpiricalMeasure, wasserstein
from ddsde.rng import NoiseSpec, normal_block

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)

coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def points(*shape):
    return arrays(np.float64, shape, elements=coords)


@PROPERTY
@given(seed=st.integers(0, 2**64 - 1), dim=st.integers(1, 4),
       step=st.integers(0, 2**40),
       indices=st.lists(st.integers(0, 2**40), min_size=1, max_size=64, unique=True),
       data=st.data())
def test_normal_block_bits_independent_of_split_and_order(seed, dim, step, indices, data):
    noise = NoiseSpec(seed=seed, dim=dim)
    traj = np.array(indices)
    order = np.array(data.draw(st.permutations(range(len(traj)))))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(traj)), max_size=4)))
    pieces = [normal_block(noise, traj[part], step) for part in np.split(order, cuts)]
    whole = normal_block(noise, traj, step)
    assert np.concatenate(pieces).tobytes() == whole[order].tobytes()


@PROPERTY
@given(data=st.data(), n=st.integers(1, 8), d=st.sampled_from([1, 3]))
def test_w2_is_symmetric(data, n, d):
    mu = EmpiricalMeasure(data.draw(points(n, d)))
    nu = EmpiricalMeasure(data.draw(points(n, d)))
    assert wasserstein(mu, nu) == pytest.approx(wasserstein(nu, mu), rel=1e-12, abs=1e-12)


@PROPERTY
@given(data=st.data(), n=st.integers(1, 8), d=st.sampled_from([1, 3]))
def test_w2_of_a_translate_is_the_shift_length(data, n, d):
    x = data.draw(points(n, d))
    v = data.draw(points(d))
    got = wasserstein(EmpiricalMeasure(x), EmpiricalMeasure(x + v))
    assert got == pytest.approx(np.linalg.norm(v), abs=1e-12)
