"""Property tests: RNG addressing, W2 identities and exactness, and malformed
configs, over generated inputs.

Examples are derandomized and bounded in number, so the suite stays
deterministic and fast.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from ddsde.cli import main
from ddsde.measure import EmpiricalMeasure, transport_plan, wasserstein
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


def unreduced_plan(x, y, theta=2.0):
    """Permutation and cost of the assignment solved on the plain cost matrix."""
    c = cdist(x, y) ** theta
    rows, cols = linear_sum_assignment(c)
    perm = np.empty(len(rows), dtype=np.intp)
    perm[rows] = cols
    return perm, float(c[rows, cols].mean())


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.sampled_from([2, 3]))
def test_reduced_assignment_is_bitwise_the_unreduced_one(seed, n, d):
    # Continuous random points have no exactly tied assignments, so the
    # optimal permutation is unique and both solves must return it.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, d)
    y = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, d) + rng.normal(0.0, 5.0, d)
    perm, cost = unreduced_plan(x, y)
    plan = transport_plan(EmpiricalMeasure(x), EmpiricalMeasure(y))
    assert plan.permutation.tobytes() == perm.tobytes()
    assert plan.cost == cost


def _point_mass(rng, n, d):
    return np.tile(rng.normal(size=d), (n, 1))


def _constant_coordinate(rng, n, d):
    x = rng.normal(size=(n, d))
    x[:, 0] = 3.0
    return x


ADVERSARIAL = {
    "offset_1e6": lambda r, n, d: (r.normal(size=(n, d)) + 1e6, r.normal(size=(n, d)) + 1e6),
    # Costs of order 1e-6 beside |x|^2 of order 1e12: only centered potentials keep them.
    "offset_1e6_narrow": lambda r, n, d: (1e-3 * r.normal(size=(n, d)) + 1e6,
                                          1e-3 * r.normal(size=(n, d)) + 1e6),
    "clouds_1e3_apart": lambda r, n, d: (r.normal(size=(n, d)), r.normal(size=(n, d)) + 1e3),
    "scale_ratio_1e-3": lambda r, n, d: (1e-3 * r.normal(size=(n, d)), r.normal(size=(n, d))),
    "scale_ratio_1e3": lambda r, n, d: (1e3 * r.normal(size=(n, d)), r.normal(size=(n, d))),
    "cauchy_tails": lambda r, n, d: (r.standard_cauchy((n, d)), r.standard_cauchy((n, d))),
    "point_mass_x": lambda r, n, d: (_point_mass(r, n, d), r.normal(size=(n, d))),
    "point_mass_y": lambda r, n, d: (r.normal(size=(n, d)), _point_mass(r, n, d)),
    "point_mass_both": lambda r, n, d: (_point_mass(r, n, d), _point_mass(r, n, d)),
    "integer_grid_ties": lambda r, n, d: (r.integers(0, 4, (n, d)).astype(float),
                                          r.integers(0, 4, (n, d)).astype(float)),
    "constant_coordinate": lambda r, n, d: (_constant_coordinate(r, n, d),
                                            r.normal(size=(n, d))),
}


@pytest.mark.parametrize("n", [1, 2, 128])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_reduced_assignment_cost_on_adversarial_inputs(case, d, n):
    x, y = ADVERSARIAL[case](np.random.default_rng(11), n, d)
    _, cost = unreduced_plan(x, y)
    plan = transport_plan(EmpiricalMeasure(x), EmpiricalMeasure(y))
    assert plan.cost == pytest.approx(cost, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("theta", [1.0, 1.5])
def test_assignment_for_other_powers_is_unchanged(theta):
    rng = np.random.default_rng(5)
    for n, d in [(1, 2), (7, 2), (40, 3)]:
        x, y = rng.normal(size=(n, d)), 2.0 * rng.normal(size=(n, d)) + 1.0
        perm, cost = unreduced_plan(x, y, theta)
        plan = transport_plan(EmpiricalMeasure(x), EmpiricalMeasure(y), theta=theta)
        assert plan.permutation.tobytes() == perm.tobytes()
        assert plan.cost == cost


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BUNDLED = {p.name: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}


def _clamped(cfg):
    """A copy that runs in milliseconds when it passes validation."""
    cfg = copy.deepcopy(cfg)
    cfg["sim"]["n_particles"] = min(cfg["sim"]["n_particles"], 8)
    cfg["sim"]["t_end"] = min(cfg["sim"]["t_end"], 0.05)
    for key in ("burn_in", "check_horizon"):
        if key in cfg["experiment"]:
            cfg["experiment"][key] = min(cfg["experiment"][key], 0.05)
    return cfg


def _key_paths(block, prefix=()):
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _mutations(value):
    names = ["drop", "string"]
    if not isinstance(value, (dict, list)):
        names.append("wrap")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        names += ["zero", "negative"]
    return names


@settings(derandomize=True, deadline=None, max_examples=150)
@given(name=st.sampled_from(sorted(BUNDLED)), data=st.data())
def test_mutated_bundled_config_fails_closed(name, data):
    cfg = _clamped(BUNDLED[name])
    path = data.draw(st.sampled_from(list(_key_paths(cfg))), label="path")
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    mutation = data.draw(st.sampled_from(_mutations(value)), label="mutation")
    if mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = {"string": "x", "wrap": [value], "zero": 0,
                            "negative": -1}[mutation]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with mock.patch.dict(os.environ, {"DDSDE_OUTPUT_DIR": out}), \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", cfg_path])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
