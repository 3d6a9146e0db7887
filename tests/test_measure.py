import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from ddsde.measure import (
    EmpiricalMeasure,
    theta_cost,
    transport_plan,
    wasserstein,
    write_csv,
)

from helpers import brute_force_wasserstein, moment


class TestWasserstein:
    def test_point_masses(self):
        mu = EmpiricalMeasure(np.array([[1.0, 0.0, 0.0]]))
        nu = EmpiricalMeasure(np.array([[0.0, 0.0, 0.0]]))
        assert wasserstein(mu, nu, theta=2.0) == pytest.approx(1.0)

    def test_identity_matching_beats_swap(self):
        # {0, 1} vs {0, 3}: identity pairing costs 4/2, the swap costs 10/2.
        mu = EmpiricalMeasure(np.array([[0.0], [1.0]]))
        nu = EmpiricalMeasure(np.array([[0.0], [3.0]]))
        assert wasserstein(mu, nu, theta=2.0) == pytest.approx(np.sqrt(2.0))

    def test_zero_on_equal_measures(self):
        pts = np.random.default_rng(0).normal(size=(20, 2))
        mu = EmpiricalMeasure(pts)
        nu = EmpiricalMeasure(pts[::-1].copy())  # same multiset, different order
        assert wasserstein(mu, nu, theta=2.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force(self, theta, d):
        rng = np.random.default_rng(int(10 * theta) + d)
        for _ in range(25):
            n = rng.integers(2, 7)
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d))
            got = wasserstein(EmpiricalMeasure(x), EmpiricalMeasure(y), theta=theta)
            want = brute_force_wasserstein(x, y, theta)
            assert got == pytest.approx(want, abs=1e-10)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a, b, c = (EmpiricalMeasure(rng.normal(size=(8, 2))) for _ in range(3))
            dab = wasserstein(a, b)
            dba = wasserstein(b, a)
            assert dab == pytest.approx(dba, rel=1e-12)
            assert dab > 0
            assert dab <= wasserstein(a, c) + wasserstein(c, b) + 1e-12
            assert wasserstein(a, a) == 0.0

    def test_order_monotonicity(self):
        rng = np.random.default_rng(3)
        mu = EmpiricalMeasure(rng.normal(size=(16, 2)))
        nu = EmpiricalMeasure(rng.normal(size=(16, 2)))
        assert wasserstein(mu, nu, 1.0) <= wasserstein(mu, nu, 2.0) + 1e-12

    def test_unequal_sizes_raise(self):
        big = EmpiricalMeasure(np.arange(10.0)[:, None])
        small = EmpiricalMeasure(np.array([[0.0], [5.0]]))
        with pytest.raises(ValueError, match="size mismatch"):
            wasserstein(big, small)
        assert wasserstein(EmpiricalMeasure(big.points[::5]), small) == pytest.approx(0.0)

    def test_exact_above_former_size_limit(self):
        rng = np.random.default_rng(17)
        x, y = rng.normal(size=(513, 2)), rng.normal(size=(513, 2)) * 1.5 + 0.3
        cost = cdist(x, y) ** 2
        rows, cols = linear_sum_assignment(cost)
        want = np.sqrt(cost[rows, cols].mean())
        assert wasserstein(EmpiricalMeasure(x), EmpiricalMeasure(y)) == pytest.approx(
            want, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        mu = EmpiricalMeasure(np.zeros((3, 2)))
        nu = EmpiricalMeasure(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="dimension"):
            wasserstein(mu, nu)

    def test_one_dimensional_fast_path_matches_assignment(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 1))
        y = rng.normal(size=(40, 1))
        mu, nu = EmpiricalMeasure(x), EmpiricalMeasure(y)
        sorted_w = wasserstein(mu, nu, theta=2.0)
        xs, ys = np.sort(x[:, 0]), np.sort(y[:, 0])
        assert sorted_w == pytest.approx(np.sqrt(np.mean((xs - ys) ** 2)), rel=1e-12)

    @pytest.mark.parametrize("theta", [1.0, 1.5, 2.0])
    def test_cost_matrix_bitwise(self, theta):
        # theta_cost keeps the bits of a plain ``** theta``, on the assignment's
        # cost matrix and on the 1-D cost of the sorted pairs, in d = 3 and d = 1.
        rng = np.random.default_rng(31)
        for d in (3, 1):
            x, y = rng.normal(size=(40, d)), rng.normal(size=(40, d))
            want = cdist(x, y) if theta == 1.0 else cdist(x, y) ** theta
            assert theta_cost(cdist(x, y), theta).tobytes() == want.tobytes()
            gaps = np.abs(np.sort(x[:, 0]) - np.sort(y[:, 0]))
            assert theta_cost(gaps.copy(), theta).tobytes() == (gaps ** theta).tobytes()
        plan = transport_plan(EmpiricalMeasure(x), EmpiricalMeasure(y), theta=theta)
        assert plan.cost == float(np.mean(gaps ** theta))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_theta_cost_rejects_a_power_out_of_the_double_range(self):
        # Zero distances (a node the iterates share) pass at any theta.
        assert theta_cost(np.array([0.0, 0.5]), 100.0).tolist() == [0.0, 0.5 ** 100]
        for d in (1e-4, 1e4):  # 1e-400 and 1e400
            with pytest.raises(FloatingPointError, match="theta = 100"):
                theta_cost(np.array([0.0, 0.5, d]), 100.0)

    def test_plan_permutation_realizes_w2(self):
        rng = np.random.default_rng(13)
        mu = EmpiricalMeasure(rng.normal(size=(10, 3)))
        nu = EmpiricalMeasure(rng.normal(size=(10, 3)))
        perm = transport_plan(mu, nu).permutation
        assert sorted(perm) == list(range(10))
        paired_cost = np.mean(np.sum((mu.points - nu.points[perm]) ** 2, axis=1))
        assert np.sqrt(paired_cost) == pytest.approx(wasserstein(mu, nu), rel=1e-12)


class TestMoment:
    def test_symmetric_pair(self):
        mu = EmpiricalMeasure(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
        assert moment(mu, 2.0) == pytest.approx(1.0)

    def test_dirac_zero(self):
        mu = EmpiricalMeasure.point_mass([0.0, 0.0], 5)
        for p in (0.5, 1.0, 2.0, 4.0):
            assert moment(mu, p) == 0.0

    def test_chi_square_mean(self):
        rng = np.random.default_rng(17)
        n = 10_000
        mu = EmpiricalMeasure(rng.normal(size=(n, 3)))
        se = np.sqrt(6.0 / n)  # Var(chi^2_3) = 6
        assert abs(moment(mu, 2.0) - 3.0) < 3 * se

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            moment(EmpiricalMeasure(np.ones((2, 1))), -1.0)


class TestEmpiricalMeasure:
    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(23)
        mu = EmpiricalMeasure(rng.normal(size=(9, 3)))
        path = tmp_path / "points.csv"
        mu.to_csv(path)
        back = EmpiricalMeasure.from_csv(path)
        assert np.array_equal(mu.points, back.points)

    @pytest.mark.parametrize("header", [None, "t,x,y"])
    def test_csv_bytes_are_savetxt_bytes(self, tmp_path, header):
        rows = np.array([[0.1, -2.5e-300, 1e17], [np.pi, 0.0, -0.0], [1.0, -7.0, 5e-324]])
        write_csv(tmp_path / "ours.csv", rows, header)
        np.savetxt(tmp_path / "numpy.csv", rows, fmt="%.17g", delimiter=",",
                   header=header or "", comments="")
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()

    def test_loader_rejects_nonfinite(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\nnan,2.0\n")
        with pytest.raises(ValueError, match="non-finite"):
            EmpiricalMeasure.from_csv(path)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((0, 2)))
