"""Problem oracles: gradients against finite differences, certified constants
against grid maximization, and the quadratic fixture's exact values."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smgopt.problems import (
    DimensionMismatch,
    ProblemConstants,
    SparseDataset,
    logistic_constants,
    logistic_problem,
    quadratic_mean_problem,
    regularizer_grad,
)
from smgopt.dataio import synth_binary_dataset

FD_STEP = 1e-5


def central_diff(f, w, step=FD_STEP):
    """Central-difference gradient, the independent oracle for analytic ones."""
    g = np.zeros_like(w)
    for j in range(w.size):
        wp, wm = w.copy(), w.copy()
        wp[j] += step
        wm[j] -= step
        g[j] = (f(wp) - f(wm)) / (2 * step)
    return g


def unit_dataset(d, j=1, label=1):
    """One sample with the single feature x_j = 1."""
    return SparseDataset(indptr=[0, 1], indices=[j - 1], values=[1.0],
                         labels=[label], d=d)


class TestLogisticGradient:
    def test_zero_point_symmetry(self):
        # sigmoid at 0 is 1/2 and the regularizer gradient vanishes at 0
        w = np.zeros(3)
        g = logistic_problem(unit_dataset(3), lam=0.01).component_grad(w, 0)
        np.testing.assert_allclose(g, [-0.5, 0.0, 0.0], atol=1e-15)

    def test_regularizer_slope_at_one(self):
        # oracle: differentiate (1/2) w^2/(1+w^2) numerically
        f = lambda v: 0.5 * v[0] ** 2 / (1 + v[0] ** 2)
        fd = central_diff(f, np.array([1.0]))[0]
        assert abs(fd - 0.25) < 1e-9
        assert regularizer_grad(np.array([1.0]))[0] == pytest.approx(0.25, abs=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        samples = synth_binary_dataset(20, 5, seed=3, separability=0.7)
        prob = logistic_problem(samples, lam=0.01)
        for k in range(100):
            w = rng.standard_normal(5)
            i = k % prob.n
            analytic = prob.component_grad(w, i)
            oracle = central_diff(lambda v: prob.component_value(v, i), w)
            err = np.linalg.norm(analytic - oracle) / max(np.linalg.norm(oracle), 1e-12)
            assert err <= 1e-6

    def test_dimension_mismatch_names_index(self):
        # checked once when the dataset is built, not on each oracle call
        with pytest.raises(DimensionMismatch) as exc:
            SparseDataset(indptr=[0, 2], indices=[0, 6], values=[1.0, 2.0],
                          labels=[1], d=3)
        assert exc.value.index == 7
        assert "7" in str(exc.value)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            logistic_problem(unit_dataset(2), lam=-0.1)


class TestLogisticConstants:
    def test_single_unit_sample(self):
        consts = logistic_constants(unit_dataset(1), lam=0.0)
        assert consts.L == pytest.approx(0.25)
        assert consts.G == pytest.approx(1.0)
        assert consts.sigma_sq == pytest.approx(4.0)
        assert consts.theta == 0.0
        assert consts.f_lower == 0.0

    def test_curvature_certificate_by_grid(self):
        # oracle: maximize the numerical second derivative of the 1-d loss
        loss = lambda z: np.logaddexp(0.0, -z)
        z = np.linspace(-10, 10, 100_001)
        h = 1e-4
        curvature = (loss(z + h) - 2 * loss(z) + loss(z - h)) / h**2
        assert abs(curvature.max() - 0.25) < 1e-6

    def test_regularizer_peak_by_grid(self):
        # oracle: maximize |w| / (1+w^2)^2 on a fine grid
        w = np.linspace(0.0, 5.0, 2_000_001)
        peak = (w / (1 + w * w) ** 2).max()
        assert abs(peak - 3 * math.sqrt(3) / 16) < 1e-10

        consts0 = logistic_constants(unit_dataset(4), lam=0.0)
        consts = logistic_constants(unit_dataset(4), lam=0.01)
        assert consts.G - consts0.G == pytest.approx(0.01 * peak * 2.0, rel=1e-9)

    def test_variance_inequality_at_origin(self):
        samples = synth_binary_dataset(16, 4, seed=5, separability=0.9)
        prob = logistic_problem(samples, lam=0.01)
        w = np.zeros(prob.d)
        full = prob.full_grad(w)
        spread = np.mean([
            np.linalg.norm(prob.component_grad(w, i) - full) ** 2
            for i in range(prob.n)
        ])
        c = prob.constants
        assert spread <= c.theta * np.dot(full, full) + c.sigma_sq

    def test_certificates_sampled(self):
        samples = synth_binary_dataset(12, 4, seed=8, separability=0.8)
        prob = logistic_problem(samples, lam=0.01)
        c = prob.constants
        rng = np.random.default_rng(21)
        for _ in range(1000):
            w = rng.standard_normal(prob.d)
            norm = np.linalg.norm(w)
            if norm > 10:
                w *= 10 / norm
            full = prob.full_grad(w)
            grads = [prob.component_grad(w, i) for i in range(prob.n)]
            for g in grads:
                assert np.linalg.norm(g) <= c.G + 1e-12
            spread = np.mean([np.linalg.norm(g - full) ** 2 for g in grads])
            assert spread <= c.theta * np.dot(full, full) + c.sigma_sq + 1e-12

    def test_empty_dataset_rejected(self):
        empty = SparseDataset(indptr=[0], indices=[], values=[], labels=[], d=0)
        with pytest.raises(ValueError):
            logistic_constants(empty, lam=0.01)
        with pytest.raises(ValueError):
            logistic_problem(empty, lam=0.01)

    def test_featureless_dataset_rejected(self):
        featureless = SparseDataset(indptr=[0, 0], indices=[], values=[], labels=[1], d=0)
        with pytest.raises(ValueError, match="no features"):
            logistic_problem(featureless, lam=0.01)


MALFORMED_CSR = {
    "indptr-past-entries": dict(indptr=[0, 2], indices=[0], values=[1.0], labels=[1]),
    "indptr-not-from-0": dict(indptr=[1, 2], indices=[0, 1], values=[1.0, 1.0],
                              labels=[1]),
    "indptr-falls": dict(indptr=[0, 2, 1], indices=[0, 1], values=[1.0, 1.0],
                         labels=[1, 1]),
    "values-length": dict(indptr=[0, 1], indices=[0], values=[1.0, 2.0], labels=[1]),
    "label-zero": dict(indptr=[0, 1], indices=[0], values=[1.0], labels=[0]),
    "repeated-column": dict(indptr=[0, 2], indices=[1, 1], values=[1.0, 1.0],
                            labels=[1]),
    "falling-columns": dict(indptr=[0, 2], indices=[1, 0], values=[1.0, 1.0],
                            labels=[1]),
    "negative-column": dict(indptr=[0, 1], indices=[-1], values=[1.0], labels=[1]),
    "negative-dimension": dict(indptr=[0, 0], indices=[], values=[], labels=[1], d=-1),
}


@pytest.mark.parametrize("arrays", MALFORMED_CSR.values(), ids=MALFORMED_CSR.keys())
def test_malformed_csr_rejected(arrays):
    with pytest.raises(ValueError):
        SparseDataset(**{"d": 3, **arrays})


@pytest.mark.parametrize("name, value", [("L", 0.0), ("theta", -1.0), ("sigma_sq", -1.0),
                                         ("G", 0.0)])
def test_invalid_constants_rejected(name, value):
    valid = dict(L=1.0, G=1.0, theta=0.0, sigma_sq=0.0, f_lower=0.0)
    with pytest.raises(ValueError, match=f"^{name} must"):
        ProblemConstants(**{**valid, name: value})


@pytest.mark.parametrize("n, d", [(0, 2), (2, 0)])
def test_problem_needs_a_sample_and_a_feature(n, d):
    problem = quadratic_mean_problem(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError, match="need n >= 1 and d >= 1"):
        dataclasses.replace(problem, n=n, d=d)


def test_rows_read_back_one_based():
    dataset = SparseDataset(indptr=[0, 2, 2, 3], indices=[0, 2, 1],
                            values=[0.5, -1.0, 2.0], labels=[1, -1, 1], d=4)
    assert len(dataset) == 3
    assert dataset[0].features == ((1, 0.5), (3, -1.0))
    assert dataset[1].features == () and dataset[1].label == -1
    assert dataset[-1].features == ((2, 2.0),)
    assert [s.label for s in dataset] == [1, -1, 1]
    with pytest.raises(IndexError):
        dataset[3]


class TestQuadraticFixture:
    def test_identical_centers(self):
        centers = np.tile([1.0, -2.0], (5, 1))
        prob = quadratic_mean_problem(centers, np.eye(2))
        assert prob.constants.sigma_sq == pytest.approx(0.0, abs=1e-15)
        assert prob.constants.f_lower == pytest.approx(0.0, abs=1e-15)
        assert prob.full_value(np.array([1.0, -2.0])) == pytest.approx(0.0, abs=1e-15)

    def test_two_center_values_against_grid_minimum(self):
        centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
        prob = quadratic_mean_problem(centers, np.eye(2))
        # oracle: minimize F on a grid around the centers
        xs = np.linspace(-2, 2, 801)
        grid_min = min(prob.full_value(np.array([x, y]))
                       for x in xs for y in (-0.5, 0.0, 0.5))
        assert grid_min == pytest.approx(0.5, abs=1e-12)
        assert prob.constants.f_lower == pytest.approx(0.5, abs=1e-14)
        assert prob.constants.sigma_sq == pytest.approx(1.0, abs=1e-14)

    def test_stationary_at_mean_center(self):
        rng = np.random.default_rng(4)
        centers = rng.standard_normal((6, 3))
        A = np.diag([1.0, 3.0, 5.0])
        prob = quadratic_mean_problem(centers, A)
        grad = prob.full_grad(centers.mean(axis=0))
        assert np.linalg.norm(grad) <= 1e-14

    def test_smoothness_is_top_eigenvalue(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        prob = quadratic_mean_problem(np.zeros((3, 2)), A)
        assert prob.constants.L == pytest.approx(3.0)
        assert not prob.constants.has_finite_G

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            quadratic_mean_problem(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            quadratic_mean_problem(np.zeros((2, 2)), np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_curvature_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="curvature must be 2x2"):
            quadratic_mean_problem(np.zeros((3, 2)), np.eye(3))


class TestProblemInvariants:
    @pytest.fixture(params=["logistic", "quadratic"])
    def problem(self, request):
        if request.param == "logistic":
            samples = synth_binary_dataset(10, 4, seed=2, separability=0.8)
            return logistic_problem(samples, lam=0.01)
        rng = np.random.default_rng(9)
        return quadratic_mean_problem(rng.standard_normal((10, 4)),
                                      np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_full_grad_is_component_mean(self, problem):
        rng = np.random.default_rng(31)
        for _ in range(100):
            w = rng.standard_normal(problem.d)
            mean = np.mean([problem.component_grad(w, i) for i in range(problem.n)],
                           axis=0)
            full = problem.full_grad(w)
            err = np.linalg.norm(full - mean) / max(np.linalg.norm(full), 1e-12)
            assert err <= 1e-12

    def test_component_grad_into_a_buffer(self, problem):
        rng = np.random.default_rng(34)
        buf = np.full(problem.d, np.nan)
        for _ in range(20):
            w = rng.standard_normal(problem.d)
            for i in rng.integers(0, problem.n, size=3).tolist():
                expected = problem.component_grad(w, i)
                assert problem.component_grad(w, i, out=buf) is buf
                np.testing.assert_array_equal(buf, expected)
                fresh = problem.component_grad(w, i)
                assert fresh is not buf
                np.testing.assert_array_equal(fresh, expected)

    def test_full_value_is_component_mean(self, problem):
        rng = np.random.default_rng(32)
        for _ in range(20):
            w = rng.standard_normal(problem.d)
            mean = np.mean([problem.component_value(w, i) for i in range(problem.n)])
            assert problem.full_value(w) == pytest.approx(mean, rel=1e-12)

    def test_lower_bound_along_trajectory(self, problem):
        rng = np.random.default_rng(33)
        w = rng.standard_normal(problem.d)
        for _ in range(50):
            assert problem.full_value(w) >= problem.constants.f_lower - 1e-12
            w = w - 0.05 * problem.full_grad(w)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_quadratic_mean_property(n, d, seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n, d))
    prob = quadratic_mean_problem(centers, np.eye(d))
    w = rng.standard_normal(d)
    mean = np.mean([prob.component_grad(w, i) for i in range(n)], axis=0)
    assert np.linalg.norm(prob.full_grad(w) - mean) <= 1e-12 * (1 + np.linalg.norm(mean))
