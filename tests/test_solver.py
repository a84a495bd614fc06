import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from rvflkit.solver import SolverError, solve_auto, solve_dual, solve_primal


def oracle(D, Y, gamma):
    """Independent dense solve of the normal equations."""
    d = D.shape[1]
    return np.linalg.solve(D.T @ D + np.eye(d) / gamma, D.T @ Y)


class TestPrimal:
    def test_identity_case(self):
        W = solve_primal(np.eye(2), np.eye(2), 1.0)
        np.testing.assert_allclose(W, 0.5 * np.eye(2))

    def test_vanishing_regularization(self):
        W = solve_primal(np.eye(2), np.eye(2), 1e12)
        np.testing.assert_allclose(W, np.eye(2), atol=1e-10)

    def test_against_dense_oracle(self, rng):
        D = rng.normal(size=(6, 3))
        Y = rng.normal(size=(6, 2))
        np.testing.assert_allclose(solve_primal(D, Y, 10.0), oracle(D, Y, 10.0), atol=1e-9)

    def test_gamma_validation(self):
        with pytest.raises(SolverError):
            solve_primal(np.eye(2), np.eye(2), 0.0)


class TestDual:
    def test_identity_case(self):
        np.testing.assert_allclose(solve_dual(np.eye(2), np.eye(2), 1.0), 0.5 * np.eye(2))

    def test_wide_shape(self, rng):
        D = rng.normal(size=(2, 5))
        Y = rng.normal(size=(2, 3))
        assert solve_dual(D, Y, 1.0).shape == (5, 3)

    def test_agrees_with_primal(self, rng):
        D = rng.normal(size=(7, 4))
        Y = rng.normal(size=(7, 2))
        Wp = solve_primal(D, Y, 5.0)
        Wd = solve_dual(D, Y, 5.0)
        assert np.linalg.norm(Wp - Wd) <= 1e-8 * (1 + np.linalg.norm(Wp))


class TestAuto:
    def test_tall_uses_primal(self, rng):
        D = rng.normal(size=(10, 3))
        Y = rng.normal(size=(10, 2))
        np.testing.assert_array_equal(solve_auto(D, Y, 1.0), solve_primal(D, Y, 1.0))

    def test_wide_uses_dual(self, rng):
        D = rng.normal(size=(3, 10))
        Y = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(solve_auto(D, Y, 1.0), solve_dual(D, Y, 1.0))

    def test_square_ties_to_primal(self, rng):
        D = rng.normal(size=(4, 4))
        Y = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(solve_auto(D, Y, 1.0), solve_primal(D, Y, 1.0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), gamma=st.sampled_from([1e-3, 1.0, 1e3]))
def test_primal_dual_equivalence_property(seed, gamma):
    rng = np.random.default_rng(seed)
    l, d, m = rng.integers(2, 21), rng.integers(1, 21), rng.integers(1, 4)
    D = rng.normal(size=(l, d))
    Y = rng.normal(size=(l, m))
    Wp = solve_primal(D, Y, gamma)
    Wd = solve_dual(D, Y, gamma)
    assert np.linalg.norm(Wp - Wd) <= 1e-8 * (1 + np.linalg.norm(Wp))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_normal_equation_residual_property(seed):
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(rng.integers(2, 15), rng.integers(1, 15)))
    Y = rng.normal(size=(D.shape[0], 2))
    for gamma in (1e-5, 1.0, 1e5):
        W = solve_auto(D, Y, gamma)
        G = D.T @ D + np.eye(D.shape[1]) / gamma
        rhs = D.T @ Y
        res = np.linalg.norm(G @ W - rhs)
        assert res <= 1e-8 * (1 + np.linalg.norm(rhs))


def test_monotone_shrinkage(rng):
    D = rng.normal(size=(12, 5))
    Y = rng.normal(size=(12, 2))
    norms = [np.linalg.norm(solve_primal(D, Y, g)) for g in (1e-3, 1e-1, 1e1, 1e3)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


class TestFactorizationFailure:
    @staticmethod
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("forced failure")

    def test_cholesky_failure_falls_back_to_lu(self, rng, monkeypatch):
        lu_calls = []
        lu_factor = scipy.linalg.lu_factor

        def counting_lu(*args, **kwargs):
            lu_calls.append(1)
            return lu_factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", self.fail)
        monkeypatch.setattr(scipy.linalg, "lu_factor", counting_lu)
        D = rng.normal(size=(6, 3))
        Y = rng.normal(size=(6, 2))
        np.testing.assert_allclose(solve_primal(D, Y, 10.0), oracle(D, Y, 10.0), atol=1e-9)
        np.testing.assert_allclose(solve_dual(D, Y, 10.0), oracle(D, Y, 10.0), atol=1e-9)
        assert len(lu_calls) == 2

    def test_lu_failure_raises_with_condition_estimate(self, rng, monkeypatch):
        monkeypatch.setattr(scipy.linalg, "cho_factor", self.fail)
        monkeypatch.setattr(scipy.linalg, "lu_factor", self.fail)
        D = rng.normal(size=(6, 3))
        for solve in (solve_primal, solve_dual):
            with pytest.raises(SolverError, match=r"condition number ~\d\.\d{3}e[+-]\d+"):
                solve(D, np.ones((6, 2)), 10.0)
