import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dpotrf, dpotrs

import rvflkit.solver
from rvflkit.solver import SolverError, _spd_solves, set_one_blas_thread, single_blas_thread, \
    solve_auto, solve_dual, solve_primal


def spd_solve(G, rhs):
    """G^-1 rhs by the solver's Cholesky path (LU where Cholesky fails)."""
    (x,) = _spd_solves(G, rhs, [0.0])
    return x


def oracle(D, Y, gamma):
    """Independent dense solve of the normal equations."""
    d = D.shape[1]
    return np.linalg.solve(D.T @ D + np.eye(d) / gamma, D.T @ Y)


class TestPrimal:
    def test_identity_case(self):
        W = solve_primal(np.eye(2), np.eye(2), [1.0])[0]
        np.testing.assert_allclose(W, 0.5 * np.eye(2))

    def test_vanishing_regularization(self):
        W = solve_primal(np.eye(2), np.eye(2), [1e12])[0]
        np.testing.assert_allclose(W, np.eye(2), atol=1e-10)

    def test_against_dense_oracle(self, rng):
        D = rng.normal(size=(6, 3))
        Y = rng.normal(size=(6, 2))
        np.testing.assert_allclose(solve_primal(D, Y, [10.0])[0], oracle(D, Y, 10.0), atol=1e-9)


@pytest.mark.parametrize("solve", [solve_primal, solve_dual], ids=lambda f: f.__name__)
def test_gamma_validation(solve):
    for gammas in ([0.0], [], [1.0, -1.0], [np.nan]):
        with pytest.raises(SolverError, match="^need one or more gammas, each positive$"):
            solve(np.eye(2), np.eye(2), gammas)


class TestDual:
    def test_identity_case(self):
        np.testing.assert_allclose(solve_dual(np.eye(2), np.eye(2), [1.0])[0], 0.5 * np.eye(2))

    def test_wide_shape(self, rng):
        D = rng.normal(size=(2, 5))
        Y = rng.normal(size=(2, 3))
        assert solve_dual(D, Y, [1.0])[0].shape == (5, 3)

    def test_agrees_with_primal(self, rng):
        D = rng.normal(size=(7, 4))
        Y = rng.normal(size=(7, 2))
        Wp = solve_primal(D, Y, [5.0])[0]
        Wd = solve_dual(D, Y, [5.0])[0]
        assert np.linalg.norm(Wp - Wd) <= 1e-8 * (1 + np.linalg.norm(Wp))


class TestAuto:
    def test_tall_uses_primal(self, rng):
        D = rng.normal(size=(10, 3))
        Y = rng.normal(size=(10, 2))
        np.testing.assert_array_equal(solve_auto(D, Y, [1.0])[0], solve_primal(D, Y, [1.0])[0])

    def test_wide_uses_dual(self, rng):
        D = rng.normal(size=(3, 10))
        Y = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(solve_auto(D, Y, [1.0])[0], solve_dual(D, Y, [1.0])[0])

    def test_square_ties_to_primal(self, rng):
        D = rng.normal(size=(4, 4))
        Y = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(solve_auto(D, Y, [1.0])[0], solve_primal(D, Y, [1.0])[0])


@pytest.mark.parametrize("shape", [(9, 4), (4, 9)])
def test_gamma_path_matches_one_solve_per_gamma(rng, shape):
    # one Gram matrix shared by all gammas gives each gamma's single-solve result bit for bit
    D = rng.normal(size=shape)
    Y = rng.normal(size=(shape[0], 2))
    gammas = (1e-5, 0.1, 1.0, 1e3, 1e5)
    l, d = shape
    for solve in (solve_primal, solve_dual, solve_auto):
        for g, W in zip(gammas, solve(D, Y, gammas), strict=True):
            if solve is solve_primal or (solve is solve_auto and d <= l):
                single = spd_solve(D.T @ D + np.eye(d) / g, D.T @ Y)
            else:
                single = D.T @ spd_solve(D @ D.T + np.eye(l) / g, Y)
            np.testing.assert_array_equal(W, single)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), gamma=st.sampled_from([1e-3, 1.0, 1e3]))
def test_primal_dual_equivalence_property(seed, gamma):
    rng = np.random.default_rng(seed)
    l, d, m = rng.integers(2, 21), rng.integers(1, 21), rng.integers(1, 4)
    D = rng.normal(size=(l, d))
    Y = rng.normal(size=(l, m))
    Wp = solve_primal(D, Y, [gamma])[0]
    Wd = solve_dual(D, Y, [gamma])[0]
    assert np.linalg.norm(Wp - Wd) <= 1e-8 * (1 + np.linalg.norm(Wp))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_normal_equation_residual_property(seed):
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(rng.integers(2, 15), rng.integers(1, 15)))
    Y = rng.normal(size=(D.shape[0], 2))
    for gamma in (1e-5, 1.0, 1e5):
        W = solve_auto(D, Y, [gamma])[0]
        G = D.T @ D + np.eye(D.shape[1]) / gamma
        rhs = D.T @ Y
        res = np.linalg.norm(G @ W - rhs)
        assert res <= 1e-8 * (1 + np.linalg.norm(rhs))


def test_monotone_shrinkage(rng):
    D = rng.normal(size=(12, 5))
    Y = rng.normal(size=(12, 2))
    norms = [np.linalg.norm(solve_primal(D, Y, [g])[0]) for g in (1e-3, 1e-1, 1e1, 1e3)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def spd_system(n, k, seed):
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(n + 3, n))
    return D.T @ D, rng.normal(size=(n, k))


def wrapper_solve(A, rhs):
    """The f2py wrappers' Cholesky solve, as the solver called them before."""
    c, info = dpotrf(A, lower=0, clean=0)
    assert info == 0
    x, info = dpotrs(c, rhs, lower=0)
    assert info == 0
    return x


class TestCholeskyPath:
    """``_spd_solves`` calls LAPACK from scipy's bundled OpenBLAS through ctypes, or the
    ``scipy.linalg.lapack`` wrappers where scipy bundles none; either way its solutions
    have the bytes and layout of the wrappers' dpotrf and dpotrs."""

    CASES = [(n, k) for n in (1, 2, 16, 113, 212) for k in (1, 2, 3)]

    @pytest.fixture(params=["bundled", "wrappers"])
    def wrapper_calls(self, request, monkeypatch):
        """Sets up the path named by the parameter; yields the calls it is to make to
        scipy's f2py dpotrf wrapper per solve (none or one) and the list of those made."""
        calls = []
        real = scipy.linalg.lapack.dpotrf
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        if request.param == "wrappers":  # a scipy without a bundled library
            monkeypatch.setattr(rvflkit.solver, "_bundled_openblas", lambda: {})
            monkeypatch.setattr(rvflkit.solver, "_lapack",
                                functools.cache(rvflkit.solver._lapack.__wrapped__))
            assert rvflkit.solver._lapack() is None
        elif rvflkit.solver._lapack() is None:
            pytest.skip("scipy bundles no OpenBLAS here")
        return int(request.param == "wrappers"), calls

    @pytest.mark.parametrize("n,k", CASES)
    def test_bytes_equal_wrappers(self, wrapper_calls, n, k):
        per_solve, calls = wrapper_calls
        G, rhs = spd_system(n, k, seed=n * 10 + k)
        G_before, rhs_before = G.copy(), rhs.copy()
        want = wrapper_solve(G, rhs)
        for g, r in ((G, rhs), (np.asfortranarray(G), np.asfortranarray(rhs))):
            (x,) = _spd_solves(g, r, [0.0])
            assert x.tobytes(order="A") == want.tobytes(order="A")
            assert x.flags.f_contiguous and x.shape == (n, k)
        assert G.tobytes() == G_before.tobytes() and rhs.tobytes() == rhs_before.tobytes()
        assert len(calls) == 2 * per_solve

    @pytest.mark.parametrize("n,k", CASES)
    def test_each_shift_equals_wrappers_on_shifted_copy(self, wrapper_calls, n, k):
        # the shifts share one workspace; each gets the bytes of a solve of its own
        G, rhs = spd_system(n, k, seed=n * 10 + k)
        shifts = [1e5, 1.0, 1e-5, 0.0]
        for shift, x in zip(shifts, _spd_solves(G, rhs, shifts), strict=True):
            A = G.copy()
            A.flat[::n + 1] += shift
            assert x.tobytes(order="A") == wrapper_solve(A, rhs).tobytes(order="A")

    def test_rejects_shapes_that_do_not_fit(self):
        for G, rhs in ((np.eye(3), np.ones((2, 1))), (np.ones((3, 2)), np.ones((3, 1))),
                       (np.eye(3), np.ones(3))):
            with pytest.raises(ValueError, match="cannot solve"):
                _spd_solves(G, rhs, [1.0])


class TestFactorizationFailure:
    @staticmethod
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("forced failure")

    @staticmethod
    def not_positive_definite(monkeypatch):
        # LAPACK potrf's info > 0: a leading minor is not positive definite
        monkeypatch.setattr(rvflkit.solver, "_cholesky_solver", lambda c, X: lambda i: False)

    def test_cholesky_failure_falls_back_to_lu(self, rng, monkeypatch):
        lu_calls = []
        lu_factor = scipy.linalg.lu_factor

        def counting_lu(*args, **kwargs):
            lu_calls.append(1)
            return lu_factor(*args, **kwargs)

        self.not_positive_definite(monkeypatch)
        monkeypatch.setattr(scipy.linalg, "lu_factor", counting_lu)
        D = rng.normal(size=(6, 3))
        Y = rng.normal(size=(6, 2))
        np.testing.assert_allclose(solve_primal(D, Y, [10.0])[0], oracle(D, Y, 10.0), atol=1e-9)
        np.testing.assert_allclose(solve_dual(D, Y, [10.0])[0], oracle(D, Y, 10.0), atol=1e-9)
        assert len(lu_calls) == 2

    def test_lu_failure_raises_with_condition_estimate(self, rng, monkeypatch):
        self.not_positive_definite(monkeypatch)
        monkeypatch.setattr(scipy.linalg, "lu_factor", self.fail)
        D = rng.normal(size=(6, 3))
        for solve in (solve_primal, solve_dual):
            with pytest.raises(SolverError, match=r"condition number ~\d\.\d{3}e[+-]\d+"):
                solve(D, np.ones((6, 2)), [10.0])

    def test_indefinite_matrix_is_solved_by_lu(self, rng):
        G = np.array([[1.0, 2.0, 0.5], [2.0, 1.0, -1.0], [0.5, -1.0, 3.0]])
        assert dpotrf(G, lower=0, clean=0)[1] > 0  # Cholesky rejects it
        rhs = rng.normal(size=(3, 2))
        np.testing.assert_allclose(spd_solve(G, rhs), np.linalg.solve(G, rhs), atol=1e-12)

    def test_singular_matrix_raises_with_condition_estimate(self):
        # rank 1: LU meets an exactly zero pivot, which lu_factor only warns of
        G = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SolverError, match=r"condition number ~\d\.\d{3}e\+\d+"):
            spd_solve(G, np.ones((2, 1)))


class TestThreadControls:
    """A build's set is called only where its count is not 1: after a fork, any OpenBLAS
    set call, even one to the count already set, starts its thread server again."""

    @pytest.fixture
    def fake(self, monkeypatch):
        """Two fake builds at one thread each; yields their counts and the set calls."""
        counts, calls = [1, 1], []

        def control(i):
            def set_(n):
                calls.append((i, n))
                counts[i] = n
            return (lambda: counts[i]), set_

        monkeypatch.setattr(rvflkit.solver, "_openblas_thread_controls",
                            lambda: (control(0), control(1)))
        return counts, calls

    def test_no_set_call_where_every_count_is_one(self, fake):
        counts, calls = fake
        with single_blas_thread():
            assert counts == [1, 1]
        assert set_one_blas_thread() == []
        assert counts == [1, 1] and calls == []

    def test_sets_one_and_restores_where_a_count_is_not_one(self, fake):
        counts, calls = fake
        counts[1] = 4
        with single_blas_thread():
            assert counts == [1, 1]
        assert counts == [1, 4] and calls == [(1, 1), (1, 4)]

    def test_set_one_blas_thread_keeps_one_thread(self, fake):
        counts, calls = fake
        counts[:] = [2, 3]
        set_one_blas_thread()
        with single_blas_thread():
            pass
        assert counts == [1, 1] and calls == [(0, 1), (1, 1)]
