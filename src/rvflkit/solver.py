"""Closed-form ridge solves in primal and dual form with the dimension-based switch.

Each solve takes a sequence of ridge gammas: the Gram matrix is formed once and
factorized once per gamma, which gives every gamma the result of a solve of its own.

``single_blas_thread`` runs a block with one OpenBLAS thread. The CV and grid
fold code fits thousands of small ridge problems (a few hundred columns), on
which a multithreaded ``D.T @ D`` and Cholesky are many times slower than a
single-threaded one; more cores are used through worker processes instead.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np
import scipy.linalg

# (package, symbol suffix) of the OpenBLAS builds bundled in the numpy and scipy wheels
_OPENBLAS_BUILDS = ((np, "64_"), (scipy, ""))


class SolverError(RuntimeError):
    pass


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each bundled OpenBLAS build that is found."""
    controls = []
    for package, suffix in _OPENBLAS_BUILDS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in sorted(glob.glob(os.path.join(site, f"{package.__name__}.libs",
                                                  "libscipy_openblas*.so*"))):
            try:
                lib = ctypes.CDLL(path)
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
    return tuple(controls)


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with one thread in each bundled OpenBLAS; restore the counts after."""
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, previous):
            set_(n)


def _spd_solve(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve with a pivoted-LU fallback for severely ill-conditioned G."""
    try:
        c, low = scipy.linalg.cho_factor(G, check_finite=False)
        return scipy.linalg.cho_solve((c, low), rhs, check_finite=False)
    except scipy.linalg.LinAlgError:
        pass
    try:
        lu, piv = scipy.linalg.lu_factor(G, check_finite=False)
        return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        cond = np.linalg.cond(G)
        raise SolverError(f"factorization failed (condition number ~{cond:.3e})") from exc


def _check_gammas(gammas) -> tuple:
    gammas = tuple(gammas)
    if not gammas or not all(g > 0 for g in gammas):
        raise SolverError("need one or more gammas, each positive")
    return gammas


def solve_primal(design, targets, gammas) -> list[np.ndarray]:
    """W = (D^t D + I/gamma)^-1 D^t Y per gamma: D^t D and D^t Y are formed once,
    then one factorization (no explicit inverse) per gamma."""
    D = np.asarray(design, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    gammas = _check_gammas(gammas)
    d = D.shape[1]
    G, rhs = D.T @ D, D.T @ Y
    return [_spd_solve(G + np.eye(d) / g, rhs) for g in gammas]


def solve_dual(design, targets, gammas) -> list[np.ndarray]:
    """W = D^t (D D^t + I/gamma)^-1 Y per gamma, D D^t formed once; preferable when
    rows < columns."""
    D = np.asarray(design, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    gammas = _check_gammas(gammas)
    l = D.shape[0]
    G = D @ D.T
    return [D.T @ _spd_solve(G + np.eye(l) / g, Y) for g in gammas]


def solve_auto(design, targets, gammas) -> list[np.ndarray]:
    """One W per ridge gamma: primal when columns <= rows, dual otherwise (tie goes to
    primal)."""
    D = np.asarray(design, dtype=np.float64)
    if D.shape[1] <= D.shape[0]:
        return solve_primal(D, targets, gammas)
    return solve_dual(D, targets, gammas)
