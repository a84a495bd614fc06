"""Closed-form ridge solves in primal and dual form with the dimension-based switch.

Each solve takes a sequence of ridge gammas: the Gram matrix is formed once and
factorized once per gamma, which gives every gamma the result of a solve of its own.

``single_blas_thread`` runs a block with one OpenBLAS thread. Every fit and
prediction runs under it: ``train``, ``predict_scores`` and the CV and grid fold
code. A BLAS result can depend on the thread count, and this way it does not
depend on the machine's cores. It is also faster here: the fold code fits
thousands of small ridge problems (a few hundred columns), on which a
multithreaded ``D.T @ D`` and Cholesky are many times slower than a
single-threaded one, and the O(l^2) weighting is numpy elementwise work. More
cores are used through worker processes instead.

The CLI runs each process on one BLAS thread: ``cli.main`` calls
``set_one_blas_thread`` once and never restores the count, so every
``single_blas_thread`` it reaches finds the count at 1. Both touch only a build
whose count is not 1, because a set call after a fork is not free. OpenBLAS
shuts its thread server down in a forking process (an atfork handler), and the
next set call, even one to the count already set, starts it again with
cores - 1 threads per build, which spin before they sleep beside the fit. A
library caller still gets one thread inside each of these functions and its own
count back after them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import warnings

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs

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


def set_one_blas_thread() -> list:
    """Sets each bundled OpenBLAS whose count is not 1 to one thread; returns the
    (set, previous count) of each build it set. A build at one thread is left alone."""
    changed = [(set_, n) for get, set_ in _openblas_thread_controls() if (n := get()) != 1]
    for set_, _ in changed:
        set_(1)
    return changed


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with one thread in each bundled OpenBLAS; restore the counts after.
    A build already at one thread is left alone, so a forked process makes no set call."""
    changed = set_one_blas_thread()
    try:
        yield
    finally:
        for set_, n in changed:
            set_(n)


def _spd_solve(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve with a pivoted-LU fallback for severely ill-conditioned G.

    LAPACK potrf/potrs are called with the flags ``cho_factor``/``cho_solve`` pass
    them, without those wrappers' per-call checks. Neither may overwrite its input:
    the fallback needs G, and ``rhs`` is shared by every gamma.
    """
    c, info = dpotrf(G, lower=0, clean=0)
    if info == 0:
        x, info = dpotrs(c, rhs, lower=0)
        if info == 0:
            return x
    try:
        with warnings.catch_warnings():
            # lu_factor only warns of an exactly zero pivot, whose solve is inf or nan
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(G, check_finite=False)
        return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning, ValueError) as exc:
        cond = np.linalg.cond(G)
        raise SolverError(f"factorization failed (condition number ~{cond:.3e})") from exc


def _ridge(G: np.ndarray, g: float) -> np.ndarray:
    """G + I/g as a new array; G is shared by every gamma and stays as it is."""
    A = G.copy()
    A.flat[::A.shape[0] + 1] += 1 / g
    return A


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
    G, rhs = D.T @ D, D.T @ Y
    return [_spd_solve(_ridge(G, g), rhs) for g in gammas]


def solve_dual(design, targets, gammas) -> list[np.ndarray]:
    """W = D^t (D D^t + I/gamma)^-1 Y per gamma, D D^t formed once; preferable when
    rows < columns."""
    D = np.asarray(design, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    gammas = _check_gammas(gammas)
    G = D @ D.T
    return [D.T @ _spd_solve(_ridge(G, g), Y) for g in gammas]


def solve_auto(design, targets, gammas) -> list[np.ndarray]:
    """One W per ridge gamma: primal when columns <= rows, dual otherwise (tie goes to
    primal)."""
    D = np.asarray(design, dtype=np.float64)
    if D.shape[1] <= D.shape[0]:
        return solve_primal(D, targets, gammas)
    return solve_dual(D, targets, gammas)
