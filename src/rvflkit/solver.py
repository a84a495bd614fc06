"""Closed-form ridge solves in primal and dual form with the dimension-based switch.

Each solve takes a sequence of ridge gammas: the Gram matrix is formed once and
factorized once per gamma, which gives every gamma the result of a solve of its own.

The factorization is LAPACK's ``dpotrf`` and ``dpotrs`` from the OpenBLAS library
bundled in the scipy wheel (``scipy.libs/``), called through ctypes with the
arguments that ``scipy.linalg.lapack`` gives them (``lower=0, clean=0``). Each gamma
writes G + I/gamma into one F-ordered workspace per Gram matrix, factorizes it there
and solves in place on its own F-ordered copy of the right-hand sides, so every
solution has the bytes and the layout those wrappers return. The pointers that the
calls take are made once per Gram matrix: per solve, a path of 11 gammas costs less
than the wrappers' calls, one of 3 about as much, and a single gamma a few microseconds
more. Importing ``scipy.linalg`` would about double every command's start-up (its
array-API layer imports most of numpy's optional submodules), so it is imported only
for the pivoted-LU fallback, and for the wrappers themselves where scipy bundles no
OpenBLAS.

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
count back after them. The libraries are opened when this module is imported,
so no command pays for loading them. Loading a build starts its thread server
too, whose workers spin for about 0.1 s after they start; ``cli.main`` then stops
them (``stop_blas_thread_servers``), so that the first command does not run beside
them, and no thread but the main one is left to any command.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import warnings

import numpy as np
import scipy  # the package root only; perfbench reaches scipy.linalg.lu_factor through it

# (package, symbol suffix) of the OpenBLAS builds bundled in the numpy and scipy wheels
_OPENBLAS_BUILDS = ((np, "64_"), (scipy, ""))


class SolverError(RuntimeError):
    pass


@functools.cache
def _bundled_openblas() -> dict:
    """The OpenBLAS library bundled in each of the numpy and scipy wheels that is found,
    by package name."""
    found = {}
    for package, _ in _OPENBLAS_BUILDS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in sorted(glob.glob(os.path.join(site, f"{package.__name__}.libs",
                                                  "libscipy_openblas*.so*"))):
            try:
                found[package.__name__] = ctypes.CDLL(path)
            except OSError:
                continue
            break
    return found


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each bundled OpenBLAS build that is found."""
    controls = []
    for package, suffix in _OPENBLAS_BUILDS:
        try:
            lib = _bundled_openblas()[package.__name__]
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (KeyError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return tuple(controls)


@functools.cache
def _lapack():
    """(dpotrf, dpotrs) of scipy's bundled OpenBLAS as ctypes functions, or None where
    scipy bundles none. They get no argtypes: every argument is a pointer that the
    caller makes once per Gram matrix, so a call converts none of them."""
    try:
        lib = _bundled_openblas()["scipy"]
        potrf, potrs = lib.scipy_dpotrf_, lib.scipy_dpotrs_
    except (KeyError, AttributeError):
        import scipy.linalg.lapack  # noqa: F401  (its wrappers run instead; loaded at import)

        return None
    potrf.restype = potrs.restype = None
    return potrf, potrs


_lapack()  # open the libraries at import, not inside the first command


@functools.lru_cache(maxsize=64)
def _int_pointers(*values) -> tuple:
    """Pointers to C ints of the given values, made once for each set of values."""
    return tuple(ctypes.byref(ctypes.c_int(v)) for v in values)


def _cholesky_solver(c: np.ndarray, X: np.ndarray):
    """A function of i that factorizes the n x n matrix c in place by LAPACK dpotrf on
    its upper triangle, then solves by dpotrs in place on X[i].T, the (n, k) right-hand
    sides of shift i, and returns whether LAPACK reported success. c is F-ordered and
    X a C-ordered (shifts, k, n) float64 array. The arguments are those that
    ``scipy.linalg.lapack`` passes, so solutions have its bytes; where scipy bundles no
    OpenBLAS, its wrappers are called instead."""
    lapack = _lapack()
    if lapack is None:
        from scipy.linalg.lapack import dpotrf, dpotrs

        def wrapped(i):
            if dpotrf(c, lower=0, clean=0, overwrite_a=1)[1]:
                return False
            return dpotrs(c, X[i].T, lower=0, overwrite_b=1)[1] == 0

        return wrapped
    potrf, potrs = lapack
    n_p, k_p = _int_pointers(len(c), X.shape[1])
    info = ctypes.c_int()
    info_p = ctypes.byref(info)
    factor = ctypes.byref(ctypes.c_double.from_buffer(c.T))  # c.T: c's memory, C-ordered
    solutions, step = ctypes.c_double.from_buffer(X), X.strides[0]

    def bundled(i):
        potrf(b"U", n_p, factor, n_p, info_p)
        if info.value:
            return False
        potrs(b"U", n_p, k_p, factor, n_p, ctypes.byref(solutions, i * step), n_p, info_p)
        return not info.value

    return bundled


def set_one_blas_thread() -> list:
    """Sets each bundled OpenBLAS whose count is not 1 to one thread; returns the
    (set, previous count) of each build it set. A build at one thread is left alone."""
    changed = [(set_, n) for get, set_ in _openblas_thread_controls() if (n := get()) != 1]
    for set_, _ in changed:
        set_(1)
    return changed


def stop_blas_thread_servers() -> None:
    """Stops the worker threads of each bundled OpenBLAS, as OpenBLAS's own fork handler
    does, for a process that stays at one thread, whose BLAS calls never wake them. Any
    later set call starts them again."""
    for lib in _bundled_openblas().values():
        shutdown = getattr(lib, "blas_thread_shutdown_", None)
        if shutdown is not None:
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
            shutdown()


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


def _spd_solves(G, rhs, shifts) -> list[np.ndarray]:
    """(G + s I)^-1 rhs for each shift s by Cholesky, with a pivoted-LU fallback for a
    severely ill-conditioned matrix; each solution is F-ordered, as LAPACK returns it.

    Each shift copies G into one F-ordered workspace, adds s to its diagonal and
    factorizes it there, so G and rhs stay as they are: every shift reads them. The
    Cholesky solutions are F-ordered views of one array that holds a copy of rhs per
    shift, each solved in place.
    """
    G = np.asfortranarray(G, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    n, shifts = len(G), tuple(shifts)
    if not rhs.size or not shifts or G.shape != (n, n) or rhs.ndim != 2 or len(rhs) != n:
        raise ValueError(f"cannot solve a {G.shape} system for {rhs.shape} right-hand sides")
    work = np.empty(n * n)
    c, diagonal = work.reshape(n, n).T, work[::n + 1]  # F-ordered views of the workspace
    G_diagonal = G.diagonal()
    X = np.empty((len(shifts), rhs.shape[1], n))
    np.copyto(X, rhs.T)
    solve = _cholesky_solver(c, X)
    solutions = []
    for i, shift in enumerate(shifts):
        np.copyto(c, G)
        np.add(G_diagonal, shift, out=diagonal)
        solutions.append(X[i].T if solve(i) else _lu_solve(G, rhs, shift))
    return solutions


def _lu_solve(G: np.ndarray, rhs: np.ndarray, shift: float) -> np.ndarray:
    """(G + shift I)^-1 rhs by pivoted LU, for a matrix that Cholesky rejected."""
    import scipy.linalg  # only this fallback pays for importing scipy.linalg

    A = G.copy()
    A.flat[::A.shape[0] + 1] += shift
    try:
        with warnings.catch_warnings():
            # lu_factor only warns of an exactly zero pivot, whose solve is inf or nan
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
        return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning, ValueError) as exc:
        cond = np.linalg.cond(A)
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
    return _spd_solves(D.T @ D, D.T @ Y, [1 / g for g in gammas])


def solve_dual(design, targets, gammas) -> list[np.ndarray]:
    """W = D^t (D D^t + I/gamma)^-1 Y per gamma, D D^t formed once; preferable when
    rows < columns."""
    D = np.asarray(design, dtype=np.float64)
    Y = np.asarray(targets, dtype=np.float64)
    gammas = _check_gammas(gammas)
    return [D.T @ x for x in _spd_solves(D @ D.T, Y, [1 / g for g in gammas])]


def solve_auto(design, targets, gammas) -> list[np.ndarray]:
    """One W per ridge gamma: primal when columns <= rows, dual otherwise (tie goes to
    primal)."""
    D = np.asarray(design, dtype=np.float64)
    if D.shape[1] <= D.shape[0]:
        return solve_primal(D, targets, gammas)
    return solve_dual(D, targets, gammas)
