import ctypes
import dataclasses
import glob
import hashlib
import os
import threading

import numpy as np
import pytest
import scipy

from rvflkit.data import Dataset, apply_normalization, fit_normalization, one_hot
from rvflkit.model import TrainedModel, fit_output_weights, forward, init_random_layer
from rvflkit.weighting import WeightingConfig, feature_space_distance_matrix, kernel_matrix


def random_dataset(rng, n_samples=None, n_features=None, n_classes=None) -> Dataset:
    """Small random dataset with every class present."""
    l = n_samples or int(rng.integers(6, 30))
    n = n_features or int(rng.integers(1, 6))
    m = n_classes or int(rng.integers(2, 4))
    X = rng.normal(size=(l, n))
    y = np.concatenate([np.arange(m), rng.integers(0, m, size=l - m)])
    rng.shuffle(y)
    return Dataset(X, y, tuple(f"c{i}" for i in range(m)))


def gaussian_blobs(n_per_class: int, seed: int, separation: float = 2.0,
                   n_features: int = 2, flip_fraction: float = 0.0) -> Dataset:
    """Two spherical Gaussian classes, optionally with uniformly flipped labels."""
    rng = np.random.default_rng(seed)
    mean = np.zeros(n_features)
    mean[0] = separation / 2.0
    X = np.vstack([
        rng.normal(-mean, 1.0, size=(n_per_class, n_features)),
        rng.normal(mean, 1.0, size=(n_per_class, n_features)),
    ])
    y = np.repeat([0, 1], n_per_class)
    if flip_fraction > 0:
        n_flip = int(round(flip_fraction * y.size))
        flip = rng.choice(y.size, size=n_flip, replace=False)
        y = y.copy()
        y[flip] = 1 - y[flip]
    return Dataset(X, y, ("a", "b"), name=f"blobs_seed{seed}")


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
needs_proc_task = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                     reason="needs /proc/self/task")


def read_through_pipe(text, read):
    """``read(path)`` of the ``/dev/fd`` path of a pipe that a thread fills with
    ``text``: input that can be read only once and not rewound, as ``/dev/stdin`` or
    ``<(zcat x.csv.gz)`` are."""
    r, w = os.pipe()

    def feed():
        with open(w, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join(timeout=10)


def trace_sha256(trace) -> str:
    """README "Reproducibility"'s hash of a grid trace: the sha256 over each row in order
    of ``repr(dataclasses.astuple(config))``, ``repr(mean)`` and the fold accuracies' bytes."""
    digest = hashlib.sha256()
    for config, mean, accs in trace:
        digest.update(repr(dataclasses.astuple(config)).encode())
        digest.update(repr(mean).encode())
        digest.update(accs.tobytes())
    return digest.hexdigest()


def fit_with_unit_scores(ds, config):
    """A robust model fitted through the core ridge fit with every score r = 1."""
    norm = fit_normalization(ds.features)
    Xn = apply_normalization(ds.features, norm)
    layer = init_random_layer(ds.n_features, config.hidden_nodes, config.seed)
    (W2,) = fit_output_weights(forward(Xn, layer, config), one_hot(ds.labels, ds.n_classes),
                               np.ones(ds.n_samples), (config.gamma,))
    return TrainedModel(layer, W2, norm, config, ds.class_names)


def rbf_kernel(x, y, gamma) -> float:
    """Scalar RBF oracle: exp(-gamma * ||x - y||^2)."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-gamma * np.dot(d, d)))


def feature_space_distance(x, y, gamma) -> float:
    """Scalar kernel-trick distance oracle: ||theta(x) - theta(y)|| = sqrt(2 - 2K) for RBF."""
    return float(np.sqrt(max(2.0 - 2.0 * rbf_kernel(x, y, gamma), 0.0)))


def distances(X) -> np.ndarray:
    """Pairwise feature-space distances of the rows of X under the kernel gamma 1, as
    sqrt(max(squared, 0)) of the squared distances. ``D ** 2`` stands in for the
    squared distances wherever only comparisons with D matter: sqrt(fl(d^2)) = d."""
    sq = feature_space_distance_matrix(kernel_matrix(X, WeightingConfig(kernel_gamma=1.0)))
    return np.sqrt(np.clip(sq, 0.0, None))


def masked_sigmoid(Z):
    """Two-branch sigmoid oracle: exp is only taken of non-positive arguments."""
    out = np.empty_like(Z)
    pos = Z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-Z[pos]))
    ez = np.exp(Z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _openblas_thread_functions():
    """(get, set) thread-count functions of the OpenBLAS builds bundled with numpy and scipy."""
    found = []
    for module, suffix in ((np, "64_"), (scipy, "")):
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                            f"{module.__name__}.libs", "libscipy_openblas*.so*")
        for path in glob.glob(libs):
            lib = ctypes.CDLL(path)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found.append((get, set_))
    return found


@pytest.fixture
def blas_threads():
    """Sets every bundled OpenBLAS to 2 threads; yields a reader of their thread counts."""
    functions = _openblas_thread_functions()
    if not functions:
        pytest.skip("numpy and scipy do not bundle OpenBLAS here")
    original = [get() for get, _ in functions]
    for _, set_ in functions:
        set_(2)
    yield lambda: tuple(get() for get, _ in functions)
    for (_, set_), n in zip(functions, original):
        set_(n)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One status line per release criterion, printed after the test summary."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    for number in sorted(RESULTS):
        status, description = RESULTS[number]
        terminalreporter.write_line(f"ACCEPTANCE {number}: {status} — {description}")
