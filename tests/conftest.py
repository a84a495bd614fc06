import numpy as np
import pytest

from rvflkit.data import Dataset, apply_normalization, fit_normalization, one_hot
from rvflkit.model import TrainedModel, fit_output_weights, forward, init_random_layer


def random_dataset(rng, n_samples=None, n_features=None, n_classes=None) -> Dataset:
    """Small random dataset with every class present."""
    l = n_samples or int(rng.integers(6, 30))
    n = n_features or int(rng.integers(1, 6))
    m = n_classes or int(rng.integers(2, 4))
    X = rng.normal(size=(l, n))
    y = np.concatenate([np.arange(m), rng.integers(0, m, size=l - m)])
    rng.shuffle(y)
    return Dataset(X, y, tuple(f"c{i}" for i in range(m)))


def fit_with_unit_scores(ds, config):
    """A robust model fitted through the core ridge fit with every score r = 1."""
    norm = fit_normalization(ds.features)
    Xn = apply_normalization(ds.features, norm)
    layer = init_random_layer(ds.n_features, config.hidden_nodes, config.seed)
    W2 = fit_output_weights(forward(Xn, layer, config), one_hot(ds.labels, ds.n_classes),
                            np.ones(ds.n_samples), config.gamma)
    return TrainedModel(layer, W2, norm, config, ds.class_names)


def rbf_kernel(x, y, params) -> float:
    """Scalar RBF oracle: exp(-gamma * ||x - y||^2)."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-params.gamma * np.dot(d, d)))


def feature_space_distance(x, y, params) -> float:
    """Scalar kernel-trick distance oracle: ||theta(x) - theta(y)|| = sqrt(2 - 2K) for RBF."""
    return float(np.sqrt(max(2.0 - 2.0 * rbf_kernel(x, y, params), 0.0)))


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
