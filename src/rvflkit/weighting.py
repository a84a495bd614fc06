"""Per-sample contribution scores: class probability, Huber weights, and their product.

Every caller resolves delta with ``resolve_delta`` and scores with
``score_samples``; ``compute_contribution_scores`` builds the kernel and
distance matrices for ``train``, the CV fold code passes its cached ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import KernelParams, build_class_geometry, feature_space_distance_matrix, kernel_matrix


class WeightingError(ValueError):
    pass


@dataclass(frozen=True)
class WeightingConfig:
    """Hyperparameters of the robust weighting scheme.

    delta is the neighborhood radius for class probability. Either set an
    absolute value, or leave it None to resolve it as a quantile of all
    pairwise feature-space distances (default: the median).
    """

    kernel: KernelParams
    tau_multiplier: float = 1.0
    center_scheme: str = "average"  # "average" | "median"
    delta: float | None = None
    delta_quantile: float = 0.5

    def __post_init__(self):
        if self.delta is not None and not self.delta > 0:
            raise WeightingError("delta must be positive")
        if not 0 < self.delta_quantile < 1:
            raise WeightingError("delta quantile must lie in (0, 1)")
        if not 0 < self.tau_multiplier <= 1:
            raise WeightingError("tau multiplier must lie in (0, 1]")
        if self.center_scheme not in ("average", "median"):
            raise WeightingError(f"unknown center scheme {self.center_scheme!r}")


@dataclass(frozen=True)
class ContributionScores:
    """cp, m, and r = cp * m per training sample; all entries in (0, 1]."""

    cp: np.ndarray
    m: np.ndarray
    r: np.ndarray


def resolve_delta(dist: np.ndarray, config: WeightingConfig) -> float:
    """Neighborhood radius: the absolute delta, or a quantile of the pairwise distances."""
    if config.delta is not None:
        return float(config.delta)
    if dist.shape[0] < 2:
        raise WeightingError("need at least 2 samples to resolve delta from pairwise distances")
    pair = dist[np.triu_indices(dist.shape[0], k=1)]
    return float(np.quantile(pair, config.delta_quantile))


def class_probability(labels, delta: float, dist: np.ndarray) -> np.ndarray:
    """Fraction of each sample's delta-neighborhood sharing its label.

    The sample itself counts in both numerator and denominator, so cp > 0.
    """
    labels = np.asarray(labels, dtype=np.int64)
    within = dist <= delta
    same = labels[:, None] == labels[None, :]
    denom = within.sum(axis=1)
    numer = (within & same).sum(axis=1)
    return numer / denom


def huber_weights(labels, geometry, tau_multiplier: float) -> np.ndarray:
    """Weight 1 inside tau_j = multiplier * radius_j of the own-class center, tau/d beyond."""
    labels = np.asarray(labels, dtype=np.int64)
    tau = tau_multiplier * geometry.radii[labels]
    d = geometry.distances
    m = np.ones_like(d)
    outside = d > tau
    # degenerate class (radius 0): every member sits at the center, weight stays 1
    np.divide(tau, d, out=m, where=outside)
    return m


def contribution_scores(cp, m) -> ContributionScores:
    cp = np.asarray(cp, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if cp.shape != m.shape:
        raise WeightingError(f"length mismatch: {cp.shape} vs {m.shape}")
    return ContributionScores(cp, m, cp * m)


def score_samples(labels, K: np.ndarray, dist: np.ndarray, delta: float,
                  config: WeightingConfig) -> ContributionScores:
    """cp * Huber scores from a training kernel matrix and its distance matrix."""
    cp = class_probability(labels, delta, dist)
    geometry = build_class_geometry(labels, K, config.center_scheme)
    m = huber_weights(labels, geometry, config.tau_multiplier)
    return contribution_scores(cp, m)


def compute_contribution_scores(features, labels, config: WeightingConfig,
                                K: np.ndarray | None = None) -> ContributionScores:
    """Full weighting pipeline on normalized training features."""
    if K is None:
        K = kernel_matrix(features, features, config.kernel)
    dist = feature_space_distance_matrix(K)
    return score_samples(labels, K, dist, resolve_delta(dist, config), config)
