"""Per-sample contribution scores: class probability, Huber weights, and their product.

The pipeline splits once, at tau. ``kernel_scores`` does all the l x l work,
none of which depends on tau (kernel and distance matrices, ``resolve_delta``,
``class_probability``, the class geometry), and keeps only cp and the geometry.
``huber_weights`` and ``contribution_scores`` then give r = cp * m for one tau.
``train`` runs both halves through ``compute_contribution_scores``; the CV fold
code caches ``kernel_scores`` per kernel entry and runs the second half per
config. Both read the class-center scheme off the variant
(``model.CENTER_SCHEMES``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import ClassGeometry, KernelParams, build_class_geometry, \
    feature_space_distance_matrix, kernel_matrix


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
    delta: float | None = None
    delta_quantile: float = 0.5

    def __post_init__(self):
        if self.delta is not None and not self.delta > 0:
            raise WeightingError("delta must be positive")
        if not 0 < self.delta_quantile < 1:
            raise WeightingError("delta quantile must lie in (0, 1)")
        if not 0 < self.tau_multiplier <= 1:
            raise WeightingError("tau multiplier must lie in (0, 1]")


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
    # a boolean mask selects the same pairs in the same order as np.triu_indices, without
    # its two int64 index arrays of l(l-1)/2 entries; pair is ours, so it is partitioned
    # in place rather than copied
    l = dist.shape[0]
    pair = dist[np.arange(l)[:, None] < np.arange(l)]
    return float(np.quantile(pair, config.delta_quantile, overwrite_input=True))


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


def kernel_scores(features, labels, config: WeightingConfig,
                  scheme: str) -> tuple[np.ndarray, ClassGeometry]:
    """cp and the class geometry on normalized training features: the part of the
    weighting that does not depend on tau. K and the distance matrix are freed on return."""
    K = kernel_matrix(features, features, config.kernel)
    dist = feature_space_distance_matrix(K)
    cp = class_probability(labels, resolve_delta(dist, config), dist)
    return cp, build_class_geometry(labels, K, scheme)


def compute_contribution_scores(features, labels, config: WeightingConfig,
                                scheme: str) -> ContributionScores:
    """Full weighting pipeline on normalized training features."""
    cp, geometry = kernel_scores(features, labels, config, scheme)
    return contribution_scores(cp, huber_weights(labels, geometry, config.tau_multiplier))
