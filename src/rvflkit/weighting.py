"""The robust weighting: RBF kernel, class geometry, class probability, Huber weights.

The kernel matrix K and the feature-space distances come from the kernel trick,
without materializing the map. Each sample is scored against its own class
center, the kernel mean (R2VFL-A) or the feature-wise median of the class's
kernel rows (R2VFL-M); the center scheme is read off the variant
(``model.CENTER_SCHEMES``).

The pairwise work stops at squared distances S_ij = (k_i + k_j) - 2 K_ij, written
over K. A distance is sqrt(max(S_ij, 0)), which is monotone and correctly
rounded, so no l x l root is taken: ``resolve_delta`` selects its two order
statistics among the squares and roots only those, and ``class_probability``
compares S against the largest square whose root lies within delta. Both give
the bytes that the rooted distances give.

The pipeline splits once, at tau. ``kernel_scores`` does all the l x l work,
none of which depends on tau (kernel and distance matrices, ``resolve_delta``,
``class_probability``, the class geometry), and keeps only cp and the geometry.
``huber_weights`` and ``contribution_scores`` then give r = cp * m for one tau.
``train`` runs both halves through ``compute_contribution_scores``; the CV fold
code caches ``kernel_scores`` per kernel entry and runs the second half per
config.

Only a tau below 1 reads the class geometry. A class radius is its largest member
distance, so at tau = 1 no member lies beyond it and every Huber weight is 1:
``huber_weights`` returns ones there, and ``kernel_scores`` builds the geometry
only when asked to, for a fit with some tau < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class WeightingError(ValueError):
    pass


# Rows per block of the elementwise l x l work: a block of K or of the distances, and
# the same-shape temporary it needs, stay in cache while every step runs over them.
ROW_BLOCK = 64


def _finish_squared_distances(G: np.ndarray, s: np.ndarray, finish=None) -> np.ndarray:
    """Square G <- (s_i + s_j) - 2 G_ij, in place, a block of rows at a time, each block
    then mapped onto itself by ``finish`` if one is given.

    A block of s_i + s_j is the product [s_i, 1] [1, s_j]^T: both products are exact,
    so the one rounding of their sum is that of the sum itself, and a GEMM of inner
    dimension 2 runs faster than numpy's broadcast add."""
    tmp = np.empty((ROW_BLOCK, G.shape[1]))
    left = np.stack([s, np.ones_like(s)], axis=1)
    right = np.stack([np.ones_like(s), s])
    for i in range(0, G.shape[0], ROW_BLOCK):
        blk = G[i:i + ROW_BLOCK]
        st = np.matmul(left[i:i + ROW_BLOCK], right, out=tmp[:blk.shape[0]])
        blk *= 2.0
        np.subtract(st, blk, out=blk)
        if finish is not None:
            finish(blk)
    return G


def kernel_matrix(X, config: WeightingConfig) -> np.ndarray:
    """The RBF kernel over the rows of X, entry (i, j) = exp(-gamma ||X_i - X_j||^2)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    # one whole syrk: a row-blocked product would not be bit-equal
    return _finish_squared_distances(
        X @ X.T, np.sum(X * X, axis=1), lambda blk: np.exp(np.multiply(
            np.maximum(blk, 0.0, out=blk), -config.kernel_gamma, out=blk), out=blk))


def feature_space_distance_matrix(K: np.ndarray) -> np.ndarray:
    """Pairwise squared feature-space distances (k_i + k_j) - 2 K_ij from a square kernel
    matrix K(X, X), written into K's buffer. Rounding may leave an entry slightly
    below 0; the distance itself is sqrt(max(entry, 0))."""
    return _finish_squared_distances(K, np.diag(K).copy())


def median_center(K_class: np.ndarray) -> np.ndarray:
    """Component-wise median over the class's kernel rows K(G_j, G_j).

    Equal, bit for bit, to ``np.median(K_class, axis=0)`` on NaN-free input, with one
    partition pivot where ``np.median`` uses two or three: for an even count the lower
    middle value is the largest entry below the pivot.
    """
    K_class = np.asarray(K_class, dtype=np.float64)
    if K_class.shape[0] == 0:
        raise WeightingError("empty class")
    h = K_class.shape[0] // 2
    P = np.partition(K_class, h, axis=0)
    if K_class.shape[0] % 2:
        return P[h].copy()  # not a view that keeps P alive
    return (np.max(P[:h], axis=0) + P[h]) / 2


@dataclass(frozen=True)
class ClassGeometry:
    """Per-class radii and member distances for one center scheme, over a training kernel matrix."""

    radii: np.ndarray                 # (m,) max member distance to own center
    distances: np.ndarray             # (l,) distance of each sample to its own class center


def _check_scheme(scheme: str):
    if scheme not in ("average", "median"):
        raise WeightingError(f"unknown center scheme {scheme!r}")


def build_class_geometry(labels, K: np.ndarray, scheme: str) -> ClassGeometry:
    """Compute class centers, member distances, and radii under one scheme."""
    _check_scheme(scheme)
    labels = np.asarray(labels, dtype=np.int64)
    l = labels.shape[0]
    if K.shape != (l, l):
        raise WeightingError(f"kernel matrix shape {K.shape} does not match {l} labels")
    m = int(labels.max()) + 1
    distances = np.zeros(l)
    radii = np.zeros(m)
    for j in range(m):
        idx = np.flatnonzero(labels == j)
        if idx.size == 0:
            raise WeightingError(f"class {j} has no members")
        block = K[np.ix_(idx, idx)]
        if scheme == "average":
            # ||theta(x_i) - mean||^2 = K_ii - 2/l_j sum_g K_ig + 1/l_j^2 sum_gg' K_gg'
            const = float(block.sum()) / (idx.size ** 2)
            sq = np.diag(K)[idx] - 2.0 / idx.size * block.sum(axis=1) + const
            d = np.sqrt(np.clip(sq, 0.0, None))
        else:
            # np.linalg.norm(block - center, axis=1), computed in the block itself. K is
            # bit-symmetric, so the medians of block.T's columns are those of block's,
            # and block.T partitions along contiguous memory.
            block -= median_center(block.T)
            block *= block
            d = np.sqrt(np.add.reduce(block, axis=1))
        distances[idx] = d
        radii[j] = d.max()
    return ClassGeometry(radii, distances)


@dataclass(frozen=True)
class WeightingConfig:
    """Hyperparameters of the robust weighting scheme.

    kernel_gamma is the gamma of the RBF kernel over the training samples. delta is
    the neighborhood radius for class probability. Either set an absolute value, or
    leave it None to resolve it as a quantile of all pairwise feature-space distances
    (default: the median).
    """

    kernel_gamma: float = 1.0
    tau_multiplier: float = 1.0
    delta: float | None = None
    delta_quantile: float = 0.5

    def __post_init__(self):
        if not 0 < self.kernel_gamma < np.inf:
            raise WeightingError(
                f"kernel gamma must be positive and finite, got {self.kernel_gamma!r}")
        if self.delta is not None and not 0 < self.delta < np.inf:
            raise WeightingError(f"delta must be positive and finite, got {self.delta!r}")
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


# Floyd & Rivest's selection (CACM 18(3), 1975): a sorted random sample of the pairs
# brackets the order statistics that delta needs; only the pairs inside the bracket
# are collected and partitioned. Drawing and sorting the sample costs about as much as
# partitioning 2.5 samples' worth of pairs, so a matrix with no more pairs than that
# (100 000 pairs, l <= 447, at the default sample) partitions every pair instead.
DELTA_SAMPLE = 40_000
BRACKET_MIN_SAMPLES = 2.5


def _upper_triangle_blocks(dist: np.ndarray):
    """The entries above the diagonal of a square matrix, a block of rows at a time:
    for each block, the rectangle right of its diagonal square, then the entries
    above the diagonal inside that square."""
    l = dist.shape[0]
    upper = np.arange(ROW_BLOCK)[:, None] < np.arange(ROW_BLOCK)
    for i in range(0, l, ROW_BLOCK):
        j = min(i + ROW_BLOCK, l)
        yield dist[i:j, j:]
        yield dist[i:j, i:j][upper[:j - i, :j - i]]


def _pair_sample(dist: np.ndarray, size: int) -> np.ndarray:
    """Sorted sample, with replacement and a fixed seed, of the entries above the
    diagonal: each is (min(i, j), max(i, j)) of an ordered pair drawn uniformly."""
    l = dist.shape[0]
    rng = np.random.default_rng(0)
    i = rng.integers(0, l, size)
    j = rng.integers(0, l - 1, size)
    j += j >= i
    return np.sort(dist[np.minimum(i, j), np.maximum(i, j)])


def _bracketed_order_statistics(dist: np.ndarray, ranks):
    """Entries of the given ranks (0-based, ascending) among the l(l-1)/2 entries above
    the diagonal, or None when the sample's bracket misses one or an entry is NaN."""
    n = dist.shape[0] * (dist.shape[0] - 1) // 2
    sample = _pair_sample(dist, DELTA_SAMPLE)
    # sample ranks beyond each target: 6 standard deviations or more, as the count of
    # sample entries below a population quantile p has sd sqrt(S p (1 - p)) <= sqrt(S) / 2
    margin = 3.0 * np.sqrt(DELTA_SAMPLE)
    lo_at = int(np.floor(ranks[0] * DELTA_SAMPLE / n - margin))
    hi_at = int(np.ceil((ranks[-1] + 1) * DELTA_SAMPLE / n + margin))
    lo = sample[lo_at] if lo_at >= 0 else -np.inf
    hi = sample[hi_at] if hi_at < DELTA_SAMPLE else np.inf
    below = above = 0
    inside = []
    for X in _upper_triangle_blocks(dist):
        ge, le = X >= lo, X <= hi
        below += X.size - np.count_nonzero(ge)
        above += X.size - np.count_nonzero(le)
        inside.append(X[ge & le])
    inside = np.concatenate(inside)
    # a NaN is neither >= lo nor <= hi, so it is counted both below and above
    if below + inside.size + above != n or not below <= ranks[0] <= ranks[-1] < below + inside.size:
        return None
    kth = [r - below for r in ranks]
    inside.partition(kth)
    return inside[kth]


def resolve_delta(sq: np.ndarray, config: WeightingConfig) -> float:
    """Neighborhood radius: the absolute delta, or a quantile of the pairwise distances.

    ``sq`` holds the squared distances. The quantile equals ``np.quantile`` (linear
    method) of the distances sqrt(max(sq, 0)) above the diagonal, bit for bit: the root
    is monotone, so the two order statistics are selected among the squares, without
    copying them all, and only those two are rooted.
    """
    if config.delta is not None:
        return float(config.delta)
    l = sq.shape[0]
    if l < 2:
        raise WeightingError("need at least 2 samples to resolve delta from pairwise distances")
    n = l * (l - 1) // 2
    q = config.delta_quantile
    # np.quantile's virtual index and its neighbours; -1 is the last entry
    v = (n - 1) * q
    prev = -1 if v >= n - 1 else int(np.floor(v))
    ranks = [n - 1, n - 1] if prev == -1 else [prev, prev + 1]
    found = None
    if n > BRACKET_MIN_SAMPLES * DELTA_SAMPLE:
        found = _bracketed_order_statistics(sq, ranks)
    if found is None:
        # every pair, selected by a boolean mask in np.triu_indices' order; a NaN sorts
        # last and makes the quantile NaN, as in np.quantile
        pair = sq[np.arange(l)[:, None] < np.arange(l)]
        pair.partition([*ranks, n - 1])
        if np.isnan(pair[-1]):
            return math.nan
        found = pair[ranks]
    # np.quantile's linear interpolation (numpy's _lerp) of the two distances
    a, b = np.sqrt(np.maximum(found, 0.0))
    t = v - prev
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def _squared_radius(delta: float) -> float:
    """The largest double t with sqrt(max(t, 0)) <= delta: a squared distance s is within
    delta, sqrt(max(s, 0)) <= delta, exactly when s <= t. The root is correctly rounded,
    so t lies a few steps from delta^2."""
    if not delta >= 0:  # negative or NaN: no distance is within delta
        return -math.inf
    t = delta * delta
    while math.sqrt(max(t, 0.0)) > delta:
        t = math.nextafter(t, -math.inf)
    while t < math.inf and math.sqrt(max(math.nextafter(t, math.inf), 0.0)) <= delta:
        t = math.nextafter(t, math.inf)
    return t


def class_probability(labels, delta: float, sq: np.ndarray) -> np.ndarray:
    """Fraction of each sample's delta-neighborhood sharing its label, from the squared
    distances ``sq``: j is i's neighbour when sqrt(max(sq_ij, 0)) <= delta.

    The sample itself counts in both numerator and denominator, so cp > 0. A block of
    0/1 neighbour rows times the one-hot labels counts each row's neighbours per class,
    exact integers in float64.
    """
    labels = np.asarray(labels, dtype=np.int64)
    l = sq.shape[0]
    t = _squared_radius(float(delta))
    onehot = (labels[:, None] == np.arange(labels.max() + 1)).astype(np.float64)
    within = np.empty((ROW_BLOCK, l))
    counts = np.empty((l, onehot.shape[1]))
    for i in range(0, l, ROW_BLOCK):
        rows = sq[i:i + ROW_BLOCK]
        np.matmul(np.less_equal(rows, t, out=within[:rows.shape[0]]), onehot,
                  out=counts[i:i + ROW_BLOCK])
    return counts[np.arange(l), labels] / counts.sum(axis=1)


def huber_weights(labels, geometry: ClassGeometry | None,
                  tau_multiplier: float) -> np.ndarray:
    """Weight 1 inside tau_j = multiplier * radius_j of the own-class center, tau/d beyond.

    At multiplier 1 tau_j is the radius, the largest member distance, so every weight
    is 1 (a NaN distance is not beyond a NaN radius either) and the geometry, which may
    be None there, is not read."""
    labels = np.asarray(labels, dtype=np.int64)
    if tau_multiplier == 1:
        return np.ones(labels.shape[0])
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


def kernel_scores(features, labels, config: WeightingConfig, scheme: str,
                  with_geometry: bool) -> tuple[np.ndarray, ClassGeometry | None]:
    """cp and the class geometry on normalized training features: the part of the
    weighting that does not depend on tau. The geometry, which only a tau below 1
    reads, is None unless ``with_geometry`` is set. One l x l array is held at a time,
    and freed on return: the distances overwrite K, so the class geometry must read K
    first."""
    _check_scheme(scheme)
    K = kernel_matrix(features, config)
    geometry = build_class_geometry(labels, K, scheme) if with_geometry else None
    sq = feature_space_distance_matrix(K)
    cp = class_probability(labels, resolve_delta(sq, config), sq)
    return cp, geometry


def compute_contribution_scores(features, labels, config: WeightingConfig,
                                scheme: str) -> ContributionScores:
    """Full weighting pipeline on normalized training features; the class geometry is
    built only for a tau below 1."""
    cp, geometry = kernel_scores(features, labels, config, scheme, config.tau_multiplier < 1)
    return contribution_scores(cp, huber_weights(labels, geometry, config.tau_multiplier))
