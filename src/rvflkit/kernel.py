"""RBF kernel evaluation and kernel-trick class geometry (centers, distances, radii)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class KernelParams:
    """RBF kernel K(x, y) = exp(-gamma * ||x - y||^2)."""

    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise KernelError(f"kernel gamma must be positive and finite, got {self.gamma!r}")


# Rows per block of the elementwise l x l work: a block of K or of the distances, and
# the same-shape temporary it needs, stay in cache while every step runs over them.
ROW_BLOCK = 64


def kernel_matrix(A, B, params: KernelParams) -> np.ndarray:
    """Pairwise kernel values, entry (i, j) = K(A_i, B_j)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise KernelError(f"column counts differ: {A.shape[1]} vs {B.shape[1]}")
    a2 = np.sum(A * A, axis=1)[:, None]
    b2 = np.sum(B * B, axis=1)
    # one whole GEMM (syrk when B is A): a row-blocked product would not be bit-equal
    K = A @ B.T
    tmp = np.empty((ROW_BLOCK, K.shape[1]))
    for i in range(0, K.shape[0], ROW_BLOCK):
        # (a2_i + b2_j) - 2 G_ij, clipped at 0, times -gamma, exponentiated
        blk = K[i:i + ROW_BLOCK]
        t = np.add(a2[i:i + ROW_BLOCK], b2, out=tmp[:blk.shape[0]])
        blk *= 2.0
        np.subtract(t, blk, out=blk)
        np.clip(blk, 0.0, None, out=blk)
        blk *= -params.gamma
        np.exp(blk, out=blk)
    return K


def feature_space_distance_matrix(K: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise feature-space distances from a square kernel matrix K(X, X).

    ``out`` may be K itself, which then holds the distances.
    """
    K = np.asarray(K, dtype=np.float64)
    diag = np.diag(K).copy()
    dist = np.empty_like(K) if out is None else out
    tmp = np.empty((ROW_BLOCK, K.shape[1]))
    for i in range(0, K.shape[0], ROW_BLOCK):
        # sqrt of (K_ii + K_jj) - 2 K_ij, clipped at 0; K's block is read before out
        # may overwrite it
        k_blk = K[i:i + ROW_BLOCK]
        twice = np.multiply(k_blk, 2.0, out=tmp[:k_blk.shape[0]])
        blk = np.add(diag[i:i + ROW_BLOCK, None], diag, out=dist[i:i + ROW_BLOCK])
        blk -= twice
        np.clip(blk, 0.0, None, out=blk)
        np.sqrt(blk, out=blk)
    return dist


def median_center(K_class: np.ndarray) -> np.ndarray:
    """Component-wise median over the class's kernel rows K(G_j, G_j).

    Equal, bit for bit, to ``np.median(K_class, axis=0)`` on NaN-free input, with one
    partition pivot where ``np.median`` uses two or three: for an even count the lower
    middle value is the largest entry below the pivot.
    """
    K_class = np.asarray(K_class, dtype=np.float64)
    if K_class.shape[0] == 0:
        raise KernelError("empty class")
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


def build_class_geometry(labels, K: np.ndarray, scheme: str) -> ClassGeometry:
    """Compute class centers, member distances, and radii under one scheme."""
    if scheme not in ("average", "median"):
        raise KernelError(f"unknown center scheme {scheme!r}")
    labels = np.asarray(labels, dtype=np.int64)
    l = labels.shape[0]
    if K.shape != (l, l):
        raise KernelError(f"kernel matrix shape {K.shape} does not match {l} labels")
    m = int(labels.max()) + 1
    distances = np.zeros(l)
    radii = np.zeros(m)
    for j in range(m):
        idx = np.flatnonzero(labels == j)
        if idx.size == 0:
            raise KernelError(f"class {j} has no members")
        block = K[np.ix_(idx, idx)]
        if scheme == "average":
            # ||theta(x_i) - mean||^2 = K_ii - 2/l_j sum_g K_ig + 1/l_j^2 sum_gg' K_gg'
            const = float(block.sum()) / (idx.size ** 2)
            sq = np.diag(K)[idx] - 2.0 / idx.size * block.sum(axis=1) + const
            d = np.sqrt(np.clip(sq, 0.0, None))
        else:
            # np.linalg.norm(block - center, axis=1), computed in the block itself
            block -= median_center(block)
            block *= block
            d = np.sqrt(np.add.reduce(block, axis=1))
        distances[idx] = d
        radii[j] = d.max()
    return ClassGeometry(radii, distances)
