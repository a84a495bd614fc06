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
    kind: str = "rbf"

    def __post_init__(self):
        if self.kind != "rbf":
            raise KernelError(f"unsupported kernel kind {self.kind!r}")
        if not self.gamma > 0:
            raise KernelError("gamma must be positive")


def kernel_matrix(A, B, params: KernelParams) -> np.ndarray:
    """Pairwise kernel values, entry (i, j) = K(A_i, B_j)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise KernelError(f"column counts differ: {A.shape[1]} vs {B.shape[1]}")
    sq = (np.sum(A * A, axis=1)[:, None]
          + np.sum(B * B, axis=1)[None, :]
          - 2.0 * (A @ B.T))
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-params.gamma * sq)


def feature_space_distance_matrix(K: np.ndarray) -> np.ndarray:
    """Pairwise feature-space distances from a square kernel matrix K(X, X)."""
    K = np.asarray(K, dtype=np.float64)
    diag = np.diag(K)
    sq = diag[:, None] + diag[None, :] - 2.0 * K
    np.clip(sq, 0.0, None, out=sq)
    return np.sqrt(sq)


def median_center(class_indices, K_class: np.ndarray) -> np.ndarray:
    """Component-wise median over the class's kernel rows K(G_j, G_j)."""
    K_class = np.asarray(K_class, dtype=np.float64)
    if len(class_indices) == 0 or K_class.shape[0] == 0:
        raise KernelError("empty class")
    return np.median(K_class, axis=0)


@dataclass(frozen=True)
class ClassGeometry:
    """Per-class radii and member distances for one center scheme, over a training kernel matrix."""

    scheme: str                       # "average" | "median"
    class_indices: tuple              # tuple of index arrays, one per class
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
    idx_lists = []
    distances = np.zeros(l)
    radii = np.zeros(m)
    for j in range(m):
        idx = np.flatnonzero(labels == j)
        if idx.size == 0:
            raise KernelError(f"class {j} has no members")
        idx_lists.append(idx)
        block = K[np.ix_(idx, idx)]
        if scheme == "average":
            # ||theta(x_i) - mean||^2 = K_ii - 2/l_j sum_g K_ig + 1/l_j^2 sum_gg' K_gg'
            const = float(block.sum()) / (idx.size ** 2)
            sq = np.diag(K)[idx] - 2.0 / idx.size * block.sum(axis=1) + const
            d = np.sqrt(np.clip(sq, 0.0, None))
        else:
            center = median_center(idx, block)
            d = np.linalg.norm(block - center[None, :], axis=1)
        distances[idx] = d
        radii[j] = d.max()
    return ClassGeometry(scheme, tuple(idx_lists), radii, distances)
