"""Tabular dataset loading, normalization, label encoding, and stratified folds."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Raised for malformed or invalid dataset files."""


@dataclass(frozen=True)
class Dataset:
    """A classification dataset: feature matrix, integer labels, class names."""

    features: np.ndarray  # (l, n) float64
    labels: np.ndarray    # (l,) int64, values in 0..m-1
    class_names: tuple[str, ...]
    name: str = "dataset"

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 1:
            raise DataError(f"need a 2-d feature matrix with >=2 rows and >=1 column, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DataError("labels length must match feature rows")
        if not np.all(np.isfinite(X)):
            i, j = np.argwhere(~np.isfinite(X))[0]
            raise DataError(f"non-finite feature value at row {i}, column {j}")
        m = len(self.class_names)
        if m < 2:
            raise DataError("dataset must contain at least two classes")
        if len(set(self.class_names)) != m:
            raise DataError("class names must be distinct")
        if y.min() < 0 or y.max() >= m:
            raise DataError("labels out of range for the declared classes")
        present = np.bincount(y, minlength=m)
        if np.any(present == 0):
            missing = int(np.argmin(present))
            raise DataError(f"class {self.class_names[missing]!r} has no samples")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature min and range fitted on training rows (zero ranges become 1)."""

    minimum: np.ndarray
    range: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "minimum", np.asarray(self.minimum, dtype=np.float64))
        object.__setattr__(self, "range", np.asarray(self.range, dtype=np.float64))
        if np.any(self.range <= 0):
            raise DataError("normalization ranges must be positive")


@dataclass(frozen=True)
class FoldAssignment:
    fold_of_sample: np.ndarray  # (l,) ints in 0..k-1
    k: int
    seed: int

    def train_test_indices(self, fold: int):
        mask = self.fold_of_sample == fold
        idx = np.arange(len(self.fold_of_sample))
        return idx[~mask], idx[mask]


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"non-numeric feature value {text!r} at row {row}, column {col}") from None
    if math.isnan(value) or math.isinf(value):
        raise DataError(f"non-finite feature value {text!r} at row {row}, column {col}")
    return value


def load_csv(path, has_header: bool = False, label_column="last",
             name: str | None = None) -> Dataset:
    """Load a comma-separated dataset with one label column.

    Labels are encoded 0..m-1 in order of first appearance; row order is kept.
    """
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for rec in reader:
                if rec and any(cell.strip() for cell in rec):
                    rows.append([cell.strip() for cell in rec])
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if has_header and rows:
        rows = rows[1:]
    if not rows:
        raise DataError(f"{path}: no data rows")

    width = len(rows[0])
    label_idx = width - 1 if label_column == "last" else int(label_column)
    if not 0 <= label_idx < width:
        raise DataError(f"label column {label_column} out of range for {width} columns")
    if width < 2:
        raise DataError(f"{path}: need at least one feature column besides the label")

    features = []
    raw_labels = []
    for r, rec in enumerate(rows):
        if len(rec) != width:
            raise DataError(f"row {r} has {len(rec)} fields, expected {width}")
        raw_labels.append(rec[label_idx])
        feat_cells = rec[:label_idx] + rec[label_idx + 1:]
        features.append([_parse_cell(cell, r, c) for c, cell in enumerate(feat_cells)])

    class_names: list[str] = []
    index_of: dict[str, int] = {}
    labels = []
    for lab in raw_labels:
        if lab not in index_of:
            index_of[lab] = len(class_names)
            class_names.append(lab)
        labels.append(index_of[lab])
    if len(class_names) < 2:
        raise DataError(f"{path}: single class {class_names[0]!r}; need at least two")

    ds_name = name if name is not None else str(path)
    return Dataset(np.array(features), np.array(labels), class_names, ds_name)


def fit_normalization(train_features) -> NormalizationParams:
    X = np.asarray(train_features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("fit_normalization needs at least one row")
    mins = X.min(axis=0)
    rng = X.max(axis=0) - mins
    rng[rng == 0] = 1.0
    return NormalizationParams(mins, rng)


def apply_normalization(features, params: NormalizationParams) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.shape[1] != params.minimum.shape[0]:
        raise DataError(f"feature count {X.shape[1]} does not match normalization "
                        f"params ({params.minimum.shape[0]})")
    # Test-fold values may land outside [0, 1]; deliberately not clipped.
    return (X - params.minimum) / params.range


def one_hot(labels, m: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= m):
        raise DataError(f"label out of range 0..{m - 1}")
    out = np.zeros((len(y), m), dtype=np.float64)
    out[np.arange(len(y)), y] = 1.0
    return out


def stratified_k_fold(dataset: Dataset, k: int, seed: int) -> FoldAssignment:
    """Per-class shuffled round-robin fold assignment, deterministic in seed."""
    l = dataset.n_samples
    if k < 2:
        raise DataError("k must be >= 2")
    if k > l:
        raise DataError(f"k={k} exceeds sample count {l}")
    rng = np.random.default_rng(seed)
    fold = np.empty(l, dtype=np.int64)
    offset = 0  # rotates across classes so small classes don't pile into fold 0
    for c in range(dataset.n_classes):
        idx = np.flatnonzero(dataset.labels == c)
        idx = rng.permutation(idx)
        for i, sample in enumerate(idx):
            fold[sample] = (offset + i) % k
        offset = (offset + len(idx)) % k
    return FoldAssignment(fold, k, seed)
