"""Tabular dataset loading, normalization, label encoding, and stratified folds."""

from __future__ import annotations

import csv
import io
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


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"non-numeric feature value {text!r} at row {row}, column {col}") from None
    if math.isnan(value) or math.isinf(value):
        raise DataError(f"non-finite feature value {text!r} at row {row}, column {col}")
    return value


def _label_index(path, width: int, label_column, n_features: int | None) -> int | None:
    """Position of the label among a row's ``width`` fields. Given a model's
    ``n_features``, the width decides: rows of exactly that many fields hold no label
    (None), and rows of one field more hold one."""
    if n_features is not None:
        if width == n_features:
            return None
        if width != n_features + 1:
            raise DataError(f"{path}: rows have {width} fields; expected {n_features} "
                            f"(features only) or {n_features + 1} (features and a label)")
    label_idx = width - 1 if label_column == "last" else int(label_column)
    if not 0 <= label_idx < width:
        raise DataError(f"label column {label_column} out of range for {width} columns")
    if width < 2:
        raise DataError(f"{path}: need at least one feature column besides the label")
    return label_idx


def _read_text(path) -> str:
    """The whole file as text, line ends as written. Read once, so that a pipe works."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _csv_records(text, path) -> list[list[str]]:
    """The csv records of ``text`` that hold a non-blank cell, with every cell stripped.
    A csv error, such as a cell longer than ``csv.field_size_limit()``, is a one-line
    DataError that names ``path``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = [[cell.strip() for cell in rec] for rec in reader]
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    return [rec for rec in records if any(rec)]


def _read_cells(text, path, has_header, label_column, n_features=None):
    """The exact reader of a file's ``text``: csv-module rows, stripped cells, one
    ``float()`` per feature cell, and errors that name the row and column. Returns what
    ``read_features`` does."""
    rows = _csv_records(text, path)
    if has_header and rows:
        rows = rows[1:]
    if not rows:
        raise DataError(f"{path}: no data rows")

    width = len(rows[0])
    label_idx = _label_index(path, width, label_column, n_features)
    features = []
    raw_labels = []
    for r, rec in enumerate(rows):
        if len(rec) != width:
            raise DataError(f"row {r} has {len(rec)} fields, expected {width}")
        if label_idx is not None:
            raw_labels.append(rec[label_idx])
            rec = rec[:label_idx] + rec[label_idx + 1:]
        features.append([_parse_cell(cell, r, c) for c, cell in enumerate(rec)])
    return np.array(features), raw_labels if label_idx is not None else None


# line breaks of str.splitlines other than \n, \r and \r\n, the csv module's own
_SPLITLINES_ONLY = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _read_loadtxt(text, path, has_header, label_column, n_features):
    """``_read_cells`` in one ``np.loadtxt`` pass. Raises ValueError on every input it
    might read differently: any quote, a blank first line, a ragged row (the structured
    dtype takes exactly ``width`` fields), a cell ``loadtxt`` cannot parse (``1_0``,
    blank cells), a non-finite value or a line break that only ``str.splitlines``
    splits on."""
    if '"' in text or any(c in text for c in _SPLITLINES_ONLY):
        raise ValueError("a quote, or a line break the csv module does not split on")
    lines = text.splitlines()
    skip = 1 if has_header else 0
    head = lines[:skip + 1]
    # the csv reader skips rows of blank cells, where skiprows counts lines
    if len(head) <= skip or not all(line.replace(",", "").strip() for line in head):
        raise ValueError("blank line before the first data row")
    width = head[-1].count(",") + 1
    label_idx = _label_index(path, width, label_column, n_features)
    dtype = [(f"c{j}", object if j == label_idx else "f8") for j in range(width)]
    table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, skiprows=skip,
                       ndmin=1)
    features = np.column_stack([table[f"c{j}"] for j in range(width) if j != label_idx])
    if not np.all(np.isfinite(features)):
        raise ValueError("non-finite feature value")
    if label_idx is None:
        return features, None
    return features, [cell.strip() for cell in table[f"c{label_idx}"]]


def read_features(path, has_header: bool = False, label_column="last",
                  n_features: int | None = None):
    """Feature matrix and stripped label cells of a comma-separated file, in file order.

    Blank rows are skipped. Labels are None when ``n_features`` is given and the rows
    hold exactly that many fields (see ``_label_index``). The file is read with one
    ``np.loadtxt`` pass; any input that pass may read differently goes to the per-cell
    reader, which gives the same result or the error that names the bad cell. Both parse
    the same text, read from ``path`` once.
    """
    text = _read_text(path)
    try:
        return _read_loadtxt(text, path, has_header, label_column, n_features)
    except ValueError:
        pass  # outside the handler, the fast path's frame and its lines are freed
    return _read_cells(text, path, has_header, label_column, n_features)


def _encode_labels(path, raw_labels):
    """Label cells as 0..m-1 in order of first appearance, and the class names."""
    class_names: list[str] = []
    index_of: dict[str, int] = {}
    labels = []
    for r, lab in enumerate(raw_labels):
        if not lab:
            raise DataError(f"{path}: empty label at row {r}")
        if lab not in index_of:
            index_of[lab] = len(class_names)
            class_names.append(lab)
        labels.append(index_of[lab])
    if len(class_names) < 2:
        raise DataError(f"{path}: single class {class_names[0]!r}; need at least two")
    return np.array(labels), class_names


def load_csv(path, has_header: bool = False, label_column="last",
             name: str | None = None) -> Dataset:
    """Load a comma-separated dataset with one label column.

    Labels are encoded 0..m-1 in order of first appearance; row order is kept.
    """
    features, raw_labels = read_features(path, has_header, label_column)
    labels, class_names = _encode_labels(path, raw_labels)
    ds_name = name if name is not None else str(path)
    return Dataset(features, labels, class_names, ds_name)


def fit_normalization(train_features) -> NormalizationParams:
    X = np.asarray(train_features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("fit_normalization needs at least one row")
    mins = X.min(axis=0)
    maxs = X.max(axis=0)
    with np.errstate(over="ignore"):
        rng = maxs - mins
    if np.any(np.isinf(rng)):
        j = int(np.flatnonzero(np.isinf(rng))[0])
        raise DataError(f"feature column {j} spans {float(mins[j])!r} to {float(maxs[j])!r}; "
                        "its range overflows float64")
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


def stratified_k_fold(dataset: Dataset, k: int, seed: int) -> np.ndarray:
    """Each sample's fold in 0..k-1, an (l,) int array: per-class shuffled round-robin,
    deterministic in seed."""
    l = dataset.n_samples
    if k < 2:
        raise DataError("k must be >= 2")
    if k > l:
        raise DataError(f"k={k} exceeds sample count {l}")
    rng = np.random.default_rng(seed)
    fold = np.empty(l, dtype=np.int64)
    offset = 0  # rotates across classes so small classes don't pile into fold 0
    for c in range(dataset.n_classes):
        idx = rng.permutation(np.flatnonzero(dataset.labels == c))
        fold[idx] = (offset + np.arange(idx.size)) % k
        offset = (offset + idx.size) % k
    return fold
