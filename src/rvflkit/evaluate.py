"""Cross-validation, exhaustive grid search, and benchmark-table assembly.

``cross_validate`` and ``grid_search`` run the same fold code: ``_FoldContext``
caches one fold's ``weighting.kernel_scores`` (cp and the class geometry, the
tau-free half of the weighting that ``train`` runs too) per kernel entry and
center scheme, and keeps no l x l matrix between configs. Its ``evaluate`` fits
a group of configs with ``model.forward``/``model.fit_output_weights``.
The grid is a shared ridge path: per fold, configs with the same hidden-node
count share one random layer (seeded by ``fold_seed(seed, hidden_nodes, fold)``)
and its activations, those that also share a weighting share one Gram matrix,
and each ridge gamma costs one factorization. Every cell still equals the
fit of its config alone, bit for bit, so ``cross_validate(dataset, config, k,
seed)`` reproduces the grid cell of ``config``.

Both fit with one BLAS thread per process: ``solver.single_blas_thread`` wraps
``cross_validate`` and ``_evaluate_chunk``, which runs the serial grid and is
each pool worker's entry point. ``grid_search(jobs=N)`` uses N cores through N
worker processes from ``worker_pool``, one chunk of the grid each. A caller that
runs many grids, such as ``bench``, instead maps whole serial grids over one
``worker_pool``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
from dataclasses import dataclass, replace

import numpy as np

from .data import DataError, Dataset, apply_normalization, fit_normalization, one_hot, \
    stratified_k_fold
from .model import CENTER_SCHEMES, ModelConfig, fit_output_weights, forward, init_random_layer
from .solver import single_blas_thread
from .stats import rankdata
from .weighting import WeightingConfig, contribution_scores, huber_weights, kernel_scores


def accuracy(pred, truth) -> float:
    """Percent of matching labels."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError("prediction and truth must be nonempty vectors of equal length")
    return 100.0 * float(np.mean(pred == truth))


def fold_seed(master_seed: int, hidden_nodes: int, fold: int) -> int:
    """Seed of the random layer with ``hidden_nodes`` nodes in fold ``fold``; every config
    with that node count shares it, whatever the execution order."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), int(hidden_nodes), int(fold)))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class CVResult:
    fold_accuracies: np.ndarray  # NaN for skipped folds
    mean: float
    skipped_folds: tuple[int, ...] = ()


@single_blas_thread()
def cross_validate(dataset: Dataset, config: ModelConfig, k: int, seed: int) -> CVResult:
    """k-fold CV: normalization and weighting are fitted on the training folds only."""
    (accs,), (mean,) = _fold_accuracies(dataset, [config], k, seed)
    skipped = tuple(int(f) for f in np.flatnonzero(np.isnan(accs)))
    return CVResult(accs, mean, skipped)


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grids; defaults follow the standard benchmarking ranges."""

    gamma_grid: tuple = tuple(10.0 ** e for e in range(-5, 6))
    hidden_grid: tuple = tuple(range(3, 204, 20))
    kernel_grid: tuple = tuple(2.0 ** e for e in range(-5, 6))
    tau_grid: tuple = (0.5, 0.625, 0.75, 0.875, 1.0)
    k: int = 5
    seed: int = 0
    delta: float | None = WeightingConfig.delta
    delta_quantile: float = WeightingConfig.delta_quantile

    def __post_init__(self):
        for g in (self.gamma_grid, self.hidden_grid, self.kernel_grid, self.tau_grid):
            if len(g) == 0:
                raise ValueError("grids must be nonempty")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def enumerate_configs(variant: str, grid: GridSpec) -> list[ModelConfig]:
    """Deterministic iteration order: gamma, then hidden nodes, then kernel, then tau."""
    configs = []
    for gamma in grid.gamma_grid:
        for hidden in grid.hidden_grid:
            if variant not in CENTER_SCHEMES:
                configs.append(ModelConfig(variant, hidden, gamma))
                continue
            for kg in grid.kernel_grid:
                for tau in grid.tau_grid:
                    w = WeightingConfig(kernel_gamma=kg, tau_multiplier=tau,
                                        delta=grid.delta, delta_quantile=grid.delta_quantile)
                    configs.append(ModelConfig(variant, hidden, gamma, weighting=w))
    return configs


class _FoldContext:
    """One fold's normalized arrays plus the kernel cache its configs share; ``test``
    marks the fold's test rows."""

    def __init__(self, dataset: Dataset, test: np.ndarray):
        train = ~test
        norm = fit_normalization(dataset.features[train])
        self.X_tr = apply_normalization(dataset.features[train], norm)
        self.X_te = apply_normalization(dataset.features[test], norm)
        self.y_tr = dataset.labels[train]
        self.y_te = dataset.labels[test]
        self.Y_tr = one_hot(self.y_tr, dataset.n_classes)
        self._kernel_cache: dict = {}

    def _kernel_entry(self, w: WeightingConfig, scheme: str):
        """``kernel_scores`` (cp and the class geometry) for a weighting and a center
        scheme; they do not depend on tau, so the key is the weighting at tau = 1."""
        key = (replace(w, tau_multiplier=1.0), scheme)
        if key not in self._kernel_cache:
            self._kernel_cache[key] = kernel_scores(self.X_tr, self.y_tr, w, scheme)
        return self._kernel_cache[key]

    def scores(self, config: ModelConfig) -> np.ndarray:
        """Scores r = cp * m of a robust config: its kernel entry, then the Huber weights
        m of its tau."""
        w = config.weighting
        cp, geometry = self._kernel_entry(w, CENTER_SCHEMES[config.variant])
        return contribution_scores(cp, huber_weights(self.y_tr, geometry, w.tau_multiplier)).r

    def evaluate(self, configs, seed: int) -> list[float]:
        """Test accuracy of each config. The configs differ only in ridge gamma and
        weighting, so they share the random layer drawn from ``seed`` and its
        activations; configs with the same weighting share one Gram matrix."""
        first = configs[0]
        layer = init_random_layer(self.X_tr.shape[1], first.hidden_nodes, seed)
        design_tr = forward(self.X_tr, layer, first)
        design_te = forward(self.X_te, layer, first)
        by_weighting: dict = {}
        for i, config in enumerate(configs):
            by_weighting.setdefault(config.weighting, []).append(i)
        accs = [0.0] * len(configs)
        for idx in by_weighting.values():
            r = self.scores(configs[idx[0]]) if first.robust else None
            W2s = fit_output_weights(design_tr, self.Y_tr, r, [configs[i].gamma for i in idx])
            for i, W2 in zip(idx, W2s):
                accs[i] = accuracy(np.argmax(design_te @ W2, axis=1), self.y_te)
        return accs


def _fold_accuracies(dataset: Dataset, configs, k: int, seed: int):
    """Per-fold accuracies (rows of NaN for skipped folds) and their means, one per config.

    Configs must share the variant and activation. One fold is built and released
    at a time.
    """
    folds = stratified_k_fold(dataset, k, seed)
    by_hidden: dict = {}
    for i, config in enumerate(configs):
        by_hidden.setdefault(config.hidden_nodes, []).append(i)
    accs = np.full((len(configs), k), np.nan)
    for f in range(k):
        test = folds == f
        if np.unique(dataset.labels[~test]).size < dataset.n_classes:
            continue  # a class is absent from the training folds: the fold is skipped
        ctx = _FoldContext(dataset, test)
        for hidden, idx in by_hidden.items():
            accs[idx, f] = ctx.evaluate([configs[i] for i in idx], fold_seed(seed, hidden, f))
    valid = [row[~np.isnan(row)] for row in accs]
    if valid[0].size == 0:
        raise DataError("every fold was skipped; dataset too small for this split")
    return accs, [float(v.mean()) for v in valid]


@single_blas_thread()
def _evaluate_chunk(dataset, variant, grid, indices):
    configs = enumerate_configs(variant, grid)
    accs, means = _fold_accuracies(dataset, [configs[ci] for ci in indices], grid.k, grid.seed)
    return list(zip(indices, means, accs))


def _shared_groups(configs) -> list[list[int]]:
    """Config indices grouped by (weighting, hidden nodes), weighting-major. A group
    shares a random layer and a Gram matrix per fold; neighbouring groups share the
    fold's kernel cache."""
    groups: dict = {}
    for i, config in enumerate(configs):
        groups.setdefault(config.weighting, {}).setdefault(config.hidden_nodes, []).append(i)
    return [idx for by_hidden in groups.values() for idx in by_hidden.values()]


@dataclass(frozen=True)
class GridSearchResult:
    best_config: ModelConfig
    best_mean: float
    trace: tuple  # tuples of (config, mean accuracy, per-fold accuracies)


@contextlib.contextmanager
def worker_pool(jobs: int):
    """None for ``jobs`` <= 1; else a pool of ``jobs`` worker processes, forked under one
    BLAS thread so that each worker starts with the count its fold code runs with."""
    if jobs <= 1:
        yield None
        return
    with single_blas_thread(), concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool


def grid_search(dataset: Dataset, variant: str, grid: GridSpec,
                jobs: int = 1) -> GridSearchResult:
    """Exhaustive search; ties break to the earliest config in iteration order.

    With ``jobs`` > 1 the grid is split into up to ``jobs`` chunks, run on a pool of
    its own. Results are independent of the worker count.
    """
    configs = enumerate_configs(variant, grid)
    groups = _shared_groups(configs)
    n = min(jobs, len(groups))
    if n <= 1:
        results = _evaluate_chunk(dataset, variant, grid, range(len(configs)))
    else:
        # each worker takes a contiguous run of whole groups
        chunks = [sum(groups[j * len(groups) // n:(j + 1) * len(groups) // n], [])
                  for j in range(n)]
        with worker_pool(n) as pool:
            futures = [pool.submit(_evaluate_chunk, dataset, variant, grid, c) for c in chunks]
            results = sorted((item for fut in futures for item in fut.result()),
                             key=lambda t: t[0])
    trace = tuple((configs[ci], mean, accs) for ci, mean, accs in results)
    best_i = max(range(len(trace)), key=lambda i: (trace[i][1], -i))
    return GridSearchResult(trace[best_i][0], trace[best_i][1], trace)


@dataclass(frozen=True)
class BenchmarkTable:
    """Accuracy matrix (datasets x models) with its fractional rank matrix."""

    model_names: tuple[str, ...]
    dataset_names: tuple[str, ...]
    accuracy: np.ndarray  # (D, p) percent
    rank: np.ndarray      # (D, p), rank 1 = best, ties averaged

    @classmethod
    def from_accuracy(cls, model_names, dataset_names, accuracy) -> "BenchmarkTable":
        acc = np.asarray(accuracy, dtype=np.float64)
        if acc.size == 0:
            raise ValueError("empty benchmark table")
        if not np.isfinite(acc).all():
            raise ValueError("benchmark table contains non-finite accuracies")
        rank = np.vstack([rankdata(-row) for row in acc])
        return cls(tuple(model_names), tuple(dataset_names), acc, rank)


def average_ranks(table: BenchmarkTable) -> np.ndarray:
    """Column means of the rank matrix (lower is better)."""
    return table.rank.mean(axis=0)
