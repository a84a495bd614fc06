"""Cross-validation, exhaustive grid search, and benchmark-table assembly.

``cross_validate`` and ``grid_search`` run the same fold code: ``_FoldContext``
caches one fold's kernel, distances, delta and scores, and its ``evaluate``
fits one config with ``model.forward``/``model.fit_output_weights``. So
``cross_validate(..., config_index=i)`` reproduces grid cell ``i`` exactly.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np
import scipy.stats

from .data import DataError, Dataset, FoldAssignment, apply_normalization, fit_normalization, \
    one_hot, stratified_k_fold
from .kernel import KernelParams, feature_space_distance_matrix, kernel_matrix
from .model import ModelConfig, fit_output_weights, forward, init_random_layer
from .weighting import WeightingConfig, resolve_delta, score_samples


def accuracy(pred, truth) -> float:
    """Percent of matching labels."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError("prediction and truth must be nonempty vectors of equal length")
    return 100.0 * float(np.mean(pred == truth))


def fold_seed(master_seed: int, config_index: int, fold: int) -> int:
    """Deterministic per-(config, fold) seed, stable across execution orders."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), int(config_index), int(fold)))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class CVResult:
    fold_accuracies: np.ndarray  # NaN for skipped folds
    mean: float
    skipped_folds: tuple[int, ...] = ()


def cross_validate(dataset: Dataset, config: ModelConfig, k: int, seed: int,
                   assignment: FoldAssignment | None = None,
                   config_index: int = 0) -> CVResult:
    """k-fold CV: normalization and weighting are fitted on the training folds only."""
    if assignment is None:
        assignment = stratified_k_fold(dataset, k, seed)
    # one fold is built and released at a time: each holds l x l kernel matrices
    contexts = (_FoldContext(dataset, assignment, f) for f in range(k))
    accs, mean = _fold_accuracies(contexts, config, seed, config_index, k)
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
    delta: float | None = None
    delta_quantile: float = 0.5

    def __post_init__(self):
        for g in (self.gamma_grid, self.hidden_grid, self.kernel_grid, self.tau_grid):
            if len(g) == 0:
                raise ValueError("grids must be nonempty")


def enumerate_configs(variant: str, grid: GridSpec) -> list[ModelConfig]:
    """Deterministic iteration order: gamma, then hidden nodes, then kernel, then tau."""
    robust = variant in ("r2vfl-a", "r2vfl-m")
    scheme = "average" if variant == "r2vfl-a" else "median"
    configs = []
    for gamma in grid.gamma_grid:
        for hidden in grid.hidden_grid:
            if not robust:
                configs.append(ModelConfig(variant, hidden, gamma))
                continue
            for kg in grid.kernel_grid:
                for tau in grid.tau_grid:
                    w = WeightingConfig(kernel=KernelParams(gamma=kg), tau_multiplier=tau,
                                        center_scheme=scheme, delta=grid.delta,
                                        delta_quantile=grid.delta_quantile)
                    configs.append(ModelConfig(variant, hidden, gamma, weighting=w))
    return configs


class _FoldContext:
    """One fold's normalized arrays plus kernel and score caches shared across configs."""

    def __init__(self, dataset: Dataset, assignment: FoldAssignment, f: int):
        self.fold = f
        tr_idx, te_idx = assignment.train_test_indices(f)
        self.ok = np.unique(dataset.labels[tr_idx]).size == dataset.n_classes
        if not self.ok:
            return  # a class is absent from the training folds: the fold is skipped
        norm = fit_normalization(dataset.features[tr_idx])
        self.X_tr = apply_normalization(dataset.features[tr_idx], norm)
        self.X_te = apply_normalization(dataset.features[te_idx], norm)
        self.y_tr = dataset.labels[tr_idx]
        self.y_te = dataset.labels[te_idx]
        self.Y_tr = one_hot(self.y_tr, dataset.n_classes)
        self._kernel_cache: dict = {}
        self._score_cache: dict = {}

    def _kernel_entry(self, w: WeightingConfig):
        key = (w.kernel, w.delta, w.delta_quantile)
        if key not in self._kernel_cache:
            K = kernel_matrix(self.X_tr, self.X_tr, w.kernel)
            dist = feature_space_distance_matrix(K)
            self._kernel_cache[key] = (K, dist, resolve_delta(dist, w))
        return self._kernel_cache[key]

    def scores(self, w: WeightingConfig) -> np.ndarray:
        if w not in self._score_cache:
            K, dist, delta = self._kernel_entry(w)
            self._score_cache[w] = score_samples(self.y_tr, K, dist, delta, w).r
        return self._score_cache[w]

    def evaluate(self, config: ModelConfig, seed: int) -> float:
        layer = init_random_layer(self.X_tr.shape[1], config.hidden_nodes, seed)
        r = self.scores(config.resolved_weighting()) if config.robust else None
        W2 = fit_output_weights(forward(self.X_tr, layer, config), self.Y_tr, r, config.gamma)
        labels = np.argmax(forward(self.X_te, layer, config) @ W2, axis=1)
        return accuracy(labels, self.y_te)


def _fold_accuracies(contexts, config: ModelConfig, seed: int, config_index: int, k: int):
    """Per-fold accuracies (NaN for skipped folds) and their mean for one config."""
    accs = np.full(k, np.nan)
    for ctx in contexts:
        if ctx.ok:
            accs[ctx.fold] = ctx.evaluate(config, fold_seed(seed, config_index, ctx.fold))
    valid = accs[~np.isnan(accs)]
    if valid.size == 0:
        raise DataError("every fold was skipped; dataset too small for this split")
    return accs, float(valid.mean())


def _evaluate_chunk(dataset, variant, grid, indices):
    configs = enumerate_configs(variant, grid)
    assignment = stratified_k_fold(dataset, grid.k, grid.seed)
    contexts = [_FoldContext(dataset, assignment, f) for f in range(grid.k)]
    out = []
    for ci in indices:
        accs, mean = _fold_accuracies(contexts, configs[ci], grid.seed, ci, grid.k)
        out.append((ci, mean, accs))
    return out


@dataclass(frozen=True)
class GridSearchResult:
    best_config: ModelConfig
    best_mean: float
    trace: tuple  # tuples of (config, mean accuracy, per-fold accuracies)


def grid_search(dataset: Dataset, variant: str, grid: GridSpec,
                jobs: int = 1) -> GridSearchResult:
    """Exhaustive search; ties break to the earliest config in iteration order.

    Results are independent of the worker count.
    """
    configs = enumerate_configs(variant, grid)
    indices = list(range(len(configs)))
    if jobs <= 1 or len(configs) == 1:
        results = _evaluate_chunk(dataset, variant, grid, indices)
    else:
        chunks = [indices[i::jobs] for i in range(jobs)]
        chunks = [c for c in chunks if c]
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(_evaluate_chunk, dataset, variant, grid, c) for c in chunks]
            results = [item for fut in futures for item in fut.result()]
        results.sort(key=lambda t: t[0])
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
        if np.any(np.isnan(acc)):
            raise ValueError("benchmark table contains NaN accuracies")
        rank = np.vstack([scipy.stats.rankdata(-row, method="average") for row in acc])
        return cls(tuple(model_names), tuple(dataset_names), acc, rank)


def average_ranks(table: BenchmarkTable) -> np.ndarray:
    """Column means of the rank matrix (lower is better)."""
    return table.rank.mean(axis=0)
