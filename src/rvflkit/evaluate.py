"""Cross-validation, exhaustive grid search, and benchmark-table assembly.

``cross_validate`` and ``grid_search`` run the same fold code: ``_FoldContext``
normalizes one fold and caches its ``weighting.kernel_scores`` (cp and the class
geometries, the tau-free half of the weighting that ``train`` runs too) per kernel
entry, and keeps no l x l matrix between configs. A kernel entry serves every
robust variant, since cp does not depend on the center scheme; it builds the class
geometry of a scheme only when some config of that scheme has tau < 1, the only
Huber weights that read it. The context's ``evaluate`` fits a group of configs with
``model.forward``/``model.fit_output_weights``.
The grid is a shared ridge path: per fold, configs with the same hidden-node
count share one random layer (seeded by ``fold_seed(seed, hidden_nodes, fold)``),
whatever their variant, and one design matrix [X, H] per side, whose H block elm
takes as a contiguous copy. Each distinct (direct link, weight vector r) costs one
Gram matrix and one factorization per ridge gamma. A weighting whose r repeats an
earlier one's bytes (with delta at a quantile, cp ignores kernel gamma; at tau = 1,
r = cp for both robust variants) reuses its accuracies. Every cell equals the fit
of its config alone, bit for bit, so ``cross_validate(dataset, config, k, seed)``
reproduces the grid cell of ``config``.

Both fit with one BLAS thread per process: ``solver.single_blas_thread`` wraps
``cross_validate`` and ``_evaluate_chunk``, which runs one chunk of a data set's
grids and is each pool worker's entry point. ``grid_searches`` schedules the grids
of ``grid`` and ``bench`` over one ``worker_pool``, by each data set's share of the
work; any ``jobs`` > 1 forks the pool, however small the grids. The workers are
forked at one BLAS thread, so their ``single_blas_thread`` makes no OpenBLAS set
call; run from the CLI, whose process stays at one thread, the parent makes none
after the pool either (see ``solver`` for why that matters).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import itertools
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
    return 100.0 * (np.count_nonzero(pred == truth) / pred.size)


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
    weightings = [None]
    if variant in CENTER_SCHEMES:
        weightings = [WeightingConfig(kernel_gamma=kg, tau_multiplier=tau, delta=grid.delta,
                                      delta_quantile=grid.delta_quantile)
                      for kg, tau in itertools.product(grid.kernel_grid, grid.tau_grid)]
    return [ModelConfig(variant, hidden, gamma, weighting=w) for gamma, hidden, w
            in itertools.product(grid.gamma_grid, grid.hidden_grid, weightings)]


class _FoldContext:
    """One fold's normalized arrays plus the kernel cache its configs share; ``test``
    marks the fold's test rows, and ``schemes`` the center schemes whose class
    geometry some config reads (one with tau < 1), by default both."""

    def __init__(self, dataset: Dataset, test: np.ndarray,
                 schemes=tuple(CENTER_SCHEMES.values())):
        train = ~test
        X_tr = dataset.features[train]
        norm = fit_normalization(X_tr)
        self.X_tr = apply_normalization(X_tr, norm)
        self.X_te = apply_normalization(dataset.features[test], norm)
        self.y_tr = dataset.labels[train]
        self.y_te = dataset.labels[test]
        self.Y_tr = one_hot(self.y_tr, dataset.n_classes)
        self.schemes = tuple(schemes)
        self._kernel_cache: dict = {}

    def _kernel_entry(self, w: WeightingConfig):
        """``kernel_scores`` (cp and the class geometries) of a weighting, for every
        robust variant; they do not depend on tau, so the key is the weighting at tau = 1."""
        key = replace(w, tau_multiplier=1.0)
        if key not in self._kernel_cache:
            self._kernel_cache[key] = kernel_scores(self.X_tr, self.y_tr, w, self.schemes)
        return self._kernel_cache[key]

    def scores(self, config: ModelConfig) -> np.ndarray:
        """Scores r = cp * m of a robust config: its kernel entry, then the Huber weights
        m of its tau against its variant's class geometry."""
        w = config.weighting
        cp, geometries = self._kernel_entry(w)
        geometry = geometries.get(CENTER_SCHEMES[config.variant])
        return contribution_scores(cp, huber_weights(self.y_tr, geometry, w.tau_multiplier)).r

    def _designs(self, configs, seed: int) -> dict:
        """The train and test design matrices of each direct link among ``configs``, from
        one random layer drawn from ``seed`` and one [X, H] per side: without the direct
        link (elm) the design is a contiguous copy of the H block, the bytes that
        ``forward`` gives it."""
        lead = next((c for c in configs if c.direct_link), configs[0])
        layer = init_random_layer(self.X_tr.shape[1], lead.hidden_nodes, seed)
        designs = {lead.direct_link: (forward(self.X_tr, layer, lead),
                                      forward(self.X_te, layer, lead))}
        if lead.direct_link and not all(c.direct_link for c in configs):
            n = self.X_tr.shape[1]
            designs[False] = tuple(np.ascontiguousarray(d[:, n:]) for d in designs[True])
        return designs

    def evaluate(self, configs, seed: int) -> list[float]:
        """Test accuracy of each config. The configs differ only in variant, ridge gamma
        and weighting, so they share the random layer drawn from ``seed`` and its
        activations; configs of the same variant and weighting share one Gram matrix, and
        a group whose direct link, r and ridge gammas repeat an earlier one's reuses its
        fit, whatever the variant."""
        designs = self._designs(configs, seed)
        groups: dict = {}
        for i, config in enumerate(configs):
            groups.setdefault((config.variant, config.weighting), []).append(i)
        accs = [0.0] * len(configs)
        fitted: dict = {}  # (direct link, r bytes, ridge gammas) -> accuracies
        for idx in groups.values():
            config = configs[idx[0]]
            r = self.scores(config) if config.robust else None
            gammas = tuple(configs[i].gamma for i in idx)
            key = (config.direct_link, None if r is None else r.tobytes(), gammas)
            if key not in fitted:
                design_tr, design_te = designs[config.direct_link]
                W2s = fit_output_weights(design_tr, self.Y_tr, r, gammas)
                fitted[key] = [accuracy(np.argmax(design_te @ W2, axis=1), self.y_te)
                               for W2 in W2s]
            for i, acc in zip(idx, fitted[key]):
                accs[i] = acc
        return accs


def _fold_accuracies(dataset: Dataset, configs, k: int, seed: int):
    """Per-fold accuracies (rows of NaN for skipped folds) and their means, one per config.

    Configs must share the activation; their variants may differ, and all of them are
    fitted on one ``_FoldContext`` per fold. One fold is built and released at a time.
    """
    folds = stratified_k_fold(dataset, k, seed)
    by_hidden: dict = {}
    for i, config in enumerate(configs):
        by_hidden.setdefault(config.hidden_nodes, []).append(i)
    schemes = dict.fromkeys(CENTER_SCHEMES[c.variant] for c in configs
                            if c.robust and c.weighting.tau_multiplier < 1)
    accs = np.full((len(configs), k), np.nan)
    for f in range(k):
        test = folds == f
        if not np.bincount(dataset.labels[~test], minlength=dataset.n_classes).all():
            continue  # a class is absent from the training folds: the fold is skipped
        ctx = _FoldContext(dataset, test, schemes)
        for hidden, idx in by_hidden.items():
            accs[idx, f] = ctx.evaluate([configs[i] for i in idx], fold_seed(seed, hidden, f))
    valid = [row[~np.isnan(row)] for row in accs]
    if valid[0].size == 0:
        raise DataError("every fold was skipped; dataset too small for this split")
    return accs, [float(v.mean()) for v in valid]


def _unit_configs(variants, grid: GridSpec) -> list[ModelConfig]:
    """The configs of one data set's grids: each variant's, in the order given."""
    return [c for variant in variants for c in enumerate_configs(variant, grid)]


@single_blas_thread()
def _evaluate_chunk(dataset, variants, grid, indices):
    configs = _unit_configs(variants, grid)
    accs, means = _fold_accuracies(dataset, [configs[ci] for ci in indices], grid.k, grid.seed)
    return list(zip(indices, means, accs))


def _chunks(configs, n: int) -> list[list[int]]:
    """Config indices in up to ``n`` contiguous runs of whole groups. A group holds the
    configs of one (weighting, hidden nodes), weighting-major, of every variant: they
    share a random layer per fold, and at tau = 1 the robust variants share a Gram
    matrix; neighbouring groups share the fold's kernel cache."""
    by_weighting: dict = {}
    for i, c in enumerate(configs):
        by_weighting.setdefault(c.weighting, {}).setdefault(c.hidden_nodes, []).append(i)
    groups = [idx for by_hidden in by_weighting.values() for idx in by_hidden.values()]
    n = min(n, len(groups))
    return [sum(groups[j * len(groups) // n:(j + 1) * len(groups) // n], []) for j in range(n)]


@dataclass(frozen=True)
class GridSearchResult:
    best_config: ModelConfig
    best_mean: float
    trace: tuple  # tuples of (config, mean accuracy, per-fold accuracies)


@contextlib.contextmanager
def worker_pool(jobs: int):
    """The builtin ``map`` for ``jobs`` <= 1; else the ``map`` of a pool of ``jobs`` worker
    processes, forked (where the platform can fork) under one BLAS thread, the count
    their fold code runs with."""
    if jobs <= 1:
        yield map
        return
    import multiprocessing  # here, as concurrent.futures imports its pool: only a pool pays

    context = (multiprocessing.get_context("fork")
               if "fork" in multiprocessing.get_all_start_methods() else None)
    with single_blas_thread(), concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=context) as pool:
        yield pool.map


def grid_searches(problems, grid: GridSpec, jobs: int = 1) -> list[list[GridSearchResult]]:
    """``grid_search`` of each variant of each (dataset, distinct variants) pair in
    ``problems``, on one pool. A data set's grids are one unit of w = rows x the configs
    of all its variants, cut into min(ceil(jobs * w / total w), groups) runs of whole
    groups that span the variants; the runs of all units go out largest first by rows x
    configs, ties in problem order. Returns, per problem, one result per variant."""
    configs = [_unit_configs(variants, grid) for _, variants in problems]
    work = [len(dataset.labels) * len(c) for (dataset, _), c in zip(problems, configs)]
    tasks = [(p, indices) for p, unit in enumerate(configs) if unit
             for indices in _chunks(unit, -(-jobs * work[p] // sum(work)))]
    tasks.sort(key=lambda t: -len(problems[t[0]][0].labels) * len(t[1]))
    traces = [[None] * len(c) for c in configs]
    with worker_pool(min(jobs, len(tasks))) as pool_map:
        chunks = pool_map(_evaluate_chunk, [problems[p][0] for p, _ in tasks],
                          [problems[p][1] for p, _ in tasks], [grid] * len(tasks),
                          [indices for _, indices in tasks])
        for (p, _), chunk in zip(tasks, chunks):
            for ci, mean, accs in chunk:
                traces[p][ci] = (configs[p][ci], mean, accs)
    # max keeps the first of equal means: ties break to the earliest config
    return [[GridSearchResult(*max(t, key=lambda row: row[1])[:2], t)
             for t in (tuple(row for row in trace if row[0].variant == v) for v in variants)]
            for (_, variants), trace in zip(problems, traces)]


def grid_search(dataset: Dataset, variant: str, grid: GridSpec,
                jobs: int = 1) -> GridSearchResult:
    """Exhaustive search; ties break to the earliest config in iteration order. With
    ``jobs`` > 1 the grid is split into up to ``jobs`` chunks, run on a pool of its own;
    results are independent of the worker count."""
    return grid_searches([(dataset, (variant,))], grid, jobs)[0][0]


def check_model_names(model_names):
    """Raises ValueError if a model is listed twice: its columns could not be told apart."""
    repeated = [name for i, name in enumerate(model_names) if name in model_names[:i]]
    if repeated:
        raise ValueError(f"model {repeated[0]!r} is listed twice")


@dataclass(frozen=True)
class BenchmarkTable:
    """Accuracy matrix (datasets x models) with its fractional rank matrix."""

    model_names: tuple[str, ...]
    dataset_names: tuple[str, ...]
    accuracy: np.ndarray  # (D, p) percent
    rank: np.ndarray      # (D, p), rank 1 = best, ties averaged

    @classmethod
    def from_accuracy(cls, model_names, dataset_names, accuracy) -> "BenchmarkTable":
        check_model_names(model_names)
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
