import concurrent.futures
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import rvflkit.evaluate
import rvflkit.model
import rvflkit.solver
import rvflkit.weighting
from rvflkit.data import Dataset, apply_normalization, fit_normalization, one_hot, \
    stratified_k_fold
from rvflkit.evaluate import BenchmarkTable, GridSpec, accuracy, cross_validate, \
    enumerate_configs, fold_seed, grid_search, grid_searches, worker_pool
from rvflkit.model import CENTER_SCHEMES, VARIANTS, ModelConfig, fit_output_weights, forward, \
    init_random_layer, predict_scores, train
from rvflkit.solver import single_blas_thread
from rvflkit.weighting import WeightingConfig, build_class_geometry, \
    class_probability, feature_space_distance_matrix, huber_weights, kernel_matrix, resolve_delta
from conftest import _openblas_thread_functions, needs_proc_task, random_dataset


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 100.0

    def test_none_correct(self):
        assert accuracy([1, 1], [0, 0]) == 0.0

    def test_three_of_four(self):
        assert accuracy([0, 1, 1, 1], [0, 1, 1, 0]) == 75.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 25_000), share=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    def test_equals_the_mean_of_matches_bit_for_bit(self, n, share, seed):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, 3, size=n)
        pred = truth.copy()
        missed = rng.choice(n, size=int(round((1.0 - share) * n)), replace=False)
        pred[missed] = (pred[missed] + rng.integers(1, 3, size=missed.size)) % 3
        expected = 100.0 * float(np.mean(pred == truth))
        assert np.float64(accuracy(pred, truth)).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 50), m=st.integers(0, 50))
    def test_empty_or_mismatched_rejected(self, n, m):
        if n == m and n > 0:
            m += 1
        with pytest.raises(ValueError):
            accuracy(np.zeros(n, dtype=int), np.zeros(m, dtype=int))


def identical_fold_dataset():
    # each class is 5 identical copies of one point: every fold is the same
    X = np.vstack([np.tile([0.0, 0.0], (5, 1)), np.tile([1.0, 1.0], (5, 1))])
    y = np.repeat([0, 1], 5)
    return Dataset(X, y, ("a", "b"))


class TestCrossValidate:
    def test_identical_folds_equal_accuracy(self):
        ds = identical_fold_dataset()
        cfg = ModelConfig("rvfl", 23, 1e3, seed=0)
        result = cross_validate(ds, cfg, k=5, seed=1)
        assert np.all(result.fold_accuracies == result.fold_accuracies[0])
        assert result.fold_accuracies[0] == 100.0

    def test_mean_is_average(self):
        ds = identical_fold_dataset()
        cfg = ModelConfig("rvfl", 5, 1.0, seed=0)
        result = cross_validate(ds, cfg, k=2, seed=3)
        assert result.mean == pytest.approx(np.mean(result.fold_accuracies))

    def test_deterministic(self, rng):
        ds = random_dataset(rng, n_samples=24)
        cfg = ModelConfig("r2vfl-a", 7, 10.0, seed=5,
                          weighting=WeightingConfig(kernel_gamma=1.0))
        a = cross_validate(ds, cfg, k=4, seed=9)
        b = cross_validate(ds, cfg, k=4, seed=9)
        np.testing.assert_array_equal(a.fold_accuracies, b.fold_accuracies)

    def test_mean_within_fold_bounds(self, rng):
        ds = random_dataset(rng, n_samples=30)
        cfg = ModelConfig("rvfl", 9, 1.0, seed=2)
        r = cross_validate(ds, cfg, k=3, seed=4)
        assert np.nanmin(r.fold_accuracies) <= r.mean <= np.nanmax(r.fold_accuracies)


class TestGridSearch:
    def small_grid(self):
        return GridSpec(gamma_grid=(1.0,), hidden_grid=(5,), kernel_grid=(1.0,),
                        tau_grid=(1.0,), k=2, seed=0)

    def test_singleton_grid(self, rng):
        ds = random_dataset(rng, n_samples=20, n_classes=2)
        res = grid_search(ds, "rvfl", self.small_grid())
        assert len(res.trace) == 1
        assert res.best_mean == res.trace[0][1]

    def test_default_rvfl_grid_cardinality(self):
        assert len(enumerate_configs("rvfl", GridSpec())) == 121

    def test_default_robust_grid_cardinality(self):
        assert len(enumerate_configs("r2vfl-m", GridSpec())) == 11 * 11 * 11 * 5

    def test_iteration_order(self):
        grid = GridSpec(gamma_grid=(0.1, 1.0), hidden_grid=(3, 5), kernel_grid=(1.0,),
                        tau_grid=(1.0,))
        configs = enumerate_configs("rvfl", grid)
        seen = [(c.gamma, c.hidden_nodes) for c in configs]
        assert seen == [(0.1, 3), (0.1, 5), (1.0, 3), (1.0, 5)]

    def test_tie_breaks_to_earlier_config(self):
        ds = identical_fold_dataset()
        grid = GridSpec(gamma_grid=(1.0, 2.0), hidden_grid=(23,), k=2, seed=0)
        res = grid_search(ds, "rvfl", grid)
        means = [m for _, m, _ in res.trace]
        assert means[0] == means[1]  # trivially-separable either way
        assert res.best_config is res.trace[0][0]

    def test_parallel_matches_serial(self, rng):
        # four (hidden nodes, weighting) groups over three workers: two, one and one
        ds = random_dataset(rng, n_samples=22, n_classes=2)
        grid = GridSpec(gamma_grid=(0.1, 10.0), hidden_grid=(3, 9), kernel_grid=(0.5, 1.0),
                        tau_grid=(0.75,), k=3, seed=2)
        serial = grid_search(ds, "r2vfl-m", grid, jobs=1)
        parallel = grid_search(ds, "r2vfl-m", grid, jobs=3)
        assert len(serial.trace) == len(parallel.trace) == 8
        for (c1, m1, a1), (c2, m2, a2) in zip(serial.trace, parallel.trace):
            assert c1 == c2 and m1 == m2
            np.testing.assert_array_equal(a1, a2)

    def test_matches_cross_validate(self, rng):
        # cross_validate runs the grid's fold code, so one CV call reproduces one cell
        ds = random_dataset(rng, n_samples=26, n_classes=2)
        grid = GridSpec(gamma_grid=(1.0, 100.0), hidden_grid=(7,), kernel_grid=(0.5,),
                        tau_grid=(0.75, 1.0), k=3, seed=11)
        res = grid_search(ds, "r2vfl-a", grid)
        configs = enumerate_configs("r2vfl-a", grid)
        for ci, config in enumerate(configs):
            ref = cross_validate(ds, config, grid.k, grid.seed)
            np.testing.assert_array_equal(res.trace[ci][2], ref.fold_accuracies)
            assert res.trace[ci][1] == ref.mean


def per_config_fold_accuracies(ds, config, k, seed):
    """Oracle: each fold fitted for this config alone, with the layer drawn from
    fold_seed(seed, hidden nodes, fold), scores r = cp * m composed step by step here
    rather than taken from the weighting pipeline the fold code shares, and a one-gamma
    ridge fit."""
    folds = stratified_k_fold(ds, k, seed)
    accs = []
    for f in range(k):
        tr, te = np.flatnonzero(folds != f), np.flatnonzero(folds == f)
        if np.unique(ds.labels[tr]).size < ds.n_classes:
            accs.append(np.nan)
            continue
        norm = fit_normalization(ds.features[tr])
        X_tr = apply_normalization(ds.features[tr], norm)
        X_te = apply_normalization(ds.features[te], norm)
        layer = init_random_layer(ds.n_features, config.hidden_nodes,
                                  fold_seed(seed, config.hidden_nodes, f))
        r = None
        if config.robust:
            w, y_tr = config.weighting, ds.labels[tr]
            K = kernel_matrix(X_tr, w)
            dist = feature_space_distance_matrix(K.copy())
            cp = class_probability(y_tr, resolve_delta(dist, w), dist)
            geometry = build_class_geometry(y_tr, K, CENTER_SCHEMES[config.variant])
            r = cp * huber_weights(y_tr, geometry, w.tau_multiplier)
        (W2,) = fit_output_weights(forward(X_tr, layer, config),
                                   one_hot(ds.labels[tr], ds.n_classes), r, (config.gamma,))
        accs.append(accuracy(np.argmax(forward(X_te, layer, config) @ W2, axis=1), ds.labels[te]))
    return np.array(accs)


def distinct_fits(ds, variant, grid):
    """Ridge fits the grid makes: per (hidden count, fold), one per distinct scores r,
    read byte for byte from ``_FoldContext.scores``."""
    folds = stratified_k_fold(ds, grid.k, grid.seed)
    configs = enumerate_configs(variant, grid)
    per_fold = [len({rvflkit.evaluate._FoldContext(ds, folds == f).scores(c).tobytes()
                     for c in configs}) for f in range(grid.k)]
    return len(grid.hidden_grid) * sum(per_fold)


class TestSharedRidgePath:
    """The grid shares layers, Gram matrices and fold caches; every cell still equals
    the fit of its config alone."""

    GRID = GridSpec(gamma_grid=(1e-3, 1.0, 1e3), hidden_grid=(3, 9), kernel_grid=(0.5, 2.0),
                    tau_grid=(0.75, 1.0), k=3, seed=6)

    def assert_cells_match_oracle(self, ds, variant, grid, jobs=1):
        res = grid_search(ds, variant, grid, jobs=jobs)
        for config, mean, accs in res.trace:
            expected = per_config_fold_accuracies(ds, config, grid.k, grid.seed)
            np.testing.assert_array_equal(accs, expected)
            assert mean == np.mean(expected[~np.isnan(expected)])

    @pytest.mark.parametrize("variant", ["r2vfl-m", "rvfl"])
    def test_cells_equal_per_config_fits(self, rng, variant):
        self.assert_cells_match_oracle(random_dataset(rng, n_samples=30, n_features=3),
                                       variant, self.GRID)

    @pytest.mark.parametrize("variant", ["r2vfl-a", "elm"])
    def test_dual_cells_equal_per_config_fits(self, rng, variant):
        # 2 folds of 16 rows: 13 hidden nodes plus 3 features exceed the 8 training rows
        ds = random_dataset(rng, n_samples=16, n_features=3, n_classes=2)
        grid = GridSpec(gamma_grid=(1e-2, 1.0, 1e4), hidden_grid=(2, 13), kernel_grid=(1.0,),
                        tau_grid=(0.5, 1.0), k=2, seed=3)
        self.assert_cells_match_oracle(ds, variant, grid, jobs=2)

    @pytest.mark.parametrize("n_samples", [16, 30])
    def test_cells_of_a_data_sets_grids_equal_per_config_fits(self, rng, n_samples):
        # all four variants of one data set share each fold's context: one layer and one
        # [X, H] per (fold, hidden count), elm taking a copy of H, and one kernel entry per
        # (fold, kernel gamma); at 16 rows, 13 hidden nodes plus 3 features exceed the 8
        # training rows (dual solve)
        ds = random_dataset(rng, n_samples=n_samples, n_features=3, n_classes=2)
        grid = GridSpec(gamma_grid=(1e-2, 1.0, 1e4), hidden_grid=(2, 13),
                        kernel_grid=(0.5, 2.0), tau_grid=(0.5, 1.0), k=2, seed=3)
        for jobs in (1, 3):
            (results,) = grid_searches([(ds, VARIANTS)], grid, jobs)
            for variant, res in zip(VARIANTS, results):
                assert [config for config, _, _ in res.trace] == enumerate_configs(variant, grid)
                for config, mean, accs in res.trace:
                    expected = per_config_fold_accuracies(ds, config, grid.k, grid.seed)
                    np.testing.assert_array_equal(accs, expected)
                    assert mean == np.mean(expected[~np.isnan(expected)])
                assert res.best_mean == max(mean for _, mean, _ in res.trace)

    def test_one_layer_per_hidden_count_one_gram_per_weighting(self, rng, monkeypatch):
        ds = random_dataset(rng, n_samples=30, n_features=3, n_classes=2)
        grid = self.GRID
        fits = distinct_fits(ds, "r2vfl-m", grid)  # before any counter is installed
        calls = {"layer": 0, "gram": 0, "factorization": 0, "geometry": 0, "kernel": 0,
                 "huber": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(rvflkit.evaluate, "init_random_layer",
                            counting("layer", rvflkit.evaluate.init_random_layer))
        for name in ("solve_primal", "solve_dual"):
            monkeypatch.setattr(rvflkit.solver, name, counting("gram", getattr(rvflkit.solver, name)))
        cholesky_solver = rvflkit.solver._cholesky_solver  # one solve per factorization
        monkeypatch.setattr(rvflkit.solver, "_cholesky_solver",
                            lambda c, X: counting("factorization", cholesky_solver(c, X)))
        # each function is counted where its caller looks it up
        for module, name, key in ((rvflkit.weighting, "build_class_geometry", "geometry"),
                                  (rvflkit.weighting, "kernel_matrix", "kernel"),
                                  (rvflkit.evaluate, "huber_weights", "huber")):
            monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
        res = grid_search(ds, "r2vfl-m", grid, jobs=1)
        assert not any(np.isnan(accs).any() for _, _, accs in res.trace)
        weightings = len(grid.kernel_grid) * len(grid.tau_grid)
        assert calls["layer"] == len(grid.hidden_grid) * grid.k
        # one Gram matrix per distinct r: at tau = 1, r = cp, which both kernel gammas share
        assert fits < len(grid.hidden_grid) * weightings * grid.k
        assert calls["gram"] == fits
        assert calls["factorization"] == fits * len(grid.gamma_grid)
        # K and the class geometry do not depend on tau: one per (kernel gamma, fold);
        # the Huber weights are recomputed per (hidden count, weighting, fold)
        assert calls["geometry"] == len(grid.kernel_grid) * grid.k
        assert calls["kernel"] == len(grid.kernel_grid) * grid.k
        assert calls["huber"] == len(grid.hidden_grid) * weightings * grid.k

    @pytest.mark.parametrize("change", [{}, {"kernel_gamma": 2.0}, {"delta": 0.5},
                                        {"delta_quantile": 0.3}],
                             ids=["tau_only", "kernel_gamma", "delta", "delta_quantile"])
    def test_fold_cache_shares_kernel_scores_across_tau_only(self, rng, monkeypatch, change):
        calls = []

        def counting(*args):
            calls.append(args[2])
            return rvflkit.weighting.kernel_scores(*args)

        monkeypatch.setattr(rvflkit.evaluate, "kernel_scores", counting)
        ds = random_dataset(rng, n_samples=30, n_features=3, n_classes=2)
        base = WeightingConfig(kernel_gamma=1.0)
        weightings = (base, replace(base, tau_multiplier=0.5),
                      replace(base, tau_multiplier=0.75, **change))
        configs = [ModelConfig("r2vfl-m", 5, 1.0, weighting=w) for w in weightings]
        accs, _ = rvflkit.evaluate._fold_accuracies(ds, configs, 3, 0)
        assert not np.isnan(accs).any()
        # one call per fold for the weightings that differ in tau only, one more per fold
        # for a weighting that differs in another field
        assert calls == ([base, weightings[2]] if change else [base]) * 3

    def test_no_class_geometry_without_a_tau_below_one(self, rng, monkeypatch):
        calls = []
        real = rvflkit.weighting.build_class_geometry
        monkeypatch.setattr(rvflkit.weighting, "build_class_geometry",
                            lambda *args: calls.append(1) or real(*args))
        ds = random_dataset(rng, n_samples=30, n_features=3, n_classes=2)
        config = ModelConfig("r2vfl-m", 5, 1.0, weighting=WeightingConfig(kernel_gamma=1.0))
        train(ds, config)
        cross_validate(ds, config, 3, 0)
        grid_search(ds, "r2vfl-a", replace(self.GRID, tau_grid=(1.0,)), jobs=1)
        assert calls == []
        # one tau below 1 in the configs of a fold: the fold builds the geometry
        rvflkit.evaluate._fold_accuracies(
            ds, [config, replace(config, weighting=WeightingConfig(tau_multiplier=0.5))], 3, 0)
        assert len(calls) == 3

    def test_cholesky_failure_falls_back_to_lu_inside_the_grid(self, rng, monkeypatch):
        lu_calls = []
        lu_factor = scipy.linalg.lu_factor

        def counting_lu(*args, **kwargs):
            lu_calls.append(1)
            return lu_factor(*args, **kwargs)

        # every potrf reports a leading minor that is not positive definite (info > 0)
        monkeypatch.setattr(rvflkit.solver, "_cholesky_solver", lambda c, X: lambda i: False)
        monkeypatch.setattr(scipy.linalg, "lu_factor", counting_lu)
        ds = random_dataset(rng, n_samples=30, n_features=3)
        fits = distinct_fits(ds, "r2vfl-m", self.GRID)
        self.assert_cells_match_oracle(ds, "r2vfl-m", self.GRID)
        # one LU factorization per (distinct fit, ridge gamma) in the grid, and one per
        # (config, fold) in the oracle
        configs = len(enumerate_configs("r2vfl-m", self.GRID))
        assert len(lu_calls) == fits * len(self.GRID.gamma_grid) + configs * self.GRID.k

    @staticmethod
    def count_ridge_solves(monkeypatch):
        solves = []
        for name in ("solve_primal", "solve_dual"):
            real = getattr(rvflkit.solver, name)
            monkeypatch.setattr(rvflkit.solver, name,
                                lambda *args, real=real: solves.append(1) or real(*args))
        return solves

    def test_weightings_with_equal_scores_share_one_fit(self, rng, monkeypatch):
        # continuous features and delta at a quantile: cp is the same at every kernel
        # gamma, and at tau = 1, r = cp; 𝓛 = 30 exceeds the training rows (dual solve)
        ds = random_dataset(rng, n_samples=40, n_features=3, n_classes=2)
        grid = GridSpec(gamma_grid=(1e-2, 1.0, 1e2), hidden_grid=(4, 30),
                        kernel_grid=(0.25, 1.0, 4.0), tau_grid=(1.0,), k=3, seed=5)
        solves = self.count_ridge_solves(monkeypatch)
        grid_search(ds, "r2vfl-m", grid, jobs=1)
        assert len(solves) == len(grid.hidden_grid) * grid.k
        for jobs in (1, 3):
            self.assert_cells_match_oracle(ds, "r2vfl-m", grid, jobs=jobs)

    def test_scores_one_ulp_apart_are_fitted_apart(self, rng, monkeypatch):
        ds = random_dataset(rng, n_samples=40, n_features=3, n_classes=2)
        grid = GridSpec(gamma_grid=(1e-2, 1.0), hidden_grid=(5,), kernel_grid=(0.5, 2.0),
                        tau_grid=(1.0,), k=3, seed=5)
        assert distinct_fits(ds, "r2vfl-m", grid) == grid.k  # both kernel gammas: one r
        scores = rvflkit.evaluate._FoldContext.scores

        def nudged(ctx, config):
            r = scores(ctx, config)
            if config.weighting.kernel_gamma == 2.0:
                r = r.copy()
                r[0] = np.nextafter(r[0], np.inf)
            return r

        monkeypatch.setattr(rvflkit.evaluate._FoldContext, "scores", nudged)
        solves = self.count_ridge_solves(monkeypatch)
        res = grid_search(ds, "r2vfl-m", grid, jobs=1)
        assert len(solves) == len(grid.kernel_grid) * grid.k
        for config, mean, accs in res.trace:
            alone = cross_validate(ds, config, grid.k, grid.seed)
            np.testing.assert_array_equal(accs, alone.fold_accuracies)
            assert mean == alone.mean


def _blas_thread_counts(_task):
    return tuple(get() for get, _ in _openblas_thread_functions())


class TestSingleBlasThread:
    """Every fit and prediction runs with one OpenBLAS thread: the CV and grid fold
    code, train and predict_scores."""

    GRID = GridSpec(gamma_grid=(1.0, 10.0), hidden_grid=(5,), kernel_grid=(1.0,),
                    tau_grid=(1.0,), k=2, seed=0)
    CONFIG = ModelConfig("r2vfl-m", 5, 1.0, seed=0,
                         weighting=WeightingConfig(kernel_gamma=1.0))

    @pytest.fixture
    def seen(self, monkeypatch, blas_threads):
        """Thread counts recorded at every ridge solve."""
        counts = []
        real = rvflkit.model.solve_auto

        def recording(*args, **kwargs):
            counts.append(blas_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(rvflkit.model, "solve_auto", recording)
        return counts

    def run(self, how, rng):
        ds = random_dataset(rng, n_samples=20, n_classes=2)
        if how == "grid":
            grid_search(ds, "r2vfl-m", self.GRID, jobs=1)
        else:
            cross_validate(ds, self.CONFIG, k=2, seed=0)

    @pytest.mark.parametrize("how", ["grid", "cv"])
    def test_one_thread_inside_then_restored(self, how, rng, seen, blas_threads):
        before = blas_threads()
        self.run(how, rng)
        assert seen and all(c == (1,) * len(before) for c in seen)
        assert blas_threads() == before

    @pytest.mark.parametrize("how", ["grid", "cv"])
    def test_restored_when_a_fit_raises(self, how, rng, seen, blas_threads, monkeypatch):
        def failing(*args, **kwargs):
            seen.append(blas_threads())
            raise RuntimeError("fit failed")

        monkeypatch.setattr(rvflkit.evaluate, "fit_output_weights", failing)
        before = blas_threads()
        with pytest.raises(RuntimeError, match="fit failed"):
            self.run(how, rng)
        assert seen == [(1,) * len(before)]
        assert blas_threads() == before

    @pytest.fixture
    def seen_projection(self, monkeypatch, blas_threads):
        """Thread counts recorded at every hidden-layer projection."""
        counts = []
        real = rvflkit.model.hidden_matrix

        def recording(*args, **kwargs):
            counts.append(blas_threads())
            return real(*args, **kwargs)

        monkeypatch.setattr(rvflkit.model, "hidden_matrix", recording)
        return counts

    def test_train_and_predict_one_thread_inside_then_restored(self, rng, seen, seen_projection,
                                                               blas_threads):
        before = blas_threads()
        ds = random_dataset(rng, n_samples=20, n_classes=2)
        model = train(ds, self.CONFIG)
        predict_scores(model, ds.features)
        one = (1,) * len(before)
        assert seen == [one] and seen_projection == [one, one]
        assert blas_threads() == before

    @pytest.mark.parametrize("how", ["train", "predict"])
    def test_train_and_predict_restore_when_they_raise(self, how, rng, blas_threads, monkeypatch):
        ds = random_dataset(rng, n_samples=20, n_classes=2)
        model = train(ds, self.CONFIG)
        inside = []

        def failing(*args, **kwargs):
            inside.append(blas_threads())
            raise RuntimeError("projection failed")

        monkeypatch.setattr(rvflkit.model, "hidden_matrix", failing)
        before = blas_threads()
        with pytest.raises(RuntimeError, match="projection failed"):
            if how == "train":
                train(ds, self.CONFIG)
            else:
                predict_scores(model, ds.features)
        assert inside == [(1,) * len(before)]
        assert blas_threads() == before

    def test_pool_workers_start_with_one_thread_then_restored(self, blas_threads):
        with worker_pool(1) as pool_map:
            assert pool_map is map
        before = blas_threads()
        with worker_pool(2) as pool_map:
            seen = list(pool_map(_blas_thread_counts, range(4), timeout=60))
        assert seen == [(1,) * len(before)] * 4
        assert blas_threads() == before


def _threads_after_product(_task):
    with single_blas_thread():
        a = np.ones((64, 64))
        a @ a
    return len(os.listdir("/proc/self/task"))


@needs_proc_task
def test_pool_workers_run_blas_on_their_one_thread(blas_threads):
    # the workers are forked at one BLAS thread, and a set call after a fork would start
    # cores - 1 OpenBLAS threads per build beside the fit
    with worker_pool(2) as pool_map:
        assert list(pool_map(_threads_after_product, range(4), timeout=60)) == [1] * 4


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform cannot fork")
def test_pool_forks_whatever_the_default_start_method(monkeypatch):
    # the workers must inherit the parent's one BLAS thread; Python 3.14 made forkserver
    # the default on Linux
    methods = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording(max_workers, mp_context=None):
        methods.append(mp_context and mp_context.get_start_method())
        return real(max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    with worker_pool(2) as pool_map:
        assert list(pool_map(abs, [-1, 2], timeout=60)) == [1, 2]
    assert methods == ["fork"]


class TestAverageRanks:
    def test_simple_row(self):
        t = BenchmarkTable.from_accuracy(["a", "b", "c"], ["d1"], [[90.0, 80.0, 85.0]])
        np.testing.assert_array_equal(t.rank[0], [1, 3, 2])

    def test_tied_row(self):
        t = BenchmarkTable.from_accuracy(["a", "b", "c"], ["d1"], [[90.0, 90.0, 80.0]])
        np.testing.assert_array_equal(t.rank[0], [1.5, 1.5, 3])

    def test_rank_rows_sum(self, rng):
        acc = rng.uniform(50, 100, size=(6, 5))
        t = BenchmarkTable.from_accuracy([f"m{i}" for i in range(5)],
                                         [f"d{i}" for i in range(6)], acc)
        np.testing.assert_allclose(t.rank.sum(axis=1), 5 * 6 / 2)

    def test_monotone_transform_invariance(self, rng):
        acc = rng.uniform(50, 100, size=(4, 5))
        t1 = BenchmarkTable.from_accuracy(list("abcde"), list("wxyz"), acc)
        t2 = BenchmarkTable.from_accuracy(list("abcde"), list("wxyz"), np.exp(acc / 25))
        np.testing.assert_array_equal(t1.rank, t2.rank)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkTable.from_accuracy(["a", "b"], ["d"], [[np.nan, 1.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            BenchmarkTable.from_accuracy(["a", "b"], ["d"], [[bad, 1.0]])
