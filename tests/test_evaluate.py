import numpy as np
import pytest

from rvflkit.data import Dataset
from rvflkit.evaluate import BenchmarkTable, GridSpec, accuracy, cross_validate, \
    enumerate_configs, grid_search
from rvflkit.kernel import KernelParams
from rvflkit.model import ModelConfig
from rvflkit.weighting import WeightingConfig
from conftest import random_dataset


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
                          weighting=WeightingConfig(kernel=KernelParams(gamma=1.0)))
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
        ds = random_dataset(rng, n_samples=22, n_classes=2)
        grid = GridSpec(gamma_grid=(0.1, 10.0), hidden_grid=(3, 9), kernel_grid=(1.0,),
                        tau_grid=(0.75,), k=3, seed=2)
        serial = grid_search(ds, "r2vfl-m", grid, jobs=1)
        parallel = grid_search(ds, "r2vfl-m", grid, jobs=3)
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
        for ci in (0, 1, 3):
            ref = cross_validate(ds, configs[ci], grid.k, grid.seed, config_index=ci)
            np.testing.assert_array_equal(res.trace[ci][2], ref.fold_accuracies)
            assert res.trace[ci][1] == ref.mean


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
