import itertools

import numpy as np
import pytest

from rvflkit.weighting import ROW_BLOCK, WeightingConfig, WeightingError, build_class_geometry, \
    feature_space_distance_matrix, kernel_matrix, median_center
from conftest import distances, feature_space_distance, rbf_kernel

W1 = WeightingConfig(kernel_gamma=1.0)


class TestRbfKernel:
    def test_same_point_is_one(self):
        assert kernel_matrix([[1.0, 2.0]], W1)[0, 0] == 1.0

    def test_unit_distance(self):
        assert kernel_matrix([[0.0, 0.0], [1.0, 0.0]], W1)[0, 1] == pytest.approx(np.exp(-1))

    def test_small_gamma_large_distance(self):
        # gamma 2^-5 with squared distance 32 -> exp(-1)
        K = kernel_matrix([[0.0], [np.sqrt(32.0)]], WeightingConfig(kernel_gamma=2 ** -5))
        assert K[0, 1] == pytest.approx(np.exp(-1))

    def test_gamma_must_be_positive(self):
        for gamma in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(WeightingError) as exc:
                WeightingConfig(kernel_gamma=gamma)
            assert str(exc.value) == f"kernel gamma must be positive and finite, got {gamma!r}"


class TestKernelMatrix:
    def test_unit_diagonal_and_symmetry(self, rng):
        A = rng.normal(size=(6, 3))
        K = kernel_matrix(A, W1)
        np.testing.assert_allclose(np.diag(K), 1.0)
        np.testing.assert_allclose(K, K.T)

    def test_duplicate_rows(self, rng):
        X = np.vstack([[1.0, 2.0], [1.0, 2.0], rng.normal(size=(3, 2))])
        K = kernel_matrix(X, W1)
        np.testing.assert_allclose(K[0], K[1])

    def test_entrywise_matches_scalar(self, rng):
        X = rng.normal(size=(5, 2))
        K = kernel_matrix(X, W1)
        for i, j in itertools.product(range(5), repeat=2):
            assert K[i, j] == pytest.approx(rbf_kernel(X[i], X[j], 1.0))

    @pytest.mark.parametrize("l", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5])
    def test_row_blocks_equal_whole_matrix_formula(self, rng, l):
        X = rng.normal(size=(l, 7))
        # X with itself takes numpy's syrk path, in the kernel and here alike
        sq = np.sum(X * X, axis=1)[:, None] + np.sum(X * X, axis=1)[None, :] - 2.0 * (X @ X.T)
        expected = np.exp(-0.3 * np.clip(sq, 0.0, None))
        np.testing.assert_array_equal(kernel_matrix(X, WeightingConfig(kernel_gamma=0.3)),
                                      expected)

    @pytest.mark.parametrize("l", [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                   3 * ROW_BLOCK + 5])
    def test_kernel_and_distances_bit_symmetric(self, rng, l):
        # the median class geometry reads the transpose of each class block
        K = kernel_matrix(rng.normal(size=(l, 7)), WeightingConfig(kernel_gamma=0.3))
        assert np.array_equal(K, K.T)
        D = feature_space_distance_matrix(K)
        assert np.array_equal(D, D.T)


class TestFeatureSpaceDistance:
    def test_zero_for_identical(self):
        assert distances([[1.0, 1.0], [1.0, 1.0]])[0, 1] == 0.0

    def test_hand_value(self):
        # K = exp(-1) -> sqrt(2 - 2 exp(-1))
        expected = np.sqrt(2 - 2 * np.exp(-1))
        assert distances([[0.0, 0.0], [1.0, 0.0]])[0, 1] == pytest.approx(expected)
        assert expected == pytest.approx(1.1243, abs=1e-4)

    def test_bounded_by_sqrt2(self, rng):
        D = distances(rng.normal(size=(50, 2)))
        assert np.all(D >= 0.0) and np.all(D < np.sqrt(2))

    def test_symmetry_and_identity(self, rng):
        x, y = rng.normal(size=3), rng.normal(size=3)
        D = distances([x, y])
        assert D[0, 1] == pytest.approx(D[1, 0], abs=1e-12)
        assert D[0, 1] == pytest.approx(feature_space_distance(x, y, 1.0), abs=1e-12)
        assert D[0, 0] <= 1e-12

    @pytest.mark.parametrize("l", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 255, 256, 257, 600])
    def test_row_blocks_equal_whole_matrix_formula(self, rng, l):
        A = rng.random((l, l))
        K = A + A.T
        d = np.diag(K)
        expected = np.sqrt(np.clip(d[:, None] + d[None, :] - 2.0 * K, 0.0, None))
        dist = feature_space_distance_matrix(K)
        assert dist is K  # written into K's own buffer
        np.testing.assert_array_equal(dist, expected)


class TestCenters:
    def test_singleton_class_distance_zero(self):
        assert build_class_geometry([0], np.array([[1.0]]), "average").distances[0] == 0.0

    def test_two_identical_points(self):
        geo = build_class_geometry([0, 0], np.ones((2, 2)), "average")
        assert geo.distances[0] == pytest.approx(0.0, abs=1e-8)

    def test_hand_value_average(self):
        # class {a, b}, K(a,b)=0.5, query a -> 0.5
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert build_class_geometry([0, 0], K, "average").distances[0] == pytest.approx(0.5)

    def test_empty_class(self):
        with pytest.raises(WeightingError):
            build_class_geometry([1, 1], np.eye(2), "average")

    def test_median_center_single_sample(self):
        np.testing.assert_allclose(median_center(np.array([[1.0]])), [1.0])

    def test_median_odd_and_even(self):
        col3 = np.array([[0.2], [0.8], [0.5]])
        assert median_center(col3)[0] == pytest.approx(0.5)
        col2 = np.array([[0.2], [0.8]])
        assert median_center(col2)[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("ties", [True, False])
    @pytest.mark.parametrize("rows", [1, 2, 3, 8, 9, 100, 101, 1000, 1001])
    def test_median_center_equals_np_median_bit_for_bit(self, rng, rows, ties):
        # with ties, few distinct values span the middle of every column; a square class
        # block of 1000 rows has columns where the entry left of a one-pivot partition's
        # pivot is not the lower middle value
        shape = (rows, max(rows, 11))
        K = rng.integers(0, 4, size=shape) / 3.0 if ties else rng.random(shape)
        np.testing.assert_array_equal(median_center(K), np.median(K, axis=0))
        assert median_center(K).tobytes() == np.median(K, axis=0).tobytes()

    def test_median_permutation_invariance(self, rng):
        K = rng.uniform(size=(5, 5))
        c = median_center(K)
        perm = rng.permutation(5)
        c2 = median_center(K[perm][:, perm])
        np.testing.assert_allclose(c2, c[perm])

    def test_distance_to_median_center_hand_value(self):
        # rows (1, 0.2) and (0.2, 1): median center (0.6, 0.6), both at sqrt(0.32)
        K = np.array([[1.0, 0.2], [0.2, 1.0]])
        geo = build_class_geometry([0, 0], K, "median")
        np.testing.assert_allclose(geo.distances, np.sqrt(0.32), rtol=1e-12)

    @pytest.mark.parametrize("rows", [2, 7, 40, 131])
    def test_median_geometry_equals_np_median_bit_for_bit(self, rng, rows):
        y = rng.integers(0, 2, size=rows)
        y[:2] = [0, 1]
        K = kernel_matrix(rng.normal(size=(rows, 4)), W1)
        geo = build_class_geometry(y, K, "median")
        for j in np.unique(y):
            block = K[np.ix_(y == j, y == j)]
            expected = np.sqrt(np.add.reduce((block - np.median(block, axis=0)) ** 2, axis=1))
            assert geo.distances[y == j].tobytes() == expected.tobytes()

    def test_distance_to_median_center_zero(self):
        assert build_class_geometry([0], np.array([[1.0]]), "median").distances[0] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(WeightingError):
            build_class_geometry([0, 0], np.eye(1), "median")


class TestGeometry:
    def test_average_scheme_two_point_class(self):
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        geo = build_class_geometry([0, 0], np.array(K), "average")
        # both members at distance 0.5 from the mean, radius 0.5
        np.testing.assert_allclose(geo.distances, [0.5, 0.5])
        assert geo.radii[0] == pytest.approx(0.5)

    def test_identical_points_radius_zero(self):
        K = np.ones((3, 3))
        for scheme in ("average", "median"):
            geo = build_class_geometry([0, 0, 0], K, scheme)
            assert geo.radii[0] == pytest.approx(0.0, abs=1e-7)

    def test_radius_dominates_members(self, rng):
        for scheme in ("average", "median"):
            for _ in range(20):
                X = rng.normal(size=(rng.integers(3, 10), 2))
                y = rng.integers(0, 2, size=len(X))
                y[:2] = [0, 1]
                K = kernel_matrix(X, W1)
                geo = build_class_geometry(y, K, scheme)
                for j in range(geo.radii.size):
                    idx = np.flatnonzero(y == j)
                    assert np.all(geo.distances[idx] <= geo.radii[j] + 1e-12)

    def test_average_center_against_polynomial_feature_map_oracle(self, rng):
        # degree-2 polynomial kernel has the explicit map phi(x) = outer(x, x);
        # the kernel-trick distance must agree with distances in that space
        for _ in range(10):
            sizes = rng.integers(1, 6, size=2)
            X = rng.normal(size=(sizes.sum(), 3))
            y = np.repeat([0, 1], sizes)
            K = (X @ X.T) ** 2
            phi = np.array([np.outer(x, x).ravel() for x in X])
            geo = build_class_geometry(y, K, "average")
            for j in (0, 1):
                idx = np.flatnonzero(y == j)
                expected = np.linalg.norm(phi[idx] - phi[idx].mean(axis=0), axis=1)
                np.testing.assert_allclose(geo.distances[idx], expected, rtol=0, atol=1e-9)
                assert geo.radii[j] == pytest.approx(expected.max(), abs=1e-9)

    def test_unknown_scheme(self):
        with pytest.raises(WeightingError):
            build_class_geometry([0, 1], np.eye(2), "mode")
