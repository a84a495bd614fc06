import itertools

import numpy as np
import pytest

from rvflkit.kernel import KernelError, KernelParams, build_class_geometry, \
    feature_space_distance_matrix, kernel_matrix, median_center
from conftest import feature_space_distance, rbf_kernel

P1 = KernelParams(gamma=1.0)


class TestRbfKernel:
    def test_same_point_is_one(self):
        assert kernel_matrix([[1.0, 2.0]], [[1.0, 2.0]], P1)[0, 0] == 1.0

    def test_unit_distance(self):
        assert kernel_matrix([[0.0, 0.0]], [[1.0, 0.0]], P1)[0, 0] == pytest.approx(np.exp(-1))

    def test_small_gamma_large_distance(self):
        # gamma 2^-5 with squared distance 32 -> exp(-1)
        K = kernel_matrix([[0.0]], [[np.sqrt(32.0)]], KernelParams(gamma=2 ** -5))
        assert K[0, 0] == pytest.approx(np.exp(-1))

    def test_dimension_mismatch(self):
        with pytest.raises(KernelError):
            kernel_matrix([[1.0]], [[1.0, 2.0]], P1)

    def test_gamma_must_be_positive(self):
        with pytest.raises(KernelError):
            KernelParams(gamma=0.0)


class TestKernelMatrix:
    def test_unit_diagonal_and_symmetry(self, rng):
        A = rng.normal(size=(6, 3))
        K = kernel_matrix(A, A, P1)
        np.testing.assert_allclose(np.diag(K), 1.0)
        np.testing.assert_allclose(K, K.T)

    def test_transpose_identity(self, rng):
        A = rng.normal(size=(4, 2))
        B = rng.normal(size=(5, 2))
        np.testing.assert_allclose(kernel_matrix(A, B, P1), kernel_matrix(B, A, P1).T)

    def test_duplicate_rows(self, rng):
        A = np.vstack([[1.0, 2.0], [1.0, 2.0]])
        B = rng.normal(size=(3, 2))
        K = kernel_matrix(A, B, P1)
        np.testing.assert_allclose(K[0], K[1])

    def test_entrywise_matches_scalar(self, rng):
        A = rng.normal(size=(3, 2))
        B = rng.normal(size=(2, 2))
        K = kernel_matrix(A, B, P1)
        for i, j in itertools.product(range(3), range(2)):
            assert K[i, j] == pytest.approx(rbf_kernel(A[i], B[j], P1))


def distances(X, params=P1):
    return feature_space_distance_matrix(kernel_matrix(X, X, params))


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
        assert D[0, 1] == pytest.approx(feature_space_distance(x, y, P1), abs=1e-12)
        assert D[0, 0] <= 1e-12


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
        with pytest.raises(KernelError):
            build_class_geometry([1, 1], np.eye(2), "average")

    def test_median_center_single_sample(self):
        np.testing.assert_allclose(median_center([0], np.array([[1.0]])), [1.0])

    def test_median_odd_and_even(self):
        col3 = np.array([[0.2], [0.8], [0.5]])
        assert median_center([0, 1, 2], col3)[0] == pytest.approx(0.5)
        col2 = np.array([[0.2], [0.8]])
        assert median_center([0, 1], col2)[0] == pytest.approx(0.5)

    def test_median_permutation_invariance(self, rng):
        K = rng.uniform(size=(5, 5))
        c = median_center(range(5), K)
        perm = rng.permutation(5)
        c2 = median_center(range(5), K[perm][:, perm])
        np.testing.assert_allclose(c2, c[perm])

    def test_distance_to_median_center_hand_value(self):
        # rows (1, 0.2) and (0.2, 1): median center (0.6, 0.6), both at sqrt(0.32)
        K = np.array([[1.0, 0.2], [0.2, 1.0]])
        geo = build_class_geometry([0, 0], K, "median")
        np.testing.assert_allclose(geo.distances, np.sqrt(0.32), rtol=1e-12)

    def test_distance_to_median_center_zero(self):
        assert build_class_geometry([0], np.array([[1.0]]), "median").distances[0] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(KernelError):
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
                K = kernel_matrix(X, X, P1)
                geo = build_class_geometry(y, K, scheme)
                for j, idx in enumerate(geo.class_indices):
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
        with pytest.raises(KernelError):
            build_class_geometry([0, 1], np.eye(2), "mode")
