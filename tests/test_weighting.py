import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rvflkit import weighting
from rvflkit.kernel import KernelParams, build_class_geometry, feature_space_distance_matrix, \
    kernel_matrix
from rvflkit.model import ModelConfig, train
from rvflkit.weighting import WeightingConfig, WeightingError, \
    class_probability, compute_contribution_scores, contribution_scores, huber_weights, \
    resolve_delta
from conftest import feature_space_distance, random_dataset

KP = KernelParams(gamma=1.0)


def dist_matrix(X, params=KP):
    return feature_space_distance_matrix(kernel_matrix(X, X, params))


class TestClassProbability:
    def test_isolated_point_is_one(self):
        X = np.array([[0.0], [100.0]])
        cp = class_probability([0, 1], 0.01, dist_matrix(X))
        np.testing.assert_allclose(cp, [1.0, 1.0])

    def test_pure_neighborhood_is_one(self):
        X = np.array([[0.0], [0.1], [50.0]])
        cp = class_probability([0, 0, 1], 0.5, dist_matrix(X))
        assert cp[0] == 1.0 and cp[1] == 1.0

    def test_mixed_neighborhood_ratio(self):
        # three points all within delta, labels A A B: first point sees 2/3
        X = np.array([[0.0], [0.1], [0.2]])
        cp = class_probability([0, 0, 1], 2.0, dist_matrix(X))
        assert cp[0] == pytest.approx(2 / 3)

    def test_duplicating_samples_keeps_cp(self, rng):
        ds = random_dataset(rng, n_samples=12)
        d1 = dist_matrix(ds.features)
        cp1 = class_probability(ds.labels, 0.6, d1)
        X2 = np.vstack([ds.features, ds.features])
        y2 = np.concatenate([ds.labels, ds.labels])
        cp2 = class_probability(y2, 0.6, dist_matrix(X2))
        np.testing.assert_allclose(cp2[:len(cp1)], cp1)


class TestHuberWeights:
    def geometry(self, X, y, scheme="average"):
        return build_class_geometry(y, kernel_matrix(X, X, KP), scheme)

    def test_boundary_inclusive_and_ratio(self):
        geo = self.geometry(np.array([[0.0], [1.0], [5.0]]), [0, 0, 1])
        m = huber_weights([0, 0, 1], geo, 1.0)
        # both class-0 members at the radius -> weight 1 (d = tau boundary)
        np.testing.assert_allclose(m, 1.0)
        m_half = huber_weights([0, 0, 1], geo, 0.5)
        # now d = 2 tau for the class-0 members -> tau / d = 0.5
        np.testing.assert_allclose(m_half[:2], 0.5)

    def test_degenerate_class_all_ones(self):
        geo = self.geometry(np.ones((3, 1)), [0, 0, 1])
        np.testing.assert_allclose(huber_weights([0, 0, 1], geo, 0.5), 1.0)

    def test_monotone_nonincreasing_in_distance(self):
        tau = 0.4
        ds = np.linspace(0, 2, 200)
        m = np.where(ds <= tau, 1.0, tau / np.maximum(ds, 1e-300))
        assert np.all(np.diff(m) <= 1e-15)
        # continuity at d = tau
        assert abs(m[np.searchsorted(ds, tau)] - 1.0) < 0.02


class TestContributionScores:
    def test_product(self):
        s = contribution_scores([1.0, 0.5], [1.0, 0.5])
        np.testing.assert_allclose(s.r, [1.0, 0.25])

    def test_bounded_by_factors(self, rng):
        cp = rng.uniform(0.01, 1.0, 20)
        m = rng.uniform(0.01, 1.0, 20)
        s = contribution_scores(cp, m)
        assert np.all(s.r <= np.minimum(cp, m) + 1e-15)

    def test_length_mismatch(self):
        with pytest.raises(WeightingError):
            contribution_scores([1.0], [1.0, 1.0])


class TestResolveDelta:
    def test_absolute(self):
        cfg = WeightingConfig(kernel=KP, delta=0.3)
        assert resolve_delta(np.zeros((2, 2)), cfg) == 0.3

    def test_single_pair(self):
        X = np.array([[0.0], [1.0]])
        cfg = WeightingConfig(kernel=KP)
        expected = feature_space_distance(X[0], X[1], KP)
        assert resolve_delta(dist_matrix(X), cfg) == pytest.approx(expected)

    def test_median_of_three_pairs(self):
        X = np.array([[0.0], [0.3], [0.9]])
        cfg = WeightingConfig(kernel=KP)
        d = sorted(feature_space_distance(X[i], X[j], KP)
                   for i in range(3) for j in range(i + 1, 3))
        assert resolve_delta(dist_matrix(X), cfg) == pytest.approx(d[1])

    def test_needs_two_samples(self):
        with pytest.raises(WeightingError):
            resolve_delta(np.zeros((1, 1)), WeightingConfig(kernel=KP))

    def test_config_validation(self):
        with pytest.raises(WeightingError):
            WeightingConfig(kernel=KP, delta=-1.0)
        with pytest.raises(WeightingError):
            WeightingConfig(kernel=KP, tau_multiplier=1.5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), scheme=st.sampled_from(["average", "median"]),
       tau=st.sampled_from([0.5, 0.625, 0.75, 0.875, 1.0]))
def test_score_ranges_property(seed, scheme, tau):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng)
    cfg = WeightingConfig(kernel=KP, center_scheme=scheme, tau_multiplier=tau)
    Xn = (ds.features - ds.features.min(0)) / np.maximum(np.ptp(ds.features, axis=0), 1e-12)
    s = compute_contribution_scores(Xn, ds.labels, cfg)
    for v in (s.cp, s.m, s.r):
        assert np.all(v > 0) and np.all(v <= 1.0 + 1e-12)


def test_clean_central_sample_gets_full_score():
    # tight same-label cluster plus one far point of the other class
    X = np.vstack([np.zeros((5, 2)), [[10.0, 10.0]]])
    y = np.array([0] * 5 + [1])
    cfg = WeightingConfig(kernel=KP, delta=0.1)
    s = compute_contribution_scores(X, y, cfg)
    np.testing.assert_allclose(s.r[:5], 1.0)


@pytest.mark.parametrize("variant", ["r2vfl-a", "r2vfl-m"])
def test_robust_train_builds_distance_matrix_once(rng, monkeypatch, variant):
    calls = []
    original = weighting.feature_space_distance_matrix

    def counting(K):
        calls.append(K.shape)
        return original(K)

    monkeypatch.setattr(weighting, "feature_space_distance_matrix", counting)
    ds = random_dataset(rng, n_samples=20)
    train(ds, ModelConfig(variant, 9, 10.0, seed=1, weighting=WeightingConfig(kernel=KP)))
    assert calls == [(20, 20)]
