import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rvflkit import weighting
from rvflkit.data import apply_normalization, fit_normalization, stratified_k_fold
from rvflkit.datasets import tic_tac_toe_dataset
from rvflkit.model import ModelConfig, train
from rvflkit.weighting import WeightingConfig, WeightingError, build_class_geometry, \
    class_probability, compute_contribution_scores, contribution_scores, \
    feature_space_distance_matrix, huber_weights, kernel_matrix, kernel_scores, resolve_delta
from conftest import distances, feature_space_distance, random_dataset

W1 = WeightingConfig(kernel_gamma=1.0)


class TestClassProbability:
    def test_isolated_point_is_one(self):
        X = np.array([[0.0], [100.0]])
        cp = class_probability([0, 1], 0.01, distances(X) ** 2)
        np.testing.assert_allclose(cp, [1.0, 1.0])

    def test_pure_neighborhood_is_one(self):
        X = np.array([[0.0], [0.1], [50.0]])
        cp = class_probability([0, 0, 1], 0.5, distances(X) ** 2)
        assert cp[0] == 1.0 and cp[1] == 1.0

    def test_mixed_neighborhood_ratio(self):
        # three points all within delta, labels A A B: first point sees 2/3
        X = np.array([[0.0], [0.1], [0.2]])
        cp = class_probability([0, 0, 1], 2.0, distances(X) ** 2)
        assert cp[0] == pytest.approx(2 / 3)

    def test_duplicating_samples_keeps_cp(self, rng):
        ds = random_dataset(rng, n_samples=12)
        d1 = distances(ds.features)
        cp1 = class_probability(ds.labels, 0.6, d1 ** 2)
        X2 = np.vstack([ds.features, ds.features])
        y2 = np.concatenate([ds.labels, ds.labels])
        cp2 = class_probability(y2, 0.6, distances(X2) ** 2)
        np.testing.assert_allclose(cp2[:len(cp1)], cp1)


class TestHuberWeights:
    def geometry(self, X, y, scheme="average"):
        return build_class_geometry(y, kernel_matrix(X, W1), scheme)

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


def huber_path(labels, geometry, tau_multiplier):
    """The Huber weights computed in full, for every multiplier: weight 1 inside
    tau_j = multiplier * radius_j, tau_j / d beyond."""
    tau = tau_multiplier * geometry.radii[labels]
    m = np.ones_like(geometry.distances)
    np.divide(tau, geometry.distances, out=m, where=geometry.distances > tau)
    return m


class TestTauOne:
    """At tau = 1 every Huber weight is 1, so the weighting builds no class geometry;
    cp, m and r keep the bytes the full Huber path gives."""

    @pytest.mark.parametrize("scheme", ["average", "median"])
    @pytest.mark.parametrize("identical_class", [False, True])
    def test_scores_equal_the_full_huber_path(self, rng, scheme, identical_class):
        ds = random_dataset(rng, n_samples=25, n_features=3, n_classes=3)
        X = ds.features.copy()
        if identical_class:
            X[ds.labels == 1] = X[np.flatnonzero(ds.labels == 1)[0]]  # radius 0
        geometry = build_class_geometry(ds.labels, kernel_matrix(X, W1), scheme)
        if identical_class:
            assert geometry.radii[1] == 0.0
        m = huber_path(ds.labels, geometry, 1.0)
        sq = distances(X) ** 2
        cp = class_probability(ds.labels, resolve_delta(sq, W1), sq)
        s = compute_contribution_scores(X, ds.labels, W1, scheme)
        for got, expected in ((s.cp, cp), (s.m, m), (s.r, cp * m)):
            assert got.tobytes() == expected.tobytes()
        assert huber_weights(ds.labels, geometry, 1.0).tobytes() == m.tobytes()

    def test_no_distance_exceeds_a_nan_radius(self):
        distances_ = np.array([0.5, np.nan, 0.25, 0.0])
        labels = np.array([0, 0, 1, 1])
        radii = np.array([np.max(distances_[:2]), np.max(distances_[2:])])
        geometry = weighting.ClassGeometry(radii, distances_)
        assert huber_path(labels, geometry, 1.0).tobytes() == np.ones(4).tobytes()
        assert huber_weights(labels, None, 1.0).tobytes() == np.ones(4).tobytes()

    def test_no_class_geometry_at_tau_one_only(self, rng, monkeypatch):
        calls = []
        real = weighting.build_class_geometry
        monkeypatch.setattr(weighting, "build_class_geometry",
                            lambda *args: calls.append(1) or real(*args))
        ds = random_dataset(rng, n_samples=20, n_features=2)
        compute_contribution_scores(ds.features, ds.labels, W1, "median")
        assert calls == []
        compute_contribution_scores(ds.features, ds.labels,
                                    WeightingConfig(kernel_gamma=1.0, tau_multiplier=0.75),
                                    "median")
        assert calls == [1]

    @pytest.mark.parametrize("tau", [1.0, 0.5])
    def test_unknown_scheme_rejected(self, rng, tau):
        ds = random_dataset(rng, n_samples=10, n_features=2)
        with pytest.raises(WeightingError, match="unknown center scheme"):
            compute_contribution_scores(ds.features, ds.labels,
                                        WeightingConfig(kernel_gamma=1.0, tau_multiplier=tau),
                                        "mode")


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
        cfg = WeightingConfig(kernel_gamma=1.0, delta=0.3)
        assert resolve_delta(np.zeros((2, 2)), cfg) == 0.3

    def test_single_pair(self):
        X = np.array([[0.0], [1.0]])
        expected = feature_space_distance(X[0], X[1], 1.0)
        assert resolve_delta(distances(X) ** 2, W1) == pytest.approx(expected)

    def test_median_of_three_pairs(self):
        X = np.array([[0.0], [0.3], [0.9]])
        d = sorted(feature_space_distance(X[i], X[j], 1.0)
                   for i in range(3) for j in range(i + 1, 3))
        assert resolve_delta(distances(X) ** 2, W1) == pytest.approx(d[1])

    def test_needs_two_samples(self):
        with pytest.raises(WeightingError):
            resolve_delta(np.zeros((1, 1)), W1)

    @pytest.mark.parametrize("l", [2, 3, 7, 100])
    def test_equals_quantile_of_upper_triangle_pairs(self, rng, l):
        A = rng.random((l, l))
        dist = A + A.T
        for q in (0.01, 0.25, 0.5, 0.6, 0.99):
            expected = np.quantile(dist[np.triu_indices(l, 1)], q)
            config = WeightingConfig(kernel_gamma=1.0, delta_quantile=q)
            assert resolve_delta(dist ** 2, config) == expected

    def test_interpolation_between_distant_neighbours(self, rng):
        # the two order statistics straddle a gap, so both of numpy's interpolation
        # formulas matter: a + (b - a) t below t = 1/2 and b - (b - a)(1 - t) from it on
        l = 500
        n = l * (l - 1) // 2
        dist = 0.2 + rng.random((l, l))
        upper = np.triu_indices(l, 1)
        low = rng.random(n) < 0.5
        dist[upper] = np.where(low, 0.1 * dist[upper], 1.0 + dist[upper])
        k = int(low.sum())  # pairs below the gap; ranks k - 1 and k straddle it
        for t in np.linspace(0.01, 0.99, 99):
            q = (k - 1 + t) / (n - 1)
            expected = np.quantile(dist[upper], q)
            got = resolve_delta(dist ** 2,
                                WeightingConfig(kernel_gamma=1.0, delta_quantile=float(q)))
            assert np.float64(got).tobytes() == expected.tobytes(), q

    def test_large_matrix_takes_the_bracket(self, rng):
        l = 500  # 124 750 pairs: enough for resolve_delta to take the bracket
        dist = distances(rng.normal(size=(l, 3)))
        assert l * (l - 1) // 2 > weighting.BRACKET_MIN_SAMPLES * weighting.DELTA_SAMPLE
        ranks = [62_374, 62_375]
        found = weighting._bracketed_order_statistics(dist, ranks)
        np.testing.assert_array_equal(found, np.sort(dist[np.triu_indices(l, 1)])[ranks])

    @pytest.mark.parametrize("l", [2, 3, 500])
    def test_pair_sample_gathers_the_pairs_it_draws(self, rng, l):
        # one flat take at min * l + max gives the entries that indexing by the pair
        # (min, max) gives, from the same fixed-seed draws
        dist = rng.random((l, l))
        draws = np.random.default_rng(0)
        i = draws.integers(0, l, 1000)
        j = draws.integers(0, l - 1, 1000)
        j += j >= i
        expected = np.sort(dist[np.minimum(i, j), np.maximum(i, j)])
        assert weighting._pair_sample(dist, 1000).tobytes() == expected.tobytes()

    def test_bracket_miss_falls_back_to_every_pair(self, rng, monkeypatch):
        # a sample of the largest entry brackets nothing below it
        monkeypatch.setattr(weighting, "_pair_sample", lambda dist, size: np.full(size, dist.max()))
        misses = []
        real = weighting._bracketed_order_statistics

        def spy(*args):
            misses.append(real(*args) is None)
            return None

        monkeypatch.setattr(weighting, "_bracketed_order_statistics", spy)
        l = 500
        dist = distances(rng.normal(size=(l, 3)))
        expected = np.quantile(dist[np.triu_indices(l, 1)], 0.37)
        config = WeightingConfig(kernel_gamma=1.0, delta_quantile=0.37)
        assert resolve_delta(dist ** 2, config) == expected
        assert misses == [True]

    def test_nan_gives_nan_like_np_quantile(self, rng):
        dist = rng.random((500, 500))  # large enough for the bracket, which a NaN defeats
        dist[5, 200] = np.nan
        assert np.isnan(resolve_delta(dist ** 2, W1))

    def test_config_validation(self):
        with pytest.raises(WeightingError):
            WeightingConfig(kernel_gamma=1.0, delta=-1.0)
        with pytest.raises(WeightingError):
            WeightingConfig(kernel_gamma=1.0, tau_multiplier=1.5)

    @pytest.mark.parametrize("delta", [np.inf, np.nan])
    def test_delta_must_be_finite(self, delta):
        # an infinite delta would put every sample in every neighbourhood
        with pytest.raises(WeightingError, match="delta must be positive and finite"):
            WeightingConfig(kernel_gamma=1.0, delta=delta)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), l=st.integers(2, 400),
       distinct=st.sampled_from([1, 2, 3, 5, 40, None]),
       q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       sample=st.sampled_from([weighting.DELTA_SAMPLE, 50, 2_000]))
def test_delta_equals_np_quantile_bit_for_bit(seed, l, distinct, q, sample):
    # tie-heavy or continuous, not symmetric, nonzero diagonal; small samples take the
    # bracket at small l
    rng = np.random.default_rng(seed)
    dist = rng.random((l, l)) if distinct is None else rng.integers(0, distinct, (l, l)) / distinct
    expected = np.quantile(dist[np.triu_indices(l, 1)], q)
    with mock.patch.object(weighting, "DELTA_SAMPLE", sample):
        got = resolve_delta(dist ** 2, WeightingConfig(kernel_gamma=1.0, delta_quantile=q))
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), scheme=st.sampled_from(["average", "median"]),
       tau=st.sampled_from([0.5, 0.625, 0.75, 0.875, 1.0]))
def test_score_ranges_property(seed, scheme, tau):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng)
    cfg = WeightingConfig(kernel_gamma=1.0, tau_multiplier=tau)
    Xn = (ds.features - ds.features.min(0)) / np.maximum(np.ptp(ds.features, axis=0), 1e-12)
    s = compute_contribution_scores(Xn, ds.labels, cfg, scheme)
    for v in (s.cp, s.m, s.r):
        assert np.all(v > 0) and np.all(v <= 1.0 + 1e-12)


def test_clean_central_sample_gets_full_score():
    # tight same-label cluster plus one far point of the other class
    X = np.vstack([np.zeros((5, 2)), [[10.0, 10.0]]])
    y = np.array([0] * 5 + [1])
    cfg = WeightingConfig(kernel_gamma=1.0, delta=0.1)
    for scheme in ("average", "median"):
        s = compute_contribution_scores(X, y, cfg, scheme)
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
    train(ds, ModelConfig(variant, 9, 10.0, seed=1, weighting=W1))
    assert calls == [(20, 20)]


SMALLEST_NORMAL = 2.2250738585072014e-308


@settings(max_examples=300, deadline=None)
@given(delta=st.one_of(
    st.just(0.0),
    st.floats(5e-324, SMALLEST_NORMAL, exclude_max=True),   # subnormal
    st.floats(SMALLEST_NORMAL, 1e-150),                     # delta^2 underflows
    st.floats(0.0, 4.0),                                    # distances lie in [0, sqrt 2]
    st.floats(1e150, 1.7976931348623157e308)))               # delta^2 overflows
def test_squared_radius_is_the_largest_square_within_delta(delta):
    t = weighting._squared_radius(delta)
    assert math.sqrt(max(t, 0.0)) <= delta < math.sqrt(math.nextafter(t, math.inf))


def reference_delta_and_cp(labels, sq, q):
    """delta and cp by their first definition: the distances sqrt(max(sq, 0)), the
    np.quantile of those above the diagonal, and masked neighbour counts."""
    D = np.sqrt(np.clip(sq, 0.0, None))
    delta = np.quantile(D[np.triu_indices(D.shape[0], 1)], q)
    within = D <= delta
    same = within & (labels[:, None] == labels)
    return delta, np.count_nonzero(same, axis=1) / np.count_nonzero(within, axis=1)


class TestSquaredDistancesMatchTheReference:
    """delta and cp from the squared distances equal, bit for bit, the sqrt/clip
    distances' np.quantile and masked counts: on tic-tac-toe, whose distances tie and,
    at a large kernel gamma, saturate at sqrt 2, and on continuous data."""

    def check(self, X, labels, config):
        sq = feature_space_distance_matrix(kernel_matrix(X, config))
        expected_delta, expected_cp = reference_delta_and_cp(labels, sq, config.delta_quantile)
        delta = resolve_delta(sq, config)
        assert np.float64(delta).tobytes() == expected_delta.tobytes()
        assert class_probability(labels, delta, sq).tobytes() == expected_cp.tobytes()
        cp, _ = kernel_scores(X, labels, config, ())
        assert cp.tobytes() == expected_cp.tobytes()

    @pytest.mark.parametrize("gamma", [2.0 ** -5, 1.0, 2.0 ** 5])
    def test_tic_tac_toe_folds(self, gamma):
        ds = tic_tac_toe_dataset()
        folds = stratified_k_fold(ds, 5, seed=0)
        for f in range(5):
            X, y = ds.features[folds != f], ds.labels[folds != f]
            self.check(apply_normalization(X, fit_normalization(X)), y,
                       WeightingConfig(kernel_gamma=gamma))

    @pytest.mark.parametrize("l", [2, 3, weighting.ROW_BLOCK + 1, 300, 500])
    @pytest.mark.parametrize("q", [0.01, 0.5, 0.9])
    def test_continuous_data(self, rng, l, q):
        ds = random_dataset(rng, n_samples=l, n_features=4, n_classes=3 if l > 2 else 2)
        for gamma in (0.1, 1.0, 10.0):
            self.check(ds.features, ds.labels, WeightingConfig(kernel_gamma=gamma,
                                                               delta_quantile=q))


@pytest.mark.parametrize("l", [600, 1200])   # every-pair delta at 600, the bracket at 1200
@pytest.mark.parametrize("scheme", ["average", "median"])
@pytest.mark.parametrize("with_geometry", [False, True])
def test_kernel_scores_peak_memory(rng, l, scheme, with_geometry):
    # K itself is 8 l^2 bytes; the selection of delta and the balanced classes' blocks
    # add at most 0.6 of that, and cp's buffers stay at a few rows of l
    X = rng.random((l, 9))
    labels = np.arange(l) % 2
    schemes = (scheme,) if with_geometry else ()
    assert kernel_scores_peak(X, labels, schemes) <= 1.6 * 8 * l * l + 1e6


def kernel_scores_peak(X, labels, schemes):
    """Bytes that ``kernel_scores`` holds at its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        kernel_scores(X, labels, W1, schemes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("l", [600, 1200])
def test_both_geometries_hold_no_more_than_one(rng, l):
    # the geometries are built one after the other from the same K, so asking for both
    # schemes peaks where the costlier one alone does
    X = rng.random((l, 9))
    labels = np.arange(l) % 2
    alone = max(kernel_scores_peak(X, labels, (scheme,)) for scheme in ("average", "median"))
    assert kernel_scores_peak(X, labels, ("average", "median")) <= alone + 1e5


def test_one_call_gives_every_scheme_the_geometry_of_its_own_call(rng):
    ds = random_dataset(rng, n_samples=40, n_features=3, n_classes=3)
    cp, both = kernel_scores(ds.features, ds.labels, W1, ("average", "median"))
    for scheme in ("average", "median"):
        cp_alone, alone = kernel_scores(ds.features, ds.labels, W1, (scheme,))
        assert cp.tobytes() == cp_alone.tobytes()
        assert both[scheme].radii.tobytes() == alone[scheme].radii.tobytes()
        assert both[scheme].distances.tobytes() == alone[scheme].distances.tobytes()
    cp_none, none = kernel_scores(ds.features, ds.labels, W1, ())
    assert none == {} and cp_none.tobytes() == cp.tobytes()
