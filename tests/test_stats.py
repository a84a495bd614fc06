import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from rvflkit.stats import Q_ALPHA_05, StatsError, friedman, nemenyi_cd, nemenyi_table, \
    rankdata, wilcoxon_signed_rank

BINARY_RANKS = [8, 8.73, 5.27, 6.12, 6.62, 4.48, 5.05, 5, 3.22, 2.52]
MULTICLASS_RANKS = [6.26, 7.35, 4.38, 5.53, 5.29, 4.59, 5.85, 2.88, 2.85]
EEG_RANKS = [5.46, 5.99, 3.63, 3.5, 5, 2.53, 1.9]


class TestFriedman:
    def test_binary_benchmark_values(self):
        res = friedman(BINARY_RANKS, 30)
        assert res.chi2 == pytest.approx(111.4570, abs=0.01)
        assert res.ff == pytest.approx(20.3872, abs=0.01)
        assert res.df1 == 9 and res.df2_pair == (9, 261)

    def test_multiclass_benchmark_values(self):
        res = friedman(MULTICLASS_RANKS, 17)
        assert res.chi2 == pytest.approx(40.0452, abs=0.01)
        assert res.ff == pytest.approx(6.6773, abs=0.01)

    def test_equal_ranks_give_zero(self):
        res = friedman([2.5, 2.5, 2.5, 2.5], 10)
        assert res.chi2 == pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariance(self, rng):
        ranks = rng.uniform(1, 5, size=5)
        perm = rng.permutation(5)
        a = friedman(ranks, 12)
        b = friedman(ranks[perm], 12)
        assert a.chi2 == pytest.approx(b.chi2)
        assert a.ff == pytest.approx(b.ff)

    def test_degenerate_denominator(self):
        # perfectly consistent rankings across many models saturate chi2
        with pytest.raises(StatsError):
            friedman([1.0, 2.0], 2)


class TestNemenyi:
    @pytest.mark.parametrize("q_alpha", [0.0, -1.0, np.inf, np.nan])
    def test_q_alpha_positive_and_finite(self, q_alpha):
        # an infinite critical difference would print as JSON's non-standard Infinity
        with pytest.raises(StatsError, match="q_alpha must be positive and finite"):
            nemenyi_cd(q_alpha, 5, 10)

    def test_binary_benchmark_cd(self):
        assert nemenyi_cd(3.164, 10, 30) == pytest.approx(2.4734, abs=0.0005)

    def test_eeg_cd_from_builtin_q(self):
        assert nemenyi_cd(Q_ALPHA_05[7], 7, 34) == pytest.approx(1.5451, abs=0.001)

    def test_hand_value(self):
        assert nemenyi_cd(1.0, 2, 6) == pytest.approx(np.sqrt(6 / 36.0))

    def test_monotone_in_p_and_d(self):
        base = nemenyi_cd(3.0, 5, 20)
        assert nemenyi_cd(3.0, 6, 20) > base
        assert nemenyi_cd(3.0, 5, 30) < base

    def test_significance_flags_binary_table(self):
        cd = nemenyi_cd(3.164, 10, 30)
        flags = nemenyi_table(BINARY_RANKS, reference_index=9, cd=cd)
        # only the model at average rank 4.48 is within the critical difference
        assert flags == [True, True, True, True, True, False, True, True, False, False]

    def test_boundary_is_not_significant(self):
        flags = nemenyi_table([1.0, 3.0], reference_index=0, cd=2.0)
        assert flags == [False, False]

    def test_eeg_all_significant(self):
        cd = nemenyi_cd(Q_ALPHA_05[7], 7, 34)
        flags = nemenyi_table(EEG_RANKS, reference_index=6, cd=cd)
        assert flags[:5] == [True] * 5


class TestWilcoxon:
    def test_all_positive_differences(self):
        res = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 1, 1, 1, 1])
        assert res.r_minus == 0.0
        assert res.r_plus == 15.0

    def test_identical_samples_rejected(self):
        with pytest.raises(StatsError):
            wilcoxon_signed_rank([1.0] * 6, [1.0] * 6)

    def test_rank_sum_identity(self, rng):
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        res = wilcoxon_signed_rank(a, b)
        n = res.n_effective
        assert res.r_plus + res.r_minus == pytest.approx(n * (n + 1) / 2)

    def test_antisymmetry(self, rng):
        a = rng.normal(size=15)
        b = rng.normal(size=15)
        ab = wilcoxon_signed_rank(a, b)
        ba = wilcoxon_signed_rank(b, a)
        assert ab.r_plus == ba.r_minus and ab.r_minus == ba.r_plus
        assert ab.p_value == pytest.approx(ba.p_value)

    def test_strong_one_sided_p(self):
        # 30 all-positive differences: z ~ -4.78, p < 0.00001
        a = np.arange(1.0, 31.0)
        b = np.zeros(30)
        res = wilcoxon_signed_rank(a, b)
        assert res.r_minus == 0.0
        assert res.z == pytest.approx(-4.7821, abs=0.001)
        assert res.p_value < 1e-5


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_wilcoxon_rank_sum_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    res = wilcoxon_signed_rank(a, b)
    m = res.n_effective
    assert res.r_plus + res.r_minus == pytest.approx(m * (m + 1) / 2)
    assert 0 < res.p_value <= 1


# a few values drawn often, so that most vectors hold ties, mixed with arbitrary floats
TIE_POOL = st.sampled_from([-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 1e300])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(TIE_POOL, st.floats(allow_nan=False, allow_infinity=False)),
                max_size=60))
def test_rankdata_equals_scipy_average_ranks(values):
    ours = rankdata(np.array(values, dtype=np.float64))
    expected = scipy.stats.rankdata(values, method="average")
    assert ours.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(ours, expected)


def test_ndtr_is_bit_equal_to_norm_cdf():
    z = np.concatenate([np.linspace(-40.0, 40.0, 200_001), [-np.inf, np.inf, -0.0, 0.0]])
    np.testing.assert_array_equal(ndtr(z).view(np.int64), scipy.stats.norm.cdf(z).view(np.int64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    with pytest.raises(StatsError, match="finite"):
        friedman([1.0, bad, 3.0], 5)
    with pytest.raises(StatsError, match="finite"):
        nemenyi_table([1.0, bad, 3.0], 0, 1.0)
    a = np.arange(1.0, 8.0)
    for x, y in ((np.r_[a, bad], np.r_[a - 1, 0.0]), (np.r_[a, 0.0], np.r_[a - 1, bad])):
        with pytest.raises(StatsError, match="finite"):
            wilcoxon_signed_rank(x, y)
