"""Rank-based model comparison: Friedman, Nemenyi critical difference, Wilcoxon."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class StatsError(ValueError):
    pass


def rankdata(a) -> np.ndarray:
    """Ranks 1..n of a 1-D array of finite values, each tie group given the mean of its
    positions: ``scipy.stats.rankdata(a, method="average")`` without importing
    ``scipy.stats``, which would take most of every command's start-up."""
    a = np.asarray(a)
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], a.size]
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _check_finite(values, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise StatsError(f"{what} must be finite numbers")
    return values


# Studentized-range-based critical values q_alpha / sqrt(2) for alpha = 0.05,
# indexed by the number of compared models (2..20). Demsar-style two-tailed table.
Q_ALPHA_05 = {
    2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850, 7: 2.949, 8: 3.031,
    9: 3.102, 10: 3.164, 11: 3.219, 12: 3.268, 13: 3.313, 14: 3.354,
    15: 3.391, 16: 3.426, 17: 3.458, 18: 3.489, 19: 3.517, 20: 3.544,
}


@dataclass(frozen=True)
class FriedmanResult:
    chi2: float
    ff: float
    df1: int
    df2_pair: tuple[int, int]
    n_datasets: int
    n_models: int


def friedman(avg_ranks, n_datasets: int) -> FriedmanResult:
    """Friedman chi-square over average ranks, with the F-form correction."""
    r = _check_finite(avg_ranks, "average ranks")
    p = r.shape[0]
    D = int(n_datasets)
    if p < 2 or D < 2:
        raise StatsError("need at least 2 models and 2 datasets")
    chi2 = 12.0 * D / (p * (p + 1)) * (np.sum(r ** 2) - p * (p + 1) ** 2 / 4.0)
    denom = D * (p - 1) - chi2
    if denom <= 0:
        raise StatsError(f"degenerate F correction: D(p-1)={D * (p - 1)} <= chi2={chi2:.4f}")
    ff = (D - 1) * chi2 / denom
    return FriedmanResult(float(chi2), float(ff), p - 1, (p - 1, (p - 1) * (D - 1)), D, p)


def nemenyi_cd(q_alpha: float, n_models: int, n_datasets: int) -> float:
    """Critical difference q_alpha * sqrt(p(p+1) / (6 D))."""
    if n_models < 2 or n_datasets < 1:
        raise StatsError("need at least 2 models and 1 dataset")
    if not 0 < q_alpha < np.inf:
        raise StatsError(f"q_alpha must be positive and finite, got {q_alpha!r}")
    p, D = n_models, n_datasets
    return float(q_alpha * np.sqrt(p * (p + 1) / (6.0 * D)))


def nemenyi_table(avg_ranks, reference_index: int, cd: float) -> list[bool]:
    """Per-model flag: rank differs from the reference by strictly more than cd."""
    r = _check_finite(avg_ranks, "average ranks")
    if not 0 <= reference_index < r.shape[0]:
        raise StatsError(f"reference index {reference_index} out of range")
    if not cd > 0:
        raise StatsError("critical difference must be positive")
    return [abs(float(rk) - float(r[reference_index])) > cd for rk in r]


@dataclass(frozen=True)
class WilcoxonResult:
    r_plus: float
    r_minus: float
    n_effective: int
    z: float
    p_value: float


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Paired signed-rank test: zero diffs dropped, |d| ranked with average ties,
    normal approximation on min(R+, R-)."""
    from scipy.special import ndtr  # here: importing scipy.special would double start-up

    a = _check_finite(a, "paired samples")
    b = _check_finite(b, "paired samples")
    if a.shape != b.shape:
        raise StatsError("paired samples must have equal length")
    d = a - b
    d = d[d != 0]
    n = d.shape[0]
    if n < 5:
        raise StatsError(f"need at least 5 nonzero differences, got {n}")
    ranks = rankdata(np.abs(d))
    r_plus = float(ranks[d > 0].sum())
    r_minus = float(ranks[d < 0].sum())
    t = min(r_plus, r_minus)
    mean = n * (n + 1) / 4.0
    sd = np.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
    z = (t - mean) / sd
    p = min(1.0, 2.0 * ndtr(z))
    return WilcoxonResult(r_plus, r_minus, n, float(z), float(p))
