"""End-to-end acceptance checks.

Each test covers one numbered release criterion. Results are collected in
``RESULTS`` and the conftest terminal-summary hook prints one
``ACCEPTANCE n: PASS/FAIL`` line per criterion at the end of the run.
"""

import csv
import functools
import time
from importlib import resources

import numpy as np
import pytest

from rvflkit.datasets import gaussian_blobs, tic_tac_toe_dataset
from rvflkit.evaluate import GridSpec, accuracy, grid_search
from rvflkit.kernel import KernelParams, build_class_geometry, kernel_matrix
from rvflkit.model import ModelConfig, predict, train
from rvflkit.solver import solve_auto, solve_dual, solve_primal
from rvflkit.stats import Q_ALPHA_05, friedman, nemenyi_cd, nemenyi_table, wilcoxon_signed_rank
from rvflkit.weighting import WeightingConfig, compute_contribution_scores
from rvflkit.cli import main as cli_main
from conftest import fit_with_unit_scores

FIXTURES = resources.files("rvflkit") / "fixtures"


RESULTS = {}


def _announce(number, description):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS[number] = ("FAIL", description)
                raise
            RESULTS[number] = ("PASS", description)
        return wrapper
    return decorator


def _read_ranks(name):
    with open(FIXTURES / name, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([float(x) for x in rows[1]])


def _read_accuracy(name):
    with open(FIXTURES / name, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0][1:]
    acc = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    return header, acc


@_announce(1, "Friedman statistics on the shipped benchmark rank rows")
def test_criterion_1_friedman():
    cases = [
        ("binary_uci_avg_ranks.csv", 30, 111.4570, 20.3872),
        ("multiclass_uci_avg_ranks.csv", 17, 40.0452, 6.6773),
        ("eeg_avg_ranks.csv", 34, 102.9435, 33.6162),
    ]
    for fixture, n_datasets, chi2, ff in cases:
        _, ranks = _read_ranks(fixture)
        res = friedman(ranks, n_datasets)
        assert res.chi2 == pytest.approx(chi2, abs=0.01), fixture
        assert res.ff == pytest.approx(ff, abs=0.01), fixture


@_announce(2, "Nemenyi critical differences and significance flags")
def test_criterion_2_nemenyi():
    names, ranks = _read_ranks("binary_uci_avg_ranks.csv")
    cd = nemenyi_cd(3.164, 10, 30)
    assert cd == pytest.approx(2.4734, abs=0.0005)
    flags = nemenyi_table(ranks, names.index("r2vfl_m"), cd)
    expected = {
        "rvfl": True, "rvflwodl": True, "total_var_rvfl": True, "mcvelm": True,
        "ifrvfl": True, "nf_rvfl_k": False, "nf_rvfl_c": True, "nf_rvfl_r": True,
    }
    for name, want in expected.items():
        assert flags[names.index(name)] is want, name

    names, ranks = _read_ranks("eeg_avg_ranks.csv")
    cd = nemenyi_cd(Q_ALPHA_05[7], 7, 34)
    assert cd == pytest.approx(1.5451, abs=0.001)
    flags = nemenyi_table(ranks, names.index("r2vfl_m"), cd)
    for name in ("rvfl", "rvflwodl", "total_var_rvfl", "mcvelm", "ifrvfl"):
        assert flags[names.index(name)] is True, name


@_announce(3, "Wilcoxon signed-rank sums on the binary benchmark table")
def test_criterion_3_wilcoxon():
    names, acc = _read_accuracy("binary_uci_accuracy.csv")
    a = acc[:, names.index("r2vfl_a")]

    res = wilcoxon_signed_rank(a, acc[:, names.index("rvflwodl")])
    assert res.r_plus == 465.0 and res.r_minus == 0.0
    assert res.p_value < 0.00001

    res = wilcoxon_signed_rank(a, acc[:, names.index("rvfl")])
    assert res.r_plus == 450.0 and res.r_minus == 15.0
    assert res.r_plus + res.r_minus == 465.0


@_announce(4, "closed-form solver property suite within one second")
def test_criterion_4_solver():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    gammas = (1e-5, 1.0, 1e5)
    for i in range(100):
        l = int(rng.integers(2, 21))
        d = int(rng.integers(1, 21))
        gamma = gammas[i % 3]
        D = rng.normal(size=(l, d))
        Y = rng.normal(size=(l, 2))
        Wp = solve_primal(D, Y, gamma)
        Wd = solve_dual(D, Y, gamma)
        assert np.linalg.norm(Wp - Wd) <= 1e-8 * (1 + np.linalg.norm(Wp))
        W = solve_auto(D, Y, gamma)
        G = D.T @ D + np.eye(d) / gamma
        rhs = D.T @ Y
        assert np.linalg.norm(G @ W - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))
    for _ in range(20):
        D = rng.normal(size=(int(rng.integers(3, 10)), int(rng.integers(2, 8))))
        Y = rng.normal(size=(D.shape[0], 3))
        oracle = np.linalg.solve(D.T @ D + np.eye(D.shape[1]) / 7.0, D.T @ Y)
        np.testing.assert_allclose(solve_auto(D, Y, 7.0), oracle, atol=1e-8)
    assert time.perf_counter() - start <= 1.0


@_announce(5, "robust variants with unit scores reproduce the plain model")
def test_criterion_5_reduction():
    rng = np.random.default_rng(99)
    wcfg = WeightingConfig(kernel=KernelParams(gamma=1.0))
    for trial in range(20):
        seed = int(rng.integers(0, 10_000))
        gamma = float(10.0 ** rng.integers(-3, 4))
        hidden = int(rng.integers(3, 60))
        ds = gaussian_blobs(8, seed=seed, separation=1.5)
        base = train(ds, ModelConfig("rvfl", hidden, gamma, seed=seed))
        for variant in ("r2vfl-a", "r2vfl-m"):
            cfg = ModelConfig(variant, hidden, gamma, seed=seed, weighting=wcfg)
            robust = fit_with_unit_scores(ds, cfg)
            diff = np.linalg.norm(robust.output_weights - base.output_weights)
            assert diff <= 1e-10, (trial, variant)
            np.testing.assert_array_equal(predict(robust, ds.features)[1],
                                          predict(base, ds.features)[1])


@_announce(6, "contribution-score range and Huber-weight invariants")
def test_criterion_6_weight_invariants():
    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(8, 40))
        ds = gaussian_blobs(n, seed=int(rng.integers(0, 100_000)),
                            separation=float(rng.uniform(0.5, 4.0)),
                            flip_fraction=float(rng.uniform(0.0, 0.3)))
        tau = float(rng.uniform(0.5, 1.0))
        cfg = WeightingConfig(kernel=KernelParams(gamma=float(rng.uniform(0.1, 4.0))),
                              tau_multiplier=tau,
                              center_scheme="average" if trial % 2 else "median")
        K = kernel_matrix(ds.features, ds.features, cfg.kernel)
        geometry = build_class_geometry(ds.labels, K, cfg.center_scheme)
        scores = compute_contribution_scores(ds.features, ds.labels, cfg, K=K)
        for arr in (scores.cp, scores.m, scores.r):
            assert np.all(arr > 0) and np.all(arr <= 1), trial
        for j in range(ds.n_classes):
            idx = np.flatnonzero(ds.labels == j)
            d = geometry.distances[idx]
            threshold = tau * geometry.radii[j]
            inside = d <= threshold
            np.testing.assert_array_equal(scores.m[idx] == 1.0, inside)
            order = np.argsort(d)
            m_sorted = scores.m[idx][order]
            assert np.all(np.diff(m_sorted) <= 1e-12), trial


@_announce(7, "robust variant beats the plain model under label noise")
def test_criterion_7_label_noise_robustness():
    # hyperparameters grid-tuned once on the clean task and then held fixed
    # for both models at every flip rate
    gamma, hidden = 1e5, 103
    wcfg = WeightingConfig(kernel=KernelParams(gamma=1.0))
    means = {}
    for flip in (0.0, 0.15, 0.30):
        accs = {"rvfl": [], "r2vfl-m": []}
        for seed in range(10):
            train_ds = gaussian_blobs(100, seed=seed, separation=4.0,
                                      flip_fraction=flip)
            test_ds = gaussian_blobs(100, seed=seed + 1000, separation=4.0)
            for variant in ("rvfl", "r2vfl-m"):
                w = wcfg if variant == "r2vfl-m" else None
                model = train(train_ds, ModelConfig(variant, hidden, gamma,
                                                    seed=seed, weighting=w))
                _, labels = predict(model, test_ds.features)
                accs[variant].append(accuracy(labels, test_ds.labels))
        means[flip] = {k: float(np.mean(v)) for k, v in accs.items()}

    assert means[0.15]["r2vfl-m"] >= means[0.15]["rvfl"]
    degradation_plain = means[0.0]["rvfl"] - means[0.30]["rvfl"]
    degradation_robust = means[0.0]["r2vfl-m"] - means[0.30]["r2vfl-m"]
    assert degradation_robust < degradation_plain


@_announce(8, "tic-tac-toe 5-fold grid search reaches 95% accuracy")
def test_criterion_8_tic_tac_toe():
    ds = tic_tac_toe_dataset()
    result = grid_search(ds, "r2vfl-m", GridSpec())
    assert result.best_mean >= 95.0


@_announce(9, "grid search traces are byte-identical across job counts")
def test_criterion_9_parallel_determinism(tmp_path):
    ds = gaussian_blobs(15, seed=2, separation=2.0, flip_fraction=0.1)
    data = tmp_path / "blobs.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        for x, y in zip(ds.features, ds.labels):
            writer.writerow(list(x) + [ds.class_names[y]])
    grid = tmp_path / "grid.json"
    grid.write_text('{"gamma_grid": [0.1, 10.0], "hidden_grid": [3, 13],'
                    ' "kernel_grid": [0.5, 2.0], "tau_grid": [0.75, 1.0],'
                    ' "k": 3, "seed": 4}')
    traces = {}
    for jobs in (1, 8):
        out = tmp_path / f"trace_{jobs}.csv"
        code = cli_main(["grid", "--data", str(data), "--variant", "r2vfl-a",
                         "--grid-file", str(grid), "--jobs", str(jobs),
                         "--out", str(out)])
        assert code == 0
        traces[jobs] = out.read_bytes()
    assert traces[1] == traces[8]
