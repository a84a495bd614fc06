"""Workload definitions: inputs generated from the seed, the CLI command sequence
each repetition runs, and the checks applied to its outputs.

Every workload reports every end-to-end metric, so each sequence contains a
cross-validating command (for ``cv_fits_per_s``), ``train`` and ``predict``.
Short commands appear several times in a sequence: the machine's speed drifts
from second to second, and more samples per run give steadier medians.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 1
GAMMA_GRID = [10.0 ** e for e in range(-5, 6)]


@dataclass
class Plan:
    """What one repetition runs and how its outputs are checked."""

    commands: list            # [(name, argv)], run in order through rvflkit.cli.main
    cv_command: str           # the command whose times give cv_fits_per_s
    cv_fits: int              # (config, fold) fits one such command completes
    jobs: int                 # worker processes the workload asks for
    check: Callable           # (out_dir, results) -> Outcome; results align with commands


@dataclass
class Outcome:
    errors: dict = field(default_factory=dict)   # command index -> [message]
    acc_pct: float | None = None
    fingerprint: str | None = None               # sha256 of the workload's trace or table

    def fail(self, index, message):
        self.errors.setdefault(index, []).append(message)


def _write_csv(path: Path, X, labels):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, lab in zip(X, labels):
            writer.writerow([f"{v:.6g}" for v in row] + [lab])


def _noisy_classes(rng, rows, features, classes, label_noise, separation):
    """Unit-variance Gaussian classes whose centres are `separation` apart in
    random orientation, so difficulty does not depend on the seed. A share of
    the labels is redrawn at random. Returns features, observed labels and
    clean labels as class-name strings."""
    basis, _ = np.linalg.qr(rng.normal(size=(features, features)))
    centers = basis[:classes] * (separation / np.sqrt(2.0))
    clean = np.arange(rows) % classes
    rng.shuffle(clean)
    X = centers[clean] + rng.normal(size=(rows, features))
    noisy = np.where(rng.random(rows) < label_noise, rng.integers(0, classes, rows), clean)
    names = np.array([f"c{j}" for j in range(classes)])
    return X, names[noisy], names[clean]


def _sha256(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _json_output(outcome, results, index):
    """Parsed JSON stdout of a command, or None after recording why it is unusable."""
    res = results[index]
    if res["code"] != 0:
        outcome.fail(index, f"exit code {res['code']}: {res['stderr'].strip()[-300:]}")
        return None
    try:
        return json.loads(res["stdout"])
    except json.JSONDecodeError:
        outcome.fail(index, "stdout is not JSON")
        return None


def _check_predict(outcome, results, index, truth):
    """Every row gets a label from the known classes; returns accuracy or None."""
    out = _json_output(outcome, results, index)
    if out is None:
        return None
    labels = out.get("labels")
    if not isinstance(labels, list) or len(labels) != len(truth):
        outcome.fail(index, f"expected {len(truth)} labels")
        return None
    unknown = set(labels) - set(truth)
    if unknown:
        outcome.fail(index, f"unknown labels {sorted(unknown)[:3]}")
        return None
    return 100.0 * float(np.mean(np.array(labels) == np.array(truth)))


def _check_rest(outcome, results, commands, truth):
    """Checks every train (exit 0, JSON summary) and predict command."""
    acc = None
    for i, (name, _) in enumerate(commands):
        if name == "train":
            _json_output(outcome, results, i)
        elif name == "predict":
            acc = _check_predict(outcome, results, i, truth)
    return acc


def _train(data, out, variant, hidden, gamma, kernel_gamma, tau, seed):
    return ("train", ["train", "--data", str(data), "--variant", variant,
                      "--hidden", str(hidden), "--gamma", repr(gamma),
                      "--kernel-gamma", repr(kernel_gamma), "--tau", repr(tau),
                      "--seed", str(seed), "--out", str(out), "--format", "json"])


def _predict(data, model):
    return ("predict", ["predict", "--data", str(data), "--model", str(model),
                        "--format", "json"])


# --- grid-ttt -----------------------------------------------------------------
# Why: it stands in for the paper's reproduction grid (tic-tac-toe, r2vfl-m,
# 5-fold CV). Per-fit model and solver work dominates; kernel and weighting are
# paid once per fold through the fold caches. All 11 ridge gammas over two
# values each of hidden nodes (both ends of the default range; at 203 the
# multithreaded BLAS cost shows), kernel gamma and tau let a shared-factorization
# or shared-layer change show. Then a 40-seed ensemble of one config is
# trained on the whole set (a train on 958 rows is short and noisy, so many
# samples per repetition), and every fifth member labels all 3^9 board
# encodings right after its train, so the predict samples spread over the
# repetition instead of sharing one slow or fast stretch of the machine.

TTT_GRID = {"gamma_grid": GAMMA_GRID, "hidden_grid": [3, 203],
            "kernel_grid": [2.0 ** -5, 1.0], "tau_grid": [0.5, 1.0]}
TTT_SMOKE_GRID = {"gamma_grid": [1.0, 100.0], "hidden_grid": [23],
                  "kernel_grid": [1.0], "tau_grid": [1.0]}
TTT_ENSEMBLE = 40
TTT_PREDICT_EVERY = 5
TTT_MIN_ACC = 95.0   # the bar the full reproduction grid must clear


def grid_ttt(src: Path, inp: Path, out: Path, seed: int, smoke: bool) -> Plan:
    sys.path.insert(0, str(src))
    try:
        from rvflkit.datasets import tic_tac_toe_dataset
    finally:
        sys.path.remove(str(src))
    ds = tic_tac_toe_dataset()
    _write_csv(inp / "ttt.csv", ds.features.astype(int), np.array(ds.class_names)[ds.labels])
    boards = np.array(list(itertools.product((1, -1, 0), repeat=9)))
    board_labels = np.resize(np.array(ds.class_names), len(boards))  # placeholders
    _write_csv(inp / "boards.csv", boards, board_labels)
    grid = dict(TTT_SMOKE_GRID if smoke else TTT_GRID, k=5, seed=seed)
    (inp / "grid.json").write_text(json.dumps(grid))
    configs = (len(grid["gamma_grid"]) * len(grid["hidden_grid"])
               * len(grid["kernel_grid"]) * len(grid["tau_grid"]))
    commands = [("grid", ["grid", "--data", str(inp / "ttt.csv"), "--variant", "r2vfl-m",
                          "--grid-file", str(inp / "grid.json"), "--jobs", "1",
                          "--out", str(out / "trace.csv"), "--format", "json"])]
    for i in range(TTT_ENSEMBLE):
        model = out / f"model{i}.bin"
        commands.append(_train(inp / "ttt.csv", model, "r2vfl-m", 203, 100.0, 1.0, 1.0, seed + i))
        if i % TTT_PREDICT_EVERY == TTT_PREDICT_EVERY - 1:
            commands.append(_predict(inp / "boards.csv", model))

    def check(out_dir: Path, results) -> Outcome:
        outcome = Outcome()
        summary = _json_output(outcome, results, 0)
        if summary is not None:
            with open(out_dir / "trace.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            if len(rows) != configs:
                outcome.fail(0, f"trace has {len(rows)} rows, expected {configs}")
            else:
                best = max(float(r[-1]) for r in rows)
                outcome.acc_pct = best
                outcome.fingerprint = _sha256(out_dir / "trace.csv")
                if abs(round(best, 4) - summary["mean_accuracy"]) > 1e-9:
                    outcome.fail(0, "reported best mean differs from the trace")
                if not smoke and best < TTT_MIN_ACC:
                    outcome.fail(0, f"best CV mean {best:.3f} below {TTT_MIN_ACC}")
        _check_rest(outcome, results, commands, list(board_labels))
        return outcome

    return Plan(commands, "grid", configs * grid["k"], 1, check)


# --- fit-large ----------------------------------------------------------------
# Why: the only workload where the O(l^2) path dominates (the l x l kernel,
# the distance matrix, the delta quantile and the median centres), so memory
# guards and row blocking show here while grid-only changes bypass it. The
# 2-fold cv runs through cross_validate and model.train, the per-fold
# pipeline the grid does not use. Each repetition runs two rounds of cv,
# train, predict, cv, predict, so that every command gets a similar share of
# the run's time and the samples of each spread over the repetition.

LARGE = {"rows": 3000, "test_rows": 20000, "features": 20, "classes": 3,
         "label_noise": 0.1, "separation": 3.0}
LARGE_SMOKE = dict(LARGE, rows=120, test_rows=60, features=5)
LARGE_MODEL = {"variant": "r2vfl-m", "hidden": 203, "gamma": 1.0, "kernel_gamma": 0.5,
               "tau": 0.75}
LARGE_MIN_ACC = 75.0   # on clean held-out labels; chance is 33 %
LARGE_ROUNDS = 2


def fit_large(src: Path, inp: Path, out: Path, seed: int, smoke: bool) -> Plan:
    size = LARGE_SMOKE if smoke else LARGE
    rng = np.random.default_rng(seed)
    rows = size["rows"]
    X, noisy, clean = _noisy_classes(rng, rows + size["test_rows"], size["features"],
                                     size["classes"], size["label_noise"], size["separation"])
    _write_csv(inp / "train.csv", X[:rows], noisy[:rows])
    _write_csv(inp / "test.csv", X[rows:], clean[rows:])
    truth = list(clean[rows:])
    m = LARGE_MODEL
    train = _train(inp / "train.csv", out / "model.bin", m["variant"], m["hidden"], m["gamma"],
                   m["kernel_gamma"], m["tau"], seed)
    cv = ("cv", ["cv"] + train[1][1:-4] + ["--k", "2", "--format", "json"])
    predict = _predict(inp / "test.csv", out / "model.bin")
    commands = [cv, train, predict, cv, predict] * LARGE_ROUNDS

    def check(out_dir: Path, results) -> Outcome:
        outcome = Outcome()
        for i, (name, _) in enumerate(commands):
            if name != "cv":
                continue
            summary = _json_output(outcome, results, i)
            if summary is not None and ("mean" not in summary or "skipped_folds" in summary):
                outcome.fail(i, "cv did not evaluate both folds")
        acc = _check_rest(outcome, results, commands, truth)
        last = len(commands) - 1
        predictions = {results[i]["stdout"] for i, (name, _) in enumerate(commands)
                       if name == "predict"}
        if len(predictions) > 1:
            outcome.fail(last, "predictions differ between rounds")
        elif acc is not None:
            outcome.acc_pct = acc
            outcome.fingerprint = hashlib.sha256(predictions.pop().encode()).hexdigest()
            if not smoke and acc < LARGE_MIN_ACC:
                outcome.fail(last, f"held-out accuracy {acc:.2f} below {LARGE_MIN_ACC}")
        return outcome

    return Plan(commands, "cv", 2, 1, check)


# --- bench-suite --------------------------------------------------------------
# Why: the paper's comparison workflow. Many small problems, including the dual
# solve (hidden nodes plus features exceed the training rows of the smallest
# set), the non-robust rvfl/elm variants, the r2vfl-a average centre, and one
# process pool per (dataset, model) at --jobs 2. Then the final model, r2vfl-a,
# is trained on the largest set plus more rows from its source and labels a
# held-out batch from the same source twice, for two predict samples per
# repetition.

SUITE = [  # (rows, features, classes, label noise)
    (90, 4, 2, 0.10),
    (180, 8, 3, 0.15),
    (320, 6, 4, 0.10),
    (500, 10, 3, 0.15),
]
SUITE_SMOKE = [(40, 3, 2, 0.1), (50, 4, 3, 0.1)]
SUITE_SEPARATION = 2.5
SUITE_GRID = {"gamma_grid": [0.01, 1.0, 100.0], "hidden_grid": [23, 103],
              "kernel_grid": [0.25, 4.0], "tau_grid": [0.5, 1.0]}
SUITE_SMOKE_GRID = {"gamma_grid": [1.0], "hidden_grid": [23],
                    "kernel_grid": [1.0], "tau_grid": [1.0]}
SUITE_MODELS = ["rvfl", "elm", "r2vfl-a", "r2vfl-m"]
SUITE_JOBS = 2
DEPLOY = {"rows": 2000, "test_rows": 20000}   # rows beyond the largest set's own
DEPLOY_SMOKE = {"rows": 20, "test_rows": 60}


def bench_suite(src: Path, inp: Path, out: Path, seed: int, smoke: bool) -> Plan:
    rng = np.random.default_rng(seed)
    sets = SUITE_SMOKE if smoke else SUITE
    grid = SUITE_SMOKE_GRID if smoke else SUITE_GRID
    deploy = DEPLOY_SMOKE if smoke else DEPLOY
    entries = []
    for i, (rows, features, classes, noise) in enumerate(sets):
        extra = deploy["rows"] + deploy["test_rows"] if i == len(sets) - 1 else 0
        X, noisy, clean = _noisy_classes(rng, rows + extra, features, classes, noise,
                                         SUITE_SEPARATION)
        path = inp / f"set{i}.csv"
        _write_csv(path, X[:rows], noisy[:rows])
        entries.append({"path": str(path), "name": f"set{i}"})
    split = rows + deploy["rows"]
    _write_csv(inp / "deploy.csv", X[:split], noisy[:split])
    _write_csv(inp / "test.csv", X[split:], clean[split:])
    truth = list(clean[split:])
    manifest = {"datasets": entries, "models": SUITE_MODELS, "grid": grid, "k": 5, "seed": seed}
    (inp / "manifest.json").write_text(json.dumps(manifest))
    plain = len(grid["gamma_grid"]) * len(grid["hidden_grid"])
    robust = plain * len(grid["kernel_grid"]) * len(grid["tau_grid"])
    fits = len(sets) * 5 * sum(robust if m.startswith("r2") else plain for m in SUITE_MODELS)
    table = out / "table"
    commands = [
        ("bench", ["bench", "--manifest", str(inp / "manifest.json"), "--out", str(table),
                   "--jobs", str(SUITE_JOBS)]),
        ("friedman", ["stats", "friedman", "--table", str(table / "accuracy.csv"),
                      "--format", "json"]),
        _train(inp / "deploy.csv", out / "model.bin", "r2vfl-a", 103, 1.0, 0.25, 0.75, seed),
        _predict(inp / "test.csv", out / "model.bin"),
        _predict(inp / "test.csv", out / "model.bin"),
    ]

    def check(out_dir: Path, results) -> Outcome:
        outcome = Outcome()
        if results[0]["code"] != 0:
            outcome.fail(0, f"exit code {results[0]['code']}: "
                            f"{results[0]['stderr'].strip()[-300:]}")
        else:
            with open(out_dir / "table" / "accuracy.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            try:
                cells = np.array([[float(x) for x in r[1:]] for r in rows[1:1 + len(sets)]])
            except ValueError:
                cells = np.empty(0)
            if (rows[0][1:] != SUITE_MODELS or cells.shape != (len(sets), len(SUITE_MODELS))
                    or not np.all((cells >= 0) & (cells <= 100))):
                outcome.fail(0, "accuracy table has missing or invalid cells")
            else:
                outcome.acc_pct = float(cells.mean())
                outcome.fingerprint = _sha256(out_dir / "table" / "accuracy.csv",
                                              out_dir / "table" / "ranks.csv")
        stats = _json_output(outcome, results, 1)
        if stats is not None and "chi2_friedman" not in stats:
            outcome.fail(1, "no Friedman statistic")
        _check_rest(outcome, results, commands, truth)
        return outcome

    return Plan(commands, "bench", fits, SUITE_JOBS, check)


WORKLOADS = {"grid-ttt": grid_ttt, "fit-large": fit_large, "bench-suite": bench_suite}
