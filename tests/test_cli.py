import concurrent.futures
import csv
import functools
import hashlib
import json
import multiprocessing
import os
import re
import shlex
import struct
import subprocess
import sys
import time
from collections import Counter
from dataclasses import MISSING, asdict, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import rvflkit
import rvflkit.model
import rvflkit.solver
import rvflkit.weighting
from rvflkit import cli, evaluate
from rvflkit.cli import SETTING_TYPES, main
from rvflkit.data import DataError, Dataset, stratified_k_fold
from rvflkit.evaluate import GridSpec, enumerate_configs
from rvflkit.model import CENTER_SCHEMES, MODEL_MAGIC, VARIANTS, ModelConfig
from rvflkit.weighting import WeightingConfig
from conftest import _openblas_thread_functions, gaussian_blobs, needs_dev_fd, needs_proc_task, \
    read_through_pipe, trace_sha256

FIXTURES = resources.files("rvflkit") / "fixtures"


@pytest.fixture
def toy_csv(tmp_path):
    ds = gaussian_blobs(12, seed=3, separation=4.0)
    p = tmp_path / "toy.csv"
    with open(p, "w", newline="") as fh:
        writer = csv.writer(fh)
        for x, y in zip(ds.features, ds.labels):
            writer.writerow(list(x) + [ds.class_names[y]])
    return p


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTrain:
    def test_train_writes_model_and_summary(self, toy_csv, tmp_path, capsys):
        out_path = tmp_path / "model.bin"
        code, out = run(capsys, "train", "--data", str(toy_csv), "--variant", "rvfl",
                        "--hidden", "23", "--gamma", "100", "--seed", "1",
                        "--out", str(out_path))
        assert code == 0
        assert out_path.exists()
        assert "rvfl" in out and "training_accuracy" in out

    @pytest.mark.parametrize("variant,tau", [("rvfl", None), ("r2vfl-m", "1"),
                                             ("r2vfl-a", "0.75")])
    def test_training_accuracy_from_one_design_matrix(self, tmp_path, capsys, monkeypatch,
                                                      variant, tau):
        # the fit's design matrix scores the training rows: the accuracy is the one a
        # predict of those rows by the saved model gives
        ds = gaussian_blobs(30, seed=5, separation=1.0, flip_fraction=0.2)
        data = tmp_path / "noisy.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(list(x) + [ds.class_names[y]]
                                     for x, y in zip(ds.features, ds.labels))
        designs = []
        real = rvflkit.model.design_matrix
        monkeypatch.setattr(rvflkit.model, "design_matrix",
                            lambda *args: designs.append(1) or real(*args))
        argv = ["train", "--data", str(data), "--variant", variant, "--hidden", "9",
                "--seed", "2", "--out", str(tmp_path / "m.rvfl"), "--format", "json"]
        code, out = run(capsys, *argv, *(["--tau", tau] if tau else []))
        assert code == 0 and designs == [1]
        model = rvflkit.model.load_model(tmp_path / "m.rvfl")
        expected = evaluate.accuracy(rvflkit.model.predict(model, ds.features)[1], ds.labels)
        assert json.loads(out)["training_accuracy"] == round(expected, 4) < 100.0

    def test_unknown_variant_is_usage_error(self, toy_csv, tmp_path, capsys):
        code = main(["train", "--data", str(toy_csv), "--variant", "bogus",
                     "--out", str(tmp_path / "m")])
        assert code == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "missing.csv"),
                     "--variant", "rvfl", "--out", str(tmp_path / "m")])
        assert code == 2

    def test_config_file_overlay(self, toy_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": "elm", "hidden": 7, "gamma": 10.0}))
        code, out = run(capsys, "train", "--data", str(toy_csv), "--config", str(cfg),
                        "--out", str(tmp_path / "m.bin"), "--format", "json")
        assert code == 0
        assert json.loads(out)["variant"] == "elm"


class TestPredict:
    def test_round_trip(self, toy_csv, tmp_path, capsys):
        model_path = tmp_path / "m.bin"
        assert main(["train", "--data", str(toy_csv), "--variant", "rvfl",
                     "--hidden", "23", "--gamma", "100", "--out", str(model_path)]) == 0
        capsys.readouterr()
        code, out = run(capsys, "predict", "--data", str(toy_csv),
                        "--model", str(model_path))
        assert code == 0
        assert len(out.strip().splitlines()) == 24

    def test_rows_without_label(self, toy_csv, tmp_path, capsys):
        # the row width tells features-only rows from labelled ones; an Excel-style BOM
        # and a single row are read as well
        model_path = tmp_path / "m.bin"
        assert main(["train", "--data", str(toy_csv), "--variant", "rvfl",
                     "--hidden", "23", "--gamma", "100", "--out", str(model_path)]) == 0
        capsys.readouterr()
        _, labelled = run(capsys, "predict", "--data", str(toy_csv), "--model", str(model_path))
        rows = list(csv.reader(toy_csv.read_text().splitlines()))
        features_only = tmp_path / "features.csv"
        features_only.write_text("\ufeff" + "".join(",".join(r[:-1]) + "\n" for r in rows),
                                 encoding="utf-8")
        code, out = run(capsys, "predict", "--data", str(features_only),
                        "--model", str(model_path))
        assert code == 0 and out == labelled
        one_row = tmp_path / "one.csv"
        one_row.write_text(",".join(rows[5][:-1]) + "\n")
        code, out = run(capsys, "predict", "--data", str(one_row), "--model", str(model_path))
        assert code == 0 and out.splitlines() == [labelled.splitlines()[5]]
        label_first = tmp_path / "label_first.csv"
        label_first.write_text("".join(",".join([r[-1]] + r[:-1]) + "\n" for r in rows))
        code, out = run(capsys, "predict", "--data", str(label_first), "--label-column", "0",
                        "--model", str(model_path))
        assert code == 0 and out == labelled

    @needs_dev_fd
    def test_reads_from_a_pipe(self, toy_csv, tmp_path, capsys):
        model_path = tmp_path / "m.bin"
        assert main(["train", "--data", str(toy_csv), "--variant", "rvfl",
                     "--hidden", "23", "--gamma", "100", "--out", str(model_path)]) == 0
        capsys.readouterr()
        _, from_file = run(capsys, "predict", "--data", str(toy_csv), "--model", str(model_path))
        code, from_pipe = read_through_pipe(
            toy_csv.read_text(),
            lambda pipe: run(capsys, "predict", "--data", pipe, "--model", str(model_path)))
        assert code == 0 and from_pipe == from_file

    def test_other_row_width_is_one_line_error(self, toy_csv, tmp_path, capsys):
        model_path = tmp_path / "m.bin"
        assert main(["train", "--data", str(toy_csv), "--variant", "rvfl",
                     "--hidden", "5", "--out", str(model_path)]) == 0
        capsys.readouterr()
        wide = tmp_path / "wide.csv"
        wide.write_text("1,2,3,a\n4,5,6,b\n")
        assert main(["predict", "--data", str(wide), "--model", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "4 fields; expected 2 (features only) or 3 (features and a label)" in err

    def test_model_of_wrong_shape_is_one_line_error(self, toy_csv, tmp_path, capsys):
        # a checksum-valid file whose output weights lack a row
        model_path = tmp_path / "m.bin"
        assert main(["train", "--data", str(toy_csv), "--variant", "rvfl",
                     "--hidden", "5", "--out", str(model_path)]) == 0
        model = rvflkit.model.load_model(model_path)
        rvflkit.model.save_model(replace(model, output_weights=model.output_weights[:-1]),
                                 model_path)
        capsys.readouterr()
        assert main(["predict", "--data", str(toy_csv), "--model", str(model_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: malformed model file (output weights of shape")


class TestCv:
    def test_fold_output_and_determinism(self, toy_csv, capsys):
        args = ["cv", "--data", str(toy_csv), "--variant", "rvfl", "--hidden", "13",
                "--gamma", "100", "--k", "5", "--seed", "7", "--format", "json"]
        code, out1 = run(capsys, *args)
        assert code == 0
        payload = json.loads(out1)
        assert len([k for k in payload if k.startswith("fold_")]) == 5
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_config_entries_match_flags(self, toy_csv, tmp_path, capsys):
        # JSON integers for number settings, "delta": null and the data settings
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": "r2vfl-m", "hidden": 13, "gamma": 100,
                                   "kernel_gamma": 2, "tau": 1, "delta": None, "k": 3,
                                   "seed": 7, "has_header": False, "label_column": "last"}))
        code, from_file = run(capsys, "cv", "--data", str(toy_csv), "--config", str(cfg))
        assert code == 0
        code, from_flags = run(capsys, "cv", "--data", str(toy_csv), "--variant", "r2vfl-m",
                               "--hidden", "13", "--gamma", "100", "--kernel-gamma", "2",
                               "--tau", "1", "--k", "3", "--seed", "7", "--label-column", "last")
        assert code == 0
        assert from_file == from_flags

    def test_csv_format(self, toy_csv, capsys):
        code, out = run(capsys, "cv", "--data", str(toy_csv), "--variant", "elm",
                        "--hidden", "5", "--gamma", "1", "--k", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        assert rows[0][-1] == "mean"


class TestGrid:
    def test_singleton_grid_trace(self, toy_csv, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"gamma_grid": [1.0], "hidden_grid": [5], "k": 2}))
        trace = tmp_path / "trace.csv"
        code, out = run(capsys, "grid", "--data", str(toy_csv), "--variant", "rvfl",
                        "--grid-file", str(grid), "--out", str(trace))
        assert code == 0
        assert len(trace.read_text().strip().splitlines()) == 2  # header + 1 row

    def test_jobs_determinism_byte_identical(self, toy_csv, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"gamma_grid": [0.1, 10.0], "hidden_grid": [3, 9],
                                    "kernel_grid": [1.0], "tau_grid": [0.75, 1.0],
                                    "k": 2, "seed": 5}))
        t1, t8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert main(["grid", "--data", str(toy_csv), "--variant", "r2vfl-m",
                     "--grid-file", str(grid), "--jobs", "1", "--out", str(t1)]) == 0
        assert main(["grid", "--data", str(toy_csv), "--variant", "r2vfl-m",
                     "--grid-file", str(grid), "--jobs", "8", "--out", str(t8)]) == 0
        assert t1.read_bytes() == t8.read_bytes()


_evaluate_chunk = evaluate._evaluate_chunk


def _failing_or_slow_chunk(log, dataset, variants, grid, indices):
    """A stand-in for ``_evaluate_chunk`` in bench's workers: fails on the set named "bad",
    else logs the set and takes a while."""
    if dataset.name == "bad":
        raise DataError("grid of bad failed")
    with open(log, "a") as fh:
        fh.write(dataset.name + "\n")
    time.sleep(0.3)
    return _evaluate_chunk(dataset, variants, grid, indices)


def _logged_chunk(log, dataset, variants, grid, indices):
    """A stand-in for ``_evaluate_chunk`` in bench's workers: logs the set of each chunk."""
    with open(log, "a") as fh:
        fh.write(dataset.name + "\n")
    return _evaluate_chunk(dataset, variants, grid, indices)


def _variants_logged_chunk(log, dataset, variants, grid, indices):
    """A stand-in for ``_evaluate_chunk`` in bench's workers: logs the variants of each
    chunk's configs."""
    configs = evaluate._unit_configs(variants, grid)
    with open(log, "a") as fh:
        fh.write(" ".join(dict.fromkeys(configs[i].variant for i in indices)) + "\n")
    return _evaluate_chunk(dataset, variants, grid, indices)


def _write_dataset(path, ds):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(list(x) + [ds.class_names[y]]
                                 for x, y in zip(ds.features, ds.labels))


def pinned_manifest(tmp_path):
    """Two sets, all four models, two kernel gammas and tau in {0.5, 1}. At k = 3 the
    18-row set trains on 12 rows, fewer than 23 hidden nodes plus 3 features, so its
    23-node cells take the dual solve; the 60-row set has three classes."""
    _write_dataset(tmp_path / "small.csv",
                   gaussian_blobs(9, seed=7, n_features=3, flip_fraction=0.1))
    rng = np.random.default_rng(8)
    y = np.arange(60) % 3
    _write_dataset(tmp_path / "noisy.csv", Dataset(rng.normal(size=(60, 4)) + 1.5 * np.eye(3, 4)[y],
                                                   y, ("a", "b", "c")))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "datasets": [{"path": str(tmp_path / "small.csv"), "name": "small"},
                     {"path": str(tmp_path / "noisy.csv"), "name": "noisy"}],
        "models": ["rvfl", "elm", "r2vfl-a", "r2vfl-m"], "k": 3, "seed": 2,
        "grid": {"gamma_grid": [0.01, 1.0, 100.0], "hidden_grid": [3, 23],
                 "kernel_grid": [0.25, 4.0], "tau_grid": [0.5, 1.0]}}))
    return manifest


# pinned_manifest's tables and the traces of its (dataset, model) grids, in manifest
# order, as bench wrote them when it ran each (dataset, model) grid on its own. Like
# tests/golden/, they pin the bytes of the bundled OpenBLAS builds.
PINNED_TABLES = ("48deb3e66ecb8fbb758c91283856f98aeb2ae1624857dc15e7c7a4ea2578c6b3",
                 "3377744ddf0391a94ca6c9e6b0dd0e47c84f6bfe59c547d137c4ee5edf6712c8")
PINNED_TRACES = ("8c9689dc2031cab12d34064d6ceb8fb3d9ffa9ad4a43a05984346d9de7d806f9",
                 "f0197ee7ba040a4b315f3acbdc1e2d25ff08c58f18f256878b565bcd0da317a8",
                 "7ba52fef6e5e32466c605a20882457190e1da3500aa6ebf874fd5ba84c25ff10",
                 "d6c38a124dc4d6bb6f84b78676ef87e33cd4d98dd8464a9018a20c309863e04d",
                 "a001314251cd2bfac14dec8e09585cea2e36b3b4898cc21c972aba55cf200e2c",
                 "f8397b1a9de1865760659a998dacc980d7e9fe6108d2f983abe534aae8208c90",
                 "96ae652a6fad895237760cc244a99d630858371db8b715687f088e6b21e06806",
                 "e6366a7deda844d3edb58b408e8de7b846db325a0626121be36ec1a60cc05525")


class TestBench:
    def test_two_datasets_two_models(self, toy_csv, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "datasets": [
                {"path": str(toy_csv), "name": "toy_a"},
                {"path": str(toy_csv), "name": "toy_b"},
            ],
            "models": ["rvfl", "r2vfl-a"],
            "k": 2, "seed": 0,
            "grid": {"gamma_grid": [1.0], "hidden_grid": [5],
                     "kernel_grid": [1.0], "tau_grid": [1.0]},
        }))
        outdir = tmp_path / "bench"
        code, _ = run(capsys, "bench", "--manifest", str(manifest), "--out", str(outdir))
        assert code == 0
        rows = list(csv.reader((outdir / "accuracy.csv").read_text().splitlines()))
        assert rows[0] == ["dataset", "rvfl", "r2vfl-a"]
        assert [r[0] for r in rows[1:]] == ["toy_a", "toy_b", "Average Accuracy",
                                            "Average Rank"]
        rank_rows = list(csv.reader((outdir / "ranks.csv").read_text().splitlines()))
        for r in rank_rows[1:]:
            assert sum(float(x) for x in r[1:]) == pytest.approx(2 * 3 / 2)

    def bench_manifest(self, tmp_path, second, models=("rvfl", "r2vfl-m")):
        """Two datasets, 30 and 24 rows in the tests below, each one unit of work: the
        grids of ``models``. rvfl's grid holds two groups of configs, one per hidden
        count, and each robust grid four, one per (weighting, hidden count); the robust
        variants share their groups, and rvfl and elm theirs."""
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "datasets": [{"path": str(tmp_path / "first.csv"), "name": "first"},
                         {"path": str(second), "name": Path(second).stem}],
            "models": list(models), "k": 2, "seed": 0,
            "grid": {"gamma_grid": [0.1, 10.0], "hidden_grid": [3, 9],
                     "kernel_grid": [1.0], "tau_grid": [0.75, 1.0]},
        }))
        _write_dataset(tmp_path / "first.csv",
                       gaussian_blobs(15, seed=2, separation=2.0, flip_fraction=0.1))
        return manifest

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The worker count asked of every process pool; each forks at most two."""
        sizes = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        return sizes

    def bench_tables(self, capsys, manifest, outdir, jobs):
        code, _ = run(capsys, "bench", "--manifest", str(manifest), "--out", str(outdir),
                      "--jobs", jobs)
        assert code == 0
        return [(outdir / name).read_bytes() for name in ("accuracy.csv", "ranks.csv")]

    def test_jobs_2_tables_byte_identical_to_jobs_1(self, toy_csv, tmp_path, capsys,
                                                    pool_sizes):
        manifest = self.bench_manifest(tmp_path, toy_csv)
        tables = [self.bench_tables(capsys, manifest, tmp_path / f"jobs{jobs}", jobs)
                  for jobs in ("1", "2")]
        assert tables[0] == tables[1]
        assert pool_sizes == [2]  # one pool for both data sets

    def test_pool_capped_at_most_chunks_of_any_grid(self, toy_csv, tmp_path, capsys,
                                                    pool_sizes):
        # two datasets x four models at --jobs 64: each data set's unit is cut into all
        # its groups, which span the models: two that rvfl and elm share and four that
        # r2vfl-a and r2vfl-m share, so the pool has 2 x (2 + 4) = 12 chunks, where
        # (dataset, model) grids of their own would make 2 x (2 + 2 + 4 + 4) = 24
        manifest = self.bench_manifest(tmp_path, toy_csv, models=VARIANTS)
        tables = [self.bench_tables(capsys, manifest, tmp_path / f"jobs{jobs}", jobs)
                  for jobs in ("1", "64")]
        assert tables[0] == tables[1]
        assert pool_sizes == [12]

    def test_pool_capped_at_task_count(self, toy_csv, tmp_path, capsys, pool_sizes):
        # one dataset x four models at --jobs 64: 2 + 4 groups make six tasks
        manifest = self.bench_manifest(tmp_path, toy_csv, models=VARIANTS)
        settings = json.loads(manifest.read_text())
        settings["datasets"] = settings["datasets"][:1]
        manifest.write_text(json.dumps(settings))
        tables = [self.bench_tables(capsys, manifest, tmp_path / f"jobs{jobs}", jobs)
                  for jobs in ("1", "64")]
        assert tables[0] == tables[1]
        assert pool_sizes == [6]

    def test_one_grid_is_split_over_the_jobs(self, toy_csv, tmp_path, capsys, monkeypatch,
                                             pool_sizes):
        # one data set's unit of two models, six groups, at --jobs 2: two chunks of three
        # groups on two workers, the first holding rvfl's two groups and one of r2vfl-m
        manifest = self.bench_manifest(tmp_path, toy_csv)
        settings = json.loads(manifest.read_text())
        settings["datasets"] = settings["datasets"][:1]
        manifest.write_text(json.dumps(settings))
        serial = self.bench_tables(capsys, manifest, tmp_path / "jobs1", "1")
        log = tmp_path / "chunks.log"
        monkeypatch.setattr(evaluate, "_evaluate_chunk",
                            functools.partial(_variants_logged_chunk, log))
        assert self.bench_tables(capsys, manifest, tmp_path / "jobs2", "2") == serial
        assert Counter(log.read_text().splitlines()) == {"rvfl r2vfl-m": 1, "r2vfl-m": 1}
        assert pool_sizes == [2]

    def test_grids_go_out_largest_first(self, toy_csv, tmp_path, capsys, monkeypatch):
        # rows x configs of the units, one chunk each at --jobs 1: toy 24 x 12, first
        # 30 x 12, toy_again 24 x 12; the tie keeps manifest order
        manifest = self.bench_manifest(tmp_path, toy_csv)
        settings = json.loads(manifest.read_text())
        settings["datasets"] = [settings["datasets"][1], settings["datasets"][0],
                                {**settings["datasets"][1], "name": "toy_again"}]
        manifest.write_text(json.dumps(settings))
        order = []

        def recorded(dataset, variants, grid, indices):
            order.append((dataset.name, variants, len(indices)))
            return _evaluate_chunk(dataset, variants, grid, indices)

        monkeypatch.setattr(evaluate, "_evaluate_chunk", recorded)
        code, _ = run(capsys, "bench", "--manifest", str(manifest), "--out", str(tmp_path / "b"))
        assert code == 0
        models = ("rvfl", "r2vfl-m")
        assert order == [("first", models, 12), ("toy", models, 12), ("toy_again", models, 12)]
        # the configs weigh in too: rvfl on 30 rows x 4 configs goes out after r2vfl-m on
        # 24 rows x 8, where an order by rows alone would send it first
        order.clear()
        grid = GridSpec(gamma_grid=(0.1, 10.0), hidden_grid=(3, 9), kernel_grid=(1.0,),
                        tau_grid=(0.75, 1.0), k=2)
        first = replace(gaussian_blobs(15, seed=2), name="first")
        toy = replace(gaussian_blobs(12, seed=3), name="toy")
        evaluate.grid_searches([(first, ("rvfl",)), (toy, ("r2vfl-m",))], grid)
        assert order == [("toy", ("r2vfl-m",), 8), ("first", ("rvfl",), 4)]

    def test_grid_holding_most_of_the_work_is_split(self, tmp_path, capsys, monkeypatch,
                                                    pool_sizes):
        # two units of rvfl and r2vfl-m, six groups each, at --jobs 2, rows x configs
        # 80 x 12 and 16 x 12: the large set is 5/6 of the work and gets two chunks, the
        # small one one
        entries = []
        for name, n in (("large", 40), ("small", 8)):
            _write_dataset(tmp_path / f"{name}.csv", gaussian_blobs(n, seed=4, flip_fraction=0.1))
            entries.append({"path": str(tmp_path / f"{name}.csv"), "name": name})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "datasets": entries, "models": ["rvfl", "r2vfl-m"], "k": 2, "seed": 0,
            "grid": {"gamma_grid": [0.1, 10.0], "hidden_grid": [3, 9],
                     "kernel_grid": [1.0], "tau_grid": [0.75, 1.0]}}))
        serial = self.bench_tables(capsys, manifest, tmp_path / "jobs1", "1")
        log = tmp_path / "chunks.log"
        monkeypatch.setattr(evaluate, "_evaluate_chunk", functools.partial(_logged_chunk, log))
        assert self.bench_tables(capsys, manifest, tmp_path / "jobs2", "2") == serial
        assert Counter(log.read_text().splitlines()) == {"large": 2, "small": 1}
        assert pool_sizes == [2]

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_tables_and_traces_keep_their_bytes(self, tmp_path, capsys, monkeypatch, jobs):
        # at --jobs 2 and 3 the 60-row set's unit is cut into two and three chunks
        results = []
        real = cli.grid_searches

        def recorded(*args):
            results.extend(real(*args))
            return results

        monkeypatch.setattr(cli, "grid_searches", recorded)
        tables = self.bench_tables(capsys, pinned_manifest(tmp_path), tmp_path / "b", jobs)
        assert tuple(hashlib.sha256(t).hexdigest() for t in tables) == PINNED_TABLES
        assert tuple(trace_sha256(r.trace) for row in results for r in row) == PINNED_TRACES

    def test_one_fold_context_serves_every_model(self, tmp_path, capsys, monkeypatch):
        manifest = pinned_manifest(tmp_path)
        settings = json.loads(manifest.read_text())
        grid = GridSpec(**{key: tuple(v) for key, v in settings["grid"].items()},
                        k=settings["k"], seed=settings["seed"])
        sets = [cli.load_csv(entry["path"]) for entry in settings["datasets"]]
        robust = enumerate_configs("r2vfl-a", grid) + enumerate_configs("r2vfl-m", grid)
        # the scores r of each (set, fold), read byte for byte from fold contexts of their own
        scores = []
        for ds in sets:
            folds = stratified_k_fold(ds, grid.k, grid.seed)
            for f in range(grid.k):
                ctx = evaluate._FoldContext(ds, folds == f)
                scores.append({c: ctx.scores(c).tobytes() for c in robust})
        calls = Counter()

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        # each function is counted where its caller looks it up
        for module, name in ((rvflkit.weighting, "kernel_matrix"),
                             (rvflkit.weighting, "build_class_geometry"),
                             (rvflkit.model, "hidden_matrix"), (evaluate, "init_random_layer"),
                             (rvflkit.solver, "solve_primal"), (rvflkit.solver, "solve_dual")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        self.bench_tables(capsys, manifest, tmp_path / "b", "1")
        folds, hidden = len(sets) * grid.k, len(grid.hidden_grid)
        # one kernel entry per (set, fold, kernel gamma) serves r2vfl-a and r2vfl-m, and
        # builds both class geometries
        assert calls["kernel_matrix"] == folds * len(grid.kernel_grid)
        assert calls["build_class_geometry"] == 2 * folds * len(grid.kernel_grid)
        # one layer per (set, fold, hidden count), projected once per side for all four
        assert calls["init_random_layer"] == folds * hidden
        assert calls["hidden_matrix"] == 2 * folds * hidden
        # one Gram matrix per (set, fold, hidden count) for rvfl, one for elm, and one per
        # distinct r of the robust configs: at tau = 1, r = cp, which both robust variants
        # share, so their tau = 1 cells take one Gram matrix per kernel gamma at most
        for fold_scores in scores:
            at_tau_1 = [{r for c, r in fold_scores.items()
                         if c.variant == variant and c.weighting.tau_multiplier == 1}
                        for variant in CENTER_SCHEMES]
            assert at_tau_1[0] == at_tau_1[1] and len(at_tau_1[0]) <= len(grid.kernel_grid)
        grams = hidden * sum(2 + len(set(s.values())) for s in scores)
        per_model = hidden * sum(2 + sum(len({r for c, r in s.items() if c.variant == variant})
                                         for variant in CENTER_SCHEMES) for s in scores)
        assert grams < per_model
        assert calls["solve_primal"] + calls["solve_dual"] == grams
        assert calls["solve_primal"] > 0 and calls["solve_dual"] > 0

    def test_unknown_model_fails_before_any_dataset_or_grid(self, toy_csv, tmp_path, capsys,
                                                            monkeypatch):
        manifest = self.bench_manifest(tmp_path, toy_csv)
        settings = json.loads(manifest.read_text())
        settings["models"] = ["rvfl", "nope"]
        manifest.write_text(json.dumps(settings))
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("load_csv", "grid_searches"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        code = main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "b")])
        assert code == 2
        assert capsys.readouterr().err == ("error: unknown variant 'nope'; expected one of "
                                           "('rvfl', 'elm', 'r2vfl-a', 'r2vfl-m')\n")
        assert calls == []

    def test_failing_grid_cancels_the_grids_no_worker_has_taken(self, tmp_path, capsys,
                                                                monkeypatch):
        # the largest set's grid runs first and fails; ten slow grids queue behind it
        log = tmp_path / "ran.log"
        monkeypatch.setattr(evaluate, "_evaluate_chunk",
                            functools.partial(_failing_or_slow_chunk, log))
        entries = []
        for name, n in [("bad", 20)] + [(f"good{i}", 6) for i in range(10)]:
            path = tmp_path / f"{name}.csv"
            ds = gaussian_blobs(n, seed=1)
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(list(x) + [ds.class_names[y]]
                                         for x, y in zip(ds.features, ds.labels))
            entries.append({"path": str(path), "name": name})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"datasets": entries, "models": ["rvfl"], "k": 2,
                                        "grid": {"gamma_grid": [1.0], "hidden_grid": [3]}}))
        code = main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "b"),
                     "--jobs", "2"])
        assert code == 2
        assert capsys.readouterr().err == "error: grid of bad failed\n"
        assert multiprocessing.active_children() == []
        # pool.map's iterator cancels the grids no worker holds when it raises: only those
        # in the workers or their queue (jobs + 1 deep) still run
        assert len(log.read_text().splitlines()) <= 5

    def test_failing_grid_in_shared_pool_is_one_line_error(self, tmp_path, capsys):
        # two rows of two classes: at k = 2 every fold misses a class and is skipped
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("0.0,1.0,a\n1.0,0.0,b\n")
        manifest = self.bench_manifest(tmp_path, tiny)
        code = main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "b"),
                     "--jobs", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: every fold was skipped; ") and err.count("\n") == 1
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("key, value, other", [("delta_quantile", 0.25, 0.5),
                                                ("delta", 0.4, 0.8)])
def test_grid_and_bench_read_delta_settings(tmp_path, capsys, key, value, other):
    # noisy blobs on which both values of the setting give different CV means
    ds = gaussian_blobs(15, seed=2, separation=2.0, flip_fraction=0.1)
    data = tmp_path / "noisy.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        for x, y in zip(ds.features, ds.labels):
            writer.writerow(list(x) + [ds.class_names[y]])
    settings = {"k": 2, "seed": 0}
    means = {}
    for v in (value, other):
        cfg = tmp_path / f"cv_{v}.json"
        cfg.write_text(json.dumps({"variant": "r2vfl-m", "hidden": 5, "gamma": 1.0,
                                   "kernel_gamma": 1.0, "tau": 1.0, key: v, **settings}))
        code, out = run(capsys, "cv", "--data", str(data), "--config", str(cfg),
                        "--format", "json")
        assert code == 0
        means[v] = json.loads(out)["mean"]
    assert means[value] != means[other]

    axes = {"gamma_grid": [1.0], "hidden_grid": [5], "kernel_grid": [1.0], "tau_grid": [1.0]}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({**axes, key: value, **settings}))
    code, out = run(capsys, "grid", "--data", str(data), "--variant", "r2vfl-m",
                    "--grid-file", str(grid), "--format", "json")
    assert code == 0
    assert json.loads(out)["mean_accuracy"] == means[value]

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"datasets": [{"path": str(data)}], "models": ["r2vfl-m"],
                                    "grid": axes, key: value, **settings}))
    code, _ = run(capsys, "bench", "--manifest", str(manifest), "--out", str(tmp_path / "b"))
    assert code == 0
    rows = list(csv.reader((tmp_path / "b" / "accuracy.csv").read_text().splitlines()))
    assert float(rows[1][1]) == means[value]


def _write(path, text):
    path.write_text(text)
    return str(path)


BAD_ALPHAS = ("0", "1", "-0.1", "7", "nan")


@pytest.mark.parametrize("case, code", [
    ("manifest_is_list", 2),
    ("manifest_without_datasets", 2),
    ("dataset_without_path", 2),
    ("one_row_ranks", 2),
    ("empty_table", 2),
    ("unknown_reference", 1),
    ("reference_index_out_of_range", 1),
    ("grid_entry_not_a_list", 2),
    ("grid_entry_not_numeric", 2),
    ("grid_hidden_not_integer", 2),
    ("bench_grid_entry_not_a_list", 2),
    ("bench_grid_not_an_object", 2),
    ("short_rank_row_nemenyi", 2),
    ("short_rank_row_friedman", 2),
    ("ragged_table_row", 2),
    ("cv_hidden_fraction", 2),
    ("cv_k_fraction", 2),
    ("cv_hidden_null", 2),
    ("cv_delta_string", 2),
    ("cv_kernel_gamma_list", 2),
    ("cv_has_header_string", 2),
    ("grid_k_list", 2),
    ("manifest_models_string", 2),
    ("manifest_has_header_integer", 2),
    ("cv_seed_negative", 2),
    ("grid_seed_negative", 2),
    ("cv_gamma_inf", 2),
    ("cv_gamma_overflows_reciprocal", 2),
    ("cv_config_gamma_overflow", 2),
    ("cv_kernel_gamma_inf", 2),
    ("cv_range_overflow", 2),
    ("cv_empty_label", 2),
    ("cv_oversized_cell", 2),
    ("table_oversized_cell", 2),
    ("ranks_oversized_cell", 2),
    ("ranks_nan_friedman", 2),
    ("ranks_nan_nemenyi", 2),
    ("table_inf_wilcoxon", 2),
    ("table_nan_friedman", 2),
    ("ranks_text_cell", 2),
    ("table_empty_cell", 2),
    ("ranks_extra_row", 2),
    ("label_column_text", 1),
    ("label_column_negative", 2),
    *((f"wilcoxon_alpha_{alpha}", 1) for alpha in BAD_ALPHAS),
    ("nemenyi_q_alpha_inf", 2),
    ("cv_delta_inf", 2),
    ("grid_delta_infinity", 2),
    ("grid_jobs_0", 1),
    ("grid_jobs_negative", 1),
    ("bench_jobs_0", 1),
    ("bench_models_repeated", 2),
    ("table_model_repeated", 2),
    ("ranks_model_repeated", 2),
    ("manifest_datasets_empty", 2),
    ("manifest_models_empty", 2),
    ("config_trailing_comma", 2),
    ("config_not_utf8", 2),
    ("grid_file_trailing_comma", 2),
    ("manifest_trailing_comma", 2),
])
def test_malformed_input_is_one_line_error(tmp_path, capsys, toy_csv, case, code):
    ranks = str(FIXTURES / "binary_uci_avg_ranks.csv")
    out = str(tmp_path / "out")
    data = str(toy_csv)
    bench = '{"datasets": [{"path": "%s"}], "grid": %s}'
    long_cell = "x" * 140_000  # longer than csv.field_size_limit()
    argv = {
        "manifest_is_list": ["bench", "--out", out,
                             "--manifest", _write(tmp_path / "list.json", "[1, 2]")],
        "manifest_without_datasets": ["bench", "--out", out, "--manifest",
                                      _write(tmp_path / "no_datasets.json", '{"k": 2}')],
        "dataset_without_path": ["bench", "--out", out, "--manifest", _write(
            tmp_path / "no_path.json", '{"datasets": [{"name": "a"}]}')],
        "one_row_ranks": ["stats", "friedman", "--datasets", "30",
                          "--ranks", _write(tmp_path / "one_row.csv", "a,b,c\n")],
        "empty_table": ["stats", "friedman", "--table", _write(tmp_path / "empty.csv", "")],
        "unknown_reference": ["stats", "nemenyi", "--ranks", ranks, "--datasets", "30",
                              "--q-alpha", "3.164", "--reference", "foo"],
        "reference_index_out_of_range": ["stats", "nemenyi", "--ranks", ranks,
                                         "--datasets", "30", "--q-alpha", "3.164",
                                         "--reference", "10"],
        "grid_entry_not_a_list": ["grid", "--data", data, "--variant", "rvfl", "--grid-file",
                                  _write(tmp_path / "int_axis.json", '{"gamma_grid": 5}')],
        "grid_entry_not_numeric": ["grid", "--data", data, "--variant", "rvfl", "--grid-file",
                                   _write(tmp_path / "str_item.json", '{"hidden_grid": [3, "a"]}')],
        "grid_hidden_not_integer": ["grid", "--data", data, "--variant", "rvfl", "--grid-file",
                                    _write(tmp_path / "float_hidden.json",
                                           '{"hidden_grid": [3.5]}')],
        "bench_grid_entry_not_a_list": ["bench", "--out", out, "--manifest", _write(
            tmp_path / "bench_int_axis.json", bench % (data, '{"gamma_grid": 5}'))],
        "bench_grid_not_an_object": ["bench", "--out", out, "--manifest", _write(
            tmp_path / "bench_list_grid.json", bench % (data, "[1, 2]"))],
        "short_rank_row_nemenyi": ["stats", "nemenyi", "--datasets", "5", "--q-alpha", "2.3",
                                   "--ranks", _write(tmp_path / "short_n.csv", "a,b,c\n1,2\n")],
        "short_rank_row_friedman": ["stats", "friedman", "--datasets", "5",
                                    "--ranks", _write(tmp_path / "short_f.csv", "a,b,c\n1,2\n")],
        "ragged_table_row": ["stats", "friedman", "--table", _write(
            tmp_path / "ragged.csv", "dataset,a,b\nd1,80,90\nd2,70\nd3,60,65\n")],
        "grid_k_list": ["grid", "--data", data, "--variant", "rvfl", "--grid-file",
                        _write(tmp_path / "k_list.json", '{"k": [2]}')],
        "manifest_models_string": ["bench", "--out", out, "--manifest", _write(
            tmp_path / "models_string.json", '{"datasets": [{"path": "%s"}], "models": "rvfl"}'
            % data)],
        "manifest_has_header_integer": ["bench", "--out", out, "--manifest", _write(
            tmp_path / "header_int.json", '{"datasets": [{"path": "%s", "has_header": 1}]}'
            % data)],
        "cv_seed_negative": ["cv", "--data", data, "--variant", "rvfl", "--seed", "-1"],
        "grid_seed_negative": ["grid", "--data", data, "--variant", "rvfl", "--grid-file",
                               _write(tmp_path / "seed.json", '{"seed": -1}')],
        "cv_gamma_inf": ["cv", "--data", data, "--variant", "rvfl", "--gamma", "inf"],
        "cv_gamma_overflows_reciprocal": ["cv", "--data", data, "--variant", "rvfl",
                                          "--gamma", "1e-320"],
        "cv_kernel_gamma_inf": ["cv", "--data", data, "--variant", "r2vfl-m",
                                "--kernel-gamma", "inf"],
        "cv_range_overflow": ["cv", "--variant", "rvfl", "--k", "2", "--data", _write(
            tmp_path / "overflow.csv", "1e308,2,a\n-1e308,4,b\n5,6,a\n1,1,b\n")],
        "cv_empty_label": ["cv", "--variant", "rvfl", "--k", "2", "--data", _write(
            tmp_path / "empty_label.csv", "1,2,a\n3,4,b\n5,6,\n7,8,b\n")],
        "cv_oversized_cell": ["cv", "--variant", "rvfl", "--k", "2", "--data", _write(
            tmp_path / "long.csv", f"1,{long_cell},a\n3,4,b\n5,6,a\n7,8,b\n")],
        "table_oversized_cell": ["stats", "friedman", "--table", _write(
            tmp_path / "long_table.csv", f"dataset,a,b\nd1,80,{long_cell}\nd2,70,75\n")],
        "ranks_oversized_cell": ["stats", "nemenyi", "--datasets", "5", "--q-alpha", "2.3",
                                 "--ranks", _write(tmp_path / "long_ranks.csv",
                                                   f"a,b,{long_cell}\n1,2,3\n")],
        "ranks_nan_friedman": ["stats", "friedman", "--datasets", "5", "--ranks", _write(
            tmp_path / "nan_ranks.csv", "a,b,c\n1,nan,3\n")],
        "ranks_nan_nemenyi": ["stats", "nemenyi", "--datasets", "5", "--ranks", _write(
            tmp_path / "nan_ranks.csv", "a,b,c\n1,nan,3\n")],
        "table_inf_wilcoxon": ["stats", "wilcoxon", "--a", "a", "--b", "b", "--table", _write(
            tmp_path / "inf_table.csv",
            "dataset,a,b\n" + "".join(f"d{i},{80 + i},{70 + i}\n" for i in range(6))
            + "d6,inf,75\n")],
        "table_nan_friedman": ["stats", "friedman", "--table", _write(
            tmp_path / "nan_table.csv", "dataset,a,b\nd1,80,90\nd2,NaN,75\n")],
        "ranks_text_cell": ["stats", "friedman", "--datasets", "5", "--ranks", _write(
            tmp_path / "text_ranks.csv", "a,b,c\n1,x2,3\n")],
        "table_empty_cell": ["stats", "friedman", "--table", _write(
            tmp_path / "blank_cell.csv", "dataset,a,b\nd1,80,90\nd2,,75\n")],
        "ranks_extra_row": ["stats", "friedman", "--datasets", "10", "--ranks", _write(
            tmp_path / "extra_row.csv", "a,b,c\n1.5,2.0,2.5\n3,2,1\n")],
        "label_column_text": ["cv", "--data", data, "--variant", "rvfl", "--label-column", "x"],
        "label_column_negative": ["cv", "--data", data, "--variant", "rvfl",
                                  "--label-column", "-1"],
        "nemenyi_q_alpha_inf": ["stats", "nemenyi", "--ranks", ranks, "--datasets", "30",
                                "--q-alpha", "inf", "--format", "json"],
        "cv_delta_inf": ["cv", "--data", data, "--variant", "r2vfl-m", "--delta", "inf"],
        "grid_delta_infinity": ["grid", "--data", data, "--variant", "r2vfl-a", "--grid-file",
                                _write(tmp_path / "delta_inf.json", '{"delta": Infinity}')],
        "grid_jobs_0": ["grid", "--data", data, "--variant", "rvfl", "--jobs", "0"],
        "grid_jobs_negative": ["grid", "--data", data, "--variant", "rvfl", "--jobs", "-3"],
        "bench_jobs_0": ["bench", "--out", out, "--jobs", "0", "--manifest", _write(
            tmp_path / "bench_jobs.json", bench % (data, "{}"))],
        "bench_models_repeated": ["bench", "--out", out, "--models", "rvfl,elm,rvfl",
                                  "--manifest", _write(tmp_path / "bench_models.json",
                                                       bench % (data, "{}"))],
        "table_model_repeated": ["stats", "wilcoxon", "--a", "rvfl", "--b", "rvfl", "--table",
                                 _write(tmp_path / "repeated.csv", "dataset,rvfl,rvfl\n" + "".join(
                                     f"d{i},{80 + i},{70 + i}\n" for i in range(6)))],
        "ranks_model_repeated": ["stats", "nemenyi", "--datasets", "10", "--ranks", _write(
            tmp_path / "repeated_ranks.csv", "a,a,b\n1.5,2.0,2.5\n")],
        "manifest_datasets_empty": ["bench", "--out", out, "--manifest", _write(
            tmp_path / "no_sets.json", '{"datasets": [], "models": ["rvfl"]}')],
        "manifest_models_empty": ["bench", "--out", out, "--manifest", _write(
            tmp_path / "no_models.json", '{"datasets": [{"path": "%s"}], "models": []}' % data)],
        "grid_file_trailing_comma": ["grid", "--data", data, "--variant", "rvfl", "--grid-file",
                                     _write(tmp_path / "comma.json", '{"k": 2,}')],
        "manifest_trailing_comma": ["bench", "--out", out, "--manifest",
                                    _write(tmp_path / "comma.json", '{"k": 2,}')],
    }.get(case)
    if case.startswith("wilcoxon_alpha_"):
        argv = ["stats", "wilcoxon", "--table", str(FIXTURES / "eeg_accuracy.csv"),
                "--a", "rvfl", "--b", "r2vfl_m", "--alpha", case.rpartition("_")[2]]
    cv_settings = {
        "cv_hidden_fraction": '{"variant": "rvfl", "hidden": 3.9}',
        "cv_k_fraction": '{"variant": "rvfl", "k": 2.7}',
        "cv_hidden_null": '{"variant": "rvfl", "hidden": null}',
        "cv_delta_string": '{"variant": "r2vfl-a", "delta": "0.5"}',
        "cv_kernel_gamma_list": '{"variant": "r2vfl-m", "kernel_gamma": [1]}',
        "cv_has_header_string": '{"variant": "rvfl", "has_header": "false"}',
        "cv_config_gamma_overflow": '{"variant": "rvfl", "gamma": 1e400}',
    }
    if case in cv_settings:
        argv = ["cv", "--data", data, "--config", _write(tmp_path / "cfg.json", cv_settings[case])]
    if case == "config_trailing_comma":
        argv = ["cv", "--data", data, "--config", _write(tmp_path / "comma.json", '{"k": 2,}')]
    if case == "config_not_utf8":
        (tmp_path / "latin1.json").write_bytes('{"variant": "rvfl", "name": "é"}'.encode("latin-1"))
        argv = ["cv", "--data", data, "--config", str(tmp_path / "latin1.json")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("usage error: " if code == 1 else "error: ")
    # the message names what is wrong
    assert {"grid_entry_not_a_list": '"gamma_grid"', "grid_entry_not_numeric": '"hidden_grid"',
            "grid_hidden_not_integer": 'float_hidden.json: "hidden_grid" must be a list of '
                                       'integers, got [3.5]',
            "bench_grid_entry_not_a_list": '"gamma_grid"', "bench_grid_not_an_object": "grid",
            "short_rank_row_nemenyi": "rank row", "short_rank_row_friedman": "rank row",
            "ragged_table_row": "'d2'", "cv_hidden_fraction": '"hidden"', "cv_k_fraction": '"k"',
            "cv_hidden_null": '"hidden"', "cv_delta_string": '"delta"',
            "cv_kernel_gamma_list": '"kernel_gamma"', "cv_has_header_string": '"has_header"',
            "grid_k_list": '"k"', "manifest_models_string": '"models"',
            "manifest_has_header_integer": '"has_header"', "cv_seed_negative": "seed",
            "grid_seed_negative": "seed", "cv_gamma_inf": "error: gamma",
            "cv_gamma_overflows_reciprocal": "error: gamma",
            "cv_config_gamma_overflow": "error: gamma",
            "cv_kernel_gamma_inf": "kernel gamma", "cv_range_overflow": "feature column 0",
            "cv_empty_label": "empty label at row 2", "cv_oversized_cell": "long.csv, line 1",
            "table_oversized_cell": "long_table.csv, line 2",
            "ranks_oversized_cell": "long_ranks.csv, line 1",
            "ranks_nan_friedman": "nan_ranks.csv: 'nan' is not a finite number",
            "ranks_nan_nemenyi": "nan_ranks.csv: 'nan' is not a finite number",
            "table_inf_wilcoxon": "inf_table.csv: 'inf' is not a finite number",
            "table_nan_friedman": "nan_table.csv: 'NaN' is not a finite number",
            "ranks_text_cell": "text_ranks.csv: 'x2' is not a number (rank row)",
            "table_empty_cell": "blank_cell.csv: '' is not a number (row 'd2')",
            "ranks_extra_row": "extra_row.csv must hold 2 rows, a header row of model names "
                               "and a row of ranks; it holds 3",
            "label_column_text": "argument --label-column",
            "label_column_negative": "label column -1 out of range",
            "nemenyi_q_alpha_inf": "q_alpha must be positive and finite",
            "cv_delta_inf": "delta must be positive and finite",
            "grid_delta_infinity": "delta must be positive and finite",
            "grid_jobs_0": "argument --jobs", "grid_jobs_negative": "argument --jobs",
            "bench_jobs_0": "argument --jobs",
            "bench_models_repeated": "model 'rvfl' is listed twice",
            "table_model_repeated": "model 'rvfl' is listed twice",
            "ranks_model_repeated": "model 'a' is listed twice",
            "manifest_datasets_empty": "empty benchmark table",
            "manifest_models_empty": "empty benchmark table",
            **dict.fromkeys(("config_trailing_comma", "grid_file_trailing_comma",
                             "manifest_trailing_comma"),
                            f"error: {tmp_path / 'comma.json'}: not UTF-8 JSON: Expecting "
                            "property name enclosed in double quotes: line 1 column 9"),
            "config_not_utf8": f"error: {tmp_path / 'latin1.json'}: not UTF-8 JSON: 'utf-8' "
                               "codec can't decode byte 0xe9",
            **dict.fromkeys((f"wilcoxon_alpha_{alpha}" for alpha in BAD_ALPHAS),
                            "argument --alpha")}.get(case, "") in err


# One JSON value of each kind, and the kinds of setting that each one satisfies.
JSON_VALUES = {"null": None, "boolean": True, "integer": 2, "fraction": 0.5, "string": "x",
               "list_of_numbers": [2], "list_of_fractions": [2.5], "list_of_strings": ["x"],
               "object": {}}
VALID_VALUES = {"an integer": {"integer"}, "a number": {"integer", "fraction"},
                "a string": {"string"}, "true or false": {"boolean"},
                '"last" or an integer': {"integer"},
                "a list of numbers": {"list_of_numbers", "list_of_fractions"},
                "a list of integers": {"list_of_numbers"}, "a list of strings": {"list_of_strings"}}
# The JSON keys that each command reads where no flag of the command line below gives them.
JSON_KEYS = {
    "cv": ("variant", "hidden", "gamma", "activation", "seed", "kernel_gamma", "tau",
           "delta", "delta_quantile", "has_header", "label_column", "name", "k"),
    "grid": ("has_header", "label_column", "name", "gamma_grid", "hidden_grid",
             "kernel_grid", "tau_grid", "k", "seed", "delta", "delta_quantile"),
    "bench": ("models", "path", "has_header", "label_column", "name", "gamma_grid",
              "hidden_grid", "kernel_grid", "tau_grid", "k", "seed", "delta", "delta_quantile"),
}


@pytest.mark.parametrize("command, key, kind", [
    (command, key, kind) for command, keys in JSON_KEYS.items() for key in keys
    for kind in JSON_VALUES
    if kind not in VALID_VALUES[SETTING_TYPES[key]] and (key, kind) != ("delta", "null")])
def test_json_setting_of_a_wrong_kind_is_one_line_error(tmp_path, capsys, toy_csv, command,
                                                        key, kind):
    settings = tmp_path / "settings.json"
    value = JSON_VALUES[kind]
    if command == "cv":
        settings.write_text(json.dumps({"variant": "r2vfl-m", key: value}))
        argv = ["cv", "--data", str(toy_csv), "--config", str(settings)]
    elif command == "grid":
        settings.write_text(json.dumps({key: value}))
        argv = ["grid", "--data", str(toy_csv), "--variant", "rvfl", "--grid-file", str(settings)]
    else:
        manifest = {"datasets": [{"path": str(toy_csv)}], "models": ["rvfl"], "grid": {}}
        if key.endswith("_grid"):
            manifest["grid"][key] = value
        elif key in ("path", "has_header", "label_column", "name"):
            manifest["datasets"][0][key] = value
        else:
            manifest[key] = value
        settings.write_text(json.dumps(manifest))
        argv = ["bench", "--manifest", str(settings), "--out", str(tmp_path / "b")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f'"{key}" must be {SETTING_TYPES[key]}' in err


@pytest.mark.parametrize("command, place, key", [
    ("train", "config", "hiden"), ("train", "config", "k"), ("cv", "config", "kernel_gama"),
    ("grid", "grid_file", "hidden_grd"), ("grid", "grid_file", "variant"),
    ("bench", "grid", "k"), ("bench", "grid", "seed"), ("bench", "manifest", "hidden_grid"),
    ("bench", "manifest", "model"), ("bench", "dataset", "label")])
def test_json_key_that_nothing_reads_is_one_line_error(tmp_path, capsys, toy_csv, command,
                                                       place, key):
    # each key would leave a setting at its default: "hiden" trains 103 nodes, a "k"
    # in a manifest's grid object runs 5 folds, "hidden_grd" runs the default grid
    settings = tmp_path / "settings.json"
    where = str(settings)
    if command in ("train", "cv"):
        settings.write_text(json.dumps({"variant": "r2vfl-m", key: 2}))
        argv = [command, "--data", str(toy_csv), "--config", str(settings)]
        if command == "train":
            argv += ["--out", str(tmp_path / "m.bin")]
    elif command == "grid":
        settings.write_text(json.dumps({"k": 2, key: [3]}))
        argv = ["grid", "--data", str(toy_csv), "--variant", "rvfl", "--grid-file", str(settings)]
    else:
        manifest = {"datasets": [{"path": str(toy_csv)}], "models": ["rvfl"], "k": 2,
                    "grid": {"gamma_grid": [1.0]}}
        target = {"manifest": manifest, "grid": manifest["grid"],
                  "dataset": manifest["datasets"][0]}[place]
        target[key] = 2
        where += {"manifest": "", "grid": ": grid", "dataset": ": dataset 0"}[place]
        settings.write_text(json.dumps(manifest))
        argv = ["bench", "--manifest", str(settings), "--out", str(tmp_path / "b")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f'error: {where}: unknown key "{key}"\n'
    assert not (tmp_path / "m.bin").exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize("message", ["Unable to allocate 14.9 GiB for an array with shape "
                                     "(2000000000, 1) and data type float64", ""])
def test_memory_error_is_one_line_error(monkeypatch, capsys, toy_csv, tmp_path, message):
    # numpy raises a MemoryError when it cannot allocate an array; a command that raises
    # one stands in for a real allocation, which an overcommitting system may grant
    def out_of_memory(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "cmd_train", out_of_memory)
    code = main(["train", "--data", str(toy_csv), "--variant", "rvfl",
                 "--out", str(tmp_path / "m.bin")])
    assert code == 2
    detail = f": {message}" if message else ""
    assert capsys.readouterr().err == f"error: out of memory{detail}\n"


class TestStats:
    def test_friedman_on_shipped_fixture(self, capsys):
        code, out = run(capsys, "stats", "friedman",
                        "--ranks", str(FIXTURES / "binary_uci_avg_ranks.csv"),
                        "--datasets", "30", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["chi2_friedman"] == pytest.approx(111.4570, abs=0.01)
        assert payload["f_statistic"] == pytest.approx(20.3872, abs=0.01)

    def test_friedman_from_accuracy_table(self, capsys):
        code, out = run(capsys, "stats", "friedman",
                        "--table", str(FIXTURES / "binary_uci_accuracy.csv"),
                        "--format", "json")
        assert code == 0
        # ranks recomputed from the full-precision table differ slightly from
        # the published two-decimal rank row
        assert json.loads(out)["chi2_friedman"] == pytest.approx(111.457, abs=0.5)

    def test_nemenyi_fixture_row(self, capsys):
        code, out = run(capsys, "stats", "nemenyi",
                        "--ranks", str(FIXTURES / "binary_uci_avg_ranks.csv"),
                        "--datasets", "30", "--q-alpha", "3.164",
                        "--reference", "r2vfl_m", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["critical_difference"] == pytest.approx(2.4734, abs=0.0005)
        assert "significant=No" in payload["nf_rvfl_k"]
        for model in ("rvfl", "rvflwodl", "total_var_rvfl", "mcvelm", "ifrvfl",
                      "nf_rvfl_c", "nf_rvfl_r"):
            assert "significant=Yes" in payload[model]

    def test_wilcoxon_fixture_columns(self, capsys):
        code, out = run(capsys, "stats", "wilcoxon",
                        "--table", str(FIXTURES / "binary_uci_accuracy.csv"),
                        "--a", "r2vfl_a", "--b", "rvfl", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["r_plus"] == 450.0 and payload["r_minus"] == 15.0
        assert payload["null_hypothesis"] == "rejected"

    def test_wilcoxon_unknown_column_is_usage_error(self, capsys):
        code = main(["stats", "wilcoxon", "--table",
                     str(FIXTURES / "binary_uci_accuracy.csv"), "--a", "nope", "--b", "rvfl"])
        assert code == 1


@pytest.mark.parametrize("module", ["rvflkit.cli", "rvflkit"])
def test_import_loads_no_scipy_stats(module):
    # scipy.stats would take about half of every command's start-up; nothing needs it
    src = str(Path(rvflkit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if 'scipy.stats' in m))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout == "[]\n"  # also: the import prints nothing


# Runs every command but the LU fallback and `stats wilcoxon` in one process after
# `import rvflkit.cli`, and prints the numpy and scipy modules that each one adds
STARTUP_SCRIPT = """
import contextlib, io, sys
import rvflkit.cli
print(sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.special"))))
before = set(sys.modules)
for argv in [
        ["train", "--data", "a.csv", "--variant", "r2vfl-m", "--hidden", "5", "--tau", "0.75",
         "--out", "m.rvfl"],
        ["predict", "--data", "a.csv", "--model", "m.rvfl"],
        ["cv", "--data", "a.csv", "--variant", "r2vfl-a", "--hidden", "5", "--k", "3"],
        ["grid", "--data", "a.csv", "--variant", "r2vfl-m", "--grid-file", "grid.json"],
        ["bench", "--manifest", "manifest.json", "--out", "table", "--jobs", "1"],
        ["stats", "friedman", "--table", "table/accuracy.csv"]]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = rvflkit.cli.main(argv)
    print(argv[0], code, sorted(m for m in set(sys.modules) - before
                                if m.split(".")[0] in ("numpy", "scipy")))
"""


def test_import_loads_what_every_command_needs(tmp_path):
    # scipy.linalg and scipy.special would double every command's start-up; the import
    # loads everything else that the commands touch, so that no command pays for it
    grid = {"gamma_grid": [1.0, 100.0], "hidden_grid": [5], "kernel_grid": [1.0],
            "tau_grid": [0.75, 1.0]}
    (tmp_path / "grid.json").write_text(json.dumps({**grid, "k": 3}))
    datasets = []
    for i, separation in enumerate((1.0, 2.0, 4.0, 8.0)):
        ds = gaussian_blobs(10, seed=i, separation=separation)
        with open(tmp_path / f"{'abcd'[i]}.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(list(x) + [ds.class_names[y]]
                                     for x, y in zip(ds.features, ds.labels))
        datasets.append({"path": f"{'abcd'[i]}.csv", "name": "abcd"[i]})
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"datasets": datasets, "models": ["rvfl", "elm", "r2vfl-a"], "grid": grid, "k": 3}))
    src = str(Path(rvflkit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines() == [
        "[]", *(f"{command} 0 []" for command in
                ("train", "predict", "cv", "grid", "bench", "stats"))], done.stderr


def test_every_grid_spec_field_has_a_setting_kind():
    # _grid_spec reads every GridSpec field from JSON; one without a kind would raise
    # a bare KeyError there
    assert {f.name for f in fields(GridSpec)} <= set(SETTING_TYPES)


def _setting_reads(cls, **given):
    """The (CLI name, default) of each setting ``cli._config`` reads to build ``cls``."""
    reads = []

    def setting(name, default):
        reads.append((name, default))
        return default

    cli._config(cls, setting, **given)
    return reads


def test_config_builder_reads_settings_with_a_default_a_kind_and_a_flag():
    # a setting without a kind would fail with a bare KeyError, and a flag of another dest
    # would never be read
    model = (_setting_reads(ModelConfig, variant="r2vfl-m", weighting=WeightingConfig())
             + _setting_reads(WeightingConfig))
    grid = _setting_reads(GridSpec)
    for name, default in model + grid:
        assert default is not MISSING, name
        assert name in SETTING_TYPES, name
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    for command, reads in (("train", model), ("cv", model), ("grid", grid), ("bench", grid)):
        names = {name for name, _ in reads}
        flags = {action.option_strings[-1][2:].replace("-", "_"): action.dest
                 for action in commands[command]._actions if action.option_strings}
        assert all(flags[name] == name for name in names & flags.keys())
        if command in ("train", "cv"):
            assert names <= flags.keys()
    # the wrong-kind test covers every setting
    assert set().union(*JSON_KEYS.values()) == set(SETTING_TYPES)


def test_train_with_only_a_variant_writes_the_dataclass_defaults(toy_csv, tmp_path, capsys):
    model = tmp_path / "m.bin"
    code, _ = run(capsys, "train", "--data", str(toy_csv), "--variant", "r2vfl-m",
                  "--out", str(model))
    assert code == 0
    payload = model.read_bytes()[len(MODEL_MAGIC) + 4:-32]
    (hlen,) = struct.unpack_from("<I", payload)
    header = json.loads(payload[4:4 + hlen])
    assert header["weighting"].pop("center_scheme") == "median"
    expected = asdict(ModelConfig("r2vfl-m", weighting=WeightingConfig()))
    assert {key: header.pop(key) for key in expected} == expected
    assert set(header) == {"class_names", "n_features", "has_scores"}


def test_readme_json_settings_name_every_setting():
    # README's "JSON settings" list names every key that SETTING_TYPES gives a kind
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\nJSON settings ", 1)[1]
    block = block.split("A key that the command does not read", 1)[0]
    assert set(SETTING_TYPES) <= set(re.findall(r"`(\w+)`", block))


def test_help_available(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_readme_cli_examples_parse():
    # every command of README's CLI block takes the flags it shows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("rvflkit ")]
    assert len(commands) == 8
    for argv in commands:
        assert callable(cli.build_parser().parse_args(argv).func)


@needs_proc_task
def test_cli_process_stays_on_one_thread_after_a_pool(tmp_path):
    # OpenBLAS shuts its thread server down in a forking process, and any set call after
    # that starts it again: bench --jobs 2 and a later train must make none
    builds = len(_openblas_thread_functions())
    if not builds:
        pytest.skip("numpy and scipy do not bundle OpenBLAS here")
    manifest = pinned_manifest(tmp_path)
    commands = [["bench", "--manifest", str(manifest), "--out", str(tmp_path / "b"),
                 "--jobs", "2"],
                ["train", "--data", str(tmp_path / "small.csv"), "--variant", "r2vfl-m",
                 "--out", str(tmp_path / "m.bin")]]
    # the pool's own threads are joined, but the last of them may still be exiting
    script = ("import json, os, sys, time\n"
              "from rvflkit import cli, solver\n"
              "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "deadline = time.monotonic() + 10\n"
              "while len(os.listdir('/proc/self/task')) > 1 and time.monotonic() < deadline:\n"
              "    time.sleep(0.01)\n"
              "print(json.dumps([codes, len(os.listdir('/proc/self/task')),\n"
              "                  [get() for get, _ in solver._openblas_thread_controls()]]))\n")
    src = str(Path(rvflkit.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    codes, threads, counts = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert threads == 1 and counts == [1] * builds


@needs_proc_task
def test_cli_process_stops_the_blas_thread_servers(toy_csv):
    # loading OpenBLAS starts cores - 1 worker threads per build, which spin for a while
    # after they start; cli.main stops them, and no command starts them again
    builds = len(_openblas_thread_functions())
    if not builds:
        pytest.skip("numpy and scipy do not bundle OpenBLAS here")
    script = ("import json, os, sys\n"
              "from rvflkit import cli\n"
              "loaded = len(os.listdir('/proc/self/task'))\n"
              "code = cli.main(['train', '--data', sys.argv[1], '--variant', 'rvfl',\n"
              "                 '--out', os.devnull])\n"
              "print(json.dumps([code, loaded, len(os.listdir('/proc/self/task'))]))\n")
    src = str(Path(rvflkit.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script, str(toy_csv)], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    code, loaded, threads = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == 1 + builds and threads == 1


def test_train_and_predict_do_not_depend_on_blas_threads(tmp_path):
    # a 150-row robust model: big enough that a 2-thread OpenBLAS splits its products.
    # cli.main sets one thread first, so this checks the CLI path; test_model's
    # test_train_and_predict_scores_do_not_depend_on_blas_threads checks the library's
    ds = gaussian_blobs(75, seed=5, n_features=5, flip_fraction=0.1)
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(list(x) + [ds.class_names[y]]
                                 for x, y in zip(ds.features, ds.labels))
    src = str(Path(rvflkit.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        stdout = [subprocess.run([sys.executable, "-m", "rvflkit.cli", *argv], cwd=run_dir,
                                 env=env, capture_output=True, text=True, timeout=120,
                                 check=True).stdout
                  for argv in (["train", "--data", str(data), "--variant", "r2vfl-m",
                                "--hidden", "203", "--out", "model.bin"],
                               ["predict", "--data", str(data), "--model", "model.bin"])]
        outputs.append(((run_dir / "model.bin").read_bytes(), stdout))
    assert outputs[0] == outputs[1]
