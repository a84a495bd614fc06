import concurrent.futures
import csv
import functools
import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import fields
from importlib import resources
from pathlib import Path

import pytest

import rvflkit
from rvflkit import cli, evaluate
from rvflkit.cli import SETTING_TYPES, main
from rvflkit.data import DataError
from rvflkit.evaluate import GridSpec
from conftest import gaussian_blobs, needs_dev_fd, read_through_pipe

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


def _failing_or_slow_grid(log, dataset, variant, grid):
    """A stand-in for ``grid_search`` in bench's workers: fails on the set named "bad",
    else logs the set and takes a while."""
    if dataset.name == "bad":
        raise DataError("grid of bad failed")
    with open(log, "a") as fh:
        fh.write(dataset.name + "\n")
    time.sleep(0.3)
    return evaluate.grid_search(dataset, variant, grid)


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

    def bench_manifest(self, tmp_path, second):
        """Two datasets and two models, rvfl and r2vfl-m: four (dataset, model) grids."""
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "datasets": [{"path": str(tmp_path / "first.csv")}, {"path": str(second)}],
            "models": ["rvfl", "r2vfl-m"], "k": 2, "seed": 0,
            "grid": {"gamma_grid": [0.1, 10.0], "hidden_grid": [3, 9],
                     "kernel_grid": [1.0], "tau_grid": [0.75, 1.0]},
        }))
        ds = gaussian_blobs(15, seed=2, separation=2.0, flip_fraction=0.1)
        with open(tmp_path / "first.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(list(x) + [ds.class_names[y]]
                                     for x, y in zip(ds.features, ds.labels))
        return manifest

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The worker count asked of every process pool; each forks at most two."""
        sizes = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2))

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
        assert pool_sizes == [2]  # one pool for all four grids

    def test_pool_capped_at_most_chunks_of_any_grid(self, toy_csv, tmp_path, capsys,
                                                    pool_sizes):
        # two datasets x two models: four (dataset, model) grids, one task each
        manifest = self.bench_manifest(tmp_path, toy_csv)
        tables = [self.bench_tables(capsys, manifest, tmp_path / f"jobs{jobs}", jobs)
                  for jobs in ("1", "64")]
        assert tables[0] == tables[1]
        assert pool_sizes == [4]

    def test_pool_capped_at_task_count(self, toy_csv, tmp_path, capsys, pool_sizes):
        # one dataset x two models is two tasks, although r2vfl-m's grid has four groups
        manifest = self.bench_manifest(tmp_path, toy_csv)
        settings = json.loads(manifest.read_text())
        settings["datasets"] = settings["datasets"][:1]
        manifest.write_text(json.dumps(settings))
        tables = [self.bench_tables(capsys, manifest, tmp_path / f"jobs{jobs}", jobs)
                  for jobs in ("1", "64")]
        assert tables[0] == tables[1]
        assert pool_sizes == [2]

    def test_grids_go_out_largest_first(self, toy_csv, tmp_path, capsys, monkeypatch):
        # rows x configs: 30 x 16, 24 x 16, 30 x 4, 24 x 4
        manifest = self.bench_manifest(tmp_path, toy_csv)
        order = []

        def recorded(dataset, variant, grid):
            order.append((Path(dataset.name).stem, variant))
            return evaluate.grid_search(dataset, variant, grid)

        monkeypatch.setattr(cli, "grid_search", recorded)
        code, _ = run(capsys, "bench", "--manifest", str(manifest), "--out", str(tmp_path / "b"))
        assert code == 0
        assert order == [("first", "r2vfl-m"), ("toy", "r2vfl-m"), ("first", "rvfl"),
                         ("toy", "rvfl")]

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

        for name in ("load_csv", "grid_search"):
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
        monkeypatch.setattr(cli, "grid_search", functools.partial(_failing_or_slow_grid, log))
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
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("usage error: " if code == 1 else "error: ")
    # the message names what is wrong
    assert {"grid_entry_not_a_list": '"gamma_grid"', "grid_entry_not_numeric": '"hidden_grid"',
            "grid_hidden_not_integer": "hidden_nodes",
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
            **dict.fromkeys((f"wilcoxon_alpha_{alpha}" for alpha in BAD_ALPHAS),
                            "argument --alpha")}.get(case, "") in err


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


def test_every_grid_spec_field_has_a_setting_kind():
    # _grid_spec reads every GridSpec field from JSON; one without a kind would raise
    # a bare KeyError there
    assert {f.name for f in fields(GridSpec)} <= set(SETTING_TYPES)


def test_help_available(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_train_and_predict_do_not_depend_on_blas_threads(tmp_path):
    # a 150-row robust model: big enough that a 2-thread OpenBLAS splits its products
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
