import csv
import json
from importlib import resources

import pytest

from rvflkit.cli import main
from rvflkit.datasets import gaussian_blobs

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


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("case, code", [
    ("manifest_is_list", 2),
    ("manifest_without_datasets", 2),
    ("dataset_without_path", 2),
    ("one_row_ranks", 2),
    ("empty_table", 2),
    ("unknown_reference", 1),
    ("reference_index_out_of_range", 1),
])
def test_malformed_input_is_one_line_error(tmp_path, capsys, case, code):
    ranks = str(FIXTURES / "binary_uci_avg_ranks.csv")
    out = str(tmp_path / "out")
    argv = {
        "manifest_is_list": ["bench", "--out", out,
                             "--manifest", _write(tmp_path / "m.json", "[1, 2]")],
        "manifest_without_datasets": ["bench", "--out", out,
                                      "--manifest", _write(tmp_path / "m.json", '{"k": 2}')],
        "dataset_without_path": ["bench", "--out", out, "--manifest",
                                 _write(tmp_path / "m.json", '{"datasets": [{"name": "a"}]}')],
        "one_row_ranks": ["stats", "friedman", "--datasets", "30",
                          "--ranks", _write(tmp_path / "r.csv", "a,b,c\n")],
        "empty_table": ["stats", "friedman", "--table", _write(tmp_path / "t.csv", "")],
        "unknown_reference": ["stats", "nemenyi", "--ranks", ranks, "--datasets", "30",
                              "--q-alpha", "3.164", "--reference", "foo"],
        "reference_index_out_of_range": ["stats", "nemenyi", "--ranks", ranks,
                                         "--datasets", "30", "--q-alpha", "3.164",
                                         "--reference", "10"],
    }[case]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("usage error: " if code == 1 else "error: ")


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


def test_help_available(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
