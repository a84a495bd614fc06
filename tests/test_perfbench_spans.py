"""perfbench's tracer wraps rvflkit functions by name: each must still exist, and a
traced run must record every layer."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import rvflkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# every span a traced robust grid, train and predict record; perfbench reports a layer
# whose span is never recorded as null
TRACED_SPANS = {
    "cli.main", "data.load_csv", "evaluate.accuracy", "evaluate.chunk", "evaluate.fit",
    "evaluate.fold_prep", "evaluate.grid_search", "evaluate.kernel_entry", "evaluate.scores",
    "kernel.class_geometry", "kernel.distance_matrix", "kernel.kernel_matrix", "model.design",
    "model.hidden", "model.init_layer", "model.load", "model.predict", "model.save",
    "model.train", "solver.primal", "solver.solve", "weighting.combine", "weighting.cp",
    "weighting.delta", "weighting.huber", "weighting.pipeline",
}
# installs the tracer, runs the CLI commands given as JSON through rvflkit.cli.main,
# writes the spans and prints the exit codes and the names that could not be wrapped
TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
from rvflkit import cli
tracer = spans.Tracer(sys.argv[2])
missing = tracer.install()
main = tracer.wrap("cli.main", cli.main)
codes = [main(argv) for argv in json.loads(sys.argv[3])]
tracer.flush()
print(json.dumps({"codes": codes, "missing": missing}))
"""


def _run(code, *args):
    src = str(Path(rvflkit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, str(PERFBENCH), *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True).stdout


def test_every_span_target_exists(tmp_path):
    # a traced perfbench run reports a layer whose function is gone as "not measured"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spans; "
            "print(spans.Tracer(sys.argv[2]).install())")
    assert _run(code, str(tmp_path)) == "[]\n"  # also: the import prints nothing


def _traced(tmp_path, commands):
    """Runs ``commands`` under the tracer; returns the exit codes and the span batches."""
    out = json.loads(_run(TRACED_RUN, str(tmp_path / "spans"), json.dumps(commands))
                     .splitlines()[-1])
    assert out["missing"] == []
    return out["codes"], _spans_module().read_batches(tmp_path / "spans")


def _spans_module():
    loader = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    return spans


def _data_and_grid(tmp_path, rng, taus):
    """A 60-row two-class CSV, and a robust grid file of two hidden counts and k = 3."""
    X = rng.normal(size=(60, 3))
    data = tmp_path / "data.csv"
    data.write_text("".join(",".join(map(repr, row.tolist())) + f",c{int(row[0] > 0)}\n"
                            for row in X))
    grid = tmp_path / "grid.json"
    grid.write_text('{"gamma_grid": [1.0], "hidden_grid": [3, 13], "kernel_grid": [1.0],'
                    f' "tau_grid": {json.dumps(taus)}, "k": 3}}')
    return str(data), str(grid)


def test_traced_run_records_every_layer(tmp_path, rng):
    # a span target that exists but is no longer called (removed from the call graph,
    # or called through an alias the tracer cannot replace) records nothing
    data, grid = _data_and_grid(tmp_path, rng, [0.75, 1.0])
    model = str(tmp_path / "model.bin")
    codes, batches = _traced(tmp_path, [
        ["grid", "--data", data, "--variant", "r2vfl-m", "--grid-file", grid],
        ["train", "--data", data, "--variant", "r2vfl-a", "--hidden", "13", "--out", model],
        ["predict", "--data", data, "--model", model]])
    assert codes == [0, 0, 0]
    assert TRACED_SPANS <= {s[0] for batch in batches for s in batch["spans"]}
    metrics = _spans_module().layer_metrics(batches, set(), cv_wall_s=1.0, jobs=1, cpu_s=1.0)
    assert [name for name, value in metrics.items() if value is None] == []


def test_traced_pool_workers_record_the_fold_code(tmp_path, rng):
    # with --jobs 2 the fold code runs in forked pool workers, and perfbench reads its
    # spans only from the workers' own batches
    data, grid = _data_and_grid(tmp_path, rng, [1.0])
    codes, batches = _traced(tmp_path, [
        ["grid", "--data", data, "--variant", "r2vfl-m", "--grid-file", grid, "--jobs", "2"]])
    assert codes == [0]
    in_workers = {s[0] for batch in batches if not batch["root"] for s in batch["spans"]}
    assert {"evaluate.chunk", "evaluate.fold_prep", "evaluate.fit"} <= in_workers


def test_traced_bench_workers_run_whole_grids(tmp_path, rng):
    # bench maps the chunks of its grids over its pool: each task must pickle, although
    # the tracer has replaced evaluate._evaluate_chunk, and must still run the traced
    # fold code
    data, _ = _data_and_grid(tmp_path, rng, [1.0])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "datasets": [{"path": data}], "models": ["rvfl", "r2vfl-m"], "k": 3,
        "grid": {"gamma_grid": [1.0], "hidden_grid": [3, 13], "kernel_grid": [1.0],
                 "tau_grid": [1.0]}}))
    codes, batches = _traced(tmp_path, [
        ["bench", "--manifest", str(manifest), "--out", str(tmp_path / "table"), "--jobs", "2"]])
    assert codes == [0]
    in_workers = {s[0] for batch in batches if not batch["root"] for s in batch["spans"]}
    assert {"evaluate.chunk", "evaluate.fold_prep", "evaluate.fit"} <= in_workers
