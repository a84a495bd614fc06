"""Command-line front end: train, predict, cross-validate, grid-search, bench, stats.

``_config`` builds each config from its dataclass's fields: a field's flag, else its JSON
setting, else the field's default, so the dataclasses hold every default."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import DataError, _csv_records, _read_text, load_csv, read_features
from .evaluate import BenchmarkTable, GridSpec, accuracy, average_ranks, check_model_names, \
    cross_validate, enumerate_configs, grid_search, grid_searches
from .model import ACTIVATIONS, CENTER_SCHEMES, VARIANTS, ModelConfig, load_model, predict, \
    save_model, train
from .solver import SolverError, set_one_blas_thread, stop_blas_thread_servers
from .stats import Q_ALPHA_05, friedman, nemenyi_cd, nemenyi_table, wilcoxon_signed_rank
from .weighting import WeightingConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _check_keys(settings: dict, keys, source):
    """Raises DataError naming the first key of ``settings`` that is not in ``keys``:
    a key that nothing reads would otherwise leave its setting at the default."""
    unknown = next((key for key in settings if key not in keys), None)
    if unknown is not None:
        raise DataError(f"{source}: unknown key {json.dumps(unknown)}")


def _load_overlay(path, keys):
    """The JSON object in ``path`` ({} for None), whose keys must be among ``keys``."""
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            overlay = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise DataError(f"{path}: not UTF-8 JSON: {exc}") from None
    if not isinstance(overlay, dict):
        raise DataError(f"{path} must hold a JSON object")
    _check_keys(overlay, keys, path)
    return overlay


# What each JSON setting must be, by its JSON type (a bool is never a number).
_KINDS = {
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float),
    "a string": lambda v: type(v) is str,
    "true or false": lambda v: type(v) is bool,
    '"last" or an integer': lambda v: v == "last" or type(v) is int,
    "a list of numbers": lambda v: type(v) is list and all(type(x) in (int, float) for x in v),
    "a list of integers": lambda v: type(v) is list and all(type(x) is int for x in v),
    "a list of strings": lambda v: type(v) is list and all(type(x) is str for x in v),
}
SETTING_TYPES = {
    **dict.fromkeys(("hidden", "k", "seed"), "an integer"),
    **dict.fromkeys(("gamma", "kernel_gamma", "tau", "delta", "delta_quantile"), "a number"),
    **dict.fromkeys(("variant", "activation", "name", "path"), "a string"),
    **dict.fromkeys(("gamma_grid", "kernel_grid", "tau_grid"), "a list of numbers"),
    "hidden_grid": "a list of integers",
    "has_header": "true or false", "label_column": '"last" or an integer',
    "models": "a list of strings",
}


def _resolve(args, overlay, key, default, source):
    """Flag (typed by argparse) > JSON entry of its setting's kind > default; a JSON
    number becomes a float, a list a tuple, and ``"delta": null`` means the default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key not in overlay or (key == "delta" and overlay[key] is None):
        return default
    value, kind = overlay[key], SETTING_TYPES[key]
    if not _KINDS[kind](value):
        raise DataError(f"{source}: \"{key}\" must be {kind}, got {json.dumps(value)}")
    if kind == "a number":
        return float(value)
    return tuple(value) if type(value) is list else value


# A config field's setting name, where it is not the field's own.
_CLI_NAMES = {"hidden_nodes": "hidden", "tau_multiplier": "tau"}


def _config(cls, setting, **given):
    """``cls`` from ``given``, and every other field from ``setting(cli name, default)``."""
    return cls(**given, **{f.name: setting(_CLI_NAMES.get(f.name, f.name), f.default)
                           for f in fields(cls) if f.name not in given})


def _settings(*classes) -> set:
    """The setting names of the classes' fields; the nested weighting config is not one."""
    return {_CLI_NAMES.get(f.name, f.name) for cls in classes for f in fields(cls)} - {"weighting"}


# The JSON keys of each command's file: a dataset's settings, its configs' fields, and
# bench's manifest entries; a manifest's "grid" object holds only the *_grid axes.
_DATA_KEYS = {"path", "has_header", "label_column", "name"}
_GRID_AXES = {key for key in _settings(GridSpec) if key.endswith("_grid")}
_KEYS = {
    "train": _DATA_KEYS | _settings(ModelConfig, WeightingConfig),
    "cv": _DATA_KEYS | _settings(ModelConfig, WeightingConfig) | {"k"},
    "grid": _DATA_KEYS | _settings(GridSpec),
    "bench": (_settings(GridSpec) - _GRID_AXES) | {"datasets", "models", "grid"},
}


def _model_config(args, overlay, source) -> ModelConfig:
    setting = functools.partial(_resolve, args, overlay, source=source)
    variant = setting("variant", None)
    if variant is None:
        raise UsageError("a model variant is required")
    weighting = _config(WeightingConfig, setting) if variant in CENTER_SCHEMES else None
    return _config(ModelConfig, setting, variant=variant, weighting=weighting)


def _data_settings(args, overlay, source):
    setting = functools.partial(_resolve, args, overlay, source=source)
    return setting("path", None), setting("has_header", False), setting("label_column", "last")


def _load_dataset(args, overlay, source):
    return load_csv(*_data_settings(args, overlay, source),
                    name=_resolve(args, overlay, "name", None, source))


def _checked(convert, ok, what):
    """A flag's type: ``convert`` its text, then require ``ok`` of the value."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_jobs = _checked(int, lambda jobs: jobs >= 1, "an integer >= 1")
_alpha = _checked(float, lambda alpha: 0 < alpha < 1, "a number strictly between 0 and 1")


def _finite(cell: str, path, row: str) -> float:
    """A table or rank cell as a finite float; the error names the file, row and cell."""
    try:
        x = float(cell)
    except ValueError:
        raise DataError(f"{path}: {cell!r} is not a number ({row})") from None
    if not math.isfinite(x):
        raise DataError(f"{path}: {cell!r} is not a finite number ({row})")
    return x


def _read_table(path) -> BenchmarkTable:
    rows = _csv_records(_read_text(path), path)
    if not rows:
        raise DataError(f"{path} is empty; expected a header row of model names")
    header, body = rows[0], rows[1:]
    body = [r for r in body if r[0] not in ("Average Accuracy", "Average Rank")]
    for r in body:
        if len(r) != len(header):
            raise DataError(f"{path}: row {r[0]!r} has {len(r)} fields; "
                            f"the header has {len(header)}")
    acc = np.array([[_finite(x, path, f"row {r[0]!r}") for x in r[1:]] for r in body])
    return BenchmarkTable.from_accuracy(header[1:], [r[0] for r in body], acc)


def _read_ranks(path):
    rows = _csv_records(_read_text(path), path)
    if len(rows) != 2:
        raise DataError(f"{path} must hold 2 rows, a header row of model names and a row of "
                        f"ranks; it holds {len(rows)}")
    if len(rows[1]) != len(rows[0]):
        raise DataError(f"{path}: the rank row has {len(rows[1])} fields; "
                        f"the header has {len(rows[0])}")
    check_model_names(rows[0])
    return rows[0], np.array([_finite(x, path, "rank row") for x in rows[1]])


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(payload.keys())
        writer.writerow(payload.values())
    else:
        width = max(len(k) for k in payload)
        for k, v in payload.items():
            print(f"{k:<{width}}  {v}")


def cmd_train(args):
    overlay = _load_overlay(args.config, _KEYS["train"])
    dataset = _load_dataset(args, overlay, args.config)
    config = _model_config(args, overlay, args.config)
    model = train(dataset, config)
    train_acc = accuracy(model.train_predictions, dataset.labels)
    save_model(model, args.out)
    _emit({
        "variant": config.variant,
        "hidden_nodes": config.hidden_nodes,
        "gamma": config.gamma,
        "training_accuracy": round(train_acc, 4),
        "model_file": str(args.out),
    }, args.format)
    return EXIT_OK


def cmd_predict(args):
    model = load_model(args.model)
    features, _ = read_features(*_data_settings(args, {}, None), n_features=model.n_features)
    _, labels = predict(model, features)
    names = [model.class_names[i] for i in labels]
    if args.format == "json":
        print(json.dumps({"labels": names}))
    else:
        for n in names:
            print(n)
    return EXIT_OK


def cmd_cv(args):
    overlay = _load_overlay(args.config, _KEYS["cv"])
    dataset = _load_dataset(args, overlay, args.config)
    config = _model_config(args, overlay, args.config)
    k = _resolve(args, overlay, "k", GridSpec.k, args.config)
    result = cross_validate(dataset, config, k, config.seed)
    folds = [round(a, 4) for a in result.fold_accuracies]
    payload = {f"fold_{i}": a for i, a in enumerate(folds)}
    payload["mean"] = round(result.mean, 4)
    if result.skipped_folds:
        payload["skipped_folds"] = list(result.skipped_folds)
    _emit(payload, args.format)
    return EXIT_OK


def _grid_spec(args, overlay, axes, source) -> GridSpec:
    """The grid of ``grid`` and ``bench``: the ``*_grid`` axes from the JSON object
    ``axes``, every other GridSpec field from a flag or ``overlay``; GridSpec's defaults
    for the rest."""
    if not isinstance(axes, dict):
        raise DataError(f"{source}: the grid must be a JSON object")
    return _config(GridSpec, lambda key, default: _resolve(
        args, axes if key.endswith("_grid") else overlay, key, default, source))


def _write_trace(path, result):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "hidden_nodes", "kernel_gamma", "tau", "mean_accuracy"])
        for config, mean, _ in result.trace:
            w = config.weighting
            writer.writerow([
                repr(config.gamma), config.hidden_nodes,
                repr(w.kernel_gamma) if w else "", repr(w.tau_multiplier) if w else "",
                f"{mean:.10f}",
            ])


def cmd_grid(args):
    overlay = _load_overlay(args.grid_file, _KEYS["grid"])
    dataset = _load_dataset(args, overlay, args.grid_file)
    grid = _grid_spec(args, overlay, overlay, args.grid_file)
    result = grid_search(dataset, args.variant, grid, jobs=args.jobs)
    if args.out:
        _write_trace(args.out, result)
    best = result.best_config
    payload = {
        "variant": best.variant,
        "gamma": best.gamma,
        "hidden_nodes": best.hidden_nodes,
        "mean_accuracy": round(result.best_mean, 4),
        "configs_evaluated": len(result.trace),
    }
    if best.weighting is not None:
        payload["kernel_gamma"] = best.weighting.kernel_gamma
        payload["tau"] = best.weighting.tau_multiplier
    _emit(payload, args.format)
    return EXIT_OK


def _write_named_rows(path, header, rows):
    """A CSV file: the header row, then per (name, values) pair the name and the values
    to 4 decimals."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([name] + [f"{v:.4f}" for v in values] for name, values in rows)


def cmd_bench(args):
    manifest = _load_overlay(args.manifest, _KEYS["bench"])
    entries = manifest.get("datasets")
    if not isinstance(entries, list) or not all(isinstance(e, dict) and "path" in e
                                                for e in entries):
        raise DataError(f"manifest {args.manifest} needs a \"datasets\" list of objects "
                        "that each give a \"path\"")
    for i, entry in enumerate(entries):
        _check_keys(entry, _DATA_KEYS, f"{args.manifest}: dataset {i}")
    models = _resolve(args, manifest, "models", VARIANTS, args.manifest)
    grid = _grid_spec(args, manifest, manifest.get("grid", {}), args.manifest)
    _check_keys(manifest.get("grid", {}), _GRID_AXES, f"{args.manifest}: grid")
    for model in models:  # an unknown or repeated model fails before any dataset loads
        enumerate_configs(model, grid)
    check_model_names(models)
    datasets = [_load_dataset(None, entry, f"{args.manifest}: dataset {i}")
                for i, entry in enumerate(entries)]
    results = grid_searches([(ds, models) for ds in datasets], grid, args.jobs)
    acc = np.array([[r.best_mean for r in row] for row in results])

    dataset_names = [ds.name for ds in datasets]
    table = BenchmarkTable.from_accuracy(models, dataset_names, acc)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    header = ["dataset"] + list(models)
    _write_named_rows(outdir / "accuracy.csv", header, [
        *zip(dataset_names, table.accuracy), ("Average Accuracy", table.accuracy.mean(axis=0)),
        ("Average Rank", average_ranks(table))])
    _write_named_rows(outdir / "ranks.csv", header, zip(dataset_names, table.rank))
    print(f"wrote {outdir / 'accuracy.csv'} and {outdir / 'ranks.csv'}")
    return EXIT_OK


def _ranks_from_args(args):
    if args.ranks:
        names, ranks = _read_ranks(args.ranks)
        if args.datasets is None:
            raise UsageError("--datasets is required with --ranks")
        return names, ranks, args.datasets
    if args.table:
        table = _read_table(args.table)
        return list(table.model_names), average_ranks(table), len(table.dataset_names)
    raise UsageError("provide --table or --ranks")


def cmd_stats_friedman(args):
    names, ranks, n_datasets = _ranks_from_args(args)
    res = friedman(ranks, n_datasets)
    _emit({
        "chi2_friedman": round(res.chi2, 4),
        "f_statistic": round(res.ff, 4),
        "df_chi2": res.df1,
        "df_f": f"({res.df2_pair[0]}, {res.df2_pair[1]})",
        "datasets": res.n_datasets,
        "models": res.n_models,
    }, args.format)
    return EXIT_OK


def cmd_stats_nemenyi(args):
    names, ranks, n_datasets = _ranks_from_args(args)
    p = len(names)
    q_alpha = args.q_alpha
    if q_alpha is None:
        if p not in Q_ALPHA_05:
            raise UsageError(f"no built-in q value for {p} models; pass --q-alpha")
        q_alpha = Q_ALPHA_05[p]
    cd = nemenyi_cd(q_alpha, p, n_datasets)
    ref = args.reference
    if ref is None:
        ref_idx = int(np.argmin(ranks))
    elif ref in names:
        ref_idx = names.index(ref)
    elif ref.isdigit() and int(ref) < p:
        ref_idx = int(ref)
    else:
        raise UsageError(f"unknown reference {ref!r}; give a model name or an index below {p}")
    flags = nemenyi_table(ranks, ref_idx, cd)
    payload = {"critical_difference": round(cd, 4), "q_alpha": q_alpha,
               "reference": names[ref_idx]}
    for name, rank, flag in zip(names, ranks, flags):
        payload[name] = f"rank={rank:.4g} significant={'Yes' if flag else 'No'}"
    _emit(payload, args.format)
    return EXIT_OK


def cmd_stats_wilcoxon(args):
    table = _read_table(args.table)
    names = list(table.model_names)
    for col in (args.a, args.b):
        if col not in names:
            raise UsageError(f"unknown column {col!r}; available: {', '.join(names)}")
    a = table.accuracy[:, names.index(args.a)]
    b = table.accuracy[:, names.index(args.b)]
    res = wilcoxon_signed_rank(a, b)
    _emit({
        "a": args.a, "b": args.b,
        "r_plus": res.r_plus, "r_minus": res.r_minus,
        "n_effective": res.n_effective,
        "z": round(res.z, 4),
        "p_value": f"{res.p_value:.6g}",
        "null_hypothesis": "rejected" if res.p_value < args.alpha else "accepted",
    }, args.format)
    return EXIT_OK


def _handler(name):
    """The command function ``name``, looked up in this module each time it runs, so the
    one cached parser calls whatever the module holds under that name."""
    return lambda args: globals()[name](args)


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="rvflkit",
                     description="Robust RVFL classifiers, benchmarking, and model statistics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["human", "csv", "json"], default="human")

    def add_data(p):
        p.add_argument("--data", dest="path", required=True,
                       help="dataset CSV (label in last column)")
        p.add_argument("--has-header", dest="has_header", action="store_const", const=True)
        p.add_argument("--label-column", dest="label_column", type=_checked(
            lambda text: text if text == "last" else int(text), lambda _: True,
            '"last" or an integer'))

    def add_hyper(p):
        p.add_argument("--variant", choices=VARIANTS)
        p.add_argument("--hidden", type=int)
        p.add_argument("--gamma", type=float)
        p.add_argument("--activation", choices=ACTIVATIONS)
        p.add_argument("--seed", type=int)
        p.add_argument("--kernel-gamma", dest="kernel_gamma", type=float)
        p.add_argument("--tau", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--delta-quantile", dest="delta_quantile", type=float)
        p.add_argument("--config", help="JSON config file overlay (flags take precedence)")

    p = sub.add_parser("train", help="train one model and save it")
    add_data(p); add_hyper(p); add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_handler("cmd_train"))

    p = sub.add_parser("predict", help="predict labels with a saved model; rows of the "
                       "model's feature count hold no label, rows of one more field do")
    add_data(p); add_common(p)
    p.add_argument("--model", required=True)
    p.set_defaults(func=_handler("cmd_predict"))

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    add_data(p); add_hyper(p); add_common(p)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_handler("cmd_cv"))

    p = sub.add_parser("grid", help="exhaustive hyperparameter grid search")
    add_data(p); add_common(p)
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--grid-file", dest="grid_file", help="JSON grid overrides")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--out", help="write the full trace CSV here")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_handler("cmd_grid"))

    p = sub.add_parser("bench", help="benchmark models across datasets from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", type=lambda text: text.split(","),
                   help="comma-separated model list override")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=_handler("cmd_bench"))

    p = sub.add_parser("stats", help="model-comparison statistics")
    stats_sub = p.add_subparsers(dest="stats_command", required=True)

    sp = stats_sub.add_parser("friedman")
    add_common(sp)
    sp.add_argument("--table", help="accuracy table CSV (dataset column + model columns)")
    sp.add_argument("--ranks", help="average-ranks CSV (model header + one rank row)")
    sp.add_argument("--datasets", type=int, help="dataset count (required with --ranks)")
    sp.set_defaults(func=_handler("cmd_stats_friedman"))

    sp = stats_sub.add_parser("nemenyi")
    add_common(sp)
    sp.add_argument("--table")
    sp.add_argument("--ranks")
    sp.add_argument("--datasets", type=int)
    sp.add_argument("--q-alpha", dest="q_alpha", type=float,
                    help="critical value; defaults to the built-in alpha=0.05 table")
    sp.add_argument("--reference", help="reference model name (default: best rank)")
    sp.set_defaults(func=_handler("cmd_stats_nemenyi"))

    sp = stats_sub.add_parser("wilcoxon")
    add_common(sp)
    sp.add_argument("--table", required=True)
    sp.add_argument("--a", required=True, help="first model column")
    sp.add_argument("--b", required=True, help="second model column")
    sp.add_argument("--alpha", type=_alpha, default=0.05)
    sp.set_defaults(func=_handler("cmd_stats_wilcoxon"))

    return parser


def main(argv=None) -> int:
    # every command does its BLAS work on one thread; set once and kept, the count
    # needs no set call after the fork of a worker pool, and the BLAS worker threads
    # that loading OpenBLAS started are stopped (see rvflkit.solver)
    set_one_blas_thread()
    stop_blas_thread_servers()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:  # rvflkit's input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # numpy's says which array it could not allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_DATA
    except (SolverError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
