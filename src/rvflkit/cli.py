"""Command-line front end: train, predict, cross-validate, grid-search, bench, stats."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .data import DataError, load_csv
from .evaluate import BenchmarkTable, GridSpec, accuracy, average_ranks, cross_validate, \
    grid_search
from .kernel import KernelParams
from .model import ModelConfig, ModelError, load_model, predict, save_model, train
from .solver import SolverError
from .stats import Q_ALPHA_05, StatsError, friedman, nemenyi_cd, nemenyi_table, \
    wilcoxon_signed_rank
from .weighting import WeightingConfig, WeightingError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_overlay(path):
    if path is None:
        return {}
    with open(path) as fh:
        overlay = json.load(fh)
    if not isinstance(overlay, dict):
        raise DataError(f"{path} must hold a JSON object")
    return overlay


def _resolve(args, overlay, key, default):
    """Precedence: explicit flag > config-file entry > default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in overlay:
        return overlay[key]
    return default


def _model_config(args, overlay) -> ModelConfig:
    variant = _resolve(args, overlay, "variant", None)
    if variant is None:
        raise UsageError("a model variant is required")
    weighting = None
    if variant in ("r2vfl-a", "r2vfl-m"):
        weighting = WeightingConfig(
            kernel=KernelParams(gamma=float(_resolve(args, overlay, "kernel_gamma", 1.0))),
            tau_multiplier=float(_resolve(args, overlay, "tau", 1.0)),
            center_scheme="average" if variant == "r2vfl-a" else "median",
            delta=_resolve(args, overlay, "delta", None),
            delta_quantile=float(_resolve(args, overlay, "delta_quantile", 0.5)),
        )
    return ModelConfig(
        variant=variant,
        hidden_nodes=int(_resolve(args, overlay, "hidden", 103)),
        gamma=float(_resolve(args, overlay, "gamma", 1.0)),
        activation=_resolve(args, overlay, "activation", "sigmoid"),
        seed=int(_resolve(args, overlay, "seed", 0)),
        weighting=weighting,
    )


def _load_dataset(args, overlay=None):
    overlay = overlay or {}
    return load_csv(args.data,
                    has_header=bool(_resolve(args, overlay, "has_header", False)),
                    label_column=_resolve(args, overlay, "label_column", "last"))


def _read_table(path) -> BenchmarkTable:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise DataError(f"{path} is empty; expected a header row of model names")
    header, body = rows[0], rows[1:]
    body = [r for r in body if r[0] not in ("Average Accuracy", "Average Rank")]
    acc = np.array([[float(x) for x in r[1:]] for r in body])
    return BenchmarkTable.from_accuracy(header[1:], [r[0] for r in body], acc)


def _read_ranks(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if len(rows) < 2:
        raise DataError(f"{path} must hold a header row of model names and a row of ranks")
    return rows[0], np.array([float(x) for x in rows[1]])


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
    overlay = _load_overlay(args.config)
    dataset = _load_dataset(args, overlay)
    config = _model_config(args, overlay)
    model = train(dataset, config)
    _, labels = predict(model, dataset.features)
    train_acc = accuracy(labels, dataset.labels)
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
    dataset = _load_dataset(args)
    _, labels = predict(model, dataset.features)
    names = [model.class_names[i] for i in labels]
    if args.format == "json":
        print(json.dumps({"labels": names}))
    else:
        for n in names:
            print(n)
    return EXIT_OK


def cmd_cv(args):
    overlay = _load_overlay(args.config)
    dataset = _load_dataset(args, overlay)
    config = _model_config(args, overlay)
    k = int(_resolve(args, overlay, "k", 5))
    seed = config.seed
    result = cross_validate(dataset, config, k, seed)
    folds = [round(a, 4) for a in result.fold_accuracies]
    payload = {f"fold_{i}": a for i, a in enumerate(folds)}
    payload["mean"] = round(result.mean, 4)
    if result.skipped_folds:
        payload["skipped_folds"] = list(result.skipped_folds)
    _emit(payload, args.format)
    return EXIT_OK


def _grid_spec(args, overlay) -> GridSpec:
    kwargs = {}
    for key in ("gamma_grid", "hidden_grid", "kernel_grid", "tau_grid"):
        value = _resolve(args, overlay, key, None)
        if value is not None:
            kwargs[key] = tuple(value)
    kwargs["k"] = int(_resolve(args, overlay, "k", 5))
    kwargs["seed"] = int(_resolve(args, overlay, "seed", 0))
    delta = _resolve(args, overlay, "delta", None)
    if delta is not None:
        kwargs["delta"] = float(delta)
    return GridSpec(**kwargs)


def _write_trace(path, result):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "hidden_nodes", "kernel_gamma", "tau", "mean_accuracy"])
        for config, mean, _ in result.trace:
            w = config.weighting
            writer.writerow([
                repr(config.gamma), config.hidden_nodes,
                repr(w.kernel.gamma) if w else "", repr(w.tau_multiplier) if w else "",
                f"{mean:.10f}",
            ])


def cmd_grid(args):
    overlay = _load_overlay(args.grid_file)
    dataset = _load_dataset(args, overlay)
    grid = _grid_spec(args, overlay)
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
        payload["kernel_gamma"] = best.weighting.kernel.gamma
        payload["tau"] = best.weighting.tau_multiplier
    _emit(payload, args.format)
    return EXIT_OK


def cmd_bench(args):
    manifest = _load_overlay(args.manifest)
    entries = manifest.get("datasets")
    if not isinstance(entries, list) or not all(isinstance(e, dict) and "path" in e
                                                for e in entries):
        raise DataError(f"manifest {args.manifest} needs a \"datasets\" list of objects "
                        "that each give a \"path\"")
    models = args.models.split(",") if args.models else manifest.get(
        "models", ["rvfl", "elm", "r2vfl-a", "r2vfl-m"])
    grid_overlay = manifest.get("grid", {})
    grid_kwargs = {k: tuple(v) for k, v in grid_overlay.items()
                   if k in ("gamma_grid", "hidden_grid", "kernel_grid", "tau_grid")}
    grid_kwargs["k"] = int(manifest.get("k", 5))
    grid_kwargs["seed"] = int(manifest.get("seed", 0))
    grid = GridSpec(**grid_kwargs)

    dataset_names, rows = [], []
    for entry in entries:
        ds = load_csv(entry["path"], has_header=entry.get("has_header", False),
                      label_column=entry.get("label_column", "last"),
                      name=entry.get("name"))
        dataset_names.append(ds.name)
        row = [grid_search(ds, m, grid, jobs=args.jobs).best_mean for m in models]
        rows.append(row)

    table = BenchmarkTable.from_accuracy(models, dataset_names, np.array(rows))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    avg_rank = average_ranks(table)
    with open(outdir / "accuracy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset"] + list(models))
        for name, row in zip(dataset_names, table.accuracy):
            writer.writerow([name] + [f"{a:.4f}" for a in row])
        writer.writerow(["Average Accuracy"] + [f"{a:.4f}" for a in table.accuracy.mean(axis=0)])
        writer.writerow(["Average Rank"] + [f"{r:.4f}" for r in avg_rank])
    with open(outdir / "ranks.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset"] + list(models))
        for name, row in zip(dataset_names, table.rank):
            writer.writerow([name] + [f"{r:.4f}" for r in row])
    print(f"wrote {outdir / 'accuracy.csv'} and {outdir / 'ranks.csv'}")
    return EXIT_OK


def _ranks_from_args(args):
    if args.ranks:
        names, ranks = _read_ranks(args.ranks)
        if args.datasets is None:
            raise UsageError("--datasets is required with --ranks")
        return names, ranks, int(args.datasets)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="rvflkit",
                     description="Robust RVFL classifiers, benchmarking, and model statistics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["human", "csv", "json"], default="human")

    def add_data(p):
        p.add_argument("--data", required=True, help="dataset CSV (label in last column)")
        p.add_argument("--has-header", dest="has_header", action="store_const", const=True)
        p.add_argument("--label-column", dest="label_column")

    def add_hyper(p):
        p.add_argument("--variant", choices=["rvfl", "elm", "r2vfl-a", "r2vfl-m"])
        p.add_argument("--hidden", type=int)
        p.add_argument("--gamma", type=float)
        p.add_argument("--activation", choices=["sigmoid", "tanh", "relu"])
        p.add_argument("--seed", type=int)
        p.add_argument("--kernel-gamma", dest="kernel_gamma", type=float)
        p.add_argument("--tau", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--delta-quantile", dest="delta_quantile", type=float)
        p.add_argument("--config", help="JSON config file overlay (flags take precedence)")

    p = sub.add_parser("train", help="train one model and save it")
    add_data(p); add_hyper(p); add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labels with a saved model")
    add_data(p); add_common(p)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    add_data(p); add_hyper(p); add_common(p)
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("grid", help="exhaustive hyperparameter grid search")
    add_data(p); add_common(p)
    p.add_argument("--variant", required=True, choices=["rvfl", "elm", "r2vfl-a", "r2vfl-m"])
    p.add_argument("--grid-file", dest="grid_file", help="JSON grid overrides")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the full trace CSV here")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("bench", help="benchmark models across datasets from a manifest")
    add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", help="comma-separated model list override")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="model-comparison statistics")
    stats_sub = p.add_subparsers(dest="stats_command", required=True)

    sp = stats_sub.add_parser("friedman")
    add_common(sp)
    sp.add_argument("--table", help="accuracy table CSV (dataset column + model columns)")
    sp.add_argument("--ranks", help="average-ranks CSV (model header + one rank row)")
    sp.add_argument("--datasets", type=int, help="dataset count (required with --ranks)")
    sp.set_defaults(func=cmd_stats_friedman)

    sp = stats_sub.add_parser("nemenyi")
    add_common(sp)
    sp.add_argument("--table")
    sp.add_argument("--ranks")
    sp.add_argument("--datasets", type=int)
    sp.add_argument("--q-alpha", dest="q_alpha", type=float,
                    help="critical value; defaults to the built-in alpha=0.05 table")
    sp.add_argument("--reference", help="reference model name (default: best rank)")
    sp.set_defaults(func=cmd_stats_nemenyi)

    sp = stats_sub.add_parser("wilcoxon")
    add_common(sp)
    sp.add_argument("--table", required=True)
    sp.add_argument("--a", required=True, help="first model column")
    sp.add_argument("--b", required=True, help="second model column")
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.set_defaults(func=cmd_stats_wilcoxon)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ModelError, WeightingError, StatsError, OSError, ValueError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SolverError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
