"""Layer tracing from outside the program.

The tracer replaces module attributes of rvflkit with wrappers that record a
span (name, start, end, parent) per call. A function is wrapped where its
caller looks it up, so a helper imported into several modules is listed once
per importing module. Spans stay in memory and are written out when the
process (or, in a forked pool worker, each top-level call) ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path

# (module, attribute path, span name). Span names are "<layer>.<operation>".
TARGETS = (
    ("rvflkit.cli", "load_csv", "data.load_csv"),
    ("rvflkit.cli", "train", "model.train"),
    ("rvflkit.cli", "predict", "model.predict"),
    ("rvflkit.cli", "save_model", "model.save"),
    ("rvflkit.cli", "load_model", "model.load"),
    ("rvflkit.cli", "accuracy", "evaluate.accuracy"),
    ("rvflkit.cli", "cross_validate", "evaluate.cross_validate"),
    ("rvflkit.cli", "grid_search", "evaluate.grid_search"),
    ("rvflkit.cli", "average_ranks", "evaluate.average_ranks"),
    ("rvflkit.cli", "friedman", "stats.friedman"),
    ("rvflkit.evaluate", "train", "model.train"),
    ("rvflkit.evaluate", "predict", "model.predict"),
    ("rvflkit.evaluate", "accuracy", "evaluate.accuracy"),
    ("rvflkit.evaluate", "_evaluate_chunk", "evaluate.chunk"),
    ("rvflkit.evaluate", "_FoldContext.__init__", "evaluate.fold_prep"),
    ("rvflkit.evaluate", "_FoldContext.evaluate", "evaluate.fit"),
    ("rvflkit.evaluate", "_FoldContext.scores", "evaluate.scores"),
    ("rvflkit.evaluate", "_FoldContext._kernel_entry", "evaluate.kernel_entry"),
    ("rvflkit.evaluate", "init_random_layer", "model.init_layer"),
    ("rvflkit.evaluate", "hidden_matrix", "model.hidden"),
    ("rvflkit.evaluate", "design_matrix", "model.design"),
    ("rvflkit.evaluate", "solve_auto", "solver.solve"),
    ("rvflkit.evaluate", "kernel_matrix", "kernel.kernel_matrix"),
    ("rvflkit.evaluate", "feature_space_distance_matrix", "kernel.distance_matrix"),
    ("rvflkit.evaluate", "build_class_geometry", "kernel.class_geometry"),
    ("rvflkit.evaluate", "class_probability", "weighting.cp"),
    ("rvflkit.evaluate", "huber_weights", "weighting.huber"),
    ("rvflkit.evaluate", "contribution_scores", "weighting.combine"),
    ("rvflkit.model", "init_random_layer", "model.init_layer"),
    ("rvflkit.model", "hidden_matrix", "model.hidden"),
    ("rvflkit.model", "design_matrix", "model.design"),
    ("rvflkit.model", "solve_auto", "solver.solve"),
    ("rvflkit.model", "compute_contribution_scores", "weighting.pipeline"),
    ("rvflkit.weighting", "kernel_matrix", "kernel.kernel_matrix"),
    ("rvflkit.weighting", "feature_space_distance_matrix", "kernel.distance_matrix"),
    ("rvflkit.weighting", "build_class_geometry", "kernel.class_geometry"),
    ("rvflkit.weighting", "resolve_delta", "weighting.delta"),
    ("rvflkit.weighting", "class_probability", "weighting.cp"),
    ("rvflkit.weighting", "huber_weights", "weighting.huber"),
    ("rvflkit.weighting", "contribution_scores", "weighting.combine"),
    ("rvflkit.solver", "solve_primal", "solver.primal"),
    ("rvflkit.solver", "solve_dual", "solver.dual"),
    # solve_primal/solve_dual call LU only after Cholesky failed
    ("rvflkit.solver", "scipy.linalg.lu_factor", "solver.lu_fallback"),
)

# Per-layer metrics read straight off the spans: (kind, span names). "total"
# sums span durations, "calls" counts spans, "self" sums durations minus the
# part covered by child spans.
SPAN_METRICS = {
    "model.hidden_s": ("total", ["model.hidden"]),
    "model.hidden_calls": ("calls", ["model.hidden"]),
    "model.init_layer_calls": ("calls", ["model.init_layer"]),
    "model.design_s": ("total", ["model.design"]),
    "model.predict_s": ("total", ["model.predict"]),
    "model.save_s": ("total", ["model.save"]),
    "model.load_s": ("total", ["model.load"]),
    "solver.solve_s": ("total", ["solver.solve"]),
    "solver.solve_calls": ("calls", ["solver.solve"]),
    "solver.primal_calls": ("calls", ["solver.primal"]),
    "solver.dual_calls": ("calls", ["solver.dual"]),
    "solver.lu_fallbacks": ("calls", ["solver.lu_fallback"]),
    "kernel.kernel_matrix_s": ("total", ["kernel.kernel_matrix"]),
    "kernel.kernel_matrix_calls": ("calls", ["kernel.kernel_matrix"]),
    "kernel.distance_matrix_s": ("total", ["kernel.distance_matrix"]),
    "kernel.distance_matrix_calls": ("calls", ["kernel.distance_matrix"]),
    "kernel.class_geometry_s": ("total", ["kernel.class_geometry"]),
    "kernel.class_geometry_calls": ("calls", ["kernel.class_geometry"]),
    # the grid resolves delta inside the fold cache's kernel entry
    "weighting.delta_s": ("self", ["weighting.delta", "evaluate.kernel_entry"]),
    "weighting.cp_s": ("total", ["weighting.cp"]),
    "weighting.scores_s": ("total", ["weighting.huber", "weighting.combine"]),
    "data.load_csv_s": ("total", ["data.load_csv"]),
}
EVALUATE_SPANS = ("evaluate.grid_search", "evaluate.chunk", "evaluate.fold_prep",
                  "evaluate.fit", "evaluate.scores", "evaluate.cross_validate",
                  "evaluate.accuracy", "evaluate.average_ranks")
ROBUST_FIT_SPANS = ("evaluate.scores", "weighting.pipeline")
DERIVED_METRICS = {  # name -> (unit, span names it needs)
    "evaluate.kernel_reuse": ("ratio", ROBUST_FIT_SPANS + ("kernel.kernel_matrix",)),
    "evaluate.score_reuse": ("ratio", ROBUST_FIT_SPANS + ("kernel.class_geometry",)),
    "evaluate.self_s": ("s", EVALUATE_SPANS),
    "evaluate.cpu_s_per_fit": ("s", ("solver.solve",)),
    "evaluate.worker_busy_frac": ("fraction", ("evaluate.chunk",)),
    "cli.self_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


def metric_unit(name):
    if name in DERIVED_METRICS:
        return DERIVED_METRICS[name][0]
    return "s" if SPAN_METRICS[name][0] != "calls" else "count"


ALL_METRICS = tuple(SPAN_METRICS) + tuple(DERIVED_METRICS)


class Tracer:
    """In-memory span recorder for one process tree (fork-inherited by pool workers)."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self._pid = self.root_pid
        self.spans = []    # [name, start, end, parent index]
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid != self._pid:   # first call in a forked worker: drop the parent's spans
                self._pid, self.spans, self._stack = pid, [], []
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if not self._stack and pid != self.root_pid:
                    self.flush()
        return wrapper

    def install(self):
        """Wrap every target that exists; returns the span names that could not be wrapped."""
        installed, missing = set(), set()
        for module_name, path, span in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.add(span)
                continue
            setattr(owner, attr, self.wrap(span, fn))
            installed.add(span)
        return sorted(missing - installed)

    def flush(self):
        """Append the spans recorded so far to this process's file and forget them."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "root": os.getpid() == self.root_pid,
                                 "spans": self.spans}) + "\n")
        self.spans = []


def read_batches(trace_dir: Path):
    batches = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            batches.extend(json.loads(line) for line in fh if line.strip())
    return batches


def _self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(batches, missing, cv_wall_s, jobs, cpu_s):
    """Per-layer values for one traced repetition; cv_wall_s is the summed time
    of its cross-validating commands. Values of layers that could not be
    wrapped are None ("not measured")."""
    calls, total, self_s = {}, {}, {}
    evaluate_self = cli_self = busy = 0.0
    dispatched = worker_chunks = False
    for batch in batches:
        spans = batch["spans"]
        own = _self_times(spans)
        has_chunk_child = {s[3] for s in spans if s[0] == "evaluate.chunk"}
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + own[i]
            if name == "cli.main":
                cli_self += own[i]
            elif name == "evaluate.chunk":
                busy += end - start
                worker_chunks |= not batch["root"]
            if name == "evaluate.grid_search" and i not in has_chunk_child:
                dispatched = True   # ran in a pool; its own time is waiting
            elif name in EVALUATE_SPANS:
                evaluate_self += own[i]

    def ratio(num, den):
        return num / den if den else None

    values = {}
    for metric, (kind, names) in SPAN_METRICS.items():
        table = {"total": total, "self": self_s, "calls": calls}[kind]
        values[metric] = sum(table.get(n, 0) for n in names)
    robust_fits = sum(calls.get(n, 0) for n in ROBUST_FIT_SPANS)
    values["evaluate.kernel_reuse"] = ratio(robust_fits, calls.get("kernel.kernel_matrix", 0))
    values["evaluate.score_reuse"] = ratio(robust_fits, calls.get("kernel.class_geometry", 0))
    values["evaluate.self_s"] = evaluate_self
    values["evaluate.cpu_s_per_fit"] = ratio(cpu_s, calls.get("solver.solve", 0))
    values["evaluate.worker_busy_frac"] = (None if dispatched and not worker_chunks
                                           else busy / (jobs * cv_wall_s))
    values["cli.self_s"] = cli_self
    for metric, (_, names) in (*SPAN_METRICS.items(), *DERIVED_METRICS.items()):
        if missing.intersection(names):
            values[metric] = None
    return values


def median_metrics(per_rep):
    """Median of each metric over traced repetitions (None if any repetition lacks it)."""
    out = {}
    for name in per_rep[0]:
        vals = [v[name] for v in per_rep]
        out[name] = None if any(v is None for v in vals) else statistics.median(vals)
    return out
