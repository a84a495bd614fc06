"""rvflkit benchmark: runs one workload for a fixed time and prints its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid-ttt --seed 1 --seconds 30 --trace 0

Each repetition is a fresh interpreter (perfbench/rep.py) that imports
rvflkit.cli from ./src and runs the workload's CLI commands in-process. Load
model: closed loop, one client. With --trace 0 the last stdout line carries
the end-to-end metrics; with --trace 1 it carries the per-layer metrics from
traced repetitions, alternated with untraced ones to measure the tracing
overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SPAWNS = 3       # import-only interpreters per run, besides one per repetition
MIN_REPS = 2           # untraced; a traced run needs one of each mode
REP_TIMEOUT_S = 120
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cv_fits_per_s": "1/s", "train_s": "s",
             "predict_s": "s", "peak_rss_mb": "MB", "acc_pct": "%"}
# Metrics with one sample per command are reported over the whole run: the
# mean time per command, and for cv_fits_per_s the harmonic mean, i.e. all fits
# over all time. On a shared machine the speed switches between a fast and a
# slow mode (about 1.6x apart) for seconds at a time, so these samples are
# bimodal; their median jumps between the modes from run to run, while the
# mean moves only with the share of time spent in each. The other metrics
# are medians.
RUN_AGGREGATES = {"cv_fits_per_s": statistics.harmonic_mean, "train_s": statistics.fmean,
                  "predict_s": statistics.fmean}


class HarnessError(Exception):
    pass


def _rep_env(root: Path):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _spawn(root, work, spec, tag):
    """Run rep.py once; returns its result dict or raises HarnessError."""
    spec = dict(spec, result=str(work / f"result-{tag}.json"))
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, str(HERE / "rep.py"), str(spec_path), repr(t0)],
                            cwd=root, env=_rep_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"repetition {tag} exceeded {REP_TIMEOUT_S} s")
    finally:
        try:   # pool workers live in the repetition's session; leave none behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise HarnessError(f"repetition {tag} exited {proc.returncode}: "
                           f"{err.decode(errors='replace').strip()[-500:]}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    src = (root / "src").resolve()
    if not Path(result["rvflkit_file"]).resolve().is_relative_to(src):
        raise HarnessError(f"rvflkit was imported from {result['rvflkit_file']}, not {src}")
    return result


def _src_digest(root: Path):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(args):
    root = Path.cwd()
    if not (root / "src" / "rvflkit" / "cli.py").is_file():
        raise HarnessError(f"no rvflkit sources under {root / 'src'}; run from a checkout root")
    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inp, out = work / "in", work / "out"
    inp.mkdir(parents=True)
    started = time.perf_counter()
    plan = workloads.WORKLOADS[args.workload](root / "src", inp, out, args.seed, args.smoke)

    deadline = time.perf_counter() + args.seconds   # the set-up spawns count against it
    setup = [_spawn(root, work, {}, f"setup{i}")["setup_s"] for i in range(SETUP_SPAWNS)]

    modes = [False, True] if args.trace else [False]
    reps = {False: [], True: []}
    attempted = failed = 0
    fingerprints, failures = set(), []
    while True:
        counts = [len(reps[m]) for m in modes]
        done = [r["wall_s"] + r["setup_s"] for m in modes for r in reps[m]]
        enough = min(counts) >= (1 if args.trace else MIN_REPS)
        if enough and time.perf_counter() + statistics.median(done) > deadline:
            break
        traced = modes[counts.index(min(counts))]
        index = sum(counts)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        spec = {"commands": plan.commands, "environment": True}
        if traced:
            spec["trace_dir"] = str(work / "spans" / f"rep{index}")
        attempted += len(plan.commands)
        try:
            res = _spawn(root, work, spec, f"rep{index}")
        except HarnessError as exc:
            failed += len(plan.commands)
            failures.append(str(exc))
            if len(failures) > 2:
                break
            continue
        results = res["commands"]
        outcome = plan.check(out, results)
        if outcome.fingerprint is not None:
            fingerprints.add(outcome.fingerprint)
            if len(fingerprints) > 1:
                outcome.fail(0, "output fingerprint differs between repetitions")
        failed += len(outcome.errors)
        failures.extend(f"rep{index} {plan.commands[i][0]}: {'; '.join(msgs)}"
                        for i, msgs in sorted(outcome.errors.items()))
        wall = sum(c["seconds"] for c in results)

        def seconds(kind):
            return [c["seconds"] for c in results if c["name"] == kind]

        rep = {
            "setup_s": res["setup_s"], "wall_s": wall,
            "cv_fits_per_s": [plan.cv_fits / s for s in seconds(plan.cv_command)],
            "train_s": seconds("train"), "predict_s": seconds("predict"),
            "peak_rss_mb": res["peak_rss_mb"], "acc_pct": outcome.acc_pct, "cpu_s": res["cpu_s"],
        }
        if traced:
            batches = spans.read_batches(spec["trace_dir"])
            rep["layers"] = spans.layer_metrics(batches, set(res["not_measured"]),
                                                sum(seconds(plan.cv_command)), plan.jobs,
                                                res["cpu_s"])
            rep["not_measured"] = res["not_measured"]
        reps[traced].append(rep)
        environment = res["environment"]
        setup.append(res["setup_s"])

    plain = reps[False]
    if not plain or (args.trace and not reps[True]):
        raise HarnessError("no repetition completed: " + " | ".join(failures[:3]))
    summary = {}
    for name in E2E_UNITS:
        values = setup if name == "setup_s" else [
            v for r in plain for v in (r[name] if isinstance(r[name], list) else [r[name]])]
        if any(v is None for v in values):
            summary[name] = None
            continue
        q1, q3 = _quartiles(values)
        summary[name] = {"value": RUN_AGGREGATES.get(name, statistics.median)(values),
                         "median": statistics.median(values), "q1": q1, "q3": q3,
                         "n": len(values)}

    if args.trace:
        traced_reps = reps[True]
        layers = spans.median_metrics([r["layers"] for r in traced_reps])
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_reps)
                                      - summary["wall_s"]["median"])
        metrics = {name: {"value": layers[name], "unit": spans.metric_unit(name)}
                   for name in spans.ALL_METRICS}
        not_measured = sorted({n for r in traced_reps for n in r["not_measured"]})
    else:
        metrics = {name: {"value": None if summary[name] is None else summary[name]["value"],
                          "unit": unit} for name, unit in E2E_UNITS.items()}
        not_measured = []

    environment.update(machine=platform.machine(), cpu=_cpu_model(),
                       nproc=len(os.sched_getaffinity(0)), git_commit=_git_commit(root),
                       src_sha256=_src_digest(root))
    correct = failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": time.perf_counter() - started,
        "environment": environment, "summary": summary, "metrics": metrics,
        "fingerprints": sorted(fingerprints), "not_measured": not_measured,
        "failures": failures, "repetitions": reps[False] + reps[True],
    }
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(environment, sort_keys=True))
    print(f"fingerprint {args.workload} seed {args.seed}: "
          + (", ".join(sorted(fingerprints)) or "none"))
    for name, s in summary.items():
        if s is not None:
            print(f"{name:>14} {s['value']:.6g} (median {s['median']:.6g}, q1 {s['q1']:.6g}, "
                  f"q3 {s['q3']:.6g}, n={s['n']}) {E2E_UNITS[name]}")
    for line in failures:
        print("FAILED " + line)
    if not_measured:
        print("not measured (wrapped name missing): " + ", ".join(not_measured))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal inputs, for checking the harness itself")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = run(args)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
