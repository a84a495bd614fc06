"""Smoke check of the benchmark harness: runs every workload at minimal size,
untraced and traced, and validates each result line against BENCHMARK.json.

Usage, from the root of a checkout (takes about two minutes):

    python3 perfbench/smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(line, specs, allow_null):
    """Problems with one result line, given the metric specs it must carry.
    Per-layer values may be null: a layer whose wrapped name is gone."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != {s["name"] for s in specs}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {s['name'] for s in specs})}")
    for spec in specs:
        m = metrics.get(spec["name"])
        if m is None:
            continue
        if m.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']}: unit {m.get('unit')} != {spec['unit']}")
        value = m.get("value")
        if value is None and allow_null:
            continue
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{spec['name']}: value {value!r}")
    return problems


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures = 0
    for workload in bench["workloads"]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                   "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            problems = ([f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
                        if proc.returncode != 0 or not lines
                        else check_result(lines[-1], specs, allow_null=trace == 1))
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload['name']:>12} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
