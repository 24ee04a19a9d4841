#!/usr/bin/env python3
"""Check the perfbench trajectory, one JSON line per PR per workload.

    python3 bench/check_trajectory.py [TRAJECTORY] [BENCHMARK_JSON]

Defaults: bench/baselines/trajectory.jsonl and BENCHMARK.json at the
root of the checkout.  Exits 1 when a line does not parse, lacks a key,
names an unknown workload or lowers the PR number, or when a change's
deterministic counter exceeds its parent's.  Wall time on a shared host
is noisy, so an end-to-end median that moved past its BENCHMARK.json
bound is printed as a warning and does not fail the check.
"""

import json
import numbers
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Counted by perfbench's traced walk; they repeat exactly from run to run.
COUNTERS = (
    "job.normalize_words",
    "job.normalizations_per_job",
    "runner.rounds_per_job",
    "runner.exec_words",
    "store.fsyncs_per_job",
)


def is_value(v):
    return v is None or (isinstance(v, numbers.Real) and not isinstance(v, bool))


def check_line(where, row, bench):
    """The problems with one parsed line, as messages."""
    errors = []
    for key in ("pr", "workload", "seeds", "window_s", "end_to_end", "counters"):
        if key not in row:
            errors.append(f"{where}: missing key {key!r}")
    if errors:
        return errors
    if not isinstance(row["pr"], int):
        errors.append(f"{where}: pr must be an integer")
    if row["workload"] not in bench["workloads"]:
        errors.append(f"{where}: unknown workload {row['workload']!r}")
    if not (isinstance(row["seeds"], list)
            and all(isinstance(s, int) for s in row["seeds"])):
        errors.append(f"{where}: seeds must be a list of integers")
    if not isinstance(row["window_s"], numbers.Real):
        errors.append(f"{where}: window_s must be a number")
    metrics = row["end_to_end"]
    for name in bench["metrics"]:
        sides = metrics.get(name) if isinstance(metrics, dict) else None
        for side in ("parent", "change"):
            q = sides.get(side) if isinstance(sides, dict) else None
            if not (isinstance(q, list) and len(q) == 3
                    and all(is_value(v) for v in q)):
                errors.append(f"{where}: end_to_end.{name}.{side} must be "
                              "[q1, median, q3] (numbers or null)")
    counters = row["counters"]
    for name in COUNTERS:
        pair = counters.get(name) if isinstance(counters, dict) else None
        if not (isinstance(pair, list) and len(pair) == 2
                and all(is_value(v) for v in pair)):
            errors.append(f"{where}: counters.{name} must be "
                          "[parent, change] (numbers or null)")
    return errors


def regressions(where, row):
    """Counters the change raised above its parent's."""
    out = []
    for name in COUNTERS:
        parent, change = row["counters"][name]
        if parent is not None and change is not None and change > parent:
            out.append(f"{where}: {name} rose from {parent} to {change}")
    return out


def drifts(where, row, bench):
    """End-to-end medians that moved past their bound the wrong way."""
    out = []
    for name, (better, bound) in bench["metrics"].items():
        parent = row["end_to_end"][name]["parent"][1]
        change = row["end_to_end"][name]["change"][1]
        if parent is None or change is None or parent == 0:
            continue
        moved = (change - parent) / parent
        if (better == "lower" and moved > bound) or (
                better == "higher" and -moved > bound):
            out.append(f"{where}: {name} median {parent} -> {change} "
                       f"({moved:+.1%}, bound {bound:.0%})")
    return out


def main():
    args = sys.argv[1:]
    path = args[0] if args else os.path.join(
        ROOT, "bench", "baselines", "trajectory.jsonl")
    with open(args[1] if len(args) > 1 else
              os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bench = {
        "workloads": {w["name"] for w in spec["workloads"]},
        "metrics": {m["name"]: (m["better"], m["bound"])
                    for m in spec["end_to_end"]},
    }
    errors, warnings, last_pr, lines = [], [], None, 0
    with open(path) as f:
        for lineno, text in enumerate(f, 1):
            if not text.strip():
                continue
            lines += 1
            where = f"{os.path.basename(path)}:{lineno}"
            try:
                row = json.loads(text)
            except json.JSONDecodeError as e:
                errors.append(f"{where}: not JSON ({e})")
                continue
            if not isinstance(row, dict):
                errors.append(f"{where}: not a JSON object")
                continue
            problems = check_line(where, row, bench)
            errors.extend(problems)
            if problems:
                continue
            if last_pr is not None and row["pr"] < last_pr:
                errors.append(f"{where}: PR {row['pr']} after PR {last_pr}")
            last_pr = row["pr"]
            where = f"{where} (PR {row['pr']} {row['workload']})"
            errors.extend(regressions(where, row))
            warnings.extend(drifts(where, row, bench))
    for w in warnings:
        print("warning: " + w)
    for e in errors:
        print("error: " + e)
    print(f"{lines} line(s), {len(errors)} error(s), {len(warnings)} warning(s)")
    sys.exit(1 if errors or lines == 0 else 0)


if __name__ == "__main__":
    main()
