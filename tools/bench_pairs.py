#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs.

Each pair runs `python3 bench/run.py --workload W --seed S --seconds T` once
from each checkout, the parent first in even pairs and the change first in
odd ones, so a slow spell of the host falls on both sides alike.  The JSON
written to --out holds, per workload and seed, the value of every run of
every end-to-end metric, each side's median and quartiles, how many pairs
each side won, whether the gap between the medians exceeds the parent's
quartile distance, and each run's correct/failed/attempted counts.  Each
metric also states the acceptance rule: within_bound (the change's median
is no worse than the parent's by more than the metric's relative `bound`
in BENCHMARK.json), claim_rule_met (the change wins at least 9/10 of the
pairs and its median is better by more than the parent's quartile
distance) and unresolved (either side's quartile distance exceeds the
bound, and not every change run beats every parent run: such a metric
reads neither worse nor unchanged).  It also
holds each checkout's line count of src/thinspec/*.py (src_lines), counted
as `wc -l` counts, so a change's size is tracked along with its speed.

Usage:
    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \\
        [--workloads W ...] [--seeds S ...] [--pairs N] [--seconds T] \\
        [--note TEXT] [--merge]

With --merge the results are added to those already in --out.  The exit
code is 1 when any run was not correct (a failed operation or a crash).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SCHEMA = "thinspec-bench-pairs/1"
WORKLOADS = ("ellipse_sweep", "expansion_fine", "disk_sweep")
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--note", default=None, help="free text stored with the results")
    p.add_argument("--merge", action="store_true", help="add to the results already in --out")
    return p.parse_args(argv)


def run_once(checkout, workload, seed, seconds):
    """One bench/run.py process in checkout: its last JSON line, or a record
    of why there is none."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"correct": False, "error": f"exit code {out.returncode}: {out.stderr[-400:]}"}
    return json.loads(lines[-1])


def quartiles(values):
    """25th and 75th percentiles, interpolating linearly between runs."""
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(metric, better, bound, pairs):
    """Statistics of one metric over (parent run, change run) pairs, and
    the acceptance rule at its relative `bound`; a pair with a side that
    reported no value counts in neither."""
    both = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"]) for p, c in pairs
            if metric in p.get("metrics", {}) and metric in c.get("metrics", {})]
    if not both:
        return None
    parent = [p for p, _ in both]
    change = [c for _, c in both]
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in both)
    scale = abs(p_med)
    return {
        "unit": pairs[0][0]["metrics"][metric]["unit"],
        "better": better,
        "parent_runs": parent,
        "change_runs": change,
        "parent_median": p_med,
        "parent_quartiles": p_q,
        "change_median": c_med,
        "change_quartiles": c_q,
        "change_wins": wins,
        "parent_wins": sum(sign * (p - c) < 0 for p, c in both),
        "relative_change": (c_med - p_med) / p_med if p_med else None,
        "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > p_q[1] - p_q[0],
        "bound": bound,
        "within_bound": sign * (c_med - p_med) <= bound * scale,
        "claim_rule_met": 10 * wins >= 9 * len(both) and sign * (p_med - c_med) > p_q[1] - p_q[0],
        "unresolved": (max(p_q[1] - p_q[0], c_q[1] - c_q[0]) > bound * scale
                       and not max(sign * c for c in change) < min(sign * p for p in parent)),
    }


def directions(checkout):
    """Metric name -> ("lower"/"higher", relative bound) from the checkout's
    BENCHMARK.json."""
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def src_lines(checkout):
    """Newlines in the checkout's src/thinspec/*.py, which is what `wc -l`
    counts."""
    return sum(path.read_bytes().count(b"\n")
               for path in (Path(checkout) / "src" / "thinspec").glob("*.py"))


def host():
    try:
        import numpy
        import scipy
        libs = f", numpy {numpy.__version__}, scipy {scipy.__version__}"
    except ImportError:
        libs = ""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"{cores} usable cores ({platform.machine()}), {platform.system()}, "
            f"Python {platform.python_version()}{libs}")


def compare(args, workload, seed, better):
    pairs, order = [], []
    for k in range(args.pairs):
        first = SIDES[k % 2]
        order.append(f"{first} first")
        result = {}
        for side in (first, SIDES[1 - k % 2]):
            result[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            print(f"{workload} seed {seed} pair {k + 1}/{args.pairs} {side}: "
                  f"{json.dumps(result[side].get('metrics', result[side]))}", file=sys.stderr)
        pairs.append((result["parent"], result["change"]))
    runs = {side: [{key: run.get(key) for key in ("correct", "failed", "attempted", "error")
                    if key in run}
                   for run in (pair[i] for pair in pairs)]
            for i, side in enumerate(SIDES)}
    metrics = {name: summarize(name, *better[name], pairs) for name in better}
    return {
        "workload": workload,
        "seed": seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "order": order,
        "correct": all(r["correct"] is True for side in SIDES for r in runs[side]),
        "runs": runs,
        "metrics": {name: m for name, m in metrics.items() if m is not None},
    }


def main(argv=None):
    args = parse_args(argv)
    better = directions(args.change)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if args.merge and out.exists() else {}
    if doc and doc.get("schema") != SCHEMA:
        sys.exit(f"bench_pairs: {out} is not a {SCHEMA} file")
    doc.update({
        "schema": SCHEMA,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "host": host(),
        "src_lines": {side: src_lines(getattr(args, side)) for side in SIDES},
        "quartiles": "25th and 75th percentiles of one side's runs, linear between runs",
        "wins": "a side wins a pair when its value is better in the metric's direction; "
                "a tie counts for neither",
        "acceptance": "within_bound: change median no worse than the parent's by more than "
                      "bound x parent median; claim_rule_met: change wins >= 9/10 of the pairs "
                      "and beats the parent median by more than the parent's quartile distance; "
                      "unresolved: a side's quartile distance exceeds bound x parent median "
                      "and not every change run beats every parent run",
    })
    if args.note is not None:
        doc["note"] = args.note
    results = doc.setdefault("results", {})
    for workload in args.workloads:
        for seed in args.seeds:
            results[f"{workload}@seed{seed}"] = compare(args, workload, seed, better)
            out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
