#!/usr/bin/env python3
"""Interleaved A/B runs of two perfbench binaries on one workload.

    tools/perfbench_ab.py PARENT_BIN CHANGE_BIN --workload W --seed S \\
        --pairs N [--size full|small]

Runs the two binaries in N pairs, alternating which side goes first, each
run untraced in its own process with the same workload, seed and size.
Prints every end-to-end metric's median and quartiles per side, the median
change, how many pairs the change won (ties count for neither side), and
two verdicts:

  gain   yes when the gain rule holds: at least ten pairs ran, the change
         wins at least nine tenths of them, and the median gap exceeds the
         parent's interquartile spread.  Below ten pairs it is always no:
         nine tenths of one pair is that pair, so a single lucky run would
         read as a gain.
  bound  the metric against its BENCHMARK.json bound: ok, or worse when the
         change's median is beyond the parent's by more than the bound;
         unresolved when either side's quartile spread, relative to its
         median, exceeds the bound (the runs spread too widely to tell),
         unless every change run beats every parent run.

Exits 1 when any run fails a correctness check or an operation, or when a
digest (inputs, instance, placement) or a deterministic detail (every
detail not timed: counts, bytes, percentages, ratios) differs between any
two runs; exits 2 when a binary cannot be run or prints no result.  Build
each binary from its own checkout (perfbench/run.py builds
.bench_build/perfbench/perfbench).
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 600
MIN_GAIN_PAIRS = 10
TIMED_UNITS = {"s", "ms", "us"}


def deterministic_details(result):
    return {k: d["value"] for k, d in result["details"].items()
            if d["unit"] not in TIMED_UNITS and not d["unit"].endswith("/s")}


def manifest_metrics():
    """Metric name -> its BENCHMARK.json entry ("better", "bound"), if any."""
    try:
        spec = json.loads(MANIFEST.read_text())
        return {m["name"]: m for m in spec.get("end_to_end", [])}
    except (OSError, ValueError, KeyError):
        return {}


def run(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", "0"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        broken(f"{binary}: {e}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        broken(f"{binary} exited {done.returncode} without a result line")


def broken(why):
    print(f"perfbench_ab: {why}", file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative_spread(values):
    q1, median, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else math.inf


def bound_verdict(parent, change, lower, bound):
    """ok, worse or unresolved against the parent's median and `bound`."""
    if bound is None:
        return "-"
    if (max(change) < min(parent)) if lower else (min(change) > max(parent)):
        return "ok"
    if relative_spread(parent) > bound or relative_spread(change) > bound:
        return "unresolved"
    pm = statistics.median(parent)
    cm = statistics.median(change)
    worse = cm > pm * (1 + bound) if lower else cm < pm * (1 - bound)
    return "worse" if worse else "ok"


def fmt(value):
    return f"{value:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_bin")
    parser.add_argument("change_bin")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs = {"parent": [], "change": []}
    bins = {"parent": str(Path(args.parent_bin).resolve()),
            "change": str(Path(args.change_bin).resolve())}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(bins[side], args)
            runs[side].append(result)
            e2e = {k: m["value"] for k, m in result["end_to_end"].items()}
            print(f"pair {pair + 1:>2} {side:<6} "
                  + " ".join(f"{k}={fmt(v)}" for k, v in e2e.items()),
                  file=sys.stderr, flush=True)

    ok = True
    for side, results in runs.items():
        for i, r in enumerate(results):
            if not r["correct"] or r["failed"] > 0:
                ok = False
                bad = [c["name"] for c in r["checks"] if not c["ok"]]
                print(f"FAILED: {side} run {i + 1}: {r['failed']} failed "
                      f"operations; checks failed: {bad}")
    reference = runs["parent"][0]["digests"]
    counts = deterministic_details(runs["parent"][0])
    for side, results in runs.items():
        for i, r in enumerate(results):
            if r["digests"] != reference:
                ok = False
                print(f"FAILED: {side} run {i + 1} digests {r['digests']} "
                      f"differ from parent run 1 {reference}")
            moved = {k: v for k, v in deterministic_details(r).items()
                     if counts.get(k) != v}
            if moved:
                ok = False
                print(f"FAILED: {side} run {i + 1} details {moved} differ "
                      "from parent run 1")

    manifest = manifest_metrics()
    print(f"== {args.workload}  seed {args.seed}  size {args.size}  "
          f"{args.pairs} interleaved pairs")
    print(f"  {'metric':<16} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'change':>8} {'wins':>6} "
          "gain bound")
    for name, meta in runs["parent"][0]["end_to_end"].items():
        parent = [r["end_to_end"][name]["value"] for r in runs["parent"]]
        change = [r["end_to_end"][name]["value"] for r in runs["change"]]
        spec = manifest.get(name, {})
        lower = spec.get("better", "lower") == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        gap = (pm - cm) if lower else (cm - pm)
        gain = (args.pairs >= MIN_GAIN_PAIRS and wins >= 0.9 * args.pairs
                and gap > (p3 - p1))
        pct = 100.0 * (cm - pm) / pm if pm else 0.0
        unit = meta["unit"]
        print(f"  {name:<16} "
              f"{fmt(pm) + ' [' + fmt(p1) + ', ' + fmt(p3) + '] ' + unit:>30} "
              f"{fmt(cm) + ' [' + fmt(c1) + ', ' + fmt(c3) + '] ' + unit:>30} "
              f"{pct:>+7.1f}% {wins:>2}/{args.pairs:<3} "
              f"{'yes' if gain else 'no':<4} "
              f"{bound_verdict(parent, change, lower, spec.get('bound'))}")
    print("digests: " + ", ".join(f"{k}={v}" for k, v in reference.items())
          + (f" and {len(counts)} untimed details equal on every run"
             if ok else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
