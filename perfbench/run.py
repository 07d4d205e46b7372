#!/usr/bin/env python3
"""End-to-end benchmark of the AGT-RAM replica-placement library.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 perfbench/run.py [--seed N] [--trace 0|1]     # all four workloads

Builds perfbench/ (with the library sources it links) into
.bench_build/perfbench, runs each workload in its own process, and prints a
report.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics BENCHMARK.json
declares, or with --trace 1 its per-layer metrics from a traced run of the
same workload and seed (preceded by an untraced run, so the report can show
the tracing overhead).  Every workload reports every declared metric.  Exits
nonzero when any operation fails or any correctness check fails, and without
a result line when the build or a run breaks.

The amount of work is fixed by the workload, --size and --seed; --seconds is
accepted on the command line and recorded, never used to stop early.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("refresh-trace", "online-churn", "serve-drift", "tiled-100k")
RUN_TIMEOUT_S = 170

# Which end-to-end metrics each phase feeds, for the traced run's "where the
# time goes" table.  A workload's measured phase is named after its operation
# (solve, repair or serve).  Spans named bench.* (the benchmark's own checks,
# digests and teardown) and gen.* (the load generators) sit inside a phase
# but outside every end-to-end timing.
MEASURED = "op_p50_ms, op_mean_ms"
PHASE_METRICS = {"setup": "setup_s", "solve": MEASURED, "repair": MEASURED,
                 "serve": MEASURED}
# The timing whose traced/untraced difference is reported as
# bench.trace_overhead_pct: the one covering the whole measured phase.
OVERHEAD_METRIC = "op_mean_ms"
TIME_UNITS = {"s", "ms", "us"}


class BenchError(Exception):
    """A build or run broke: the benchmark prints no result line."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(BUILD_DIR), "--target",
                     "perfbench", "-j", str(os.cpu_count() or 1)]):
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_binary(workload, seed, size, traced):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", "1" if traced else "0"]
    if traced:
        spans = BUILD_DIR / "traces" / f"{workload}-s{seed}-{size}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} ran past {RUN_TIMEOUT_S} s") from e
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise BenchError(f"{workload} exited {done.returncode} without a "
                         "result") from e
    if done.returncode not in (0, 1):
        raise BenchError(f"{workload} exited {done.returncode}")
    return result


def source_provenance():
    """Commit when run from a git checkout, and always a digest of every
    file the benchmark builds from (a source tree need not be a git
    checkout)."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def bench_spec(kind="end_to_end"):
    """The metrics of one kind ("end_to_end" or "per_layer") that
    BENCHMARK.json declares, by name; empty when there is no manifest."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {m["name"]: m for m in spec.get(kind, [])}
    except (OSError, ValueError):
        return {}


def fmt(value):
    if float(value).is_integer():
        return str(int(value))
    if abs(value) < 1e-3:
        return f"{value:.3g}"
    return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:<32} {fmt(m['value']):>14} {m['unit']}{samples}")


def overhead_pct(untraced, traced, name):
    """How much slower the traced run measured timing `name`, in %."""
    u = untraced["end_to_end"][name]["value"]
    t = traced["end_to_end"][name]["value"]
    return 100.0 * (t / u - 1.0) if u > 0 else 0.0


def print_where_time_goes(traced):
    shares = traced["shares"]
    order = list(PHASE_METRICS)
    for phase in sorted(traced["phases"], key=lambda p: order.index(p["phase"])):
        name = phase["phase"]
        wall = phase["wall_s"]
        gap = wall - phase["children_s"]
        rows = sorted((s for s in shares if s["phase"] == name),
                      key=lambda s: -s["self_s"])
        in_metric = sum(s["self_s"] for s in rows
                        if not s["span"].startswith(("bench.", "gen.")))
        print(f"  phase {name} ({phase['spans']} spans): {wall:.4f} s wall, "
              f"{gap * 1e3:.3f} ms outside child spans; feeds "
              f"{PHASE_METRICS[name]}")
        print(f"    {'span':<26} {'self s':>10} {'% phase':>8} "
              f"{'% metric':>9}")
        layers = {}
        for s in rows:
            outside = s["span"].startswith(("bench.", "gen."))
            share = "outside" if outside or in_metric <= 0 else \
                f"{100 * s['self_s'] / in_metric:.1f}"
            print(f"    {s['span']:<26} {s['self_s']:>10.4f} "
                  f"{100 * s['self_s'] / wall:>8.1f} {share:>9}")
            if not outside and in_metric > 0:
                layer = s["span"].split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + s["self_s"]
        print("    by layer: " + ", ".join(
            f"{layer} {100 * t / in_metric:.1f}%" for layer, t in
            sorted(layers.items(), key=lambda kv: -kv[1])))


def report(untraced, traced, provenance, args):
    r = traced or untraced
    mode = "traced" if traced else "untraced"
    print(f"== {r['workload']}  seed {r['seed']}  size {r['size']}  ({mode})")
    prov = dict(provenance, **r["provenance"], seed=r["seed"],
                requested_seconds=args.seconds)
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    print_metrics("end-to-end metrics (untraced run):", untraced["end_to_end"])
    print_metrics("workload details (untraced run):", untraced["details"])
    print(f"operations: {untraced['attempted']} attempted, "
          f"{untraced['failed']} failed")
    for c in untraced["checks"]:
        print(f"  [{'ok' if c['ok'] else 'FAILED'}] {c['name']}"
              + (f": {c['detail']}" if not c["ok"] else ""))
    print("digests: " + ", ".join(f"{k}={v}"
                                  for k, v in untraced["digests"].items()))
    if not traced:
        return
    print_metrics("per-layer metrics (traced run):", traced["per_layer"])
    print_metrics("workload details (traced run):", traced["details"])
    print("where the time goes (traced run; stage-sum checks below):")
    print_where_time_goes(traced)
    for c in traced["checks"]:
        if c["name"].startswith("stage sum"):
            print(f"  [{'ok' if c['ok'] else 'FAILED'}] {c['name']}: "
                  f"{c['detail']}")
    print("tracing overhead (traced vs untraced, same seed):")
    for name, m in untraced["end_to_end"].items():
        if m["unit"] in TIME_UNITS:
            t = traced["end_to_end"][name]["value"]
            print(f"  {name:<20} {fmt(m['value']):>12} -> {fmt(t):>12} "
                  f"{m['unit']:<9} {overhead_pct(untraced, traced, name):+.1f}%")
    for key in ("inputs", "placement"):
        if untraced["digests"].get(key) != traced["digests"].get(key):
            print(f"  [FAILED] traced run changed the {key} digest")


def result_line(untraced, traced):
    """The result line: end-to-end metrics, or per-layer ones when traced.
    Raises BenchError when its metrics are not exactly those BENCHMARK.json
    declares for the mode (when the manifest is there to compare with)."""
    runs = [r for r in (untraced, traced) if r]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    if traced:
        same = all(untraced["digests"].get(k) == traced["digests"].get(k)
                   for k in ("inputs", "placement"))
        if not same:
            correct = False
            failed += 1
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in traced["per_layer"].items()}
        metrics["bench.trace_overhead_pct"] = {
            "value": overhead_pct(untraced, traced, OVERHEAD_METRIC),
            "unit": "%"}
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in untraced["end_to_end"].items()}
    declared = bench_spec("per_layer" if traced else "end_to_end")
    if declared:
        got = {k: m["unit"] for k, m in metrics.items()}
        want = {k: m["unit"] for k, m in declared.items()}
        if got != want:
            raise BenchError(f"{untraced['workload']} reported metrics {got}, "
                             f"BENCHMARK.json declares {want}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(workload, args, provenance):
    untraced = run_binary(workload, args.seed, args.size, traced=False)
    traced = (run_binary(workload, args.seed, args.size, traced=True)
              if args.trace else None)
    report(untraced, traced, provenance, args)
    line = result_line(untraced, traced)
    record = BUILD_DIR / "results" / (
        f"{workload}-s{args.seed}-{args.size}-t{args.trace}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"provenance": provenance,
                                  "requested_seconds": args.seconds,
                                  "untraced": untraced, "traced": traced,
                                  "result": line}, indent=1))
    return untraced, line


def print_all_table(results):
    spec = bench_spec()
    names = []
    for untraced, _ in results.values():
        names += [n for n in untraced["end_to_end"] if n not in names]
    print("== end-to-end metrics, all workloads")
    print(f"  {'metric':<20} {'unit':<10} {'better':<7}"
          + "".join(f"{w:>15}" for w in results))
    for name in names:
        unit = ""
        cells = []
        for untraced, _ in results.values():
            m = untraced["end_to_end"].get(name)
            cells.append(f"{fmt(m['value']):>15}" if m else f"{'-':>15}")
            if m:
                unit = m["unit"]
        better = spec.get(name, {}).get("better", "")
        print(f"  {name:<20} {unit:<10} {better:<7}" + "".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="recorded only; the work per run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
        provenance = source_provenance()
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        results = {w: run_workload(w, args, provenance) for w in workloads}
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    lines = [line for _, line in results.values()]
    if args.workload:
        line = lines[0]
    else:
        print_all_table(results)
        line = {"correct": all(l["correct"] for l in lines),
                "attempted": sum(l["attempted"] for l in lines),
                "failed": sum(l["failed"] for l in lines),
                "metrics": {f"{w}/{k}": v for w, (_, l) in results.items()
                            for k, v in l["metrics"].items()}}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
