#!/usr/bin/env python3
"""Determinism self-test of the benchmark (python3 perfbench/selftest.py).

Runs every workload at the small size twice on one seed and once on a
second seed, plus one traced run, and requires:
  * identical input, instance and placement digests, otc_savings_pct,
    units_per_req, operation counts and every per-layer count on one seed;
  * a different input digest on the second seed, so a change to a load
    generator shows up as changed inputs rather than as a speed-up;
  * a passing correctness gate and stage sums on every run, and a traced
    run whose digests equal the untraced ones.
Exits 1 on the first workload that breaks any of these.
"""

import sys

import run

SEED, OTHER_SEED = 1, 2
EXACT_METRICS = ("otc_savings_pct", "units_per_req")
COUNT_UNITS = ("count", "bytes", "ratio", "%")


def fingerprint(result):
    """Everything that must repeat exactly for one seed."""
    metrics = dict(result["end_to_end"], **result["per_layer"],
                   **result["details"])
    exact = {k: m["value"] for k, m in metrics.items() if k in EXACT_METRICS}
    counts = {k: m["value"] for k, m in metrics.items()
              if m["unit"] in COUNT_UNITS}
    return {"digests": result["digests"], "exact": exact, "counts": counts,
            "attempted": result["attempted"], "failed": result["failed"]}


def check_workload(workload):
    first = run.run_binary(workload, SEED, "small", traced=False)
    again = run.run_binary(workload, SEED, "small", traced=False)
    other = run.run_binary(workload, OTHER_SEED, "small", traced=False)
    traced = run.run_binary(workload, SEED, "small", traced=True)
    problems = []
    for name, r in (("first", first), ("repeat", again), ("other seed", other),
                    ("traced", traced)):
        if not r["correct"] or r["failed"]:
            bad = [c["name"] for c in r["checks"] if not c["ok"]]
            problems.append(f"{name} run failed: {r['failed']} failed, "
                            f"checks {bad}")
    a, b = fingerprint(first), fingerprint(again)
    for key in a:
        if a[key] != b[key]:
            problems.append(f"{key} differs between two runs of seed {SEED}: "
                            f"{a[key]} vs {b[key]}")
    if first["digests"]["inputs"] == other["digests"]["inputs"]:
        problems.append(f"seeds {SEED} and {OTHER_SEED} gave the same inputs")
    if traced["digests"] != first["digests"]:
        problems.append("the traced run changed a digest")
    if not traced["phases"]:
        problems.append("the traced run reported no stage sums")
    return problems


def main():
    try:
        run.build()
    except run.BenchError as e:
        print(f"selftest: {e}", file=sys.stderr)
        return 2
    failed = False
    for workload in run.WORKLOADS:
        problems = check_workload(workload)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
