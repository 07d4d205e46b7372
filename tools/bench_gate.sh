#!/usr/bin/env bash
# Perf-regression gate for the mechanism trajectory.
#
# Re-runs the micro_core trajectory into a scratch JSON and diffs its
# mechanism_full_run, baseline_run, kernel_*, regional_engine_run,
# regional_tiled_run, ablation_regional_sweep, online_*_run, serving_*_run,
# strategic_audit_run, glauber_run, and tree_placement_run timing rows
# against the committed BENCH_mechanism.json: any row whose wall time regressed by more
# than the threshold (default 25%) fails the gate.  Rows are matched on the
# full identity key (servers, objects, demand, layout, incremental_reports,
# parallel_agents, algorithm, eval, parallel_scan, variant, regions,
# execution — absent fields match as null); committed rows with no fresh
# counterpart are skipped, as are fresh rows that are new.
#
# The ablation_regional_sweep rows come from a separate binary
# (build/bench/ablation_regional --json); when it is built the gate runs it
# into a second scratch JSON and merges those rows into the fresh set.
# micro_core itself enforces the regional execution policy (sharded must be
# byte-identical to serial and never slower beyond noise) and exits nonzero
# on violation, which fails the gate before any diffing.
#
# A row fails only when it regresses BOTH relatively (>threshold%) and
# absolutely (>min-delta seconds): sub-second rows jitter by tens of
# percent run to run on shared containers (a 30 ms swing on a 120 ms row
# is noise, not a regression) — the rows the gate exists for (the
# paper-scale sweeps, seconds each) clear the floor easily.
#
# Usage:
#   tools/bench_gate.sh [--binary PATH] [--committed PATH] [--threshold PCT]
#                       [--min-delta SECONDS] [--quick]
#                       [-- extra micro_core flags...]
#
#   --binary     micro_core binary (default: build/bench/micro_core)
#   --committed  baseline JSON (default: BENCH_mechanism.json beside this repo)
#   --threshold  allowed regression in percent (default: 25)
#   --min-delta  absolute regression floor in seconds (default: 0.05)
#   --quick      skip the paper-scale family (passes --paper-scale=0)
#
# Wired as an opt-in ctest (label "bench") via -DAGTRAM_BENCH_GATE=ON;
# see EXPERIMENTS.md.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
binary="${repo_root}/build/bench/micro_core"
committed="${repo_root}/BENCH_mechanism.json"
threshold=25
min_delta=0.05
extra_flags=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --binary) binary="$2"; shift 2 ;;
    --committed) committed="$2"; shift 2 ;;
    --threshold) threshold="$2"; shift 2 ;;
    --min-delta) min_delta="$2"; shift 2 ;;
    --quick) extra_flags+=("--paper-scale=0" "--regional=0"); shift ;;
    --) shift; extra_flags+=("$@"); break ;;
    *) echo "bench_gate: unknown flag $1" >&2; exit 2 ;;
  esac
done

[[ -x "$binary" ]] || { echo "bench_gate: missing binary $binary (build with -DAGTRAM_BUILD_BENCH=ON)" >&2; exit 2; }
[[ -f "$committed" ]] || { echo "bench_gate: missing baseline $committed" >&2; exit 2; }
command -v python3 >/dev/null || { echo "bench_gate: python3 required" >&2; exit 2; }

fresh="$(mktemp --suffix=.json)"
fresh_ablation="$(mktemp --suffix=.json)"
trap 'rm -f "$fresh" "$fresh_ablation"' EXIT

# --benchmark_filter matching nothing skips the google-benchmark section;
# only the trajectory (the part the gate scores) runs.
echo "bench_gate: running trajectory ($binary)..."
"$binary" "--json=$fresh" "--benchmark_filter=^\$" "${extra_flags[@]+"${extra_flags[@]}"}"

# The regional ablation sweep lives in its own binary; its rows ride the
# same gate when it is built (JsonWriter overwrites whole files, so it
# writes a scratch JSON of its own and the python below merges the rows).
ablation_binary="$(dirname "$binary")/ablation_regional"
if [[ -x "$ablation_binary" ]]; then
  echo "bench_gate: running ablation_regional sweep ($ablation_binary)..."
  "$ablation_binary" "--json=$fresh_ablation" >/dev/null
else
  printf '{"results": []}' > "$fresh_ablation"
fi

python3 - "$committed" "$fresh" "$threshold" "$min_delta" "$fresh_ablation" <<'PYEOF'
import json, sys

committed_path, fresh_path = sys.argv[1], sys.argv[2]
threshold, min_delta = float(sys.argv[3]), float(sys.argv[4])
extra_paths = sys.argv[5:]
KEY = ("benchmark", "servers", "objects", "demand", "layout",
       "incremental_reports", "parallel_agents",
       "algorithm", "eval", "parallel_scan", "variant",
       "regions", "execution")
GATED = ("mechanism_full_run", "baseline_run", "kernel_object_cost",
         "kernel_nn_min", "kernel_global_benefit", "kernel_best_add_scan",
         "regional_engine_run", "regional_tiled_run",
         "ablation_regional_sweep", "online_event_run",
         "online_fromscratch_run", "serving_replay_run",
         "serving_static_run", "serving_resolve_run",
         "strategic_audit_run", "glauber_run", "tree_placement_run")

def rows(*paths):
    out = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for r in doc.get("results", []):
            if r.get("benchmark") not in GATED:
                continue
            out[tuple(r.get(k) for k in KEY)] = r
    return out

baseline, fresh = rows(committed_path), rows(fresh_path, *extra_paths)
compared = skipped = 0
failures = []
for key, base in sorted(baseline.items()):
    cur = fresh.get(key)
    if cur is None:
        skipped += 1
        continue
    compared += 1
    base_s, cur_s = base["seconds"], cur["seconds"]
    ratio = (cur_s / base_s - 1.0) * 100.0 if base_s > 0 else 0.0
    label = "/".join(str(k) for k in key[1:] if k is not None)
    regressed = ratio > threshold and (cur_s - base_s) > min_delta
    verdict = "FAIL" if regressed else ("ok~" if ratio > threshold else "ok")
    print(f"  {verdict:4} {label}: {base_s:.4g}s -> {cur_s:.4g}s ({ratio:+.1f}%)")
    if regressed:
        failures.append(label)

print(f"bench_gate: {compared} rows compared, {skipped} baseline rows skipped "
      f"(no fresh counterpart), threshold {threshold:.0f}% and "
      f"{min_delta:g}s ('ok~' = over threshold but within the noise floor)")
if compared == 0:
    print("bench_gate: nothing to compare — baseline has no matching rows", file=sys.stderr)
    sys.exit(2)
if failures:
    print(f"bench_gate: FAILED — {len(failures)} row(s) regressed beyond "
          f"{threshold:.0f}%: {', '.join(failures)}", file=sys.stderr)
    sys.exit(1)
print("bench_gate: PASS")
PYEOF
