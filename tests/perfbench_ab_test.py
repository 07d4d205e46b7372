#!/usr/bin/env python3
"""Checks tools/perfbench_ab.py's --moved rule against stub binaries.

    perfbench_ab_test.py PATH/TO/perfbench_ab.py

Each stub is a Python script that prints one canned perfbench result line.
The parent and change stubs differ in one count detail; further stubs also
differ in an unnamed detail or a digest, or print a moved detail that does
not repeat across runs.  Exits 0 when every case gets its expected exit
status.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

STUB = """#!{python}
import json
from pathlib import Path

runs = Path({runs!r})
count = int(runs.read_text()) if runs.exists() else 0
runs.write_text(str(count + 1))
result = {result!r}
if {alternate!r}:
    result["details"]["core.reports_computed"]["value"] += count
print(json.dumps(result))
"""


def result(reports=100, other=7, placement="aaaa"):
    return {
        "correct": True,
        "failed": 0,
        "checks": [{"name": "feasible", "ok": True}],
        "end_to_end": {"op_mean_ms": {"value": 1.0, "unit": "ms"}},
        "digests": {"inputs": "1111", "placement": placement},
        "details": {
            "core.reports_computed": {"value": reports, "unit": "count"},
            "core.allocations": {"value": other, "unit": "count"},
            "core.solve_s": {"value": 0.5, "unit": "s"},
        },
    }


def write_stub(directory, name, canned, alternate=False):
    path = Path(directory) / name
    path.write_text(STUB.format(python=sys.executable,
                                runs=str(path) + ".runs", result=canned,
                                alternate=alternate))
    path.chmod(0o755)
    return str(path)


def main():
    tool = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        parent = write_stub(tmp, "parent", result())
        change = write_stub(tmp, "change", result(reports=10))
        also_other = write_stub(tmp, "other", result(reports=10, other=8))
        also_digest = write_stub(tmp, "digest",
                                 result(reports=10, placement="bbbb"))
        unsteady = write_stub(tmp, "unsteady", result(reports=10),
                              alternate=True)
        moved = ["--moved", "core.reports_computed"]
        cases = [
            ("a moved count fails without --moved", [parent, change], [], 1),
            ("--moved lets the named count move", [parent, change], moved, 0),
            ("an unnamed detail still must hold", [parent, also_other],
             moved, 1),
            ("a digest still must hold", [parent, also_digest], moved, 1),
            ("a moved count must repeat per side", [parent, unsteady],
             moved + ["--pairs", "2"], 1),
            ("an unknown name is refused", [parent, change],
             ["--moved", "core.reports_computd"], 2),
        ]
        failures = 0
        for label, bins, extra, want in cases:
            args = [sys.executable, tool, *bins, "--workload", "stub",
                    "--seed", "1", "--pairs", "1", *extra]
            done = subprocess.run(args, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            status = "ok" if done.returncode == want else "FAILED"
            print(f"{status}: {label}: exit {done.returncode}, want {want}")
            if done.returncode != want:
                failures += 1
                print(done.stdout)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
