"""Record every grid cell's value as the golden reference (golden.json).

Run from the repository root on the commit whose answers are trusted:

    python3 perfbench/record_golden.py

It runs each cell of each workload once, in one fresh process with the
BLAS thread count the benchmark uses, and fails if any cell misses its published
reference.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    if os.environ.get("PERFBENCH_CHILD") != "1":
        # BLAS threads are fixed when numpy loads, so pin them in a fresh process
        from run import worker_env

        env = dict(worker_env(), PERFBENCH_CHILD="1")
        return subprocess.run([sys.executable, __file__, *sys.argv[1:]], env=env).returncode

    import provenance
    from workloads import make_workloads

    out = {"provenance": provenance.collect(ROOT), "workloads": {}}
    for name, workload in make_workloads().items():
        values = {}
        for cell in workload.grid:
            result = workload.run(cell)
            if not result.passed:
                print(f"{name} {cell.key}: value {result.value} misses reference "
                      f"{result.reference}", file=sys.stderr)
                return 1
            values[cell.key] = result.value
            print(f"{name} {cell.key} {result.value!r}", flush=True)
        out["workloads"][name] = values
    path = HERE / "golden.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
