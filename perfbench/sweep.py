"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/sweep.py --seeds 10 --out perfbench/trajectory/BENCH_<k>.json
    python3 perfbench/sweep.py --workloads generic_m10 --seeds 5

For every workload it runs the command from BENCHMARK.json once per seed
with tracing off, then --trace-runs times with tracing on.  For each
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and their distance as a share of the median, next to the metric's
bound; a spread above a third of the bound is flagged.  --out writes the
same numbers, the per-layer medians and the provenance of the first run as a
trajectory point.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance_line"] = lines[0]
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    point = {"run_seconds": spec["run_seconds"], "seeds": list(seeds), "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        results = [run(spec, workload, seed, 0) for seed in seeds]
        point.setdefault("provenance", results[0]["provenance_line"])
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}, "per_layer": {}}
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            flag = ""
            if name != "setup_s" and s["spread"] > bound / 3:
                flag, steady = "  <-- above bound/3", False
            print(f"{workload:14s} {name:15s} median {s['median']:.6g} {s['unit']:5s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bound}{flag}", flush=True)
        traced = [run(spec, workload, args.first_seed + i, 1) for i in range(args.trace_runs)]
        for name in traced[0]["metrics"] if traced else ():
            values = [r["metrics"][name]["value"] for r in traced if name in r["metrics"]]
            entry["per_layer"][name] = {"median": statistics.median(values),
                                        "unit": traced[0]["metrics"][name]["unit"]}
        if traced:
            ratio = entry["per_layer"].get("trace.overhead_ratio", {}).get("median")
            print(f"{workload:14s} tracing overhead ratio {ratio}", flush=True)
        entry["correct"] = all(r["correct"] for r in results + traced)
        point["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
