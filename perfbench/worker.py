"""One benchmark process: set up, say READY, run cells back to back, report.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread count pinned.  A single closed-loop client: the next cell starts
when the previous one has finished.  The last line on stdout is a JSON
object with the metrics and the per-cell records.

With --trace 1 every drawn cell runs twice, once plain and once traced, in
alternating order, so that the tracing overhead is a paired comparison.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; below 20 samples no percentile above the median has
    that many, and the median is returned."""
    n = len(times)
    ordered = sorted(times)
    k = n - 10  # samples at or below the tail value
    if k < math.ceil(n / 2):
        return statistics.median(times), 50.0
    return ordered[k - 1], 100.0 * k / n


def run_one(workload, cell, tracer, cell_id) -> dict:
    record = {"id": cell_id, "cell": cell.key, "traced": tracer is not None}
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(cell)
        else:
            result = tracer.run_cell(cell_id, lambda: workload.run(cell))
        record["seconds"] = time.perf_counter() - start
        if tracer is not None:
            tracer.measure_assembly_peak(cell.key)
        record["value"] = result.value
        workload.check(cell, result)
        record["ok"] = True
    except Exception as exc:  # a failed cell is counted and reported, the run goes on
        record.setdefault("seconds", time.perf_counter() - start)
        record["ok"] = False
        record["error"] = {"type": type(exc).__name__, "message": str(exc)}
        traceback.print_exc(file=sys.stderr)
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    import mmrom

    if ROOT / "src" not in Path(mmrom.__file__).resolve().parents:
        print(f"worker: imported mmrom from {mmrom.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import provenance
    from spans import Tracer, layer_metrics
    from workloads import make_workloads

    workload = make_workloads()[args.workload]
    workload.load_golden()
    cells = workload.draw(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    records, pairs, traces = [], [], []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < args.seconds:
        cell = next(cells)
        if tracer is None:
            records.append(run_one(workload, cell, None, len(records)))
            continue
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        pair = {}
        for traced in order:
            pair[traced] = run_one(workload, cell, tracer if traced else None, len(records))
            records.append(pair[traced])
            if traced:
                traces.append(tracer.last)
        pairs.append(pair)
    elapsed = time.perf_counter() - start

    failed = sum(not r["ok"] for r in records)
    detail = {"provenance": provenance.collect(ROOT), "records": records}
    if tracer is None:
        times = [r["seconds"] for r in records]
        tail_s, tail_pct = tail(times)
        metrics = {
            "cell_s_p50": (statistics.median(times), "s"),
            "cell_s_tail": (tail_s, "s"),
            "cells_per_s": (len(records) / elapsed, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "verified_ratio": ((len(records) - failed) / len(records), "ratio"),
        }
        detail.update(tail_percentile=tail_pct, samples=len(times),
                      fail_ratio=failed / len(records))
    else:
        metrics = layer_metrics(traces, tracer.missing)
        traced = [p[True]["seconds"] for p in pairs]
        plain = [p[False]["seconds"] for p in pairs]
        metrics["trace.cell_s_p50"] = (statistics.median(traced), "s")
        metrics["trace.untraced_cell_s_p50"] = (statistics.median(plain), "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(t / p for t, p in zip(traced, plain)), "ratio")
        detail.update(pairs=len(pairs), missing=sorted(tracer.missing))
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for span in tracer.span_records():
                    fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
