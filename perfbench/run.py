"""mmrom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ladder_n1000 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from src/ of that
checkout; nothing needs installing.  Set-up is sampled SETUP_SAMPLES times,
each a fresh process timed from spawn until it has imported mmrom and built
the workload's inputs; the last of them goes on to run cells back to back
for --seconds.  The last line on stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md).  The full record (provenance, every cell)
goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
# One BLAS thread: on a 2-CPU machine shared with other tenants, two BLAS
# threads made ladder_n1000 cells 1.5x faster but their times 5x noisier,
# and made generic_m10 cells slower (see README.md).
BLAS_THREADS = 1
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_worker(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Spawn a worker; return it with the seconds it took to say READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(timeout=max(deadline - time.monotonic(), 0.0))
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise WorkerError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup_s


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; expected one of {names}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "mmrom" / "__init__.py").is_file():
        print(f"run.py: no mmrom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + DEADLINE_S
    setup = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s = start_worker(["--workload", args.workload, "--seed", str(args.seed),
                                          "--seconds", "0", "--setup-only"], deadline)
            finish(proc, deadline)
            setup.append(setup_s)
        proc, setup_s = start_worker(
            ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--spans-out", str(OUT / f"{stem}-spans.jsonl")], deadline)
        setup.append(setup_s)
        out = finish(proc, deadline)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    report = json.loads(out.strip().splitlines()[-1])
    metrics = report["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    detail = report["detail"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples": setup, **detail, "metrics": metrics,
              "attempted": report["attempted"], "failed": report["failed"]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    prov = detail["provenance"]
    print(f"# {args.workload} seed={args.seed} rev={prov['git_revision'] or prov['source_digest']} "
          f"python={prov['python']} numpy={prov['numpy']} scipy={prov['scipy']} blas={prov['blas']} "
          f"threads={prov['blas_threads']} nproc={prov['nproc']} cpu={prov['cpu_model']!r}")
    for error in (r["error"] for r in detail["records"] if not r["ok"]):
        print(f"# failed cell: {error['type']}: {error['message']}")
    if args.trace == 0:
        print(f"# cell_s_tail is p{detail['tail_percentile']:.0f} of {detail['samples']} cells; "
              f"fail_ratio={detail['fail_ratio']:g}")
    else:
        print(f"# {detail['pairs']} traced/untraced pairs; absent wrapped names: {detail['missing'] or 'none'}")
    for name, m in sorted(metrics.items()):
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
