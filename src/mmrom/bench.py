"""Benchmark harness: runs (domain, degree) grids and compares against
published reference values."""
from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass

import numpy as np

from .assembly import assemble_operators
from .basis import generate_basis
from .newton import Solution, solve_invariance
from .problems import Problem, make_cart_pendulum, make_rl_linear, make_rl_vdp, make_test1
from .quadrature import BoxDomain
from .residuals import residual_norm
from .rom import build_rom, default_gain, reduced_dynamics
from .simulate import (OMEGA0, R0, Trajectory, rom_trajectory, simulate_fom, simulate_rom,
                       steady_state_rms)

HALF_WIDTHS = (1.0, 2.0, 3.0)
DEGREES = (2, 4, 6)

# Published weighted residual norms and relative RMS errors, by table id.
# None marks a cell reported as not converging within the iteration cap.
REFERENCE_TABLES = {
    "T1": {
        "kind": "residual", "problem": "test1", "n": 2,
        "half_widths": (1.0,), "degrees": DEGREES, "W_half": 1.0,
        "criterion": ("absolute", 1e-10),
        "values": [[1.1048e-16, 1.0940e-15, 5.7176e-14]],
    },
    "T2": {
        "kind": "residual", "problem": "cart_pendulum", "n": 4,
        "half_widths": (1.0,), "degrees": DEGREES, "W_half": 1.0,
        "criterion": ("absolute", 1e-6),
        "values": [[9.3256e-10, 8.6338e-10, 9.4227e-10]],
    },
    "T3-res-n2": {
        "kind": "residual", "problem": "rl_linear", "n": 2,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES, "W_half": 0.7,
        "criterion": ("factor", 3.0),
        "values": [
            [1.3626e-3, 1.9130e-5, 7.0587e-7],
            [8.2881e-3, 4.7759e-4, 7.9316e-5],
            [2.1234e-2, 1.3698e-3, 7.1681e-4],
        ],
    },
    "T3-res-n100": {
        "kind": "residual", "problem": "rl_linear", "n": 100,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES, "W_half": 0.7,
        "criterion": ("factor", 3.0),
        "values": [
            [1.0617e-3, 2.2500e-5, 7.0723e-7],
            [6.5405e-3, 5.8132e-4, 8.1913e-5],
            [1.7266e-2, 1.7815e-3, 7.6927e-4],
        ],
    },
    "T3-res-n1000": {
        "kind": "residual", "problem": "rl_linear", "n": 1000,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES, "W_half": 0.7,
        "criterion": ("factor", 3.0),
        "values": [
            [1.0617e-3, 2.2500e-5, 7.0723e-7],
            [6.5405e-3, 5.8132e-4, 8.1913e-5],
            [1.7266e-2, 1.7815e-3, 7.6927e-4],
        ],
    },
    "T4-res-n2": {
        "kind": "residual", "problem": "rl_vdp", "n": 2,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES, "W_half": 0.7,
        "criterion": ("factor", 3.0),
        "values": [
            [8.0711e-3, 4.1311e-4, 2.8741e-5],
            [3.9200e-2, 2.6989e-2, 7.0562e-2],
            [1.0014e-1, 3.2736e-1, 1.5181e-1],
        ],
    },
    "T4-res-n100": {
        "kind": "residual", "problem": "rl_vdp", "n": 100,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES, "W_half": 0.7,
        "criterion": ("factor", 3.0),
        "values": [
            [6.0786e-3, 2.9373e-4, 2.0639e-5],
            [5.0803e-2, 9.7273e-3, 1.1899e-2],
            [4.0017e-2, None, None],
        ],
    },
    "T4-res-n1000": {
        "kind": "residual", "problem": "rl_vdp", "n": 1000,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES, "W_half": 0.7,
        "criterion": ("factor", 3.0),
        "values": [
            [6.0786e-3, 2.9373e-4, 2.0639e-5],
            [5.0662e-2, 4.0561e-2, 9.0314e-3],
            [3.8131e-2, None, None],
        ],
    },
    "T3-rom-n2": {
        "kind": "rom", "problem": "rl_linear", "n": 2,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES,
        "criterion": ("factor", 3.0),
        "values": [
            [3.2250e-3, 3.5399e-4, 3.4580e-4],
            [1.4806e-2, 9.6175e-4, 3.9628e-4],
            [3.6235e-2, 1.7328e-3, 1.4298e-3],
        ],
    },
    "T3-rom-n100": {
        "kind": "rom", "problem": "rl_linear", "n": 100,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES,
        "criterion": ("factor", 3.0),
        "values": [
            [3.2222e-3, 1.5413e-3, 1.5371e-3],
            [1.3348e-2, 1.9930e-3, 1.5520e-3],
            [3.5621e-2, 3.2516e-3, 2.2785e-3],
        ],
    },
    "T3-rom-n1000": {
        "kind": "rom", "problem": "rl_linear", "n": 1000,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES,
        "criterion": ("factor", 3.0),
        "values": [
            [5.3946e-3, 4.4702e-3, 4.4676e-3],
            [1.4154e-2, 4.6679e-3, 4.4713e-3],
            [3.3966e-2, 5.4216e-3, 4.7748e-3],
        ],
    },
    "T4-rom-n2": {
        "kind": "rom", "problem": "rl_vdp", "n": 2,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES,
        "criterion": ("factor", 3.0),
        "values": [
            [4.5723e-2, 7.7093e-3, 1.6723e-3],
            [5.1643e-2, 1.9637e-2, 4.9413e-2],
            [1.2946e-1, 2.0774e-1, 5.7344e-2],
        ],
    },
    "T4-rom-n100": {
        "kind": "rom", "problem": "rl_vdp", "n": 100,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES,
        "criterion": ("factor", 3.0),
        "values": [
            [4.3206e-2, 7.1173e-3, 3.4599e-3],
            [3.0439e-1, 1.5848e-2, 5.5036e-3],
            [3.2542e-1, None, None],
        ],
    },
    "T4-rom-n1000": {
        "kind": "rom", "problem": "rl_vdp", "n": 1000,
        "half_widths": HALF_WIDTHS, "degrees": DEGREES,
        "criterion": ("factor", 3.0),
        "values": [
            [4.3949e-2, 8.1825e-3, 5.7352e-3],
            [3.0441e-1, 1.6432e-2, 6.9633e-3],
            [3.2592e-1, None, None],
        ],
    },
    "T3-time": {
        "kind": "timing", "problem": "rl_linear", "dims": (2, 100, 1000),
        "values": [7.1, 447.0, 6935.0],
    },
    "T4-time": {
        "kind": "timing", "problem": "rl_vdp", "dims": (2, 100, 1000),
        "values": [10.6, 438.0, 6955.0],
    },
}

TABLE_IDS = tuple(REFERENCE_TABLES)


def make_benchmark_problem(name: str, n: int) -> Problem:
    if name == "test1":
        return make_test1(a=2.0)
    if name == "cart_pendulum":
        return make_cart_pendulum(a1=2.0, a2=3.0, k=-2.0 / 3.0)
    if name == "rl_linear":
        return make_rl_linear(n=n, a=2.0, kappa=1.1)
    if name == "rl_vdp":
        return make_rl_vdp(n=n, mu=0.25, kappa=1.1)
    raise ValueError(f"unknown benchmark problem {name!r}")


def solve_benchmark(problem: Problem, half_width: float, M: int) -> tuple[Solution, float]:
    """Solve one (domain, degree) cell; returns the solution and wall time."""
    domain = BoxDomain.cube(half_width, d=problem.generator.d)
    basis = generate_basis(problem.generator.d, M)
    ops = assemble_operators(problem, basis, domain)
    start = time.perf_counter()
    solution = solve_invariance(problem, ops)
    return solution, time.perf_counter() - start


@dataclass
class CellResult:
    half_width: float
    M: int
    n: int
    value: float | None      # weighted residual norm or relative RMS
    reference: float | None
    passed: bool
    converged: bool
    seconds: float
    error: str | None = None  # "Type: message" of the exception that ended the cell
    outside_domain: int = 0   # stored reduced states outside the expansion domain (ROM cells)
    iterations: int = 0       # Newton iterations of the cell's solve
    stop_reason: str | None = None  # why the cell's solve stopped: Solution.stop_reason


def _reference(spec: dict, half_width: float, M: int) -> float | None:
    return spec["values"][spec["half_widths"].index(half_width)][spec["degrees"].index(M)]


def _check_cell(value, reference, converged, criterion) -> bool:
    if reference is None:
        return not converged
    if not converged or value is None:
        return False
    mode, limit = criterion
    if mode == "absolute":
        return value <= limit
    return reference / limit <= value <= reference * limit


def run_residual_cell(spec: dict, half_width: float, M: int) -> CellResult:
    problem = make_benchmark_problem(spec["problem"], spec["n"])
    solution, seconds = solve_benchmark(problem, half_width, M)
    value = None
    if solution.converged:
        W = BoxDomain.cube(spec["W_half"], d=problem.generator.d)
        value = residual_norm(problem, solution.basis, solution.c, W=W).weighted_norm
    ref = _reference(spec, half_width, M)
    return CellResult(
        half_width=half_width, M=M, n=spec["n"], value=value, reference=ref,
        passed=_check_cell(value, ref, solution.converged, spec["criterion"]),
        converged=solution.converged, seconds=seconds, iterations=solution.iterations,
        stop_reason=solution.stop_reason,
    )


@functools.cache
def _reference_trajectory(name: str, n: int) -> Trajectory:
    """The full-order run that each ROM cell of a problem is scored against; it does
    not depend on (hw, M), so a process integrates it once and shares it read-only."""
    fom = simulate_fom(make_benchmark_problem(name, n), omega0=OMEGA0, x0=np.zeros(n))
    for array in (fom.times, fom.states, fom.outputs):
        array.setflags(write=False)
    return fom


@functools.cache
def _reduced_run(name: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The stored times and reduced states that each ROM cell of a problem reads.
    The reduced dynamics read only the generator and the problem's gain, not pi^N
    or its domain, so a process integrates them once and shares the run read-only."""
    problem = make_benchmark_problem(name, n)
    dynamics = reduced_dynamics(problem, default_gain(problem))
    run = simulate_rom(dynamics, problem.generator, omega0=OMEGA0, r0=R0)
    for array in run:
        array.setflags(write=False)
    return run


def run_rom_cell(spec: dict, half_width: float, M: int) -> CellResult:
    problem = make_benchmark_problem(spec["problem"], spec["n"])
    solution, seconds = solve_benchmark(problem, half_width, M)
    ref = _reference(spec, half_width, M)
    value, outside = None, 0
    if solution.converged:
        rom = build_rom(problem, solution)
        fom = _reference_trajectory(spec["problem"], spec["n"])
        red = rom_trajectory(rom, *_reduced_run(spec["problem"], spec["n"]))
        value, outside = steady_state_rms(fom, red)["relative_rms"], red.outside_domain
    return CellResult(
        half_width=half_width, M=M, n=spec["n"], value=value, reference=ref,
        passed=_check_cell(value, ref, solution.converged, spec["criterion"]),
        converged=solution.converged, seconds=seconds, outside_domain=outside,
        iterations=solution.iterations, stop_reason=solution.stop_reason,
    )


def run_timing_row(spec: dict, n: int) -> CellResult:
    problem = make_benchmark_problem(spec["problem"], n)
    solution, seconds = solve_benchmark(problem, 1.0, 6)
    ref = spec["values"][spec["dims"].index(n)]
    # timing is reported as a measurement; pass records convergence only
    return CellResult(half_width=1.0, M=6, n=n, value=seconds, reference=ref,
                      passed=solution.converged, converged=solution.converged,
                      seconds=seconds, iterations=solution.iterations,
                      stop_reason=solution.stop_reason)


def reproduce_table(table_id: str) -> list[CellResult]:
    """Run every cell of a reference table at its published n."""
    if table_id not in REFERENCE_TABLES:
        raise ValueError(f"unknown table {table_id!r}; expected one of {TABLE_IDS}")
    spec = REFERENCE_TABLES[table_id]
    if spec["kind"] == "timing":
        return [run_timing_row(spec, n) for n in spec["dims"]]
    runner = run_residual_cell if spec["kind"] == "residual" else run_rom_cell
    cells = [(hw, M) for hw in spec["half_widths"] for M in spec["degrees"]]

    results = []
    for hw, M in cells:
        try:
            results.append(runner(spec, hw, M))
        except Exception as exc:  # a failed cell is recorded with its cause; the grid goes on
            results.append(CellResult(
                half_width=hw, M=M, n=spec["n"], value=None,
                reference=_reference(spec, hw, M),
                passed=False, converged=False, seconds=float("nan"),
                error=f"{type(exc).__name__}: {exc}",
            ))
    return results


def write_results_csv(path, results: list[CellResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "M", "n", "value", "reference", "pass"])
        for r in results:
            writer.writerow([
                f"[-{r.half_width:g},{r.half_width:g}]^2", r.M, r.n,
                "" if r.value is None else f"{r.value:.17g}",
                "" if r.reference is None else f"{r.reference:.17g}",
                "pass" if r.passed else "fail",
            ])
