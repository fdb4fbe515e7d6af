"""Workload grids, the cell runner for each, and the per-cell correctness gate.

A cell is one (half-width, degree) unit of ``mmrom reproduce``: build the
problem, assemble, solve, and score it (weighted residual norm, or relative
RMS of the reduced model against the full one).  Table workloads go through
``mmrom.bench.run_residual_cell`` / ``run_rom_cell``; ``generic_m10`` builds
its problem through the YAML ``generic`` path of ``mmrom.config`` and then
takes the same steps.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from mmrom import bench, config, residuals
from mmrom.quadrature import BoxDomain

GOLDEN_PATH = Path(__file__).with_name("golden.json")
# A cell matches its golden value when |value - golden| <= RTOL |golden| + ATOL;
# README.md next to this file says why these two numbers.
GOLDEN_RTOL = 1e-6
GOLDEN_ATOL = 1e-12


class CheckFailed(Exception):
    """A cell ran to the end but its output is not the verified answer."""


@dataclass(frozen=True)
class Cell:
    half_width: float
    M: int

    @property
    def key(self) -> str:
        return f"hw={self.half_width:g},M={self.M}"


def _ladder_tables(n: int, kappa: float) -> list:
    """RL ladder dynamics as YAML-style coefficient tables over (x, u)."""

    def term(var: int, power: int, coef: float):
        exps = [0] * (n + 1)
        exps[var] = power
        return [exps, coef]

    f = []
    for i in range(n):
        comp = [term(i, 1, -2.0 * kappa), term(i, 2, -0.5), term(i, 3, -1.0 / 3.0)]
        if i > 0:
            comp.append(term(i - 1, 1, 1.0))
        if i < n - 1:
            comp.append(term(i + 1, 1, 1.0))
        if i == 0:
            comp.append(term(n, 1, 1.0))
        f.append(comp)
    return f


class Workload:
    """A grid of cells, how to run one, and what its answer must be."""

    def __init__(self, name: str, grid: list[Cell]):
        self.name = name
        self.grid = grid
        self.golden: dict | None = None

    def load_golden(self) -> None:
        with open(GOLDEN_PATH) as fh:
            self.golden = json.load(fh)["workloads"][self.name]

    def draw(self, seed: int):
        """Endless cells drawn from the grid with replacement, seeded."""
        rng = random.Random(seed)
        while True:
            yield rng.choice(self.grid)

    def run(self, cell: Cell) -> bench.CellResult:
        raise NotImplementedError

    def check(self, cell: Cell, result: bench.CellResult) -> None:
        """Raise CheckFailed unless the cell converged, lies within its
        published reference and matches the golden value recorded from the
        seed commit."""
        if not result.converged or result.value is None:
            raise CheckFailed(f"{self.name} {cell.key}: Newton did not converge")
        if not result.passed:
            raise CheckFailed(
                f"{self.name} {cell.key}: value {result.value:.6e} outside the "
                f"published reference {result.reference:.6e}"
            )
        golden = self.golden[cell.key]
        if abs(result.value - golden) > GOLDEN_RTOL * abs(golden) + GOLDEN_ATOL:
            raise CheckFailed(
                f"{self.name} {cell.key}: value {result.value!r} differs from golden "
                f"{golden!r} by more than rtol {GOLDEN_RTOL:g} + atol {GOLDEN_ATOL:g}"
            )


class TableWorkload(Workload):
    def __init__(self, name, table_id, grid):
        super().__init__(name, grid)
        self.spec = bench.REFERENCE_TABLES[table_id]
        self.runner = bench.run_rom_cell if self.spec["kind"] == "rom" else bench.run_residual_cell

    def run(self, cell):
        return self.runner(self.spec, cell.half_width, cell.M)


class GenericLadderWorkload(Workload):
    """The RL ladder written out as coefficient tables (``problem.name:
    generic``), so it takes the quadrature path, not the ladder fast path.
    The published bound is the T3-res-n2 value at M=6 for the same
    half-width: a higher degree must not do worse."""

    def __init__(self, name, n, M):
        super().__init__(name, [Cell(hw, M) for hw in bench.HALF_WIDTHS])
        a, kappa = 2.0, 1.1
        self.generic = {
            "d": 2, "n": n, "m": 1, "p": 1,
            "s": [[[[0, 1], a]], [[[1, 0], -a]]],
            "l": [[[[0, 1], 1.0]]],
            "f": _ladder_tables(n, kappa),
            "h": [[[[1] + [0] * (n - 1), 1.0]]],
        }
        self.n = n
        self.spec = bench.REFERENCE_TABLES["T3-res-n2"]

    def _reference(self, half_width: float) -> float:
        row = self.spec["half_widths"].index(half_width)
        return self.spec["values"][row][self.spec["degrees"].index(6)]

    def run(self, cell):
        hw = cell.half_width
        cfg = config.validate_config({
            "problem": {"name": "generic", "generic": self.generic},
            "domain": {"lo": [-hw, -hw], "hi": [hw, hw]},
            "degree": cell.M,
        })
        problem = config.build_problem(cfg)
        solution, seconds = bench.solve_benchmark(problem, hw, cell.M)
        value = None
        if solution.converged:
            W = BoxDomain.cube(self.spec["W_half"], d=2)
            value = residuals.residual_norm(problem, solution.basis, solution.c, W=W).weighted_norm
        ref = self._reference(hw)
        return bench.CellResult(
            half_width=hw, M=cell.M, n=self.n, value=value, reference=ref,
            passed=solution.converged and value is not None and value <= ref,
            converged=solution.converged, seconds=seconds,
        )


def _grid(half_widths, degrees) -> list[Cell]:
    return [Cell(hw, M) for hw in half_widths for M in degrees]


def make_workloads() -> dict[str, Workload]:
    """Every workload by name; README.md next to this file says why each."""
    return {
        "ladder_n1000": TableWorkload(
            "ladder_n1000", "T3-res-n1000", _grid(bench.HALF_WIDTHS, (6,))),
        "rom_n2": TableWorkload(
            "rom_n2", "T3-rom-n2", _grid(bench.HALF_WIDTHS, bench.DEGREES)),
        "generic_m10": GenericLadderWorkload("generic_m10", n=20, M=10),
        "pendulum_t2": TableWorkload("pendulum_t2", "T2", _grid((1.0,), bench.DEGREES)),
    }
