"""Digits gate: each converged cell of the residual tables matches its
published value to the last published digit, |v - ref| <= 10^(floor(log10 ref) - 4).

This is stricter than the factor-3 ``pass`` column of ``mmrom reproduce``, so a
change that sends a cell to another Newton root fails here even when that root
still passes the factor.  T4-res-n1000 is too slow for this suite; CI checks
its CSV with the same rule.
"""
import math

import numpy as np
import pytest

from mmrom.assembly import assemble_operators
from mmrom.basis import generate_basis
from mmrom.bench import REFERENCE_TABLES, _reference, make_benchmark_problem
from mmrom.newton import SolverOptions, solve_invariance
from mmrom.quadrature import BoxDomain
from mmrom.residuals import residual_norm

# T4-res-n2 hw=3 M=6 has two roots near the zero start; last-bit rounding of the
# Newton path decides which one it reaches.  0.15181 is the published one.
OTHER_ROOTS = {("T4-res-n2", 3.0, 6): 0.134574}


def _within_last_digit(value: float, reference: float) -> bool:
    return abs(value - reference) <= 10.0 ** (math.floor(math.log10(reference)) - 4)


@pytest.mark.parametrize("table_id", ["T3-res-n2", "T4-res-n2", "T3-res-n100", "T4-res-n100",
                                      "T3-res-n1000"])
def test_converged_cells_match_published_digits(reproduced, table_id):
    off = []
    for r in reproduced(table_id):
        if not r.converged or r.reference is None:
            continue
        roots = [r.reference] + [v for key, v in OTHER_ROOTS.items()
                                 if key == (table_id, r.half_width, r.M)]
        if not any(_within_last_digit(r.value, ref) for ref in roots):
            off.append(f"hw={r.half_width:g} M={r.M}: {r.value:.6g} against {roots}")
    assert not off, off


def test_t4_res_n2_cells_robust_to_rounding_of_the_start():
    """Solve the T4-res-n2 grid from a zero start and from seven starts of
    1e-15 x standard normal (seeds 1-7).  Every cell but hw=3 M=6 reaches the
    same value, to far below its published digits, in the same number of
    iterations; hw=3 M=6 reaches one of its two roots."""
    spec = REFERENCE_TABLES["T4-res-n2"]
    problem = make_benchmark_problem(spec["problem"], spec["n"])
    W = BoxDomain.cube(spec["W_half"], d=2)
    off = []
    for hw in spec["half_widths"]:
        for M in spec["degrees"]:
            basis = generate_basis(2, M)
            ops = assemble_operators(problem, basis, BoxDomain.cube(hw, d=2))
            size = problem.system.n * basis.size
            starts = [np.zeros(size)] + [1e-15 * np.random.default_rng(seed).standard_normal(size)
                                         for seed in range(1, 8)]
            runs = []
            for guess in starts:
                sol = solve_invariance(problem, ops, SolverOptions(initial_guess=guess))
                assert sol.converged, f"hw={hw:g} M={M}"
                runs.append((residual_norm(problem, basis, sol.c, W=W).weighted_norm,
                             sol.iterations))
            key = ("T4-res-n2", hw, M)
            if key in OTHER_ROOTS:
                roots = [_reference(spec, hw, M), OTHER_ROOTS[key]]
                off += [f"hw={hw:g} M={M}: {v:.6g} on neither of {roots}" for v, _ in runs
                        if not any(_within_last_digit(v, ref) for ref in roots)]
            elif any(its != runs[0][1] or not math.isclose(v, runs[0][0], rel_tol=1e-9)
                     for v, its in runs):
                off.append(f"hw={hw:g} M={M}: (value, iterations) move with the start: {runs}")
    assert not off, off
