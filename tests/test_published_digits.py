"""Digits gate: each converged cell of the residual tables matches its
published value to the last published digit, |v - ref| <= 10^(floor(log10 ref) - 4).

This is stricter than the factor-3 ``pass`` column of ``mmrom reproduce``, so a
change that sends a cell to another Newton root fails here even when that root
still passes the factor.  T4-res-n1000 is too slow for this suite; CI checks
its CSV with the same rule.
"""
import math

import pytest

from mmrom.bench import reproduce_table

# T4-res-n2 hw=3 M=6 has two roots near the zero start; last-bit rounding of the
# Newton path decides which one it reaches.  0.15181 is the published one.
OTHER_ROOTS = {("T4-res-n2", 3.0, 6): 0.134574}


def _within_last_digit(value: float, reference: float) -> bool:
    return abs(value - reference) <= 10.0 ** (math.floor(math.log10(reference)) - 4)


@pytest.mark.parametrize("table_id", ["T3-res-n2", "T4-res-n2", "T3-res-n100", "T4-res-n100",
                                      "T3-res-n1000"])
def test_converged_cells_match_published_digits(table_id):
    off = []
    for r in reproduce_table(table_id):
        if not r.converged or r.reference is None:
            continue
        roots = [r.reference] + [v for key, v in OTHER_ROOTS.items()
                                 if key == (table_id, r.half_width, r.M)]
        if not any(_within_last_digit(r.value, ref) for ref in roots):
            off.append(f"hw={r.half_width:g} M={r.M}: {r.value:.6g} against {roots}")
    assert not off, off
