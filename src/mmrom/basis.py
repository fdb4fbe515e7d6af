"""Multivariate monomial bases for expansions that vanish at the origin.

A basis holds all d-variate monomial exponent vectors with total degree
between 1 and M (no constant term), ordered graded-lexicographically:
ascending total degree, ties broken by descending lexicographic order of
the exponent vectors.  The ordering is deterministic; coefficient files
and Jacobian block layouts depend on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Basis:
    """Ordered monomial basis in ``d`` variables with degrees 1..M."""

    d: int
    M: int
    exponents: np.ndarray = field(repr=False)  # (N, d) integer array

    @property
    def size(self) -> int:
        return self.exponents.shape[0]

    def __post_init__(self):
        self.exponents.setflags(write=False)


def basis_count(d: int, M: int) -> int:
    """Number of d-variate monomials with total degree in [1, M]."""
    if d < 1 or M < 1:
        raise ValueError(f"require d >= 1 and M >= 1, got d={d}, M={M}")
    return sum(math.comb(d + m - 1, m) for m in range(1, M + 1))


def _compositions(total: int, parts: int):
    """Compositions of `total` into `parts` parts, descending lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def generate_basis(d: int, M: int) -> Basis:
    """All exponent multi-indices with 1 <= total degree <= M, graded-lex."""
    count = basis_count(d, M)  # raises ValueError unless d >= 1 and M >= 1
    indices = []
    for m in range(1, M + 1):
        indices.extend(_compositions(m, d))
    exps = np.array(indices, dtype=np.int64)
    assert exps.shape[0] == count
    return Basis(d=d, M=M, exponents=exps)


def _power_tables(basis: Basis, pts: np.ndarray) -> np.ndarray:
    """Per-dimension powers of the evaluation points.

    Returns array of shape (M + 1, npts, d) with entry [e, q, j] equal to
    pts[q, j] ** e, built by repeated multiplication so that evaluation at
    integer points is exact.  M is the largest exponent of a degree-1..M basis.
    """
    out = np.ones((basis.M + 1,) + pts.shape)
    for e in range(1, basis.M + 1):
        out[e] = out[e - 1] * pts
    return out


def _as_points(basis: Basis, omega) -> np.ndarray:
    pts = np.asarray(omega, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != basis.d:
        raise ValueError(f"points must have shape (q, {basis.d}), got {pts.shape}")
    return pts


def eval_basis(basis: Basis, omega) -> np.ndarray:
    """Evaluate every basis monomial at the points (q, d); returns (q, N)."""
    pts = _as_points(basis, omega)
    tables = _power_tables(basis, pts)
    vals = np.ones((pts.shape[0], basis.size))
    for j in range(basis.d):
        vals *= tables[basis.exponents[:, j], :, j].T
    return vals


def eval_basis_gradient(basis: Basis, omega) -> np.ndarray:
    """Gradient of every basis monomial at the points (q, d); returns (q, N, d).

    Entry (k, j) is nu_kj * w_j**(nu_kj - 1) * prod_{i != j} w_i**nu_ki, with
    the convention that a zero exponent contributes a zero derivative.
    """
    pts = _as_points(basis, omega)
    tables = _power_tables(basis, pts)
    nq, N, d = pts.shape[0], basis.size, basis.d
    grad = np.empty((nq, N, d))
    for j in range(d):
        ej = basis.exponents[:, j]
        col = ej[None, :] * tables[np.maximum(ej - 1, 0), :, j].T
        for i in range(d):
            if i == j:
                continue
            col = col * tables[basis.exponents[:, i], :, i].T
        grad[:, :, j] = col
    return grad
