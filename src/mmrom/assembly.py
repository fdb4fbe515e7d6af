"""Assembly of the Galerkin residual function and its Jacobian.

The residual of the invariance equation, projected on the monomial basis,
splits into a linear advection term A c_i and a nonlinear coupling term.
Both are integrated at the K nodes of one tensor-product Gauss rule.  With
B the (K, N) basis values, W the weights and Pi = B C^T the expansion at
the nodes,

    A = sum_k (W B)^T (d_k B * s_k),    F = C A^T - (W B)^T f(Pi, l),

and the Jacobian block of each structural nonzero (i, j) of df/dx is
-(W B)^T diag(df_i/dx_j) B, plus A on the diagonal blocks.

Each product phi_a phi_b is the monomial of exponent e_a + e_b, one of the
P = basis_count(d, 2M) monomials of degree 1..2M (P = 90 where N^2 = 729 at
d = 2, M = 6), so the blocks are contracted against their (K, P) weighted
values and gathered into N x N by product_index.  In graded order the basis
is the first N of those monomials, so the first N columns are W B.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, basis_count, eval_basis, eval_basis_gradient, generate_basis
from .linear import BlockTridiagonal, check_budget
from .problems import Problem
from .quadrature import BoxDomain, QuadratureRule, gauss_order, tensor_rule


@dataclass
class GalerkinOperators:
    """Advection matrix and basis tables at the quadrature nodes."""

    A: np.ndarray          # (N, N) advection matrix
    basis: Basis
    domain: BoxDomain
    rule: QuadratureRule
    basis_values: np.ndarray = field(repr=False)      # (K, N) basis at nodes
    product_moments: np.ndarray = field(repr=False)   # (K, P) w_k times the degree-1..2M monomials
    product_index: np.ndarray = field(repr=False)     # (N*N,) column of phi_a phi_b, pair a*N + b
    l_values: np.ndarray = field(repr=False)          # (K, m) generator output at nodes

    @property
    def size(self) -> int:
        return self.basis.size


def default_quadrature_order(problem: Problem, M: int) -> int:
    """Points per dimension.  For polynomial data the rule integrates
    phi * f(pi^N, l) exactly: its degree is at most M + deg_f * max(M, deg_l),
    and the Jacobian integrands are no higher.  It also integrates the
    advection integrand phi_a grad phi_b . s exactly, of degree at most
    2M - 1 + deg_s.  deg_l and deg_s are bounded by the generator's degree.
    Transcendental problems get a fixed margin."""
    if problem.is_polynomial:
        deg_gen = problem.generator.degree
        reach = problem.system.degree * max(M, deg_gen)
        return max(2 * M + 1, 10, math.ceil((M + reach + 1) / 2), M + math.ceil(deg_gen / 2))
    return 32


def _banded(problem: Problem) -> bool:
    """Whether every structural nonzero (i, j) of df/dx has |i - j| <= 1."""
    rows, cols = problem.system.jacobian_pattern
    return bool(np.all(np.abs(rows - cols) <= 1))


def check_solve_size(problem: Problem, d: int, M: int) -> int:
    """Bytes a solve at degree M holds, from sizes alone: at the assembly's peak three (K, P)
    product tables (values, weighted values, eval_basis's temporary), the (K, N) basis values
    and the (K, N, d) gradients, and one Jacobian of 3n - 2 N^2 blocks, or (nN)^2 if dense.
    ValueError past linear.MAX_DENSE_BYTES or past the Gauss rules."""
    q, n = gauss_order(default_quadrature_order(problem, M)), problem.system.n
    K, N, P, banded = q ** d, basis_count(d, M), basis_count(d, 2 * M), _banded(problem)
    jacobian = (3 * n - 2) * N * N if banded else (n * N) ** 2
    return check_budget(8 * (K * (3 * P + N + N * d) + jacobian),
                        f"n = {n} states at M = {M}, {'banded' if banded else 'dense'} Jacobian")


@functools.cache
def _product_index(d: int, M: int) -> np.ndarray:
    """For each pair (a, b) of generate_basis(d, M), flattened a * N + b,
    the index in generate_basis(d, 2M) of the monomial phi_a phi_b; read-only.
    Exponent vectors are keyed as radix-(2M + 1) numbers, so the key of a
    product is the sum of its factors' keys; every key is below (2M + 1)^d."""
    radix = np.int64(2 * M + 1) ** np.arange(d)
    keys = generate_basis(d, 2 * M).exponents @ radix
    basis_keys = generate_basis(d, M).exponents @ radix
    order = np.argsort(keys)
    pair_keys = (basis_keys[:, None] + basis_keys[None, :]).ravel()
    index = order[np.searchsorted(keys, pair_keys, sorter=order)]
    index.setflags(write=False)
    return index


def assemble_operators(problem: Problem, basis: Basis, domain: BoxDomain) -> GalerkinOperators:
    """Assemble the advection matrix and the basis tables on the tensor rule
    of default_quadrature_order points per dimension."""
    if basis.d != domain.d or basis.d != problem.generator.d:
        raise ValueError("basis, domain and generator dimensions disagree")
    check_solve_size(problem, basis.d, basis.M)
    gen = problem.generator
    rule = tensor_rule(domain, default_quadrature_order(problem, basis.M))
    N = basis.size

    products = generate_basis(basis.d, 2 * basis.M)
    product_values = eval_basis(products, rule.nodes)
    basis_values = np.ascontiguousarray(product_values[:, :N])
    product_moments = product_values * rule.weights[:, None]
    weighted_basis = product_moments[:, :N]
    sl_values = np.asarray(gen.sl(rule.nodes), dtype=float)
    s_values, l_values = sl_values[:, :gen.d], sl_values[:, gen.d:]

    grads = eval_basis_gradient(basis, rule.nodes)
    A = np.zeros((N, N))
    for k in range(basis.d):
        A += weighted_basis.T @ (grads[:, :, k] * s_values[:, k:k + 1])

    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(l_values))):
        raise ValueError("non-finite advection matrix or generator output on the domain")

    return GalerkinOperators(
        A=A, basis=basis, domain=domain, rule=rule,
        basis_values=basis_values, product_moments=product_moments,
        product_index=_product_index(basis.d, basis.M), l_values=l_values,
    )


def residual_F(problem: Problem, ops: GalerkinOperators, c: np.ndarray) -> np.ndarray:
    """Galerkin residual F(c) = C A^T - (W B)^T f(Pi, l), flattened block-major."""
    n = problem.system.n
    C = np.asarray(c, dtype=float).reshape(n, ops.size)
    fvals = problem.system.f(ops.basis_values @ C.T, ops.l_values)       # (K, n)
    return (C @ ops.A.T - fvals.T @ ops.product_moments[:, :ops.size]).ravel()


def _blocks(ops: GalerkinOperators, vals: np.ndarray, plus=None) -> np.ndarray:
    """plus - (W B)^T diag(vals[:, e]) B for every column e of vals, shape
    (E, N, N); plus is an (N, N) block, zero when None.  vals.T is copied
    to C order so that a strided band column and a contiguous one take the
    same BLAS kernel and give the same bits."""
    moments = np.ascontiguousarray(vals.T) @ ops.product_moments          # (E, P)
    out = np.take(moments, ops.product_index, axis=1).reshape(-1, ops.size, ops.size)
    if plus is None:
        return np.negative(out, out=out)  # in place: no second copy of the blocks
    return np.subtract(plus, out, out=out)


def _band(ops: GalerkinOperators, vals: np.ndarray, rows, cols, k: int, n: int, plus=None):
    """Blocks (i, i + k) of JF, plus ``plus`` on each, zero where the pattern
    has no entry.  A band whose values are equal in every block column (a
    linear coupling) is contracted once and returned as a read-only
    broadcast view.  Three band arrays rather than one keep each allocation
    a third as large."""
    sel = cols - rows == k
    band = np.zeros((vals.shape[0], n - abs(k)))
    band[:, np.minimum(rows, cols)[sel]] = vals[:, sel]
    if np.all(band == band[:, :1]):
        return np.broadcast_to(_blocks(ops, band[:, :1], plus), (band.shape[1],) + ops.A.shape)
    return _blocks(ops, band, plus)


def jacobian_JF(problem: Problem, ops: GalerkinOperators, c: np.ndarray) -> BlockTridiagonal:
    """Jacobian of F: n blocks of size N when every structural nonzero (i, j)
    of df/dx has |i - j| <= 1, otherwise one dense block of size nN."""
    sys = problem.system
    n, N = sys.n, ops.size
    C = np.asarray(c, dtype=float).reshape(n, N)
    rows, cols = sys.jacobian_pattern
    vals = sys.f_jacobian_x(ops.basis_values @ C.T, ops.l_values)        # (K, nnz)
    if _banded(problem):
        return BlockTridiagonal(diag=_band(ops, vals, rows, cols, 0, n, plus=ops.A),
                                sub=_band(ops, vals, rows, cols, -1, n),
                                sup=_band(ops, vals, rows, cols, 1, n))
    JF = np.zeros((n, N, n, N))
    JF[rows, :, cols, :] = _blocks(ops, vals)
    idx = np.arange(n)
    JF[idx, :, idx, :] += ops.A
    empty = np.empty((0, n * N, n * N))
    return BlockTridiagonal(diag=JF.reshape(1, n * N, n * N), sub=empty, sup=empty)
