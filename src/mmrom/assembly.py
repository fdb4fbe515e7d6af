"""Assembly of the Galerkin residual function and its Jacobian.

The residual of the invariance equation, projected on the monomial basis,
splits into a linear advection term A c_i and a nonlinear coupling term.
Both are integrated at the K nodes of one tensor-product Gauss rule.  With
B the (K, N) basis values, W the weights and Pi = B C^T the expansion at
the nodes,

    A = sum_k (W B)^T (d_k B * s_k),    F = C A^T - (W B)^T f(Pi, l),

and the Jacobian block of each structural nonzero (i, j) of df/dx is
-(W B)^T diag(df_i/dx_j) B, plus A on the diagonal blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, eval_basis, eval_basis_gradient
from .linear import BlockTridiagonal, check_dense_size
from .problems import Problem
from .quadrature import BoxDomain, QuadratureRule, tensor_rule


@dataclass
class GalerkinOperators:
    """Advection matrix and basis tables at the quadrature nodes."""

    A: np.ndarray          # (N, N) advection matrix
    basis: Basis
    domain: BoxDomain
    rule: QuadratureRule
    basis_values: np.ndarray = field(repr=False)      # (K, N) basis at nodes
    basis_products: np.ndarray = field(repr=False)    # (K, N*N) w_k phi_a phi_b at nodes
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


def assemble_operators(problem: Problem, basis: Basis, domain: BoxDomain) -> GalerkinOperators:
    """Assemble the advection matrix and the basis tables on the tensor rule
    of default_quadrature_order points per dimension."""
    if basis.d != domain.d or basis.d != problem.generator.d:
        raise ValueError("basis, domain and generator dimensions disagree")
    gen = problem.generator
    rule = tensor_rule(domain, default_quadrature_order(problem, basis.M))
    N = basis.size

    basis_values = eval_basis(basis, rule.nodes)
    weighted_basis = basis_values * rule.weights[:, None]
    basis_products = (weighted_basis[:, :, None] * basis_values[:, None, :]).reshape(-1, N * N)
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
        basis_values=basis_values, basis_products=basis_products, l_values=l_values,
    )


def residual_F(problem: Problem, ops: GalerkinOperators, c: np.ndarray) -> np.ndarray:
    """Galerkin residual F(c) = C A^T - (W B)^T f(Pi, l), flattened block-major."""
    n = problem.system.n
    C = np.asarray(c, dtype=float).reshape(n, ops.size)
    fvals = problem.system.f(ops.basis_values @ C.T, ops.l_values)       # (K, n)
    weighted_basis = ops.basis_values * ops.rule.weights[:, None]
    return (C @ ops.A.T - fvals.T @ weighted_basis).ravel()


def _blocks(ops: GalerkinOperators, vals: np.ndarray, plus=None) -> np.ndarray:
    """plus - (W B)^T diag(vals[:, e]) B for every column e of vals, shape
    (E, N, N); plus is an (N, N) block, zero when None."""
    out = (vals.T @ ops.basis_products).reshape(-1, ops.size, ops.size)
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
    if np.all(np.abs(rows - cols) <= 1):
        return BlockTridiagonal(diag=_band(ops, vals, rows, cols, 0, n, plus=ops.A),
                                sub=_band(ops, vals, rows, cols, -1, n),
                                sup=_band(ops, vals, rows, cols, 1, n))
    check_dense_size(n, N)
    JF = np.zeros((n, N, n, N))
    JF[rows, :, cols, :] = _blocks(ops, vals)
    idx = np.arange(n)
    JF[idx, :, idx, :] += ops.A
    empty = np.empty((0, n * N, n * N))
    return BlockTridiagonal(diag=JF.reshape(1, n * N, n * N), sub=empty, sup=empty)
