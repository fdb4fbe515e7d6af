"""Pointwise PDE residuals and weighted L2 residual norms over a subdomain."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import Basis, eval_basis, eval_basis_gradient
from .problems import Problem
from .quadrature import BoxDomain, tensor_rule

DEFAULT_NORM_QUADRATURE = 20


@dataclass
class ResidualReport:
    per_component_norms: np.ndarray
    weighted_norm: float


def residual_at(problem: Problem, basis: Basis, c: np.ndarray, omega) -> np.ndarray:
    """Invariance-equation residual grad(pi_i) . s - f_i at the points omega
    (K, d); returns (K, n).

    Raises ValueError if the dynamics are not finite at some point."""
    gen, sys = problem.generator, problem.system
    omega = np.asarray(omega, dtype=float)
    C = np.asarray(c, dtype=float).reshape(sys.n, basis.size)
    grads = eval_basis_gradient(basis, omega)         # (K, N, d)
    sl = gen.sl(omega)                                # (K, d + m)
    advect = sum((grads[:, :, j] @ C.T) * sl[:, j:j + 1] for j in range(basis.d))
    fvals = np.asarray(sys.f(eval_basis(basis, omega) @ C.T, sl[:, basis.d:]), dtype=float)
    finite = np.isfinite(fvals).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite dynamics at omega={omega[~finite][0]}")
    return advect - fvals


def residual_norm(problem: Problem, basis: Basis, c: np.ndarray, W: BoxDomain,
                  solve_domain: BoxDomain | None = None) -> ResidualReport:
    """Per-component L2 residual norms over W, by a tensor Gauss rule of
    DEFAULT_NORM_QUADRATURE points per dimension, and the coefficient-weighted
    aggregate norm."""
    n = problem.system.n
    if solve_domain is not None and (
        np.any(W.lo < solve_domain.lo) or np.any(W.hi > solve_domain.hi)
    ):
        warnings.warn("residual subdomain extends beyond the solve domain", stacklevel=2)
    C = np.asarray(c, dtype=float).reshape(n, basis.size)
    rule = tensor_rule(W, DEFAULT_NORM_QUADRATURE)
    R = residual_at(problem, basis, C, rule.nodes)
    per_component = np.sqrt(rule.weights @ (R * R))
    block_norms = np.linalg.norm(C, axis=1)
    total = block_norms.sum()
    if total == 0.0:
        raise ValueError("all coefficient blocks are zero; weighted norm is undefined")
    return ResidualReport(per_component_norms=per_component,
                          weighted_norm=float(block_norms @ per_component / total))
