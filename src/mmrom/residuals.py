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
    """Invariance-equation residual grad(pi_i) . s - f_i at one point (d,) or
    at points (..., d); returns (n,) or (..., n).

    Raises ValueError if the dynamics are not finite at some point."""
    gen, sys = problem.generator, problem.system
    C = np.asarray(c, dtype=float).reshape(sys.n, basis.size)
    omega = np.asarray(omega, dtype=float)
    pts = omega.reshape(-1, omega.shape[-1])
    grads = eval_basis_gradient(basis, pts)           # (K, N, d)
    sl = gen.sl(pts)                                  # (K, d + m)
    advect = sum((grads[:, :, j] @ C.T) * sl[:, j:j + 1] for j in range(basis.d))
    fvals = np.asarray(sys.f(eval_basis(basis, pts) @ C.T, sl[:, basis.d:]), dtype=float)
    finite = np.isfinite(fvals).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite dynamics at omega={pts[~finite][0]}")
    return (advect - fvals).reshape(omega.shape[:-1] + (sys.n,))


def residual_norm(
    problem: Problem,
    basis: Basis,
    c: np.ndarray,
    W: BoxDomain | None = None,
    q: int = DEFAULT_NORM_QUADRATURE,
    solve_domain: BoxDomain | None = None,
) -> ResidualReport:
    """Per-component L2 residual norms over W and the coefficient-weighted
    aggregate norm."""
    n = problem.system.n
    if W is None:
        W = BoxDomain(lo=-0.7 * np.ones(basis.d), hi=0.7 * np.ones(basis.d))
    if solve_domain is not None and (
        np.any(W.lo < solve_domain.lo) or np.any(W.hi > solve_domain.hi)
    ):
        warnings.warn("residual subdomain extends beyond the solve domain", stacklevel=2)
    C = np.asarray(c, dtype=float).reshape(n, basis.size)
    rule = tensor_rule(W, q)
    R = residual_at(problem, basis, C, rule.nodes)
    per_component = np.sqrt(rule.weights @ (R * R))
    block_norms = np.linalg.norm(C, axis=1)
    total = block_norms.sum()
    if total == 0.0:
        raise ValueError("all coefficient blocks are zero; weighted norm is undefined")
    return ResidualReport(per_component_norms=per_component,
                          weighted_norm=float(block_norms @ per_component / total))
