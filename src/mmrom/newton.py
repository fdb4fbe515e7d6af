"""Newton iteration on the Galerkin coefficients."""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .assembly import GalerkinOperators, jacobian_JF, residual_F
from .basis import Basis
from .linear import SingularMatrixError, solve_block_tridiagonal, solve_pseudoinverse
from .problems import Problem
from .quadrature import BoxDomain


@dataclass
class SolverOptions:
    tol_F_l1: float = 1e-7
    max_iter: int = 300
    initial_guess: np.ndarray | None = None

    def __post_init__(self):
        if isinstance(self.tol_F_l1, bool) or not 0 < self.tol_F_l1 < np.inf:
            raise ValueError(f"tol_F_l1 must be a positive finite number, got {self.tol_F_l1!r}")
        if not isinstance(self.max_iter, numbers.Integral) or isinstance(self.max_iter, bool) \
                or self.max_iter < 1:
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")


@dataclass
class Solution:
    """Converged (or not) coefficient block with provenance."""

    c: np.ndarray
    residual_history: list = field(repr=False)  # |F|_1 at the guess and after each step
    backend_used: str | None  # solver of the last step; None when no step was taken
    basis: Basis
    domain: BoxDomain
    stop_reason: str  # "tol", "max_iter" or "non_finite" (|F|_1 not finite)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"

    @property
    def iterations(self) -> int:
        return len(self.residual_history) - 1

    def blocks(self, n: int) -> np.ndarray:
        return self.c.reshape(n, -1)


def newton_step(JF, F: np.ndarray, backend: str) -> np.ndarray:
    """Solve JF * delta = F, JF a BlockTridiagonal, by block_tridiagonal or pseudoinverse."""
    if backend == "block_tridiagonal":
        return solve_block_tridiagonal(JF, F)
    if backend == "pseudoinverse":
        return solve_pseudoinverse(JF.to_dense(), F)
    raise ValueError(f"unknown backend {backend!r}")


def solve_invariance(
    problem: Problem, ops: GalerkinOperators, options: SolverOptions | None = None
) -> Solution:
    """Plain Newton iteration on F(c) = 0 from the configured initial guess.

    It stops when |F|_1 <= tol_F_l1, when |F|_1 is not finite, or after
    max_iter steps, and records which in ``stop_reason``. Each step is
    solved by block Thomas elimination (one LU solve when the Jacobian is a
    single block); after a singular factorization every later step uses the
    pseudoinverse."""
    opts = options or SolverOptions()
    n, N = problem.system.n, ops.size
    if opts.initial_guess is not None:
        c = np.asarray(opts.initial_guess, dtype=float).ravel().copy()
        if c.shape[0] != n * N:
            raise ValueError(f"initial guess has length {c.shape[0]}, expected {n * N}")
    else:
        c = np.zeros(n * N)

    backend = None
    F = residual_F(problem, ops, c)
    history = [float(np.linalg.norm(F, 1))]

    while (np.isfinite(history[-1]) and history[-1] > opts.tol_F_l1
           and len(history) <= opts.max_iter):
        JF = jacobian_JF(problem, ops, c)
        backend = backend or "block_tridiagonal"
        try:
            delta = newton_step(JF, F, backend)
        except SingularMatrixError:
            backend = "pseudoinverse"
            delta = newton_step(JF, F, backend)
        del JF  # release it before the next iteration builds another
        c = c - delta
        F = residual_F(problem, ops, c)
        history.append(float(np.linalg.norm(F, 1)))

    if not np.isfinite(history[-1]):
        stop_reason = "non_finite"
    else:
        stop_reason = "tol" if history[-1] <= opts.tol_F_l1 else "max_iter"
    return Solution(c=c, residual_history=history, backend_used=backend,
                    basis=ops.basis, domain=ops.domain, stop_reason=stop_reason)
