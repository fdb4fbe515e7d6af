"""Newton iteration on the Galerkin coefficients, plus the Sylvester oracle."""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .assembly import GalerkinOperators, jacobian_JF, residual_F
from .linear import SingularMatrixError, solve_block_tridiagonal, solve_pseudoinverse
from .problems import Problem


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
    iterations: int
    residual_history: list = field(repr=False)
    converged: bool
    backend_used: str | None  # solver of the last step; None when no step was taken
    basis: object = None
    domain: object = None

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
    max_iter steps. Each step is solved by block Thomas elimination (one
    LU solve when the Jacobian is a single block); after a singular
    factorization every later step uses the pseudoinverse."""
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

    return Solution(
        c=c,
        iterations=len(history) - 1,
        residual_history=history,
        converged=bool(history[-1] <= opts.tol_F_l1),
        backend_used=backend,
        basis=ops.basis,
        domain=ops.domain,
    )


def solve_sylvester(S: np.ndarray, L: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve Pi S = A Pi + B L for the invariant mapping of a linear problem.

    Solved as the vectorized nd x nd linear system; raises if the spectra of
    S and A overlap (singular system).
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    L = np.atleast_2d(np.asarray(L, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, d = A.shape[0], S.shape[0]
    lhs = np.kron(S.T, np.eye(n)) - np.kron(np.eye(d), A)
    rhs = (B @ L).reshape(n * d, order="F")
    try:
        vec = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "Sylvester system is singular (spectra of S and A overlap)"
        ) from exc
    return vec.reshape(n, d, order="F")
