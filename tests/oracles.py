"""Closed-form and linear-algebra answers that the tests check the solver against."""
import numpy as np

from mmrom.linear import SingularMatrixError


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


def exact_test1_coefficients(basis, a: float) -> np.ndarray:
    """Exact expansion coefficients of the make_test1 solution, shape (2, N)."""
    c1 = 1.0 / (1.0 + a * a)
    c2 = 1.0 / (1.0 + 5 * a * a + 4 * a ** 4)
    terms = [
        {(1, 0): c1, (0, 1): -a * c1},
        {(2, 0): (1 + a * a) * c2, (1, 1): -3 * a * c2, (0, 2): 3 * a * a * c2},
    ]
    coeffs = np.zeros((2, basis.size))
    lookup = {tuple(e): k for k, e in enumerate(basis.exponents)}
    for i, table in enumerate(terms):
        for exp, val in table.items():
            coeffs[i, lookup[exp]] = val
    return coeffs


def exact_cart_pendulum_coefficients(basis, k: float) -> np.ndarray:
    """Exact coefficients (w1, k w1, w2, k w2) of the cart-pendulum solution."""
    coeffs = np.zeros((4, basis.size))
    lookup = {tuple(e): j for j, e in enumerate(basis.exponents)}
    coeffs[0, lookup[(1, 0)]] = 1.0
    coeffs[1, lookup[(1, 0)]] = k
    coeffs[2, lookup[(0, 1)]] = 1.0
    coeffs[3, lookup[(0, 1)]] = k
    return coeffs
