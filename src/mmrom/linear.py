"""Linear-solve backends for the Newton iteration."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgesv

# Largest dense Jacobian (in bytes) that is ever formed; beyond it dense
# solves and pseudoinverses cost minutes and gigabytes, so they are refused.
MAX_DENSE_BYTES = 2 ** 30

PIVOT_RTOL = 1e-12
RANK_CUTOFF = 1e-10


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a direct factorization detects (near-)singularity."""


def check_dense_size(n: int, N: int) -> None:
    """Raise MemoryError if an (nN, nN) float matrix exceeds MAX_DENSE_BYTES."""
    nbytes = (n * N) ** 2 * 8
    if nbytes > MAX_DENSE_BYTES:
        raise MemoryError(
            f"dense Jacobian with n={n} blocks of size N={N} needs {nbytes} bytes, "
            f"above the limit of {MAX_DENSE_BYTES} bytes"
        )


@dataclass
class BlockTridiagonal:
    """Block-tridiagonal matrix of n blocks of size (N, N).

    ``diag[i]`` is block (i, i), ``sub[i]`` is block (i + 1, i) and
    ``sup[i]`` is block (i, i + 1); arrays of shape (n, N, N), (n - 1, N, N)
    and (n - 1, N, N), each possibly a read-only broadcast view of one block.
    """

    diag: np.ndarray
    sub: np.ndarray
    sup: np.ndarray

    @property
    def nblocks(self) -> int:
        return self.diag.shape[0]

    @property
    def block_size(self) -> int:
        return self.diag.shape[1]

    def to_dense(self) -> np.ndarray:
        n, N = self.nblocks, self.block_size
        check_dense_size(n, N)
        out = np.zeros((n, N, n, N))
        idx = np.arange(n)
        out[idx, :, idx, :] = self.diag
        out[idx[1:], :, idx[:-1], :] = self.sub
        out[idx[:-1], :, idx[1:], :] = self.sup
        return out.reshape(n * N, n * N)


def solve_dense_lu(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LU solve; raises SingularMatrixError if a pivot is below PIVOT_RTOL * max pivot."""
    lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < PIVOT_RTOL * pivots.max():
        raise SingularMatrixError(
            f"LU pivot ratio {pivots.min() / pivots.max():.3e} below {PIVOT_RTOL:.1e}"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def solve_pseudoinverse(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solve, truncating singular values below
    RANK_CUTOFF * sigma_max."""
    return np.linalg.pinv(A, rcond=RANK_CUTOFF) @ b


def solve_block_tridiagonal(A: BlockTridiagonal, b: np.ndarray) -> np.ndarray:
    """Block Thomas elimination; raises SingularMatrixError if a reduced
    diagonal block is singular.

    Row i of one (n, N, N + 1) array starts as [sup_i | b_i] and is
    overwritten by [W_i | g_i] = D_i^{-1} [sup_i | r_i], with D_i the reduced
    diagonal block and r_i the reduced right-hand side: one LAPACK dgesv
    per block."""
    n, N = A.nblocks, A.block_size
    Wg = np.zeros((n, N, N + 1))
    Wg[:-1, :, :N] = A.sup
    Wg[:, :, N] = b.reshape(n, N)
    denom = A.diag[0]
    for i in range(n):
        if i > 0:
            prod = A.sub[i - 1] @ Wg[i - 1]           # sub_{i-1} [W | g]
            denom = A.diag[i] - prod[:, :N]
            Wg[i, :, N] -= prod[:, N]
        cols = slice(None) if i < n - 1 else slice(N, None)  # the last block has no sup
        _, _, Wg[i, :, cols], info = dgesv(denom, Wg[i, :, cols])
        if info > 0:
            raise SingularMatrixError(f"singular reduced block at index {i}")
    x = np.empty((n, N))
    x[n - 1] = Wg[n - 1, :, N]
    for i in range(n - 2, -1, -1):
        x[i] = Wg[i, :, N] - Wg[i, :, :N] @ x[i + 1]
    return x.ravel()
