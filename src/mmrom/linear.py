"""Linear-solve backends for the Newton iteration."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv

# The one memory budget (bytes) of a solve: its tables and Jacobian (assembly.check_solve_size)
# or a Jacobian's dense form; past it, solves cost minutes and gigabytes, so they are refused.
MAX_DENSE_BYTES = 2 ** 30

PIVOT_RTOL = 1e-12
RANK_CUTOFF = 1e-10


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a direct factorization detects (near-)singularity."""


def check_budget(nbytes: int, what: str) -> int:
    """nbytes, the size of ``what``; raises ValueError past MAX_DENSE_BYTES."""
    if nbytes > MAX_DENSE_BYTES:
        raise ValueError(f"{what} needs {nbytes} bytes, above the {MAX_DENSE_BYTES}-byte budget")
    return nbytes


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

    @property
    def dense_bytes(self) -> int:
        """Bytes that to_dense allocates: none for one block, which it returns as is."""
        return 0 if self.nblocks == 1 else 8 * (self.nblocks * self.block_size) ** 2

    def to_dense(self) -> np.ndarray:
        """The (nN, nN) matrix; for one block, that block itself, not a copy."""
        n, N = self.nblocks, self.block_size
        check_budget(self.dense_bytes, f"dense Jacobian with n={n} blocks of size N={N}")
        if n == 1:
            return self.diag[0]
        out = np.zeros((n, N, n, N))
        idx = np.arange(n)
        out[idx, :, idx, :] = self.diag
        out[idx[1:], :, idx[:-1], :] = self.sub
        out[idx[:-1], :, idx[1:], :] = self.sup
        return out.reshape(n * N, n * N)


def solve_pseudoinverse(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solve, truncating singular values below
    RANK_CUTOFF * sigma_max."""
    return np.linalg.pinv(A, rcond=RANK_CUTOFF) @ b


def solve_block_tridiagonal(A: BlockTridiagonal, b: np.ndarray) -> np.ndarray:
    """Block Thomas elimination; raises SingularMatrixError if a reduced
    diagonal block has a zero LU pivot or a pivot below PIVOT_RTOL times its
    largest.  A matrix of one block is thus a dense LU solve.

    Row i < n - 1 of one (n - 1, N, N + 1) array starts as [sup_i | b_i] and
    is overwritten by [W_i | g_i] = D_i^{-1} [sup_i | r_i], with D_i the
    reduced diagonal block and r_i the reduced right-hand side: one LAPACK
    dgesv per block.  The last block has no sup, so its g is a separate
    vector, and one block takes no (N, N) work array beside dgesv's copy."""
    n, N = A.nblocks, A.block_size
    Wg = np.empty((n - 1, N, N + 1))
    Wg[:, :, :N] = A.sup
    Wg[:, :, N] = b[:-N].reshape(n - 1, N)
    g = b[-N:].copy()
    pivots = np.empty((n, N))
    denom = A.diag[0]
    for i in range(n):
        rhs = Wg[i] if i < n - 1 else g[:, None]  # r_i is the last column
        if i > 0:
            prod = A.sub[i - 1] @ Wg[i - 1]           # sub_{i-1} [W | g]
            denom = A.diag[i] - prod[:, :N]
            rhs[:, -1] -= prod[:, N]
        lu, _, rhs[:], info = dgesv(denom, rhs)
        if info > 0:
            raise SingularMatrixError(f"singular reduced block at index {i}")
        pivots[i] = lu.diagonal()
    # one test after the sweep: a test per block inside it slows an n = 1000 solve by ~15%
    pivots = np.abs(pivots)
    small = pivots.min(axis=1) < PIVOT_RTOL * pivots.max(axis=1)
    if small.any():
        i = int(np.argmax(small))
        raise SingularMatrixError(f"LU pivot ratio {pivots[i].min() / pivots[i].max():.3e} below "
                                  f"{PIVOT_RTOL:.1e} in reduced block at index {i}")
    x = np.empty((n, N))
    x[n - 1] = g
    for i in range(n - 2, -1, -1):
        x[i] = Wg[i, :, N] - Wg[i, :, :N] @ x[i + 1]
    return x.ravel()
