"""Moment-matching reduced-order models and stabilizing output-injection gains."""
from __future__ import annotations

import warnings

import numpy as np

from .basis import eval_basis
from .newton import Solution
from .problems import Problem, linearize
from .simulate import Trajectory

# stabilizing_gain places the reduced poles at -GAIN_MARGIN - 0.5 k, k = 0, ..., d - 1.
GAIN_MARGIN = 0.5


class UnstableGainError(RuntimeError):
    """The chosen gain does not stabilize the reduced dynamics at the origin."""


class NotDetectableError(RuntimeError):
    """(S, L) has unstable or marginal modes invisible to the output."""


def reduced_dynamics(problem: Problem, gain: callable) -> callable:
    """The reduced dynamics (r, u) -> s(r) - g(r) l(r) + g(r) u for the gain g(r),
    a (d, m) matrix at one reduced state; raises UnstableGainError unless S - g(0) L,
    S and L from sl_jacobian(0), is stable.  That is their exact Jacobian at the
    origin when g is constant, l(0) = 0 or g'(0) = 0, as for every gain mmrom builds.
    They read neither pi^N nor its domain, so one reduced run serves every solution."""
    gen = problem.generator
    d = gen.d

    def dynamics(r, u):
        g = gain(r)
        sl = gen.sl(r)
        return sl[:d] - g @ sl[d:] + g @ u

    J = gen.sl_jacobian(np.zeros(d))
    eigs = np.linalg.eigvals(J[:d] - gain(np.zeros(d)) @ J[d:])
    if not np.max(eigs.real) < 0.0:
        raise UnstableGainError(f"reduced dynamics unstable at the origin, eigenvalues {eigs}")
    return dynamics


def build_rom(problem: Problem, solution: Solution, times: np.ndarray,
              r_states: np.ndarray) -> Trajectory:
    """The outputs y_r = h(pi^N(r)) of a converged solution's reduced model along
    a reduced run (times (T,), states (T, d)), with the stored states outside its
    expansion domain counted and warned of once."""
    if not solution.converged:
        raise ValueError("solution did not converge; refusing to build a reduced model")
    domain = solution.domain
    outside = int(np.count_nonzero(
        np.any((r_states < domain.lo) | (r_states > domain.hi), axis=1)))
    if outside:
        warnings.warn(f"reduced state left the expansion domain at {outside} of {len(times)} "
                      f"stored states (largest |r_i| = {np.abs(r_states).max():.3g}); "
                      "output values are extrapolated", stacklevel=2)
    C = solution.blocks(problem.system.n)
    outputs = problem.system.h(eval_basis(solution.basis, r_states) @ C.T)
    return Trajectory(times=times, outputs=outputs, outside_domain=outside)


def stabilizing_gain(S: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Find G with max Re eig(S - G L) <= -GAIN_MARGIN by pole relocation.

    Works through the dual pair (S^T, L^T); raises NotDetectableError when
    unstable or marginal modes are unobservable.
    """
    import scipy.signal  # most of the package's import time; only a problem without a gain needs it
    S = np.atleast_2d(np.asarray(S, dtype=float))
    L = np.atleast_2d(np.asarray(L, dtype=float))
    d = S.shape[0]
    poles = np.array([-GAIN_MARGIN - 0.5 * k for k in range(d)])
    try:
        placed = scipy.signal.place_poles(S.T, L.T, poles)
    except ValueError as exc:
        raise NotDetectableError(f"pole placement failed: {exc}") from exc
    G = placed.gain_matrix.T
    eigs = np.linalg.eigvals(S - G @ L)
    if np.max(eigs.real) > -GAIN_MARGIN + 1e-8:
        raise NotDetectableError(f"could not reach margin {GAIN_MARGIN}; eigenvalues {eigs}")
    return G


def default_gain(problem: Problem) -> callable:
    """The problem's own gain when it states one; otherwise the constant
    pole-relocated gain of its linearization."""
    if problem.gain is not None:
        return problem.gain
    S, L, _ = linearize(problem)
    G = stabilizing_gain(S, L)
    return lambda r: G
