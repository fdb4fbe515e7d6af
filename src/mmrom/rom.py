"""Moment-matching reduced-order models and stabilizing output-injection gains."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.signal

from .basis import eval_basis
from .newton import Solution
from .problems import Problem, linearize
from .quadrature import BoxDomain

# Central-difference step of verify_rom_stability.
FD_STEP = 1e-6
# stabilizing_gain places the reduced poles at -GAIN_MARGIN - 0.5 k, k = 0, ..., d - 1.
GAIN_MARGIN = 0.5


class UnstableGainError(RuntimeError):
    """The chosen gain does not stabilize the reduced dynamics at the origin."""


class NotDetectableError(RuntimeError):
    """(S, L) has unstable or marginal modes invisible to the output."""


@dataclass
class GainSpec:
    """Output-injection gain for the reduced dynamics.

    kind 'constant' uses a fixed d x m matrix G; 'chain_vdp' uses the
    state-dependent (0, mu*(1 - r_1^2) + c) of the Van der Pol ladder benchmark.
    """

    kind: str
    G: np.ndarray | None = None
    c: float = 10.0
    mu: float = 0.25

    def matrix(self, r: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return self.G
        if self.kind == "chain_vdp":
            return np.array([[0.0], [self.mu * (1.0 - r[0] ** 2) + self.c]])
        raise ValueError(f"unknown gain kind {self.kind!r}")


@dataclass
class ReducedOrderModel:
    """Reduced dynamics s(r) - g(r) l(r) + g(r) u with output h(pi^N(r));
    ``output`` takes one state (d,) or a batch of states (T, d)."""

    dim: int
    dynamics: callable = field(repr=False)
    output: callable = field(repr=False)
    domain: BoxDomain  # the box pi^N was solved on


def build_rom(problem: Problem, solution: Solution, gain: GainSpec) -> ReducedOrderModel:
    """Assemble the reduced-order model from a converged coefficient block."""
    if not solution.converged:
        raise ValueError("solution did not converge; refusing to build a reduced model")
    gen, sys = problem.generator, problem.system
    basis = solution.basis
    C = solution.blocks(sys.n)
    d = gen.d

    def dynamics(r, u):
        g = gain.matrix(r)
        sl = gen.sl(r)
        return sl[:d] - g @ sl[d:] + g @ u

    def output(r):
        return sys.h(eval_basis(basis, r) @ C.T)

    rom = ReducedOrderModel(dim=gen.d, dynamics=dynamics, output=output, domain=solution.domain)
    report = verify_rom_stability(rom, problem)
    if not report["stable"]:
        raise UnstableGainError(
            f"reduced dynamics unstable at the origin, eigenvalues {report['eigenvalues']}"
        )
    return rom


def stabilizing_gain(S: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Find G with max Re eig(S - G L) <= -GAIN_MARGIN by pole relocation.

    Works through the dual pair (S^T, L^T); raises NotDetectableError when
    unstable or marginal modes are unobservable.
    """
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


def verify_rom_stability(rom: ReducedOrderModel, problem: Problem) -> dict:
    """Finite-difference linearization at the origin of the reduced dynamics
    at u = 0, r -> s(r) - g(r) l(r)."""
    d = rom.dim
    u0 = np.zeros(problem.generator.m)
    J = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = FD_STEP
        J[:, j] = (rom.dynamics(e, u0) - rom.dynamics(-e, u0)) / (2.0 * FD_STEP)
    eigs = np.linalg.eigvals(J)
    return {
        "stable": bool(np.max(eigs.real) < 0.0),
        "eigenvalues": eigs,
        "jacobian": J,
    }


def default_gain(problem: Problem, c: float = 10.0) -> GainSpec:
    """Benchmark-appropriate gain: on a ladder problem the chain gain that its
    params["gain"] names, the constant (0, c) or the Van der Pol
    (0, mu (1 - r_1^2) + c); a pole-relocated constant matrix otherwise."""
    kind = problem.params.get("gain")
    if kind == "chain_vdp":
        return GainSpec(kind="chain_vdp", c=c, mu=problem.params["mu"])
    if kind == "chain_linear":
        return GainSpec(kind="constant", G=np.array([[0.0], [c]]))
    S, L, _ = linearize(problem)
    return GainSpec(kind="constant", G=stabilizing_gain(S, L))
