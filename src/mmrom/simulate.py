"""RK45 time integration of the interconnected systems and steady-state metrics."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .problems import Problem
from .rom import ReducedOrderModel

# Initial generator and reduced states of the ROM experiment, for d = 2.
OMEGA0 = (0.1, 0.2)
R0 = (0.0, 1.0)


@dataclass(frozen=True)
class SimConfig:
    """Settings of the RK45 integration and of the steady-state window."""

    t_span: tuple = (0.0, 50.0)
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    steady_window_fraction: float = 0.4

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.steady_window_fraction < 1.0:
            raise ValueError("steady_window_fraction must lie in (0, 1)")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray   # (T, nstates)
    outputs: np.ndarray  # (T, p)

    def to_csv(self, path, label: str = "y"):
        p = self.outputs.shape[1]
        header = "t," + ",".join(f"{label}_{i + 1}" for i in range(p))
        data = np.column_stack([self.times, self.outputs])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def _integrate(rhs, z0: np.ndarray, config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    sol = solve_ivp(
        rhs, config.t_span, z0, method="RK45",
        rtol=config.rel_tol, atol=config.abs_tol,
    )
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    return sol.t, sol.y.T


def _drive(generator, dynamics, omega0, state0, config: SimConfig | None):
    """Integrate omega' = s(omega) together with state' = dynamics(state, l(omega))."""
    d = generator.d

    def rhs(t, z):
        sl = generator.sl(z[:d])
        return np.concatenate([sl[:d], dynamics(z[d:], sl[d:])])

    return _integrate(rhs, np.concatenate([omega0, state0], dtype=float), config or SimConfig())


def simulate_fom(problem: Problem, omega0, x0, config: SimConfig | None = None) -> Trajectory:
    """Integrate the coupled generator/full-order system; outputs y = h(x)."""
    times, states = _drive(problem.generator, problem.system.f, omega0, x0, config)
    outputs = problem.system.h(states[:, problem.generator.d:])
    return Trajectory(times=times, states=states, outputs=outputs)


def simulate_rom(
    rom: ReducedOrderModel, generator, omega0, r0, config: SimConfig | None = None
) -> Trajectory:
    """Integrate the coupled generator/reduced model; outputs y_r = h(pi^N(r))."""
    times, states = _drive(generator, rom.dynamics, omega0, r0, config)
    d = generator.d
    domain = rom.pi_solution.domain if rom.pi_solution is not None else None
    if domain is not None:
        r_states = states[:, d:]
        if np.any(r_states < domain.lo) or np.any(r_states > domain.hi):
            warnings.warn(
                "reduced state left the expansion domain; output values are extrapolated",
                stacklevel=2,
            )
    outputs = rom.output(states[:, d:])
    return Trajectory(times=times, states=states, outputs=outputs)


def steady_state_rms(
    y: Trajectory, y_r: Trajectory, config: SimConfig | None = None, npoints: int = 2000
) -> dict:
    """RMS mismatch of the two scalar outputs over the trailing window.

    Both outputs are resampled by linear interpolation on a uniform grid over
    the final steady_window_fraction of the common time span; the amplitude
    normalizer is half the peak-to-peak range of the first trajectory.
    """
    config = config or SimConfig()
    p = max(y.outputs.shape[1], y_r.outputs.shape[1])
    if p > 1:
        raise ValueError(f"steady_state_rms scores one output; the trajectories have p = {p}")
    t0 = max(y.times[0], y_r.times[0])
    t1 = min(y.times[-1], y_r.times[-1])
    w0 = t1 - config.steady_window_fraction * (t1 - t0)
    grid = np.linspace(w0, t1, npoints)
    yi = np.interp(grid, y.times, y.outputs[:, 0])
    yri = np.interp(grid, y_r.times, y_r.outputs[:, 0])
    amplitude = 0.5 * (yi.max() - yi.min())
    if amplitude < 1e-12:
        raise ValueError("degenerate signal: amplitude below 1e-12")
    rms = float(np.sqrt(np.mean((yi - yri) ** 2)))
    return {
        "rms_error": rms,
        "amplitude": float(amplitude),
        "relative_rms": rms / float(amplitude),
    }
