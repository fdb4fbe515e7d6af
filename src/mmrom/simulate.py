"""The ROM experiment: RK45 integration of the generator driving the full-order
or the reduced system, and the steady-state error between their outputs.

The benchmark experiment starts the generator at OMEGA0, the reduced model
at R0 and the full-order system at rest, and integrates over T_SPAN.  RK45
always runs at absolute and relative tolerance RK45_TOL, and the score always
covers the last STEADY_WINDOW fraction of the span; a ``simulation`` config
section may choose other initial states and another span.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .problems import Problem

# The benchmark ROM experiment: initial generator and reduced states (d = 2),
# span, RK45 tolerance and the trailing fraction of the span that is scored.
OMEGA0 = (0.1, 0.2)
R0 = (0.0, 1.0)
T_SPAN = (0.0, 50.0)
RK45_TOL = 1e-9
STEADY_WINDOW = 0.4


@dataclass
class Trajectory:
    times: np.ndarray
    outputs: np.ndarray  # (T, p)
    outside_domain: int = 0  # stored reduced states outside the ROM's expansion domain

    def to_csv(self, path, label: str):
        p = self.outputs.shape[1]
        header = "t," + ",".join(f"{label}_{i + 1}" for i in range(p))
        data = np.column_stack([self.times, self.outputs])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def __getattr__(name):
    """Import scipy.integrate (with the scipy.optimize it loads) on the first
    integration, so a process that only solves does not pay for it."""
    if name != "solve_ivp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import solve_ivp
    globals()["solve_ivp"] = solve_ivp
    return solve_ivp


def _integrate(rhs, z0: np.ndarray, t_span) -> tuple[np.ndarray, np.ndarray]:
    # through the module attribute, so a wrapper set on mmrom.simulate.solve_ivp runs
    sol = sys.modules[__name__].solve_ivp(rhs, t_span, z0, method="RK45",
                                          rtol=RK45_TOL, atol=RK45_TOL)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    return sol.t, sol.y.T


def _drive(generator, dynamics, omega0, state0, t_span):
    """Integrate omega' = s(omega) together with state' = dynamics(state, l(omega))."""
    d = generator.d

    def rhs(t, z):
        sl = generator.sl(z[:d])
        return np.concatenate([sl[:d], dynamics(z[d:], sl[d:])])

    return _integrate(rhs, np.concatenate([omega0, state0], dtype=float), t_span)


def simulate_fom(problem: Problem, omega0, x0, t_span=T_SPAN) -> Trajectory:
    """Integrate the coupled generator/full-order system; outputs y = h(x)."""
    times, states = _drive(problem.generator, problem.system.f, omega0, x0, t_span)
    outputs = problem.system.h(states[:, problem.generator.d:])
    return Trajectory(times=times, outputs=outputs)


def simulate_rom(dynamics, generator, omega0, r0, t_span=T_SPAN) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the coupled generator/reduced dynamics; returns the stored times
    (T,) and reduced states (T, d).  The outputs depend on the solution, so
    ``rom.build_rom`` evaluates them for each reduced model."""
    times, states = _drive(generator, dynamics, omega0, r0, t_span)
    return times, states[:, generator.d:]


def steady_state_rms(y: Trajectory, y_r: Trajectory) -> dict:
    """RMS mismatch of the two scalar outputs over the trailing window.

    Both outputs are resampled by linear interpolation on 2000 uniform points
    over the final STEADY_WINDOW fraction of the common time span; the
    amplitude normalizer is half the peak-to-peak range of the first
    trajectory.  Besides the three scores it returns that ``grid`` and the
    pointwise ``error`` y - y_r on it, which the RMS error is taken over.
    """
    p = max(y.outputs.shape[1], y_r.outputs.shape[1])
    if p > 1:
        raise ValueError(f"steady_state_rms scores one output; the trajectories have p = {p}")
    t0 = max(y.times[0], y_r.times[0])
    t1 = min(y.times[-1], y_r.times[-1])
    grid = np.linspace(t1 - STEADY_WINDOW * (t1 - t0), t1, 2000)
    yi = np.interp(grid, y.times, y.outputs[:, 0])
    yri = np.interp(grid, y_r.times, y_r.outputs[:, 0])
    amplitude = 0.5 * (yi.max() - yi.min())
    if amplitude < 1e-12:
        raise ValueError("degenerate signal: amplitude below 1e-12")
    error = yi - yri
    rms = float(np.sqrt(np.mean(error ** 2)))
    return {
        "rms_error": rms,
        "amplitude": float(amplitude),
        "relative_rms": rms / float(amplitude),
        "grid": grid,
        "error": error,
    }
