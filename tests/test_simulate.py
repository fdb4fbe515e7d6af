"""Tests for time integration and steady-state error metrics."""
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import mmrom.simulate

from mmrom.assembly import assemble_operators
from mmrom.basis import generate_basis
from mmrom.bench import make_benchmark_problem, solve_benchmark
from mmrom.config import build_simulation
from mmrom.newton import solve_invariance
from mmrom.problems import make_rl_linear
from mmrom.quadrature import BoxDomain
from mmrom.rom import build_rom, default_gain, reduced_dynamics
from mmrom.simulate import (
    OMEGA0,
    R0,
    T_SPAN,
    Trajectory,
    _integrate,
    simulate_fom,
    simulate_rom,
    steady_state_rms,
)


def _reduced_run(prob, omega0, r0, t_span=T_SPAN):
    """The stored times and reduced states under the problem's default gain."""
    return simulate_rom(reduced_dynamics(prob, default_gain(prob)), prob.generator,
                        omega0, r0, t_span)


class TestSimConfig:
    def test_defaults(self):
        # A config without a simulation section runs the benchmark experiment.
        prob = make_rl_linear(n=2, a=2.0, kappa=1.1)
        t_span, omega0, r0, x0 = build_simulation({}, prob)
        assert t_span == T_SPAN == (0.0, 50.0)
        assert np.array_equal(omega0, OMEGA0) and np.array_equal(r0, R0)
        assert np.array_equal(x0, np.zeros(prob.system.n))


class TestIntegrators:
    def test_exponential_decay_adaptive(self):
        times, states = _integrate(lambda t, z: -z, np.array([1.0]), (0.0, 1.0))
        assert abs(states[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_energy_conservation_harmonic_oscillator(self):
        rhs = lambda t, z: np.array([z[1], -z[0]])
        _, states = _integrate(rhs, np.array([1.0, 0.0]), (0.0, 20.0))
        energy = 0.5 * (states[:, 0] ** 2 + states[:, 1] ** 2)
        assert np.max(np.abs(energy - energy[0])) < 1e-6


class TestLazySolver:
    def test_scipy_integrate_loads_on_the_first_integration(self):
        # a process that only solves does not import scipy.integrate and its scipy.optimize
        script = """
import json, sys
import numpy as np
import mmrom.cli
from mmrom import bench
from mmrom.problems import make_rl_linear
from mmrom.simulate import simulate_fom
bench.run_residual_cell(bench.REFERENCE_TABLES["T1"], 1.0, 2)
before = "scipy.integrate" in sys.modules
simulate_fom(make_rl_linear(2), omega0=(0.1, 0.2), x0=np.zeros(2), t_span=(0.0, 1.0))
print(json.dumps({"before": before, "after": "scipy.integrate" in sys.modules}))
"""
        src = str(Path(mmrom.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        assert json.loads(run.stdout) == {"before": False, "after": True}

    def test_integration_calls_the_module_attribute(self, monkeypatch):
        # a wrapper set on mmrom.simulate.solve_ivp (as perfbench's tracer sets one) runs
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return scipy.integrate.solve_ivp(*args, **kwargs)

        monkeypatch.setattr(mmrom.simulate, "solve_ivp", counting)
        simulate_fom(make_rl_linear(2), omega0=OMEGA0, x0=np.zeros(2), t_span=(0.0, 1.0))
        assert calls == [(0.0, 1.0)]

    def test_solver_name_resolves_to_scipy(self):
        from mmrom.simulate import solve_ivp
        assert solve_ivp is scipy.integrate.solve_ivp
        with pytest.raises(AttributeError, match="no_such_name"):
            mmrom.simulate.no_such_name


class TestEndToEnd:
    def test_fom_and_rom_trajectories(self):
        prob = make_rl_linear(2)
        basis = generate_basis(2, 4)
        ops = assemble_operators(prob, basis, BoxDomain.cube(2.0, d=2))
        sol = solve_invariance(prob, ops)
        omega0 = np.array([0.1, 0.2])
        fom = simulate_fom(prob, omega0, np.zeros(2))
        red = build_rom(prob, sol, *_reduced_run(prob, omega0, np.array([0.0, 1.0])))
        assert T_SPAN == (0.0, 50.0)  # the published experiment's span is the default
        for traj in (fom, red):
            assert (traj.times[0], traj.times[-1]) == T_SPAN
        assert fom.outputs.shape[1] == 1
        metrics = steady_state_rms(fom, red)
        assert 0.0 < metrics["relative_rms"] < 0.05
        assert metrics["amplitude"] > 0

    def test_rom_warns_when_leaving_expansion_domain(self):
        prob = make_rl_linear(2)
        basis = generate_basis(2, 2)
        ops = assemble_operators(prob, basis, BoxDomain.cube(0.5, d=2))
        sol = solve_invariance(prob, ops)
        run = _reduced_run(prob, np.array([0.1, 0.2]), np.array([0.0, 1.0]), (0.0, 5.0))
        with pytest.warns(UserWarning):
            build_rom(prob, sol, *run)


def _benchmark_rom_run(name, half_width, M):
    """The reduced states of one n=2 ROM-table cell and its reduced model's outputs on them."""
    prob = make_benchmark_problem(name, 2)
    sol, _ = solve_benchmark(prob, half_width, M)
    run = _reduced_run(prob, OMEGA0, R0)
    return run[1], build_rom(prob, sol, *run)


class TestDomainExcursions:
    def test_van_der_pol_cell_counts_states_outside_its_box(self):
        # T4-rom-n2 hw=1 M=6: the reduced state follows the limit cycle past |r_i| = 1
        with pytest.warns(UserWarning, match="left the expansion domain") as record:
            r, red = _benchmark_rom_run("rl_vdp", 1.0, 6)
        outside = np.count_nonzero(np.abs(r).max(axis=1) > 1.0)
        assert 0 < red.outside_domain == outside < len(red.times)
        assert len(record) == 1
        message = str(record[0].message)
        assert f"at {outside} of {len(red.times)} stored states" in message
        assert f"largest |r_i| = {np.abs(r).max():.3g}" in message

    def test_linear_cell_stays_inside_its_box(self):
        # T3-rom-n2 hw=1 M=6: the reduced state stays on the unit circle it starts on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, red = _benchmark_rom_run("rl_linear", 1.0, 6)
        assert red.outside_domain == 0


class TestSteadyStateRms:
    def _traj(self, fn, t_end=50.0, npts=5001):
        t = np.linspace(0.0, t_end, npts)
        y = fn(t)[:, None]
        return Trajectory(times=t, outputs=y)

    def test_constant_offset(self):
        fom = self._traj(np.sin)
        rom = self._traj(lambda t: np.sin(t) + 0.01)
        metrics = steady_state_rms(fom, rom)
        assert np.isclose(metrics["rms_error"], 0.01, rtol=1e-6)
        assert np.isclose(metrics["amplitude"], 1.0, rtol=1e-3)
        assert np.isclose(metrics["relative_rms"], 0.01, rtol=1e-3)
        # the score is taken over the returned pointwise error y - y_r on the trailing window
        grid = metrics["grid"]
        assert (len(grid), grid[0], grid[-1]) == (2000, 30.0, 50.0)
        assert np.allclose(metrics["error"], -0.01, rtol=1e-6)
        assert metrics["rms_error"] == np.sqrt(np.mean(metrics["error"] ** 2))

    def test_identical_signals_give_zero(self):
        fom = self._traj(np.cos)
        metrics = steady_state_rms(fom, self._traj(np.cos))
        assert metrics["rms_error"] < 1e-14

    def test_degenerate_amplitude_rejected(self):
        flat = self._traj(lambda t: np.zeros_like(t))
        with pytest.raises(ValueError):
            steady_state_rms(flat, flat)

    def test_more_than_one_output_rejected(self):
        scalar = self._traj(np.sin)
        t = scalar.times
        pair = Trajectory(times=t, outputs=np.column_stack([np.sin(t), np.cos(t)]))
        for y, y_r in ((pair, scalar), (scalar, pair)):
            with pytest.raises(ValueError, match="p = 2"):
                steady_state_rms(y, y_r)

    def test_csv_export(self, tmp_path):
        traj = self._traj(np.sin, t_end=1.0, npts=11)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, label="y")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,y_1"
        assert len(lines) == 12
