"""Tests for time integration and steady-state error metrics."""
import warnings

import numpy as np
import pytest

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
    rom_trajectory,
    simulate_fom,
    simulate_rom,
    steady_state_rms,
)


def _reduced_trajectory(prob, sol, omega0, r0, t_span=T_SPAN):
    """The reduced run under the problem's default gain, scored through sol's output map."""
    run = simulate_rom(reduced_dynamics(prob, default_gain(prob)), prob.generator,
                       omega0, r0, t_span)
    return rom_trajectory(build_rom(prob, sol), *run)


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


class TestEndToEnd:
    def test_fom_and_rom_trajectories(self):
        prob = make_rl_linear(2)
        basis = generate_basis(2, 4)
        ops = assemble_operators(prob, basis, BoxDomain.cube(2.0, d=2))
        sol = solve_invariance(prob, ops)
        omega0 = np.array([0.1, 0.2])
        fom = simulate_fom(prob, omega0, np.zeros(2))
        red = _reduced_trajectory(prob, sol, omega0, np.array([0.0, 1.0]))
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
        with pytest.warns(UserWarning):
            _reduced_trajectory(prob, sol, np.array([0.1, 0.2]), np.array([0.0, 1.0]), (0.0, 5.0))


def _benchmark_rom_run(name, half_width, M):
    """The reduced run of one n=2 ROM-table cell."""
    prob = make_benchmark_problem(name, 2)
    sol, _ = solve_benchmark(prob, half_width, M)
    return _reduced_trajectory(prob, sol, OMEGA0, R0)


class TestDomainExcursions:
    def test_van_der_pol_cell_counts_states_outside_its_box(self):
        # T4-rom-n2 hw=1 M=6: the reduced state follows the limit cycle past |r_i| = 1
        with pytest.warns(UserWarning, match="left the expansion domain") as record:
            red = _benchmark_rom_run("rl_vdp", 1.0, 6)
        r = red.states
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
            red = _benchmark_rom_run("rl_linear", 1.0, 6)
        assert red.outside_domain == 0


class TestSteadyStateRms:
    def _traj(self, fn, t_end=50.0, npts=5001):
        t = np.linspace(0.0, t_end, npts)
        y = fn(t)[:, None]
        return Trajectory(times=t, states=y, outputs=y)

    def test_constant_offset(self):
        fom = self._traj(np.sin)
        rom = self._traj(lambda t: np.sin(t) + 0.01)
        metrics = steady_state_rms(fom, rom)
        assert np.isclose(metrics["rms_error"], 0.01, rtol=1e-6)
        assert np.isclose(metrics["amplitude"], 1.0, rtol=1e-3)
        assert np.isclose(metrics["relative_rms"], 0.01, rtol=1e-3)

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
        pair = Trajectory(times=t, states=scalar.states, outputs=np.column_stack([np.sin(t), np.cos(t)]))
        for y, y_r in ((pair, scalar), (scalar, pair)):
            with pytest.raises(ValueError, match="p = 2"):
                steady_state_rms(y, y_r)

    def test_csv_export(self, tmp_path):
        traj = self._traj(np.sin, t_end=1.0, npts=11)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,y_1"
        assert len(lines) == 12
