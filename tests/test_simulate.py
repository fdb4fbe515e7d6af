"""Tests for time integration and steady-state error metrics."""
import numpy as np
import pytest

from mmrom.assembly import assemble_operators
from mmrom.basis import generate_basis
from mmrom.newton import solve_invariance
from mmrom.problems import make_rl_linear
from mmrom.quadrature import BoxDomain
from mmrom.rom import build_rom, default_gain
from mmrom.simulate import (
    SimConfig,
    Trajectory,
    _integrate,
    simulate_fom,
    simulate_rom,
    steady_state_rms,
)


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.t_span == (0.0, 50.0)

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0},
        {"steady_window_fraction": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestIntegrators:
    def test_exponential_decay_adaptive(self):
        cfg = SimConfig(t_span=(0.0, 1.0))
        times, states = _integrate(lambda t, z: -z, np.array([1.0]), cfg)
        assert abs(states[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_energy_conservation_harmonic_oscillator(self):
        cfg = SimConfig(t_span=(0.0, 20.0))
        rhs = lambda t, z: np.array([z[1], -z[0]])
        _, states = _integrate(rhs, np.array([1.0, 0.0]), cfg)
        energy = 0.5 * (states[:, 0] ** 2 + states[:, 1] ** 2)
        assert np.max(np.abs(energy - energy[0])) < 1e-6


class TestEndToEnd:
    def test_fom_and_rom_trajectories(self):
        prob = make_rl_linear(2)
        basis = generate_basis(2, 4)
        ops = assemble_operators(prob, basis, BoxDomain.cube(2.0, d=2))
        sol = solve_invariance(prob, ops)
        rom = build_rom(prob, sol, default_gain(prob))
        cfg = SimConfig(t_span=(0.0, 50.0))
        omega0 = np.array([0.1, 0.2])
        fom = simulate_fom(prob, omega0, np.zeros(2), cfg)
        red = simulate_rom(rom, prob.generator, omega0, np.array([0.0, 1.0]), cfg)
        assert fom.outputs.shape[1] == 1
        metrics = steady_state_rms(fom, red, cfg)
        assert 0.0 < metrics["relative_rms"] < 0.05
        assert metrics["amplitude"] > 0

    def test_rom_warns_when_leaving_expansion_domain(self):
        prob = make_rl_linear(2)
        basis = generate_basis(2, 2)
        ops = assemble_operators(prob, basis, BoxDomain.cube(0.5, d=2))
        sol = solve_invariance(prob, ops)
        rom = build_rom(prob, sol, default_gain(prob))
        cfg = SimConfig(t_span=(0.0, 5.0))
        with pytest.warns(UserWarning):
            simulate_rom(rom, prob.generator, np.array([0.1, 0.2]),
                         np.array([0.0, 1.0]), cfg)


class TestSteadyStateRms:
    def _traj(self, fn, t_end=50.0, npts=5001):
        t = np.linspace(0.0, t_end, npts)
        y = fn(t)[:, None]
        return Trajectory(times=t, states=y, outputs=y)

    def test_constant_offset(self):
        cfg = SimConfig()
        fom = self._traj(np.sin)
        rom = self._traj(lambda t: np.sin(t) + 0.01)
        metrics = steady_state_rms(fom, rom, cfg)
        assert np.isclose(metrics["rms_error"], 0.01, rtol=1e-6)
        assert np.isclose(metrics["amplitude"], 1.0, rtol=1e-3)
        assert np.isclose(metrics["relative_rms"], 0.01, rtol=1e-3)

    def test_identical_signals_give_zero(self):
        cfg = SimConfig()
        fom = self._traj(np.cos)
        metrics = steady_state_rms(fom, self._traj(np.cos), cfg)
        assert metrics["rms_error"] < 1e-14

    def test_degenerate_amplitude_rejected(self):
        cfg = SimConfig()
        flat = self._traj(lambda t: np.zeros_like(t))
        with pytest.raises(ValueError):
            steady_state_rms(flat, flat, cfg)

    def test_more_than_one_output_rejected(self):
        cfg = SimConfig()
        scalar = self._traj(np.sin)
        t = scalar.times
        pair = Trajectory(times=t, states=scalar.states, outputs=np.column_stack([np.sin(t), np.cos(t)]))
        for y, y_r in ((pair, scalar), (scalar, pair)):
            with pytest.raises(ValueError, match="p = 2"):
                steady_state_rms(y, y_r, cfg)

    def test_csv_export(self, tmp_path):
        traj = self._traj(np.sin, t_end=1.0, npts=11)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,y_1"
        assert len(lines) == 12
