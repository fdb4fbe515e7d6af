"""Tests for reduced-order model construction and gain selection."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmrom
from mmrom.assembly import assemble_operators
from mmrom.basis import eval_basis, generate_basis
from mmrom.config import build_gain
from mmrom.newton import Solution, solve_invariance
from mmrom.problems import (
    CHAIN_GAIN_C,
    Problem,
    generator_from_tables,
    linearize,
    make_rl_linear,
    make_rl_vdp,
    make_test1,
    system_from_tables,
)
from mmrom.quadrature import BoxDomain
from mmrom.rom import (
    GAIN_MARGIN,
    NotDetectableError,
    UnstableGainError,
    build_rom,
    default_gain,
    reduced_dynamics,
    stabilizing_gain,
)


def _solved(problem, M=2, half_width=1.0):
    basis = generate_basis(2, M)
    ops = assemble_operators(problem, basis, BoxDomain.cube(half_width, d=2))
    sol = solve_invariance(problem, ops)
    assert sol.converged
    return sol


class TestGainSpec:
    # a reduced model's gain is a function r -> G(r) of shape (d, m)
    def test_constant(self):
        G = np.array([[1.0], [2.0]])
        gain = build_gain({"rom": {"G": G.tolist()}}, make_test1(2.0))
        for r in ([0.0, 0.0], [0.5, -0.3]):
            assert np.allclose(gain(np.array(r)), G)

    def test_chain_linear(self):
        # the ladder's chain gain (0, c) does not depend on the state
        g = default_gain(make_rl_linear(2))
        assert np.array_equal(g(np.array([0.3, -0.2])), [[0.0], [CHAIN_GAIN_C]])


class TestStabilizingGain:
    def test_places_stable_spectrum(self):
        S = np.array([[0.0, 2.0], [-2.0, 0.0]])
        L = np.array([[1.0, 0.0]])
        G = stabilizing_gain(S, L)
        eigs = np.linalg.eigvals(S - G @ L)
        assert np.max(eigs.real) <= -GAIN_MARGIN + 1e-8

    def test_unobservable_pair_rejected(self):
        S = np.array([[0.0, 2.0], [-2.0, 0.0]])
        with pytest.raises(NotDetectableError):
            stabilizing_gain(S, np.zeros((1, 2)))


class TestDefaultGain:
    def test_chain_linear_problem(self):
        prob = make_rl_linear(2)
        assert default_gain(prob) is prob.gain
        assert np.array_equal(prob.gain(np.zeros(2)), [[0.0], [CHAIN_GAIN_C]])

    def test_chain_vdp_problem(self):
        prob = make_rl_vdp(2, mu=0.5)
        assert default_gain(prob) is prob.gain
        assert np.allclose(prob.gain(np.zeros(2)), [[0.0], [CHAIN_GAIN_C + 0.5]])

    def test_chain_vdp_state_dependence(self):
        g = make_rl_vdp(2).gain
        assert np.allclose(g(np.zeros(2)), [[0.0], [10.25]])
        assert np.allclose(g(np.array([2.0, 0.0])), [[0.0], [10.0 + 0.25 * (1 - 4.0)]])

    def test_generic_problem_gets_constant_gain(self):
        prob = make_test1(2.0)
        assert prob.gain is None
        gain = default_gain(prob)
        G = gain(np.zeros(2))
        assert np.array_equal(gain(np.array([0.5, -0.3])), G)
        S, L, _ = linearize(prob)
        eigs = np.linalg.eigvals(S - G @ L)
        assert np.max(eigs.real) < 0

    def test_scipy_signal_loads_only_when_a_gain_is_placed(self):
        # scipy.signal is most of the package's import time and only pole placement needs it
        script = """
import json, sys
import numpy as np
import mmrom.cli
from mmrom.problems import make_test1
from mmrom.rom import default_gain
before = "scipy.signal" in sys.modules
G = default_gain(make_test1())(np.zeros(2))
print(json.dumps({"before": before, "after": "scipy.signal" in sys.modules, "G": G.tolist()}))
"""
        src = str(Path(mmrom.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        loaded = json.loads(run.stdout)
        assert not loaded["before"] and loaded["after"]
        S, L, _ = linearize(make_test1())
        eigs = np.linalg.eigvals(S - np.array(loaded["G"]) @ L)
        assert np.max(eigs.real) <= -GAIN_MARGIN + 1e-8


class TestBuildRom:
    def test_interconnection_identity(self):
        # feeding the reduced model its own generator output cancels the gain
        prob = make_rl_linear(2)
        dynamics = reduced_dynamics(prob, default_gain(prob))
        for r in ([0.2, -0.1], [0.5, 0.4]):
            r = np.asarray(r)
            sl = prob.generator.sl(r)
            assert np.allclose(dynamics(r, sl[2:]), sl[:2], rtol=1e-13)

    def test_output_matches_expansion(self):
        prob = make_rl_linear(2)
        sol = _solved(prob)
        C = sol.blocks(2)
        r = np.array([[0.3, -0.4]])
        x = eval_basis(sol.basis, r) @ C.T
        rom = build_rom(prob, sol, np.zeros(1), r)
        assert np.allclose(rom.outputs, prob.system.h(x), rtol=1e-13)

    def test_rejects_unconverged_solution(self):
        prob = make_rl_linear(2)
        sol = _solved(prob)
        bad = Solution(c=sol.c, residual_history=sol.residual_history,
                       backend_used=sol.backend_used, basis=sol.basis,
                       domain=sol.domain, stop_reason="max_iter")
        with pytest.raises(ValueError, match="did not converge"):
            build_rom(prob, bad, np.zeros(1), np.zeros((1, 2)))

    def test_zero_gain_is_rejected_as_marginal(self):
        # with c = 0 the reduced dynamics inherit the generator's neutral
        # spectrum, which is not asymptotically stable
        prob = make_rl_linear(2)
        with pytest.raises(UnstableGainError,
                           match="reduced dynamics unstable at the origin, eigenvalues"):
            reduced_dynamics(prob, lambda r: np.zeros((2, 1)))


class TestVerifyStability:
    def test_stable_case(self):
        # the chain gain moves the generator's imaginary poles into the left half plane
        prob = make_rl_linear(2)
        dynamics = reduced_dynamics(prob, default_gain(prob))
        S, L, _ = linearize(prob)
        assert np.max(np.linalg.eigvals(S - prob.gain(np.zeros(2)) @ L).real) < 0
        assert np.allclose(dynamics(np.zeros(2), np.zeros(1)), 0.0)

    def test_zero_gain_on_cubic_centre_is_unstable(self):
        # s = (w2 - w1^3, -w1) has S - 0 L with eigenvalues +-i; a central difference of the
        # cubic adds -h^2 to the diagonal and would have passed this centre as stable
        gen = generator_from_tables(d=2, m=1, s_tables=[{(0, 1): 1.0, (3, 0): -1.0},
                                                        {(1, 0): -1.0}],
                                    l_tables=[{(1, 0): 1.0}])
        system = system_from_tables(n=1, m=1, p=1, f_tables=[{(1, 0): -1.0, (0, 1): 1.0}],
                                    h_tables=[{(1,): 1.0}])
        with pytest.raises(UnstableGainError, match="unstable at the origin"):
            reduced_dynamics(Problem(gen, system), lambda r: np.zeros((2, 1)))
