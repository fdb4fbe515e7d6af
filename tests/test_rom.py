"""Tests for reduced-order model construction and gain selection."""
import numpy as np
import pytest

from mmrom.assembly import assemble_operators
from mmrom.basis import eval_basis, generate_basis
from mmrom.newton import Solution, solve_invariance
from mmrom.problems import linearize, make_rl_linear, make_rl_vdp, make_test1
from mmrom.quadrature import BoxDomain
from mmrom.rom import (
    GAIN_MARGIN,
    GainSpec,
    NotDetectableError,
    UnstableGainError,
    build_rom,
    default_gain,
    stabilizing_gain,
    verify_rom_stability,
)


def _solved(problem, M=2, half_width=1.0):
    basis = generate_basis(2, M)
    ops = assemble_operators(problem, basis, BoxDomain.cube(half_width, d=2))
    sol = solve_invariance(problem, ops)
    assert sol.converged
    return sol


class TestGainSpec:
    def test_constant(self):
        G = np.array([[1.0], [2.0]])
        assert np.allclose(GainSpec(kind="constant", G=G).matrix(np.zeros(2)), G)

    def test_chain_linear(self):
        # the ladder's chain gain (0, c) does not depend on the state
        g = default_gain(make_rl_linear(2), c=10.0)
        assert np.array_equal(g.matrix(np.array([0.3, -0.2])), [[0.0], [10.0]])

    def test_chain_vdp_state_dependence(self):
        g = GainSpec(kind="chain_vdp", c=10.0, mu=0.25)
        assert np.allclose(g.matrix(np.zeros(2)), [[0.0], [10.25]])
        assert np.allclose(g.matrix(np.array([2.0, 0.0])), [[0.0], [10.0 + 0.25 * (1 - 4.0)]])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GainSpec(kind="whatever").matrix(np.zeros(2))
        with pytest.raises(ValueError):  # the chain gain (0, c) is a constant G
            GainSpec(kind="chain_linear").matrix(np.zeros(2))


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
        gain = default_gain(make_rl_linear(2), c=7.0)
        assert gain.kind == "constant" and np.array_equal(gain.G, [[0.0], [7.0]])

    def test_chain_vdp_problem(self):
        gain = default_gain(make_rl_vdp(2))
        assert gain.kind == "chain_vdp" and gain.mu == 0.25

    def test_generic_problem_gets_constant_gain(self):
        prob = make_test1(2.0)
        gain = default_gain(prob)
        assert gain.kind == "constant"
        S, L, _ = linearize(prob)
        eigs = np.linalg.eigvals(S - gain.G @ L)
        assert np.max(eigs.real) < 0


class TestBuildRom:
    def test_interconnection_identity(self):
        # feeding the reduced model its own generator output cancels the gain
        prob = make_rl_linear(2)
        sol = _solved(prob)
        rom = build_rom(prob, sol, default_gain(prob))
        for r in ([0.2, -0.1], [0.5, 0.4]):
            r = np.asarray(r)
            sl = prob.generator.sl(r)
            assert np.allclose(rom.dynamics(r, sl[2:]), sl[:2], rtol=1e-13)

    def test_output_matches_expansion(self):
        prob = make_rl_linear(2)
        sol = _solved(prob)
        rom = build_rom(prob, sol, default_gain(prob))
        C = sol.blocks(2)
        r = np.array([0.3, -0.4])
        x = eval_basis(sol.basis, r) @ C.T
        assert np.allclose(rom.output(r), prob.system.h(x), rtol=1e-13)

    def test_rejects_unconverged_solution(self):
        prob = make_rl_linear(2)
        sol = _solved(prob)
        bad = Solution(c=sol.c, iterations=sol.iterations,
                       residual_history=sol.residual_history, converged=False,
                       backend_used=sol.backend_used, basis=sol.basis,
                       domain=sol.domain)
        with pytest.raises(ValueError):
            build_rom(prob, bad, default_gain(prob))

    def test_zero_gain_is_rejected_as_marginal(self):
        # with c = 0 the reduced dynamics inherit the generator's neutral
        # spectrum, which is not asymptotically stable
        prob = make_rl_linear(2)
        sol = _solved(prob)
        with pytest.raises(UnstableGainError):
            build_rom(prob, sol, GainSpec(kind="constant", G=np.zeros((2, 1))))


class TestVerifyStability:
    def test_stable_case(self):
        prob = make_rl_linear(2)
        sol = _solved(prob)
        rom = build_rom(prob, sol, default_gain(prob))
        report = verify_rom_stability(rom, prob)
        assert report["stable"]
        assert np.max(report["eigenvalues"].real) < 0
        assert report["jacobian"].shape == (2, 2)
