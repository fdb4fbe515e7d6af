"""Tests for the Newton iteration, the linear-solve backends, and the Sylvester
oracle the linear acceptance test compares against."""
import numpy as np
import pytest
import scipy.linalg

from mmrom import linear
from mmrom.assembly import assemble_operators, jacobian_JF
from mmrom.basis import generate_basis
from mmrom.bench import make_benchmark_problem, solve_benchmark
from mmrom.linear import (
    BlockTridiagonal,
    SingularMatrixError,
    solve_block_tridiagonal,
    solve_pseudoinverse,
)
from mmrom.newton import SolverOptions, newton_step, solve_invariance
from mmrom.problems import (
    Problem,
    generator_from_tables,
    linearize,
    make_linear_oscillator,
    make_rl_ladder,
    make_rl_linear,
    make_rl_vdp,
    make_test1,
    system_from_tables,
)
from mmrom.quadrature import BoxDomain
from mmrom.residuals import residual_norm

from oracles import exact_test1_coefficients, solve_sylvester


class TestBackends:
    def test_single_block_is_an_lu_solve(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(8, 8)) + 8 * np.eye(8)
        b = rng.normal(size=8)
        one = BlockTridiagonal(diag=A[None], sub=np.empty((0, 8, 8)), sup=np.empty((0, 8, 8)))
        assert np.allclose(solve_block_tridiagonal(one, b), np.linalg.solve(A, b), rtol=1e-12)
        assert np.shares_memory(one.to_dense(), A)  # the pseudoinverse fallback copies nothing

    def test_single_block_rejects_singular(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        one = BlockTridiagonal(diag=A[None], sub=np.empty((0, 2, 2)), sup=np.empty((0, 2, 2)))
        with pytest.raises(SingularMatrixError, match="index 0"):
            solve_block_tridiagonal(one, np.array([1.0, 2.0]))

    def test_pseudoinverse_minimum_norm(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        b = np.array([1.0, 2.0])
        x = solve_pseudoinverse(A, b)
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.allclose(x, expected, rtol=1e-12)

    def test_block_tridiagonal_matches_dense(self):
        rng = np.random.default_rng(4)
        N, n = 5, 6
        diag = rng.normal(size=(n, N, N)) + 6 * np.eye(N)
        A = BlockTridiagonal(diag=diag, sub=rng.normal(size=(n - 1, N, N)),
                             sup=rng.normal(size=(n - 1, N, N)))
        b = rng.normal(size=n * N)
        x = solve_block_tridiagonal(A, b)
        assert np.allclose(x, np.linalg.solve(A.to_dense(), b), rtol=1e-10, atol=1e-12)

    def test_block_tridiagonal_single_block(self):
        rng = np.random.default_rng(5)
        A = BlockTridiagonal(diag=rng.normal(size=(1, 4, 4)) + 6 * np.eye(4),
                             sub=np.empty((0, 4, 4)), sup=np.empty((0, 4, 4)))
        b = rng.normal(size=4)
        assert np.allclose(solve_block_tridiagonal(A, b), np.linalg.solve(A.diag[0], b))

    def test_block_tridiagonal_singular_reduced_block_after_the_first(self):
        # D_0 = I, D_1 = 2I - I = I, D_2 = I - I = 0: exact in floating point
        eye = np.eye(2)
        A = BlockTridiagonal(diag=np.stack([eye, 2 * eye, eye]),
                             sub=np.stack([eye, eye]), sup=np.stack([eye, eye]))
        with pytest.raises(SingularMatrixError, match="index 2"):
            solve_block_tridiagonal(A, np.ones(6))

    def test_block_tridiagonal_rejects_a_nearly_singular_reduced_block(self):
        # D_1 - sub_0 D_0^{-1} sup_0 = diag(1, ~1e-14): no pivot is exactly
        # zero, but the block's pivot ratio is below PIVOT_RTOL
        eye = np.eye(2)
        A = BlockTridiagonal(diag=np.stack([eye, np.diag([2.0, 1.0 + 1e-14])]),
                             sub=eye[None], sup=eye[None])
        with pytest.raises(SingularMatrixError, match="index 1"):
            solve_block_tridiagonal(A, np.ones(4))

    def test_block_tridiagonal_pivot_ratio_is_per_block(self):
        # each block is well conditioned; one pivot ratio over both (1e-13)
        # would call the matrix singular
        eye, zero = np.eye(2), np.zeros((1, 2, 2))
        A = BlockTridiagonal(diag=np.stack([1e13 * eye, eye]), sub=zero, sup=zero)
        assert np.allclose(solve_block_tridiagonal(A, np.ones(4)), [1e-13, 1e-13, 1.0, 1.0])

    def test_newton_step_backend_equivalence(self):
        prob = make_rl_linear(4)
        basis = generate_basis(2, 3)
        ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
        rng = np.random.default_rng(8)
        c = rng.normal(scale=0.2, size=4 * basis.size)
        JF = jacobian_JF(prob, ops, c)
        F = rng.normal(size=4 * basis.size)
        d_block = newton_step(JF, F, "block_tridiagonal")
        d_dense = np.linalg.solve(JF.to_dense(), F)
        d_pinv = newton_step(JF, F, "pseudoinverse")
        scale = np.linalg.norm(d_dense)
        assert np.linalg.norm(d_block - d_dense) <= 1e-9 * scale
        assert np.linalg.norm(d_pinv - d_dense) <= 1e-8 * scale

    def test_dense_fallback_refuses_huge_matrix(self):
        # 2000 blocks of 27 x 27 would be a 23 GB dense matrix
        block = np.eye(27)
        JF = BlockTridiagonal(diag=np.broadcast_to(block, (2000, 27, 27)),
                              sub=np.broadcast_to(block, (1999, 27, 27)),
                              sup=np.broadcast_to(block, (1999, 27, 27)))
        with pytest.raises(ValueError, match=r"n=2000 .*N=27.* 23328000000 bytes"):
            newton_step(JF, np.ones(2000 * 27), "pseudoinverse")


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.tol_F_l1 == 1e-7
        assert opts.max_iter == 300

    @pytest.mark.parametrize("kwargs", [
        {"tol_F_l1": 0.0},
        {"max_iter": 0},
        {"tol_F_l1": float("nan")},
        {"tol_F_l1": float("inf")},
        {"tol_F_l1": True},
        {"max_iter": True},
        {"max_iter": 2.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)


class TestSolveInvariance:
    def test_recovers_exact_solution(self):
        prob = make_test1(2.0)
        basis = generate_basis(2, 2)
        ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
        sol = solve_invariance(prob, ops)
        assert sol.converged
        exact = exact_test1_coefficients(basis, 2.0).ravel()
        assert np.allclose(sol.c, exact, atol=1e-12)

    def test_linear_problem_converges_in_one_step(self):
        gen = make_test1(2.0).generator
        sys = system_from_tables(
            n=2, m=1, p=1,
            f_tables=[{(1, 0, 0): -1.0, (0, 0, 1): 1.0},
                      {(0, 1, 0): -2.0, (1, 0, 0): 0.5}],
            h_tables=[{(1, 0): 1.0}],
        )
        prob = Problem(generator=gen, system=sys)
        basis = generate_basis(2, 2)
        ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
        sol = solve_invariance(prob, ops)
        assert sol.converged
        assert sol.iterations == 1

    def test_bad_initial_guess_length_rejected(self):
        prob = make_test1(2.0)
        basis = generate_basis(2, 2)
        ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
        with pytest.raises(ValueError):
            solve_invariance(prob, ops, SolverOptions(initial_guess=np.zeros(3)))

    def test_singular_jacobian_falls_back_to_pseudoinverse(self):
        # the cart-pendulum Galerkin Jacobian at zero is rank deficient, so
        # the LU solve of its one block fails and the pseudoinverse takes every step
        prob = make_benchmark_problem("cart_pendulum", 4)
        for M in (2, 4, 6):
            sol, _ = solve_benchmark(prob, 1.0, M)
            assert sol.converged
            assert sol.backend_used == "pseudoinverse"

    def test_singular_reduced_block_falls_back_to_pseudoinverse(self):
        # s = 0 leaves A = 0, and f_1 = f_2 = -(x_1 + x_2) + u makes all four
        # 1x1 blocks the same g > 0, so D_0 = g and D_1 = g - g * (g / g) = 0
        gen = generator_from_tables(d=1, m=1, s_tables=[{(1,): 0.0}], l_tables=[{(1,): 1.0}])
        row = {(1, 0, 0): -1.0, (0, 1, 0): -1.0, (0, 0, 1): 1.0}
        sys = system_from_tables(n=2, m=1, p=1, f_tables=[row, row], h_tables=[{(1, 0): 1.0}])
        prob = Problem(generator=gen, system=sys)
        ops = assemble_operators(prob, generate_basis(1, 1), BoxDomain.cube(1.0, d=1))
        JF = jacobian_JF(prob, ops, np.zeros(2))
        assert JF.nblocks == 2
        with pytest.raises(SingularMatrixError, match="index 1"):
            solve_block_tridiagonal(JF, np.ones(2))
        sol = solve_invariance(prob, ops)
        assert sol.converged and sol.iterations == 1
        assert sol.backend_used == "pseudoinverse"
        # the invariance equation asks pi_1 + pi_2 = omega; the minimum-norm step splits it evenly
        assert np.allclose(sol.c, [0.5, 0.5], rtol=1e-12)

    def test_singular_reduced_block_past_the_budget_stops_the_solve(self, monkeypatch):
        # the problem of the test above, with a budget one byte below its 2 x 2 dense
        # Jacobian: the pseudoinverse step would be refused, so no step is taken
        gen = generator_from_tables(d=1, m=1, s_tables=[{(1,): 0.0}], l_tables=[{(1,): 1.0}])
        row = {(1, 0, 0): -1.0, (0, 1, 0): -1.0, (0, 0, 1): 1.0}
        sys = system_from_tables(n=2, m=1, p=1, f_tables=[row, row], h_tables=[{(1, 0): 1.0}])
        prob = Problem(generator=gen, system=sys)
        ops = assemble_operators(prob, generate_basis(1, 1), BoxDomain.cube(1.0, d=1))
        monkeypatch.setattr(linear, "MAX_DENSE_BYTES", 2 * 2 * 8 - 1)
        sol = solve_invariance(prob, ops)
        assert sol.stop_reason == "singular"
        assert not sol.converged and sol.iterations == 0
        assert sol.backend_used is None

    def test_no_step_taken_reports_no_backend(self):
        prob = make_test1(2.0)
        basis = generate_basis(2, 2)
        ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
        exact = exact_test1_coefficients(basis, 2.0).ravel()
        sol = solve_invariance(prob, ops, SolverOptions(initial_guess=exact))
        assert sol.converged and sol.iterations == 0
        assert sol.backend_used is None

    @pytest.mark.parametrize("params", [{"kappa": 2.0}, {}])
    def test_ladder_dynamics_come_from_the_system(self, params):
        # a ladder paired with a generator by hand solves on its own kappa,
        # to the same coefficients as the registered rl_linear problem
        prob = Problem(make_linear_oscillator(2.0), make_rl_ladder(3, **params))
        basis = generate_basis(2, 4)
        dom = BoxDomain.cube(1.0, d=2)
        sol = solve_invariance(prob, assemble_operators(prob, basis, dom))
        assert sol.converged
        assert residual_norm(prob, basis, sol.c, W=dom).weighted_norm < 1e-4
        ref = make_rl_linear(3, a=2.0, **params)
        ref_sol = solve_invariance(ref, assemble_operators(ref, basis, dom))
        assert np.allclose(sol.c, ref_sol.c, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_blocks_hold_one_row_per_state(self, n):
        problem, basis = make_rl_linear(n), generate_basis(2, 2)
        sol = solve_invariance(problem, assemble_operators(problem, basis, BoxDomain.cube(1.0, d=2)))
        assert sol.blocks().shape == (n, basis.size)
        assert np.array_equal(sol.blocks().ravel(), sol.c)

    def test_max_iter_cap_reports_not_converged(self):
        prob = make_rl_linear(2)
        basis = generate_basis(2, 2)
        ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
        sol = solve_invariance(prob, ops, SolverOptions(max_iter=1))
        assert not sol.converged
        assert sol.iterations == 1
        assert len(sol.residual_history) == 2

    @pytest.mark.parametrize("value", [np.nan, 1e200])
    def test_non_finite_initial_residual_stops_at_once(self, value):
        # 1e200 overflows the ladder's cubic term, so |F|_1 is inf
        prob = make_rl_vdp(2)
        basis = generate_basis(2, 2)
        ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
        guess = np.full(2 * basis.size, value)
        with np.errstate(all="ignore"):
            sol = solve_invariance(prob, ops, SolverOptions(initial_guess=guess))
        assert not np.isfinite(sol.residual_history[-1])
        assert not sol.converged and sol.stop_reason == "non_finite"
        assert sol.iterations == 0

    def test_iteration_cap_is_the_stop_reason(self):
        prob = make_rl_vdp(2)
        basis = generate_basis(2, 4)
        ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
        sol = solve_invariance(prob, ops, SolverOptions(max_iter=1))
        assert np.isfinite(sol.residual_history[-1])
        assert not sol.converged and sol.stop_reason == "max_iter"
        assert sol.iterations == 1


class TestSylvester:
    def test_test1_closed_form(self):
        S, L, A = linearize(make_test1(2.0))
        B = [[1.0], [0.0]]  # f_1 = -x_1 + u
        Pi = solve_sylvester(S, L, A, B)
        assert np.allclose(Pi, [[0.2, -0.4], [0.0, 0.0]], atol=1e-13)

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            b = rng.uniform(0.5, 3.0)
            S = np.array([[0.0, b], [-b, 0.0]])
            A = rng.normal(size=(n, n))
            A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
            B = rng.normal(size=(n, 1))
            L = rng.normal(size=(1, 2))
            Pi = solve_sylvester(S, L, A, B)
            # Pi S = A Pi + B L  <=>  A Pi - Pi S = -B L
            expected = scipy.linalg.solve_sylvester(A, -S, -B @ L)
            assert np.allclose(Pi, expected, rtol=1e-9, atol=1e-11)
            assert np.allclose(Pi @ S - A @ Pi - B @ L, 0.0, atol=1e-10)

    def test_spectrum_overlap_rejected(self):
        # S and A share the eigenvalue pair +-i, so no unique solution exists
        S = np.array([[0.0, 1.0], [-1.0, 0.0]])
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            solve_sylvester(S, np.array([[1.0, 0.0]]), A, np.array([[1.0], [0.0]]))
