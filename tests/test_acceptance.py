"""Acceptance checks: benchmark reproduction at fixed tolerances.

Each test prints one PASS/FAIL line so a full run gives a ten-line scorecard.
"""
import time

import numpy as np
import pytest

from mmrom.assembly import assemble_operators, jacobian_JF, residual_F
from mmrom.basis import basis_count, generate_basis
from mmrom.bench import (
    REFERENCE_TABLES,
    make_benchmark_problem,
    reproduce_table,
    run_rom_cell,
    solve_benchmark,
)
from mmrom.newton import SolverOptions, newton_step, solve_invariance
from mmrom.persist import read_coefficients, write_coefficients
from mmrom.problems import (
    Problem,
    generator_from_tables,
    linearize,
    make_cart_pendulum,
    make_rl_linear,
    make_rl_vdp,
    make_test1,
    system_from_tables,
)
from mmrom.quadrature import BoxDomain, gauss_legendre_1d
from mmrom.residuals import residual_norm

from oracles import exact_cart_pendulum_coefficients, exact_test1_coefficients, solve_sylvester
from test_assembly import make_generic_ladder


def report(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"CRITERION {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_exact_recovery_known_solution(capsys):
    problem = make_test1(a=2.0)
    failures = []
    for M in (2, 4, 6):
        start = time.perf_counter()
        basis = generate_basis(2, M)
        ops = assemble_operators(problem, basis, BoxDomain.cube(1.0, d=2))
        sol = solve_invariance(problem, ops)
        norm = residual_norm(problem, basis, sol.c, W=BoxDomain.cube(1.0, d=2)).weighted_norm
        elapsed = time.perf_counter() - start
        exact = exact_test1_coefficients(basis, 2.0)
        coeff_err = np.abs(sol.blocks() - exact).max()
        if not (sol.converged and norm <= 1e-10 and coeff_err <= 1e-9 and elapsed < 10.0):
            failures.append(f"M={M}: norm={norm:.2e} coeff_err={coeff_err:.2e} t={elapsed:.1f}s")
    report(capsys, 1, not failures,
           failures or "weighted residual <= 1e-10 and exact coefficients for M in {2,4,6}")


def test_criterion_2_exact_recovery_transcendental(capsys):
    problem = make_cart_pendulum(a1=2.0, a2=3.0, k=-2.0 / 3.0)
    failures = []
    for M in (2, 4, 6):
        start = time.perf_counter()
        basis = generate_basis(2, M)
        ops = assemble_operators(problem, basis, BoxDomain.cube(1.0, d=2))
        sol = solve_invariance(problem, ops)
        norm = residual_norm(problem, basis, sol.c, W=BoxDomain.cube(1.0, d=2)).weighted_norm
        elapsed = time.perf_counter() - start
        exact = exact_cart_pendulum_coefficients(basis, -2.0 / 3.0)
        coeff_err = np.abs(sol.blocks() - exact).max()
        if not (sol.converged and sol.backend_used == "pseudoinverse"
                and norm <= 1e-6 and coeff_err <= 1e-5 and elapsed < 60.0):
            failures.append(f"M={M}: norm={norm:.2e} coeff_err={coeff_err:.2e} t={elapsed:.1f}s "
                            f"backend={sol.backend_used}")
    report(capsys, 2, not failures,
           failures or "pseudoinverse run matches the linear closed-form mapping")


def test_criterion_3_ladder_residual_grid_small(capsys):
    start = time.perf_counter()
    results = reproduce_table("T3-res-n2")
    elapsed = time.perf_counter() - start
    bad = [f"hw={r.half_width:g} M={r.M}: {r.value:.3e} vs {r.reference:.3e}"
           for r in results if not r.passed]
    ok = not bad and elapsed < 300.0
    report(capsys, 3, ok,
           bad or f"nine n=2 cells within factor 3 in {elapsed:.1f}s")


def test_criterion_4_ladder_residual_grid_n100(capsys):
    start = time.perf_counter()
    results = reproduce_table("T3-res-n100")
    elapsed = time.perf_counter() - start
    bad = [f"hw={r.half_width:g} M={r.M}: {r.value:.3e} vs {r.reference:.3e}"
           for r in results if not r.passed]
    ok = not bad and elapsed < 1800.0
    report(capsys, 4, ok,
           bad or f"nine n=100 cells within factor 3 in {elapsed:.1f}s")


def test_criterion_5_vdp_residual_grid_small(capsys):
    results = reproduce_table("T4-res-n2")
    failures = []
    for r in results:
        if r.half_width in (1.0, 2.0) and not r.passed:
            failures.append(f"hw={r.half_width:g} M={r.M}: {r.value} vs {r.reference}")
        if r.half_width == 3.0 and r.M == 2:
            if not (r.converged and r.passed):
                failures.append(f"hw=3 M=2 expected convergence near 1e-1, got {r.value}")
    report(capsys, 5, not failures,
           failures or "small-domain rows within factor 3; widest domain converges at M=2")


def test_criterion_6_divergence_pattern_large_domain(capsys):
    failures = []
    for M in (4, 6):
        problem = make_benchmark_problem("rl_vdp", 100)
        sol, _ = solve_benchmark(problem, 3.0, M)
        if sol.converged or sol.iterations > 300:
            failures.append(f"M={M}: converged={sol.converged} iters={sol.iterations}")
    report(capsys, 6, not failures,
           failures or "n=100 widest-domain runs fail to converge within the 300-iteration cap")


def test_criterion_7_rom_accuracy_ladder(capsys):
    failures = []
    for hw in (1.0, 2.0, 3.0):
        r = run_rom_cell(REFERENCE_TABLES["T3-rom-n2"], hw, 6)
        if not r.passed:
            failures.append(f"n=2 hw={hw:g}: {r.value} vs {r.reference}")
        if r.value is None or r.value >= 0.005:
            failures.append(f"n=2 hw={hw:g}: relative RMS {r.value} not below 0.5%")
    for hw in (1.0, 2.0, 3.0):
        r = run_rom_cell(REFERENCE_TABLES["T3-rom-n100"], hw, 6)
        if r.value is None or r.value >= 0.005:
            failures.append(f"n=100 hw={hw:g}: relative RMS {r.value} not below 0.5%")
    report(capsys, 7, not failures,
           failures or "degree-6 reduced models stay below 0.5% relative RMS")


def test_criterion_8_rom_accuracy_vdp(capsys):
    r = run_rom_cell(REFERENCE_TABLES["T4-rom-n2"], 1.0, 6)
    ok = r.passed and r.value is not None
    report(capsys, 8, ok,
           f"relative RMS {r.value:.4e} vs reference {r.reference:.4e} (factor 3)")


def _random_linear_problem(rng):
    n = int(rng.integers(2, 7))
    b = float(rng.uniform(0.5, 3.0))
    A = rng.normal(size=(n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
    B = rng.normal(size=(n, 1))
    Lrow = rng.normal(size=2)
    s_tables = [{(0, 1): b}, {(1, 0): -b}]
    l_tables = [{(1, 0): float(Lrow[0]), (0, 1): float(Lrow[1])}]
    f_tables = []
    for i in range(n):
        table = {}
        for j in range(n):
            exp = [0] * (n + 1)
            exp[j] = 1
            table[tuple(exp)] = float(A[i, j])
        expu = [0] * (n + 1)
        expu[n] = 1
        table[tuple(expu)] = float(B[i, 0])
        f_tables.append(table)
    h_exp = [0] * n
    h_exp[0] = 1
    gen = generator_from_tables(d=2, m=1, s_tables=s_tables, l_tables=l_tables)
    sys = system_from_tables(n=n, m=1, p=1, f_tables=f_tables,
                             h_tables=[{tuple(h_exp): 1.0}])
    prob = Problem(generator=gen, system=sys)
    S = np.array([[0.0, b], [-b, 0.0]])
    return prob, S, np.atleast_2d(Lrow), A, B


def test_criterion_9_sylvester_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    failures = []
    basis = generate_basis(2, 3)
    for trial in range(20):
        prob, S, L, A, B = _random_linear_problem(rng)
        Pi = solve_sylvester(S, L, A, B)
        ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
        sol = solve_invariance(prob, ops)
        C = sol.blocks()
        lin_err = np.abs(C[:, :2] - Pi).max() / max(np.abs(Pi).max(), 1e-30)
        high = np.abs(C[:, 2:]).max()
        if not (sol.converged and lin_err <= 1e-8 and high <= 1e-8):
            failures.append(f"trial {trial}: lin_err={lin_err:.2e} high={high:.2e}")
    report(capsys, 9, not failures,
           failures or "20 random linear problems match the vectorized linear-solve oracle")


def test_criterion_10_property_suite(capsys):
    failures = []

    # quadrature exactness up to degree 2q - 1
    for q in (3, 5, 8):
        x, w = gauss_legendre_1d(q)
        for e in range(2 * q):
            exact = 0.0 if e % 2 else 2.0 / (e + 1)
            if abs(w @ x**e - exact) > 1e-12:
                failures.append(f"quadrature q={q} degree {e}")

    # analytic vs finite-difference Jacobians on every built-in problem
    for make, M in ((make_test1, 2), (make_cart_pendulum, 2),
                    (lambda: make_rl_linear(3), 2), (lambda: make_rl_vdp(2), 3)):
        prob = make()
        basis = generate_basis(2, M)
        ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
        dim = prob.system.n * basis.size
        c = np.random.default_rng(1).normal(scale=0.2, size=dim)
        J = jacobian_JF(prob, ops, c)
        Jd = J.to_dense()
        h = 1e-6
        fd = np.empty_like(Jd)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            fd[:, j] = (residual_F(prob, ops, c + e) - residual_F(prob, ops, c - e)) / (2 * h)
        if np.abs(Jd - fd).max() > 1e-5 * max(np.abs(fd).max(), 1.0):
            failures.append(f"jacobian mismatch for {prob.system.n}-state problem M={M}")

    # structured fast path vs generic assembly
    for n, M, make in ((2, 2, make_rl_linear), (3, 3, make_rl_vdp), (4, 2, make_rl_linear)):
        chain_prob = make(n, kappa=1.1)
        generic_prob = make_generic_ladder(n, 1.1, chain_prob.generator)
        basis = generate_basis(2, M)
        dom = BoxDomain.cube(1.0, d=2)
        ops_c = assemble_operators(chain_prob, basis, dom)
        ops_g = assemble_operators(generic_prob, basis, dom)
        c = np.random.default_rng(n).normal(scale=0.3, size=n * basis.size)
        Fc, Fg = residual_F(chain_prob, ops_c, c), residual_F(generic_prob, ops_g, c)
        if np.linalg.norm(Fc - Fg) > 1e-10 * max(np.linalg.norm(Fg), 1.0):
            failures.append(f"path mismatch n={n} M={M}")

    # block-tridiagonal vs dense Newton step
    prob = make_rl_linear(4)
    basis = generate_basis(2, 3)
    ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
    rng = np.random.default_rng(3)
    c = rng.normal(scale=0.2, size=4 * basis.size)
    JF = jacobian_JF(prob, ops, c)
    F = rng.normal(size=4 * basis.size)
    d_block = newton_step(JF, F, "block_tridiagonal")
    d_dense = np.linalg.solve(JF.to_dense(), F)
    if np.linalg.norm(d_block - d_dense) > 1e-9 * np.linalg.norm(d_dense):
        failures.append("newton-step backend mismatch")

    # basis-count formula vs enumeration
    for d in range(1, 5):
        for M in range(1, 9):
            if basis_count(d, M) != generate_basis(d, M).size:
                failures.append(f"basis count d={d} M={M}")

    # coefficient file round-trip is bit-exact
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        c = np.random.default_rng(4).normal(size=2 * 5)
        path = Path(tmp) / "c.txt"
        write_coefficients(path, c, n=2, d=2, M=2,
                           domain=BoxDomain.cube(1.0, d=2), fingerprint="t")
        if not np.array_equal(read_coefficients(path)["c"], c):
            failures.append("coefficient round-trip not bit-exact")

    report(capsys, 10, not failures, failures or "all property suites satisfied")
