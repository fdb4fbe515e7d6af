"""Tests for Galerkin operator assembly, residual, and Jacobian."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmrom import assembly
from mmrom.assembly import (
    assemble_operators,
    check_solve_size,
    default_quadrature_order,
    jacobian_JF,
    residual_F,
)
from mmrom.basis import basis_count, eval_basis, generate_basis
from mmrom.bench import REFERENCE_TABLES, make_benchmark_problem
from mmrom.linear import MAX_DENSE_BYTES
from mmrom.problems import (
    Problem,
    generator_from_tables,
    make_cart_pendulum,
    make_linear_oscillator,
    make_rl_linear,
    make_rl_vdp,
    make_test1,
    make_van_der_pol,
    system_from_tables,
)
from mmrom.quadrature import BoxDomain

from oracles import exact_test1_coefficients, monomial_integral_tables


def make_generic_ladder(n, kappa, generator):
    """Ladder dynamics expressed as explicit coefficient tables: the table
    twin of the make_rl_ladder closure, used to cross-check the two."""
    f_tables = []
    for i in range(n):
        table = {}
        for j in range(n):
            t = -2.0 * kappa if i == j else (1.0 if abs(i - j) == 1 else 0.0)
            if t != 0.0:
                exp = [0] * (n + 1)
                exp[j] = 1
                table[tuple(exp)] = t
        exp2 = [0] * (n + 1)
        exp2[i] = 2
        table[tuple(exp2)] = -0.5
        exp3 = [0] * (n + 1)
        exp3[i] = 3
        table[tuple(exp3)] = -1.0 / 3.0
        if i == 0:
            expu = [0] * (n + 1)
            expu[n] = 1
            table[tuple(expu)] = 1.0
        f_tables.append(table)
    h_exp = [0] * n
    h_exp[0] = 1
    sys = system_from_tables(n=n, m=1, p=1, f_tables=f_tables,
                             h_tables=[{tuple(h_exp): 1.0}])
    return Problem(generator=generator, system=sys)


def _exact_integrals(domain, exponent_sums):
    """Exact box integrals of the monomials whose exponents are the last axis."""
    table = monomial_integral_tables(domain, int(exponent_sums.max()))
    return np.prod(table[exponent_sums, np.arange(exponent_sums.shape[-1])], axis=-1)


def test_every_published_cell_has_sixteenfold_headroom_in_the_budget():
    # sizes only, nothing allocated: every table cell (a timing row solves M = 6) and
    # generic_m10's generic ladder at n = 20, M = 10 stay far from a refusal
    cells = {(spec["problem"], n, M)
             for spec in REFERENCE_TABLES.values()
             for n in spec.get("dims", (spec.get("n"),))
             for M in spec.get("degrees", (6,))}
    sizes = {cell: check_solve_size(make_benchmark_problem(*cell[:2]), 2, cell[2])
             for cell in cells}
    sizes["generic_m10"] = check_solve_size(
        make_generic_ladder(20, 1.1, make_linear_oscillator()), 2, 10)
    assert len(sizes) == 25  # test1, cart_pendulum and the two ladders at three n each
    over = {cell: size for cell, size in sizes.items() if size >= MAX_DENSE_BYTES / 16}
    assert not over


def test_size_rule_tracks_the_measured_assembly_peak():
    # the rule counts the arrays assemble_operators holds at its peak (plus a small
    # banded Jacobian here), so tracemalloc's peak of a second assembly, whose cached
    # bases and product index are built, lies close below it
    prob, M = make_test1(), 16
    basis, domain = generate_basis(2, M), BoxDomain.cube(1.0, d=2)
    assemble_operators(prob, basis, domain)
    tracemalloc.start()
    try:
        assemble_operators(prob, basis, domain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.8 * peak < check_solve_size(prob, 2, M) < 1.5 * peak


def test_default_quadrature_order():
    assert default_quadrature_order(make_test1(), 2) == 10
    assert default_quadrature_order(make_test1(), 6) == 13
    assert default_quadrature_order(make_rl_linear(2), 6) == 13
    assert default_quadrature_order(make_cart_pendulum(), 6) == 32


def test_default_quadrature_exact_for_quintic_dynamics(monkeypatch):
    # test1 plus -0.2 x_i^5: phi * f(pi^N) reaches degree 6 + 5 * 6 at M = 6
    prob = make_test1(2.0)
    f_tables = [
        {(1, 0, 0): -1.0, (0, 0, 1): 1.0, (5, 0, 0): -0.2},
        {(0, 1, 0): -1.0, (1, 0, 1): 1.0, (0, 5, 0): -0.2},
    ]
    sys = system_from_tables(n=2, m=1, p=1, f_tables=f_tables, h_tables=[{(1, 0): 1.0}])
    quintic = Problem(generator=prob.generator, system=sys)
    basis = generate_basis(2, 6)
    dom = BoxDomain.cube(1.0, d=2)
    c = np.random.default_rng(0).normal(scale=0.3, size=2 * basis.size)
    F = residual_F(quintic, assemble_operators(quintic, basis, dom), c)
    monkeypatch.setattr(assembly, "default_quadrature_order", lambda problem, M: 60)
    F_ref = residual_F(quintic, assemble_operators(quintic, basis, dom), c)
    assert np.linalg.norm(F - F_ref) <= 1e-12 * np.linalg.norm(F_ref)


def test_mass_matrix_1d_hand_values():
    basis = generate_basis(1, 2)
    dom = BoxDomain(lo=[-1.0], hi=[1.0])
    gen = generator_from_tables(d=1, m=1, s_tables=[{(1,): -1.0}], l_tables=[{(1,): 1.0}])
    sys = system_from_tables(n=1, m=1, p=1,
                             f_tables=[{(1, 0): -1.0, (0, 1): 1.0}],
                             h_tables=[{(1,): 1.0}])
    ops = assemble_operators(Problem(generator=gen, system=sys), basis, dom)
    # basis (w, w^2) on [-1, 1]: entries are 1-D monomial integrals
    mass = ops.product_moments[:, ops.product_index].sum(axis=0).reshape(2, 2)
    assert np.allclose(mass, [[2.0 / 3.0, 0.0], [0.0, 2.0 / 5.0]], atol=1e-14)


def _scalar_problem(d):
    """x' = -x + u driven by the rotation-free generator s = -w, l = w_1."""
    gen = generator_from_tables(
        d=d, m=1,
        s_tables=[{tuple(int(i == k) for i in range(d)): -1.0} for k in range(d)],
        l_tables=[{tuple(int(i == 0) for i in range(d)): 1.0}],
    )
    sys = system_from_tables(n=1, m=1, p=1, f_tables=[{(1, 0): -1.0, (0, 1): 1.0}],
                             h_tables=[{(1,): 1.0}])
    return Problem(generator=gen, system=sys)


@pytest.mark.parametrize("d,M", [(1, 5), (2, 4), (3, 3)])
def test_product_moments_gather_the_basis_products(d, M):
    basis = generate_basis(d, M)
    dom = BoxDomain(lo=[-1.0, -0.5, -2.0][:d], hi=[1.5, 1.0, 0.5][:d])
    ops = assemble_operators(_scalar_problem(d), basis, dom)
    # one column per monomial of degree 1..2M, not one per pair
    assert ops.product_moments.shape == (ops.rule.weights.size, basis_count(d, 2 * M))
    assert ops.product_index.shape == (basis.size ** 2,)
    B = ops.basis_values
    assert np.array_equal(B, eval_basis(basis, ops.rule.nodes))
    WB = B * ops.rule.weights[:, None]
    explicit = (WB[:, :, None] * B[:, None, :]).reshape(-1, basis.size ** 2)
    gathered = ops.product_moments[:, ops.product_index]
    assert np.all(np.abs(gathered - explicit) <= 1e-15 * np.abs(explicit))


def test_advection_matrix_hand_values():
    # generator s = (a w2, -a w1), degree-1 basis (w1, w2) on [-1, 1]^2
    a = 2.0
    prob = make_test1(a)
    basis = generate_basis(2, 1)
    ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
    assert np.allclose(ops.A, [[0.0, -4.0 * a / 3.0], [4.0 * a / 3.0, 0.0]], atol=1e-13)


def test_gamma_hand_values():
    # f(0, u) = (u, 0), so F(0) is minus the projection of l(w) = w1, which
    # is nonzero for the first basis function only
    prob = make_test1(2.0)
    basis = generate_basis(2, 2)
    ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
    F0 = residual_F(prob, ops, np.zeros(2 * basis.size)).reshape(2, basis.size)
    assert np.allclose(F0[0], [-4.0 / 3.0, 0.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(F0[1], 0.0, atol=1e-14)


def _exact_advection(generator, basis, domain):
    """A[a, b] = int phi_a (grad phi_b . s) over the box, in closed form from
    the coefficient tables of a polynomial generator."""
    E = basis.exponents
    A = np.zeros((basis.size, basis.size))
    for k in range(basis.d):
        dE = E.copy()
        dE[:, k] = np.maximum(dE[:, k] - 1, 0)
        for exps, coef in generator.sl.tables[k].items():
            sums = E[:, None, :] + (dE + np.array(exps))[None, :, :]
            A += coef * E[None, :, k] * _exact_integrals(domain, sums)
    return A


def test_quadrature_assembly_agrees_with_exact():
    # the advection matrix at the default rule equals its closed form
    basis = generate_basis(2, 3)
    dom = BoxDomain.cube(1.5, d=2)
    for prob in (make_rl_linear(2), make_rl_vdp(2)):
        ops = assemble_operators(prob, basis, dom)
        exact = _exact_advection(prob.generator, basis, dom)
        assert np.allclose(ops.A, exact, rtol=1e-12, atol=1e-12)


def test_default_quadrature_exact_for_high_degree_generator():
    # s_2 = -2 w1 + 0.5 w1^17: phi_a grad phi_b . s reaches degree 2M - 1 + 17,
    # beyond what the dynamics alone ask of the rule
    gen = generator_from_tables(
        d=2, m=1,
        s_tables=[{(0, 1): 1.0}, {(1, 0): -2.0, (17, 0): 0.5}],
        l_tables=[{(1, 0): 1.0}],
    )
    sys = system_from_tables(n=1, m=1, p=1,
                             f_tables=[{(1, 0): -1.0, (0, 1): 1.0}],
                             h_tables=[{(1,): 1.0}])
    prob = Problem(generator=gen, system=sys)
    basis = generate_basis(2, 2)
    dom = BoxDomain(lo=[-1.0, -0.5], hi=[1.5, 1.0])
    assert default_quadrature_order(prob, 2) == 11
    A = assemble_operators(prob, basis, dom).A
    exact = _exact_advection(gen, basis, dom)
    assert np.linalg.norm(A - exact) <= 1e-12 * np.linalg.norm(exact)


def test_triple_tensor_hand_values():
    # the default rule at M = 6 integrates every triple and quadruple basis
    # product exactly (degree 4M); the cubic ladder needs no more
    prob = make_rl_linear(2)
    basis = generate_basis(2, 6)
    dom = BoxDomain.cube(1.0, d=2)
    ops = assemble_operators(prob, basis, dom)
    N, E = basis.size, basis.exponents
    B, BB = ops.basis_values, ops.product_moments[:, ops.product_index]
    triple = (BB.T @ B).reshape(N, N, N)
    quad = (BB.T @ (B[:, :, None] * B[:, None, :]).reshape(-1, N * N)).reshape(N, N, N, N)
    exact3 = _exact_integrals(dom, E[:, None, None, :] + E[None, :, None, :] + E[None, None, :, :])
    exact4 = _exact_integrals(dom, E[:, None, None, None, :] + E[None, :, None, None, :]
                              + E[None, None, :, None, :] + E[None, None, None, :, :])
    assert np.allclose(triple, exact3, rtol=0, atol=1e-14)
    assert np.allclose(quad, exact4, rtol=0, atol=1e-14)
    # basis order starts (w1, w2, w1^2, w1 w2, w2^2)
    assert np.isclose(triple[0, 0, 2], 4.0 / 5.0)  # int w1^4
    assert np.isclose(triple[0, 1, 3], 4.0 / 9.0)  # int w1^2 w2^2
    assert np.isclose(quad[0, 0, 0, 0], 4.0 / 5.0)  # int w1^4


def test_exact_test1_coefficients_have_zero_residual():
    prob = make_test1(2.0)
    basis = generate_basis(2, 2)
    ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
    c = exact_test1_coefficients(basis, 2.0).ravel()
    assert np.linalg.norm(residual_F(prob, ops, c), 1) < 1e-12


@pytest.mark.parametrize("n,M", [(2, 2), (3, 2), (4, 3), (2, 3)])
@pytest.mark.parametrize("kind", ["linear", "vdp"])
def test_chain_path_matches_generic_path(n, M, kind):
    kappa = 1.1
    if kind == "linear":
        chain_prob = make_rl_linear(n, a=2.0, kappa=kappa)
    else:
        chain_prob = make_rl_vdp(n, mu=0.25, kappa=kappa)
    generic_prob = make_generic_ladder(n, kappa, chain_prob.generator)
    basis = generate_basis(2, M)
    dom = BoxDomain.cube(1.0, d=2)
    ops_chain = assemble_operators(chain_prob, basis, dom)
    ops_generic = assemble_operators(generic_prob, basis, dom)

    rng = np.random.default_rng(5)
    c = rng.normal(scale=0.3, size=n * basis.size)
    F_chain = residual_F(chain_prob, ops_chain, c)
    F_generic = residual_F(generic_prob, ops_generic, c)
    scale = np.linalg.norm(F_generic)
    assert np.linalg.norm(F_chain - F_generic) <= 1e-10 * max(scale, 1.0)

    J_chain = jacobian_JF(chain_prob, ops_chain, c)
    J_generic = jacobian_JF(generic_prob, ops_generic, c)
    assert J_chain.nblocks == J_generic.nblocks == n
    Jc, Jg = J_chain.to_dense(), J_generic.to_dense()
    jscale = np.linalg.norm(Jg)
    assert np.linalg.norm(Jc - Jg) <= 1e-10 * max(jscale, 1.0)


@pytest.mark.parametrize("make,M", [
    (lambda: make_test1(2.0), 2),
    (lambda: make_cart_pendulum(), 2),
    (lambda: make_rl_linear(3), 2),
    (lambda: make_rl_vdp(2), 3),
])
def test_jacobian_matches_finite_differences(make, M):
    prob = make()
    basis = generate_basis(2, M)
    dom = BoxDomain.cube(1.0, d=2)
    ops = assemble_operators(prob, basis, dom)
    n, N = prob.system.n, basis.size
    rng = np.random.default_rng(11)
    c = rng.normal(scale=0.2, size=n * N)
    Jd = jacobian_JF(prob, ops, c).to_dense()
    h = 1e-6
    fd = np.empty_like(Jd)
    for j in range(n * N):
        e = np.zeros(n * N)
        e[j] = h
        fd[:, j] = (residual_F(prob, ops, c + e) - residual_F(prob, ops, c - e)) / (2 * h)
    scale = max(np.abs(fd).max(), 1.0)
    assert np.abs(Jd - fd).max() <= 1e-5 * scale


def test_linear_problem_residual_is_affine():
    # with a purely linear system, F(c) is affine and JF is constant
    gen = make_test1(2.0).generator
    sys = system_from_tables(
        n=2, m=1, p=1,
        f_tables=[{(1, 0, 0): -1.0, (0, 0, 1): 1.0},
                  {(0, 1, 0): -2.0, (0, 0, 1): 0.5}],
        h_tables=[{(1, 0): 1.0}],
    )
    prob = Problem(generator=gen, system=sys)
    basis = generate_basis(2, 2)
    ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
    rng = np.random.default_rng(2)
    c1 = rng.normal(size=2 * basis.size)
    c2 = rng.normal(size=2 * basis.size)
    J1, J2 = jacobian_JF(prob, ops, c1).to_dense(), jacobian_JF(prob, ops, c2).to_dense()
    assert np.allclose(J1, J2, atol=1e-12)
    # affine consistency: F(c2) - F(c1) = J (c2 - c1)
    dF = residual_F(prob, ops, c2) - residual_F(prob, ops, c1)
    assert np.allclose(dF, J1 @ (c2 - c1), rtol=1e-10, atol=1e-10)


def test_chain_operators_consistency():
    prob = make_rl_linear(3)
    basis = generate_basis(2, 2)
    dom = BoxDomain.cube(1.0, d=2)
    ops = assemble_operators(prob, basis, dom)
    N, E = basis.size, basis.exponents
    rng = np.random.default_rng(9)
    v = rng.normal(size=N)
    c = np.concatenate([v, np.zeros(2 * N)])
    J = jacobian_JF(prob, ops, c)
    # df_i/dx_{i+-1} = 1, so every coupling block is minus the exact mass matrix
    mass = _exact_integrals(dom, E[:, None, :] + E[None, :, :])
    assert np.allclose(J.sub, -mass, rtol=0, atol=1e-14)
    assert np.allclose(J.sup, -mass, rtol=0, atol=1e-14)
    # the diagonal block less the advection matrix is symmetric
    assert np.allclose(J.diag[0] - ops.A, (J.diag[0] - ops.A).T, atol=1e-13)
    # and it is the derivative of the first residual block along the first block
    h = 1e-7
    w = np.concatenate([rng.normal(size=N), np.zeros(2 * N)])
    dF = (residual_F(prob, ops, c + h * w) - residual_F(prob, ops, c - h * w)) / (2 * h)
    assert np.allclose(J.diag[0] @ w[:N], dF[:N], rtol=1e-6, atol=1e-7)
    assert np.allclose(J.sub[0] @ w[:N], dF[N:2 * N], rtol=1e-6, atol=1e-7)


def _random_sparse_system(rng, n, degree):
    """Random polynomial tables over (x, u): each component has 1-4 terms
    of total degree 1..degree with coefficients of magnitude 0.5-2."""
    f_tables = []
    for _ in range(n):
        table = {}
        for _ in range(int(rng.integers(1, 5))):
            exp = [0] * (n + 1)
            for _ in range(int(rng.integers(1, degree + 1))):
                exp[int(rng.integers(0, n + 1))] += 1
            table[tuple(exp)] = float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0))
        f_tables.append(table)
    h_exp = [0] * n
    h_exp[0] = 1
    return system_from_tables(n=n, m=1, p=1, f_tables=f_tables, h_tables=[{tuple(h_exp): 1.0}])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), degree=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_jacobian_pattern_and_JF_on_random_sparse_tables(n, degree, seed):
    rng = np.random.default_rng(seed)
    sys = _random_sparse_system(rng, n, degree)
    rows, cols = sys.jacobian_pattern

    # the derived pattern is the nonzero set of a finite-difference df/dx
    x = rng.choice([-1, 1], size=n) * rng.uniform(0.3, 1.0, size=n)
    u = np.array([0.7])
    h = 1e-6
    fd = np.column_stack([(sys.f(x + h * e, u) - sys.f(x - h * e, u)) / (2 * h) for e in np.eye(n)])
    dense = np.zeros((n, n))
    dense[rows, cols] = sys.f_jacobian_x(x, u)
    assert set(zip(rows.tolist(), cols.tolist())) == set(zip(*np.nonzero(np.abs(fd) > 1e-7)))
    assert np.allclose(dense, fd, rtol=1e-6, atol=1e-7)

    # JF matches central differences of F, and its block count follows the band
    prob = Problem(generator=make_test1(2.0).generator, system=sys)
    basis = generate_basis(2, 2)
    ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
    dim = n * basis.size
    c = rng.normal(scale=0.2, size=dim)
    J = jacobian_JF(prob, ops, c)
    assert J.nblocks == (n if np.all(np.abs(rows - cols) <= 1) else 1)
    fdJ = np.column_stack([(residual_F(prob, ops, c + h * e) - residual_F(prob, ops, c - h * e))
                           / (2 * h) for e in np.eye(dim)])
    assert np.abs(J.to_dense() - fdJ).max() <= 1e-5 * max(np.abs(fdJ).max(), 1.0)


def _dense_reference(prob, ops, c):
    """-(W B)^T df_i/dx_j B for every block (i, j), plus A on the diagonal,
    from the full df/dx at the nodes."""
    n, N = prob.system.n, ops.size
    rows, cols = prob.system.jacobian_pattern
    X = ops.basis_values @ c.reshape(n, N).T
    dfdx = np.zeros((X.shape[0], n, n))
    dfdx[:, rows, cols] = prob.system.f_jacobian_x(X, ops.l_values)
    WB = ops.basis_values * ops.rule.weights[:, None]
    ref = -np.einsum("ka,kij,kb->iajb", WB, dfdx, ops.basis_values)
    ref[np.arange(n), :, np.arange(n), :] += ops.A
    return ref.reshape(n * N, n * N)


def test_ladder_jacobian_shares_constant_bands():
    prob = make_rl_vdp(5)
    n = prob.system.n
    basis = generate_basis(2, 3)
    ops = assemble_operators(prob, basis, BoxDomain.cube(2.0, d=2))
    N = basis.size
    c = np.random.default_rng(4).normal(scale=0.3, size=n * N)
    J = jacobian_JF(prob, ops, c)
    # the unit couplings are one contracted block, seen through a stride-0 view
    assert J.sub.strides[0] == 0 and J.sup.strides[0] == 0
    assert J.diag.strides[0] != 0
    ref = _dense_reference(prob, ops, c)
    assert np.allclose(J.to_dense(), ref, rtol=0, atol=1e-13 * np.abs(ref).max())


def test_cart_pendulum_dense_jacobian_matches_reference():
    # the cart pendulum couples beyond the first off-diagonal: one dense block
    prob = make_cart_pendulum()
    n = prob.system.n
    basis = generate_basis(2, 4)
    ops = assemble_operators(prob, basis, BoxDomain.cube(1.0, d=2))
    c = np.random.default_rng(6).normal(scale=0.3, size=n * basis.size)
    J = jacobian_JF(prob, ops, c)
    assert J.nblocks == 1
    ref = _dense_reference(prob, ops, c)
    assert np.allclose(J.to_dense(), ref, rtol=0, atol=1e-13 * np.abs(ref).max())
