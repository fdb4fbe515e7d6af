"""Tests for problem definitions, polynomial maps, and assumption checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmrom.basis import generate_basis
from mmrom.problems import (
    PolyMap,
    Problem,
    check_assumptions,
    linearize,
    make_cart_pendulum,
    make_linear_oscillator,
    make_rl_ladder,
    make_rl_linear,
    make_rl_vdp,
    make_test1,
    make_van_der_pol,
)
from mmrom.residuals import residual_at

from oracles import exact_cart_pendulum_coefficients, exact_test1_coefficients


def _dense_fx(sys, x, u):
    """df/dx at one point, scattered from the values on the pattern."""
    out = np.zeros((sys.n, sys.n))
    out[sys.jacobian_pattern] = sys.f_jacobian_x(x, u)
    return out


def _fd_jacobian(fn, z, h=1e-6):
    z = np.asarray(z, dtype=float)
    f0 = np.atleast_1d(fn(z))
    J = np.empty((f0.size, z.size))
    for j in range(z.size):
        e = np.zeros_like(z)
        e[j] = h
        J[:, j] = (np.atleast_1d(fn(z + e)) - np.atleast_1d(fn(z - e))) / (2 * h)
    return J


class TestPolyMap:
    def test_evaluation(self):
        # p1 = 2 x - 3 y^2, p2 = x y
        pm = PolyMap([{(1, 0): 2.0, (0, 2): -3.0}, {(1, 1): 1.0}], nvars=2)
        assert np.allclose(pm([1.0, 2.0]), [2.0 - 12.0, 2.0])
        pts = np.array([[1.0, 2.0], [0.5, -1.0]])
        vals = pm(pts)
        assert vals.shape == (2, 2)
        assert np.allclose(vals[1], [1.0 - 3.0, -0.5])

    def test_jacobian_matches_finite_differences(self):
        pm = PolyMap([{(2, 1): 1.5, (0, 3): -1.0}, {(1, 0): 4.0}], nvars=2)
        z = np.array([0.7, -0.4])
        assert np.allclose(pm.jacobian(z), _fd_jacobian(pm, z), rtol=1e-7, atol=1e-8)

    def test_max_degree(self):
        pm = PolyMap([{(2, 1): 1.0}, {(0, 4): 1.0}], nvars=2)
        assert pm.max_degree() == 4


def _random_table(rng, kind: str, nvars: int, degree: int) -> dict:
    if kind == "zero":
        return {} if rng.random() < 0.5 else {(0,) * nvars: 0.0}
    if kind == "constant":
        return {(0,) * nvars: float(rng.normal())}
    table = {}
    for _ in range(int(rng.integers(1, 6))):
        exp = [0] * nvars
        for _ in range(1 if kind == "linear" else int(rng.integers(0, degree + 1))):
            exp[int(rng.integers(0, nvars))] += 1
        table[tuple(exp)] = float(rng.normal())
    return table


def _dense_polynomial(table: dict, nvars: int, z: np.ndarray, j: int | None = None) -> np.ndarray:
    """Dense reference prod(z ** E) @ c, or its derivative in z_j."""
    if not table:
        return np.zeros(z.shape[:-1])
    E = np.array(list(table), dtype=np.int64).reshape(len(table), nvars)
    c = np.array(list(table.values()))
    if j is not None:
        c = c * E[:, j]
        E = E.copy()
        E[:, j] = np.maximum(E[:, j] - 1, 0)
    return np.prod(z[..., None, :] ** E, -1) @ c


@settings(max_examples=40, deadline=None)
@given(nvars=st.integers(1, 4), degree=st.integers(1, 4),
       kinds=st.lists(st.sampled_from(["zero", "constant", "linear", "general"]), min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_polymap_matches_dense_reference(nvars, degree, kinds, seed):
    rng = np.random.default_rng(seed)
    tables = [_random_table(rng, kind, nvars, degree) for kind in kinds]
    pm = PolyMap(tables, nvars)
    rows, cols = np.divmod(np.arange(len(tables) * nvars), nvars)
    for shape in ((), (5,), (2, 3)):
        z = rng.uniform(-1.5, 1.5, size=shape + (nvars,))
        values = pm(z)
        partials = pm.partials(z, rows, cols)
        assert values.shape == shape + (len(tables),)
        assert partials.shape == shape + (len(rows),)
        for i, table in enumerate(tables):
            assert np.allclose(values[..., i], _dense_polynomial(table, nvars, z), rtol=1e-13, atol=1e-13)
        for k, (i, j) in enumerate(zip(rows, cols)):
            assert np.allclose(partials[..., k], _dense_polynomial(tables[i], nvars, z, j),
                               rtol=1e-13, atol=1e-13)
    # the partials are the derivatives of the map
    z = rng.uniform(-1.5, 1.5, size=nvars)
    fd = _fd_jacobian(pm, z)
    assert np.allclose(pm.partials(z, rows, cols).reshape(len(tables), nvars), fd, rtol=1e-6, atol=1e-7)


class TestTest1:
    def test_exact_pi_satisfies_invariance_pde(self):
        a = 2.0
        prob = make_test1(a)
        basis = generate_basis(2, 3)
        C = exact_test1_coefficients(basis, a)
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.uniform(-1, 1, size=2)
            assert np.allclose(residual_at(prob, basis, C, w), 0.0, atol=1e-13)

    def test_linear_part_closed_form(self):
        basis = generate_basis(2, 2)
        C = exact_test1_coefficients(basis, 2.0)
        assert np.isclose(C[0, 0], 0.2)
        assert np.isclose(C[0, 1], -0.4)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            make_test1(a=0.0)


class TestCartPendulum:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_cart_pendulum(a1=-1.0)
        with pytest.raises(ValueError):
            make_cart_pendulum(k=0.0)  # requires k < -1/a2

    def test_generator_jacobians(self):
        gen = make_cart_pendulum().generator
        for w in (np.array([0.4, -0.2]), np.zeros(2)):
            J = gen.sl_jacobian(w)
            assert J.shape == (gen.d + gen.m, gen.d)
            assert np.allclose(J, _fd_jacobian(gen.sl, w), rtol=1e-6, atol=1e-7)

    def test_system_jacobians(self):
        prob = make_cart_pendulum()
        sys = prob.system
        x = np.array([0.3, -0.1, 0.2, 0.5])
        u = np.array([0.7])
        assert np.allclose(
            _dense_fx(sys, x, u), _fd_jacobian(lambda z: sys.f(z, u), x),
            rtol=1e-6, atol=1e-7,
        )

    def test_exact_solution_structure(self):
        # the invariant mapping is (w1, k w1, w2, k w2)
        k = -2.0 / 3.0
        prob = make_cart_pendulum(k=k)
        basis = generate_basis(2, 2)
        C = exact_cart_pendulum_coefficients(basis, k)
        pi = lambda w: C @ np.array([w[0], w[1], w[0] ** 2, w[0] * w[1], w[1] ** 2])
        for w in ([0.2, 0.3], [-0.6, 0.1]):
            w = np.asarray(w)
            h = 1e-6
            dpi = np.column_stack([
                (pi(w + h * np.eye(2)[j]) - pi(w - h * np.eye(2)[j])) / (2 * h)
                for j in range(2)
            ])
            sl = prob.generator.sl(w)
            lhs = dpi @ sl[:2]
            rhs = prob.system.f(pi(w), sl[2:])
            assert np.allclose(lhs, rhs, atol=1e-7)


class TestLadder:
    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            make_rl_ladder(1)

    def test_dynamics_hand_value(self):
        sys = make_rl_ladder(3, kappa=1.1)
        x = np.array([1.0, -1.0, 0.5])
        u = 2.0
        # tridiagonal part + cubic local term + input on the first node
        expected = np.array([
            -2.2 * 1.0 + (-1.0) - (0.5 + 1.0 / 3.0) + 2.0,
            1.0 - 2.2 * (-1.0) + 0.5 - (0.5 - 1.0 / 3.0),
            -1.0 - 2.2 * 0.5 - (0.125 + 0.125 / 3.0),
        ])
        assert np.allclose(sys.f(x, u), expected, rtol=1e-13)
        assert np.allclose(sys.h(x), [1.0])

    def test_jacobians(self):
        sys = make_rl_ladder(4)
        x = np.array([0.3, -0.2, 0.1, 0.4])
        u = np.array([0.5])
        assert np.allclose(
            _dense_fx(sys, x, u), _fd_jacobian(lambda z: sys.f(z, u), x),
            rtol=1e-6, atol=1e-7,
        )

    @pytest.mark.parametrize("n", [2, 5])
    def test_coupling_matrix_matches_diag_construction(self, n):
        kappa = 1.1
        T = np.diag(-2.0 * kappa * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        sys = make_rl_ladder(n, kappa)
        eye = np.eye(n)
        assert np.array_equal(sys.f(eye, np.zeros((n, 1))), T - (eye * eye / 2.0 + eye * eye * eye / 3.0))
        assert np.array_equal(_dense_fx(sys, np.zeros(n), np.zeros(1)), T)

    @pytest.mark.parametrize("n", [2, 5, 1000])
    def test_dynamics_match_dense_coupling_matrix(self, n):
        kappa = 1.1
        T = np.diag(-2.0 * kappa * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        b = np.eye(n)[0]
        sys = make_rl_ladder(n, kappa)
        rng = np.random.default_rng(n)
        X = rng.uniform(-2.0, 2.0, size=(2, 3, n))
        U = rng.uniform(-1.0, 1.0, size=(2, 3, 1))

        def reference(x, u):
            return x @ T - (x * x / 2.0 + x * x * x / 3.0) + b * u[..., :1]

        # the sums run in another order than the matrix product: a few ulp
        assert np.allclose(sys.f(X, U), reference(X, U), rtol=1e-14, atol=1e-13)
        for idx in np.ndindex(2, 3):
            assert np.allclose(sys.f(X[idx], U[idx]), reference(X[idx], U[idx]),
                               rtol=1e-14, atol=1e-13)

    def test_jacobian_pattern_is_tridiagonal(self):
        for sys in (make_rl_ladder(2), make_rl_linear(3).system, make_rl_vdp(5).system):
            rows, cols = sys.jacobian_pattern
            tridiagonal = np.abs(np.subtract.outer(np.arange(sys.n), np.arange(sys.n))) <= 1
            assert set(zip(rows.tolist(), cols.tolist())) == set(zip(*np.nonzero(tridiagonal)))
            assert sys.degree == 3


class TestGenerators:
    def test_linear_oscillator_field(self):
        gen = make_linear_oscillator(2.0)
        w = np.array([0.5, -0.25])
        assert np.allclose(gen.sl(w), [-0.5, -1.0, -0.25])

    def test_van_der_pol_field(self):
        gen = make_van_der_pol(0.25)
        w = np.array([0.5, 2.0])
        # (w2, -w1 + mu (1 - w1^2) w2)
        assert np.allclose(gen.sl(w), [2.0, -0.5 + 0.25 * (1 - 0.25) * 2.0, 2.0])
        with pytest.raises(ValueError):
            make_van_der_pol(0.0)


def _separate_s_l(gen):
    """s and l as two maps: PolyMaps over the s and the l tables of a table
    generator, the expressions of the cart pendulum (default parameters)
    otherwise."""
    if isinstance(gen.sl, PolyMap):
        return PolyMap(gen.sl.tables[:gen.d], gen.d), PolyMap(gen.sl.tables[gen.d:], gen.d)
    a1, a2, k = 2.0, 3.0, -2.0 / 3.0

    def s(omega):
        w1, w2 = np.moveaxis(np.asarray(omega, dtype=float), -1, 0)
        return np.stack([w2, a1 * np.sin(w1) / (1.0 + k * a2 * np.cos(w1))], axis=-1)

    def l(omega):
        w1 = np.asarray(omega, dtype=float)[..., 0]
        return (k * a1 * np.sin(w1) / (1.0 + k * a2 * np.cos(w1)))[..., None]

    return s, l


@pytest.mark.parametrize("make", [make_test1, make_cart_pendulum, lambda: make_rl_vdp(2)])
def test_fused_generator_call_stacks_s_and_l(make):
    """sl is bit-identical to s and l evaluated apart, at one point and in batches."""
    gen = make().generator
    s, l = _separate_s_l(gen)
    W = np.random.default_rng(7).uniform(-0.8, 0.8, size=(2, 3, gen.d))
    for w in (W, W[0], W[0, 0]):
        assert np.array_equal(gen.sl(w), np.concatenate([s(w), l(w)], axis=-1))


@pytest.mark.parametrize("make", [make_test1, make_cart_pendulum,
                                  lambda: make_rl_linear(3), lambda: make_rl_vdp(2)])
def test_batched_evaluation_matches_pointwise(make):
    prob = make()
    gen, sys = prob.generator, prob.system
    rng = np.random.default_rng(6)
    W = rng.uniform(-0.8, 0.8, size=(2, 3, gen.d))
    X = rng.uniform(-0.8, 0.8, size=(2, 3, sys.n))
    U = gen.sl(W)[..., gen.d:]
    assert U.shape == (2, 3, sys.m)
    for name, fn, args in (("sl", gen.sl, (W,)),
                           ("f", sys.f, (X, U)), ("f_jacobian_x", sys.f_jacobian_x, (X, U)),
                           ("h", sys.h, (X,))):
        batched = fn(*args)
        for idx in np.ndindex(2, 3):
            point = fn(*(a[idx] for a in args))
            assert np.allclose(batched[idx], point, rtol=1e-14, atol=1e-15), name


def test_problem_input_dimension_mismatch_rejected():
    from mmrom.problems import system_from_tables

    gen = make_linear_oscillator(2.0)  # single-output generator
    two_input_sys = system_from_tables(
        n=2, m=2, p=1,
        f_tables=[{(1, 0, 0, 0): -1.0, (0, 0, 1, 0): 1.0},
                  {(0, 1, 0, 0): -1.0, (0, 0, 0, 1): 1.0}],
        h_tables=[{(1, 0): 1.0}],
    )
    with pytest.raises(ValueError):
        Problem(generator=gen, system=two_input_sys)


def test_linearize_test1():
    S, L, A = linearize(make_test1(2.0))
    assert np.allclose(S, [[0.0, 2.0], [-2.0, 0.0]])
    assert np.allclose(L, [[1.0, 0.0]])
    assert np.allclose(A, -np.eye(2))


def test_check_assumptions_builtin_problems():
    rep = check_assumptions(make_test1())
    assert rep["A1_necessary"] and rep["A2"]

    rep = check_assumptions(make_rl_linear(3))
    assert rep["A1_necessary"] and rep["A2"]

    # the Van der Pol generator is persistent on a limit cycle, not around
    # the equilibrium, so the linearized necessary condition fails by design
    rep = check_assumptions(make_rl_vdp(3))
    assert not rep["A1_necessary"]
    assert rep["A2"]

    rep = check_assumptions(make_cart_pendulum())
    assert rep["A2"] is False or rep["A2"] is True  # report always well-formed
    assert "generator_eigenvalues" in rep["details"]
