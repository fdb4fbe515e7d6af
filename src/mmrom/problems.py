"""Problem data: signal generators, full-order systems, and built-in benchmarks.

A problem couples an autonomous signal generator (s, l) with a full-order
system (f, h) through u = l(omega).  Polynomial maps can be given as
coefficient tables (exponent multi-index -> coefficient, per component);
transcendental dynamics are provided through the built-in constructors.

A generator states one map ``sl``, s and l stacked as (..., d + m) over
(..., d), and its (d + m, d) Jacobian ``sl_jacobian`` at one point.  f and h
accept batched inputs (..., n) with (..., m), and (..., n).  A system also
states the structural nonzeros of df/dx (``jacobian_pattern``), with
``f_jacobian_x`` returning the values on them, and the polynomial degree of
f in (x, u) (``degree``, None for non-polynomial f).  A generator states the
largest polynomial degree of s and l the same way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _sparse_terms(table: dict) -> list:
    """Terms (coef, ((j, e), ...)) of a coefficient table, in sorted-exponent
    order, each keeping only its nonzero exponents."""
    return [(c, tuple((j, e) for j, e in enumerate(exps) if e)) for exps, c in sorted(table.items())]


def _sum_terms(terms, z):
    """sum of coef * prod_j z[j] ** e over the terms, factors multiplied in
    variable order; ``z`` holds floats (one point) or arrays (a batch).  Each
    power is a product of e factors, so that one point and a batch round
    alike (``**`` goes to libm ``pow`` for floats, to numpy's own for arrays)."""
    total = 0.0
    for coef, factors in terms:
        prod = 1.0
        for j, e in factors:
            power = z[j]
            for _ in range(e - 1):
                power = power * z[j]
            prod = prod * power
        total = total + prod * coef
    return total


class PolyMap:
    """Vector polynomial map R^k -> R^q defined by coefficient tables.

    ``tables`` is a list (one entry per output component) of dicts mapping
    exponent tuples of length ``nvars`` to real coefficients.  Calls accept
    one point (nvars,) or a batch (..., nvars).  ``terms`` holds each
    component as sparse terms, ``partial_terms`` each structurally nonzero
    partial d p_i / d z_j, keyed (i, j).
    """

    def __init__(self, tables, nvars: int):
        self.nvars = nvars
        self.nout = len(tables)
        self.tables = [dict(t) for t in tables]
        for e in (e for table in self.tables for e in table if len(e) != nvars):
            raise ValueError(f"exponent {list(e)} needs {nvars} entries, got {len(e)}")
        self.terms = [_sparse_terms(t) for t in self.tables]
        self.partial_terms = {}
        for i, table in enumerate(self.tables):
            for j in sorted({j for e, c in table.items() if c != 0 for j in range(nvars) if e[j] > 0}):
                dtable = {e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
                          for e, c in table.items() if e[j] > 0}
                self.partial_terms[(i, j)] = _sparse_terms(dtable)

    def __call__(self, z) -> np.ndarray:
        return self._evaluate(self.terms, z)

    def partials(self, z, rows, cols) -> np.ndarray:
        """d p_i / d z_j at z for each pair (i, j) of rows and cols, shape (..., len(rows))."""
        return self._evaluate([self.partial_terms.get(key, ()) for key in zip(rows, cols)], z)

    def _evaluate(self, components, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        # one point is evaluated on Python floats, far cheaper than 0-d arrays
        columns = z.tolist() if z.ndim == 1 else np.moveaxis(z, -1, 0)
        out = np.empty(z.shape[:-1] + (len(components),))
        for i, terms in enumerate(components):
            out[..., i] = _sum_terms(terms, columns)  # a constant broadcasts
        return out

    def jacobian(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        rows, cols = np.divmod(np.arange(self.nout * self.nvars), self.nvars)
        return self.partials(z, rows, cols).reshape(z.shape[:-1] + (self.nout, self.nvars))

    def max_degree(self) -> int:
        return max((sum(e) for table in self.tables for e in table), default=0)


@dataclass
class SignalGenerator:
    """Autonomous exosystem omega' = s(omega), v = l(omega).  ``sl`` returns
    both stacked, (..., d + m) over (..., d); ``sl_jacobian`` is their
    (d + m, d) Jacobian at one point.  ``degree`` is the largest polynomial
    degree of s and l, or None when either is not polynomial."""

    d: int
    m: int
    sl: callable
    sl_jacobian: callable
    degree: int | None = None


@dataclass
class FullOrderSystem:
    """Controlled dynamics x' = f(x, u), y = h(x), both batched over (..., n).

    ``jacobian_pattern`` is the pair (rows, cols) of integer arrays naming
    the structural nonzeros of df/dx; ``f_jacobian_x(x, u)`` returns the
    values on them, shape (..., len(rows)).  ``degree`` is the polynomial
    degree of f in (x, u), or None when f is not polynomial.
    """

    n: int
    m: int
    f: callable
    h: callable
    f_jacobian_x: callable
    jacobian_pattern: tuple
    degree: int | None = None


@dataclass
class Problem:
    """A generator driving a system.  ``gain``, when stated, is the output
    injection g(r) of the problem's reduced models, a (d, m) matrix at one
    reduced state."""

    generator: SignalGenerator
    system: FullOrderSystem
    gain: callable | None = None

    def __post_init__(self):
        if self.generator.m != self.system.m:
            raise ValueError(
                f"generator output dimension {self.generator.m} != system input "
                f"dimension {self.system.m}"
            )

    @property
    def is_polynomial(self) -> bool:
        return self.generator.degree is not None and self.system.degree is not None


def generator_from_tables(d: int, m: int, s_tables, l_tables) -> SignalGenerator:
    """Build a polynomial signal generator from coefficient tables."""
    if len(s_tables) != d or len(l_tables) != m:
        raise ValueError("table counts inconsistent with d, m")
    sl = PolyMap(list(s_tables) + list(l_tables), d)
    return SignalGenerator(d=d, m=m, sl=sl, sl_jacobian=sl.jacobian, degree=sl.max_degree())


def system_from_tables(n: int, m: int, p: int, f_tables, h_tables) -> FullOrderSystem:
    """Build a polynomial system from tables; f is over the stacked (x, u)."""
    f_map = PolyMap(f_tables, n + m)
    h_map = PolyMap(h_tables, n)
    if f_map.nout != n or h_map.nout != p:
        raise ValueError("table counts inconsistent with n, p")
    pairs = [(i, j) for i, j in sorted(f_map.partial_terms) if j < n]
    rows = np.array([i for i, _ in pairs], dtype=np.int64)
    cols = np.array([j for _, j in pairs], dtype=np.int64)

    def xu(x, u):
        return np.concatenate([np.atleast_1d(x), np.atleast_1d(u)], axis=-1)

    def f(x, u):
        return f_map(xu(x, u))

    def f_jacobian_x(x, u):
        return f_map.partials(xu(x, u), rows, cols)

    return FullOrderSystem(
        n=n, m=m,
        f=f, h=h_map,
        f_jacobian_x=f_jacobian_x, jacobian_pattern=(rows, cols), degree=f_map.max_degree(),
    )


# ---------------------------------------------------------------------------
# Built-in benchmark problems
# ---------------------------------------------------------------------------

# The constant c of the ladder benchmarks' chain gains.
CHAIN_GAIN_C = 10.0


def _first_state(x):
    """The output y = x_1 of the cart pendulum and the ladder, over (..., n)."""
    return np.asarray(x, dtype=float)[..., :1]


def make_test1(a: float = 2.0) -> Problem:
    """Two-state benchmark with a rotational generator and known solution."""
    if a == 0:
        raise ValueError("require a != 0")
    gen = generator_from_tables(
        d=2, m=1,
        s_tables=[{(0, 1): a}, {(1, 0): -a}],
        l_tables=[{(1, 0): 1.0}],
    )
    # variables (x1, x2, u)
    sys = system_from_tables(
        n=2, m=1, p=1,
        f_tables=[
            {(1, 0, 0): -1.0, (0, 0, 1): 1.0},
            {(0, 1, 0): -1.0, (1, 0, 1): 1.0},
        ],
        h_tables=[{(1, 0): 1.0}],
    )
    return Problem(generator=gen, system=sys)


def make_cart_pendulum(a1: float = 2.0, a2: float = 3.0, k: float = -2.0 / 3.0) -> Problem:
    """Cart-pendulum position-control benchmark with sinusoidal dynamics."""
    if a1 <= 0 or a2 <= 0:
        raise ValueError("require a1 > 0 and a2 > 0")
    if not k < -1.0 / a2:
        raise ValueError(f"require k < -1/a2 = {-1.0 / a2}, got k={k}")

    def sl(omega):
        w1, w2 = np.moveaxis(np.asarray(omega, dtype=float), -1, 0)
        sin, denom = np.sin(w1), 1.0 + k * a2 * np.cos(w1)
        return np.stack([w2, a1 * sin / denom, k * a1 * sin / denom], axis=-1)

    def sl_jacobian(omega):
        w1, _ = omega
        denom = 1.0 + k * a2 * np.cos(w1)
        ds2 = (a1 * np.cos(w1) * denom + a1 * np.sin(w1) * k * a2 * np.sin(w1)) / denom ** 2
        ds = np.array([ds2, 0.0])  # d s_2 / d omega; l = k s_2
        return np.array([[0.0, 1.0], ds, k * ds])

    def f(x, u):
        x0, _, x2, x3 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        u0 = np.broadcast_to(np.atleast_1d(u)[..., 0], x0.shape)
        return np.stack([x2, x3, a1 * np.sin(x0) - a2 * np.cos(x0) * u0, u0], axis=-1)

    def f_jacobian_x(x, u):
        x0 = np.asarray(x, dtype=float)[..., 0]
        u0 = np.atleast_1d(u)[..., 0]
        d20 = a1 * np.cos(x0) + a2 * np.sin(x0) * u0
        return np.stack([np.ones_like(d20), np.ones_like(d20), d20], axis=-1)

    gen = SignalGenerator(d=2, m=1, sl=sl, sl_jacobian=sl_jacobian)
    sys = FullOrderSystem(
        n=4, m=1,
        f=f, h=_first_state,
        f_jacobian_x=f_jacobian_x, jacobian_pattern=(np.array([0, 1, 2]), np.array([2, 3, 0])),
    )
    return Problem(generator=gen, system=sys)


def make_rl_ladder(n: int, kappa: float = 1.1) -> FullOrderSystem:
    """Resistor-inductor ladder: tridiagonal coupling, cubic local nonlinearity.

    The linear part has -2*kappa on the diagonal and 1 on the off-diagonals,
    every component carries -(x_i^2/2 + x_i^3/3), the input enters only the
    first equation, and the output is x_1.
    """
    if n < 2:
        raise ValueError(f"require n >= 2, got n={n}")
    idx = np.arange(n)
    rows = np.concatenate([idx, idx[1:], idx[:-1]])
    cols = np.concatenate([idx, idx[:-1], idx[1:]])
    T_pattern = np.concatenate([np.full(n, -2.0 * kappa), np.ones(2 * (n - 1))])

    def f(x, u):
        x = np.asarray(x, dtype=float)
        out = -2.0 * kappa * x  # T x: the diagonal, then the off-diagonals as shifted slices
        out[..., 1:] += x[..., :-1]
        out[..., :-1] += x[..., 1:]
        x2 = x * x
        out -= x2 / 2.0 + x2 * x / 3.0
        out[..., :1] += u
        return out

    def f_jacobian_x(x, u):
        x = np.asarray(x, dtype=float)
        vals = np.broadcast_to(T_pattern, x.shape[:-1] + T_pattern.shape).copy()
        vals[..., :n] -= x + x * x
        return vals

    return FullOrderSystem(
        n=n, m=1,
        f=f, h=_first_state,
        f_jacobian_x=f_jacobian_x, jacobian_pattern=(rows, cols), degree=3,
    )


def make_linear_oscillator(a: float = 2.0) -> SignalGenerator:
    """Harmonic oscillator generator s = (a w2, -a w1), output w2."""
    if a == 0:
        raise ValueError("require a != 0")
    return generator_from_tables(
        d=2, m=1,
        s_tables=[{(0, 1): a}, {(1, 0): -a}],
        l_tables=[{(0, 1): 1.0}],
    )


def make_van_der_pol(mu: float = 0.25) -> SignalGenerator:
    """Van der Pol oscillator generator, output w2."""
    if mu <= 0:
        raise ValueError(f"require mu > 0, got mu={mu}")
    return generator_from_tables(
        d=2, m=1,
        s_tables=[
            {(0, 1): 1.0},
            {(1, 0): -1.0, (0, 1): mu, (2, 1): -mu},
        ],
        l_tables=[{(0, 1): 1.0}],
    )


def make_rl_linear(n: int = 2, a: float = 2.0, kappa: float = 1.1) -> Problem:
    """RL ladder driven by the harmonic oscillator generator; its reduced
    models use the constant chain gain (0, CHAIN_GAIN_C)."""
    G = np.array([[0.0], [CHAIN_GAIN_C]])
    return Problem(make_linear_oscillator(a), make_rl_ladder(n, kappa), gain=lambda r: G)


def make_rl_vdp(n: int = 2, mu: float = 0.25, kappa: float = 1.1) -> Problem:
    """RL ladder driven by the Van der Pol generator; its reduced models use
    the state-dependent chain gain (0, mu (1 - r_1^2) + CHAIN_GAIN_C)."""
    return Problem(make_van_der_pol(mu), make_rl_ladder(n, kappa),
                   gain=lambda r: np.array([[0.0], [mu * (1.0 - r[0] ** 2) + CHAIN_GAIN_C]]))


# The built-in problems by config name.  A constructor's keyword parameters are
# the params it accepts, and its defaults are the benchmark's parameters.
BUILTINS = {
    "test1": make_test1,
    "cart_pendulum": make_cart_pendulum,
    "rl_linear": make_rl_linear,
    "rl_vdp": make_rl_vdp,
}


# ---------------------------------------------------------------------------
# Linearization and assumption checks
# ---------------------------------------------------------------------------

# A generator eigenvalue whose real part is below this in magnitude counts as imaginary.
SPECTRUM_TOL = 1e-9


def linearize(problem: Problem):
    """Jacobians (S, L, A_sys) of the problem data at the origin."""
    gen, sys = problem.generator, problem.system
    J = np.asarray(gen.sl_jacobian(np.zeros(gen.d)), dtype=float)
    x0, u0 = np.zeros(sys.n), np.zeros(sys.m)
    A_sys = np.zeros((sys.n, sys.n))
    A_sys[sys.jacobian_pattern] = sys.f_jacobian_x(x0, u0)
    return J[:gen.d], J[gen.d:], A_sys


def check_assumptions(problem: Problem) -> dict:
    """Advisory report on generator neutral stability (necessary condition)
    and first-approximation stability of the system."""
    S, _, A_sys = linearize(problem)
    s_eigs = np.linalg.eigvals(S)
    a_eigs = np.linalg.eigvals(A_sys)
    purely_imaginary = bool(np.all(np.abs(s_eigs.real) < SPECTRUM_TOL))
    simple = len(set(np.round(s_eigs, 9))) == len(s_eigs)
    return {
        "A1_necessary": purely_imaginary and simple,
        "A2": bool(np.all(a_eigs.real < 0)),
        "details": {"generator_eigenvalues": s_eigs, "system_eigenvalues": a_eigs},
    }
