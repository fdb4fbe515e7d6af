"""Tests for box domains and Gauss-Legendre tensor quadrature."""
import numpy as np
import pytest

from mmrom.quadrature import BoxDomain, gauss_legendre_1d, tensor_rule

from oracles import monomial_integral_exact, monomial_integral_tables


def test_domain_validation():
    with pytest.raises(ValueError):
        BoxDomain(lo=[1.0, -1.0], hi=[0.5, 1.0])
    with pytest.raises(ValueError):
        BoxDomain(lo=[0.0], hi=[0.0])
    with pytest.raises(ValueError):
        BoxDomain(lo=[[0.0]], hi=[[1.0]])


def test_domain_warns_when_origin_excluded():
    with pytest.warns(UserWarning):
        BoxDomain(lo=[0.5], hi=[1.0])


def test_cube_and_volume():
    dom = BoxDomain.cube(2.0, d=3)
    assert dom.d == 3
    assert np.allclose(dom.lo, [-2, -2, -2])
    assert np.allclose(dom.hi, [2, 2, 2])


def test_gauss_legendre_exactness_1d():
    # a q-point rule integrates polynomials up to degree 2q - 1 exactly
    for q in range(1, 9):
        x, w = gauss_legendre_1d(q)
        for e in range(2 * q):
            exact = 0.0 if e % 2 else 2.0 / (e + 1)
            assert abs(w @ x**e - exact) < 1e-12


def test_gauss_legendre_bounds():
    with pytest.raises(ValueError):
        gauss_legendre_1d(0)
    with pytest.raises(ValueError):
        gauss_legendre_1d(257)


def test_tensor_rule_weights_sum_to_volume():
    dom = BoxDomain(lo=[-1.0, 0.0 - 2.0], hi=[2.0, 1.5])
    rule = tensor_rule(dom, 6)
    assert rule.nodes.shape == (36, 2)
    assert np.isclose(rule.weights.sum(), 3.0 * 3.5, rtol=1e-14)


def test_tensor_rule_monomial_exactness():
    dom = BoxDomain(lo=[-1.5, -0.5], hi=[0.5, 2.0])
    q = 5
    rule = tensor_rule(dom, q)
    rng = np.random.default_rng(3)
    for _ in range(20):
        exps = rng.integers(0, 2 * q, size=2)
        approx = rule.weights @ (rule.nodes[:, 0] ** exps[0] * rule.nodes[:, 1] ** exps[1])
        assert np.isclose(approx, monomial_integral_exact(dom, exps), rtol=1e-12, atol=1e-13)


def test_monomial_integral_exact_values():
    dom = BoxDomain.cube(1.0, d=2)
    assert np.isclose(monomial_integral_exact(dom, [0, 0]), 4.0)
    assert np.isclose(monomial_integral_exact(dom, [1, 0]), 0.0)
    assert np.isclose(monomial_integral_exact(dom, [2, 2]), 4.0 / 9.0)
    with pytest.raises(ValueError):
        monomial_integral_exact(dom, [-1, 0])


def test_monomial_integral_tables_consistency():
    dom = BoxDomain(lo=[-1.0, -2.0], hi=[3.0, 0.5])
    table = monomial_integral_tables(dom, 6)
    assert table.shape == (7, 2)
    for e1 in range(7):
        for e2 in range(7):
            assert np.isclose(
                table[e1, 0] * table[e2, 1],
                monomial_integral_exact(dom, [e1, e2]),
                rtol=1e-13,
            )
