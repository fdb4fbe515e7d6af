"""Tests for pointwise residual evaluation and weighted residual norms."""
import numpy as np
import pytest

from mmrom import residuals
from mmrom.basis import eval_basis, eval_basis_gradient, generate_basis
from mmrom.problems import make_rl_linear, make_rl_vdp, make_test1
from mmrom.quadrature import BoxDomain
from mmrom.residuals import residual_at, residual_norm

from oracles import exact_test1_coefficients


def test_exact_solution_has_tiny_residual():
    prob = make_test1(2.0)
    basis = generate_basis(2, 2)
    c = exact_test1_coefficients(basis, 2.0)
    report = residual_norm(prob, basis, c, W=BoxDomain.cube(1.0, d=2))
    assert report.weighted_norm < 1e-13
    assert np.all(report.per_component_norms < 1e-13)


def test_residual_at_hand_value():
    prob = make_test1(2.0)
    basis = generate_basis(2, 2)
    C = exact_test1_coefficients(basis, 2.0)
    w = np.array([0.4, -0.3])
    assert np.allclose(residual_at(prob, basis, C, w[None])[0], 0.0, atol=1e-14)
    # perturbing the first linear coefficient by delta changes the residual by
    # delta * (d(w1)/dw . s(w), -u-coupling): R = C grad s - f(pi, l)
    delta = 0.05
    Cp = C.copy()
    Cp[0, 0] += delta
    R = residual_at(prob, basis, Cp, w[None])[0]
    s = prob.generator.sl(w)[:2]
    # first component: extra delta * s_1 from the gradient term plus delta * w1
    # from f_1 = -x_1 + u
    assert np.isclose(R[0], delta * s[0] + delta * w[0], rtol=1e-12)


def test_residual_at_batch_matches_points():
    prob = make_rl_linear(3)
    basis = generate_basis(2, 3)
    C = np.random.default_rng(3).normal(scale=0.3, size=(3, basis.size))
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(10, 2))
    R = residual_at(prob, basis, C, pts)
    assert R.shape == (10, 3)
    for k, p in enumerate(pts):
        assert np.allclose(R[k], residual_at(prob, basis, C, p[None])[0], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("evaluate", [
    lambda prob, basis, C, w: eval_basis(basis, w),
    lambda prob, basis, C, w: eval_basis_gradient(basis, w),
    residual_at,
], ids=["eval_basis", "eval_basis_gradient", "residual_at"])
def test_one_point_without_batch_axis_rejected(evaluate):
    prob = make_rl_linear(2)
    basis = generate_basis(2, 2)
    C = np.ones((2, basis.size))
    with pytest.raises(ValueError, match=r"shape \(q, 2\)"):
        evaluate(prob, basis, C, np.array([0.4, -0.3]))


def test_non_finite_dynamics_rejected():
    # the ladder's cubic term overflows at coefficients of 1e200
    prob = make_rl_linear(2)
    basis = generate_basis(2, 2)
    c = np.full((2, basis.size), 1e200)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        residual_norm(prob, basis, c, W=BoxDomain.cube(0.7, d=2))


def test_non_finite_dynamics_at_listed_points_named():
    # points given as nested lists, not an array: the error still names the point
    prob = make_rl_vdp(2)
    basis = generate_basis(2, 2)
    c = np.full((2, basis.size), 1e200)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"non-finite dynamics at omega=\[1\. 1\.\]"):
        residual_at(prob, basis, c, [[1.0, 1.0]])


def test_quadrature_refinement_invariance(monkeypatch):
    prob = make_rl_linear(2)
    basis = generate_basis(2, 3)
    rng = np.random.default_rng(1)
    c = rng.normal(scale=0.3, size=(2, basis.size))
    a = residual_norm(prob, basis, c, W=BoxDomain.cube(0.7, d=2))
    monkeypatch.setattr(residuals, "DEFAULT_NORM_QUADRATURE", 40)
    b = residual_norm(prob, basis, c, W=BoxDomain.cube(0.7, d=2))
    assert np.isclose(a.weighted_norm, b.weighted_norm, rtol=1e-10)


def test_weighting_matches_definition():
    prob = make_rl_linear(2)
    basis = generate_basis(2, 2)
    rng = np.random.default_rng(2)
    C = rng.normal(size=(2, basis.size))
    report = residual_norm(prob, basis, C, W=BoxDomain.cube(0.7, d=2))
    block = np.linalg.norm(C, axis=1)
    expected = block @ report.per_component_norms / block.sum()
    assert np.isclose(report.weighted_norm, expected, rtol=1e-14)


def test_zero_coefficients_rejected():
    prob = make_rl_linear(2)
    basis = generate_basis(2, 2)
    with pytest.raises(ValueError):
        residual_norm(prob, basis, np.zeros((2, basis.size)), W=BoxDomain.cube(0.7, d=2))


def test_warns_when_subdomain_exceeds_solve_domain():
    prob = make_rl_linear(2)
    basis = generate_basis(2, 2)
    c = np.ones((2, basis.size))
    with pytest.warns(UserWarning):
        residual_norm(prob, basis, c, W=BoxDomain.cube(2.0, d=2),
                      solve_domain=BoxDomain.cube(1.0, d=2))
