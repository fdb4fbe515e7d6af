"""Tests for the graded monomial basis."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmrom.basis import (
    Basis,
    basis_count,
    eval_basis,
    eval_basis_gradient,
    generate_basis,
)


def test_count_small_cases():
    assert basis_count(2, 1) == 2
    assert basis_count(2, 2) == 5
    assert basis_count(2, 6) == 27
    assert basis_count(1, 4) == 4
    assert basis_count(3, 2) == 9


def test_count_matches_enumeration():
    for d in range(1, 5):
        for M in range(1, 9):
            assert basis_count(d, M) == generate_basis(d, M).size


def test_graded_lex_ordering_d2_m2():
    basis = generate_basis(2, 2)
    expected = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert [tuple(e) for e in basis.exponents] == expected


def test_ordering_ascending_degree_descending_lex():
    basis = generate_basis(3, 3)
    degs = basis.exponents.sum(axis=1)
    assert np.all(np.diff(degs) >= 0)
    for k in range(len(degs) - 1):
        if degs[k] == degs[k + 1]:
            assert tuple(basis.exponents[k]) > tuple(basis.exponents[k + 1])


def test_no_constant_term():
    for d in (1, 2, 3):
        basis = generate_basis(d, 4)
        assert np.all(basis.exponents.sum(axis=1) >= 1)


def test_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        generate_basis(0, 2)
    with pytest.raises(ValueError):
        generate_basis(2, 0)


def test_eval_basis_single_point():
    basis = generate_basis(2, 2)
    phi = eval_basis(basis, np.array([[0.5, -0.3]]))[0]
    assert np.allclose(phi, [0.5, -0.3, 0.25, -0.15, 0.09], atol=1e-15)


def test_eval_basis_many_points_shape_and_rows():
    basis = generate_basis(2, 3)
    pts = np.array([[0.1, 0.2], [-0.4, 0.7], [0.0, 0.0]])
    vals = eval_basis(basis, pts)
    assert vals.shape == (3, basis.size)
    for k, p in enumerate(pts):
        assert np.allclose(vals[k], eval_basis(basis, p[None])[0])
    assert np.all(vals[2] == 0.0)


def test_gradient_matches_finite_differences():
    basis = generate_basis(2, 4)
    rng = np.random.default_rng(7)
    pt = rng.uniform(-0.8, 0.8, size=2)
    grad = eval_basis_gradient(basis, pt[None])[0]
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (eval_basis(basis, (pt + e)[None])[0] - eval_basis(basis, (pt - e)[None])[0]) / (2 * h)
        assert np.allclose(grad[:, j], fd, rtol=1e-8, atol=1e-8)


def test_gradient_many_points_shape():
    basis = generate_basis(3, 2)
    pts = np.random.default_rng(1).uniform(-1, 1, size=(5, 3))
    grads = eval_basis_gradient(basis, pts)
    assert grads.shape == (5, basis.size, 3)
    assert np.allclose(grads[2], eval_basis_gradient(basis, pts[2][None])[0])


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), M=st.integers(1, 6))
def test_basis_rows_unique_and_bounded(d, M):
    basis = generate_basis(d, M)
    rows = {tuple(e) for e in basis.exponents}
    assert len(rows) == basis.size
    degs = basis.exponents.sum(axis=1)
    assert degs.min() >= 1 and degs.max() <= M
    assert basis.size == sum(math.comb(d + m - 1, m) for m in range(1, M + 1))


def test_generation_is_deterministic():
    a = generate_basis(3, 5)
    b = generate_basis(3, 5)
    assert np.array_equal(a.exponents, b.exponents)
