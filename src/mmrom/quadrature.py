"""Rectangular domains and Gauss-Legendre tensor-product quadrature."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.atleast_1d(np.asarray(self.lo, dtype=float)))
        object.__setattr__(self, "hi", np.atleast_1d(np.asarray(self.hi, dtype=float)))
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D vectors of equal length")
        if not np.all(self.lo < self.hi):
            raise ValueError(f"require lo < hi componentwise, got lo={self.lo}, hi={self.hi}")
        if not (np.all(self.lo <= 0.0) and np.all(self.hi >= 0.0)):
            warnings.warn(
                "domain does not contain the origin; expansions are anchored at 0",
                stacklevel=2,
            )
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)

    @property
    def d(self) -> int:
        return self.lo.shape[0]

    @classmethod
    def cube(cls, half_width: float, d: int) -> "BoxDomain":
        return cls(lo=-half_width * np.ones(d), hi=half_width * np.ones(d))


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product rule: nodes (K, d), positive weights (K,)."""

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def gauss_legendre_1d(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], exact for polynomials of degree 2q-1."""
    if not 1 <= q <= 256:
        raise ValueError(f"require 1 <= q <= 256, got q={q}")
    return np.polynomial.legendre.leggauss(q)


def tensor_rule(domain: BoxDomain, q: int) -> QuadratureRule:
    """Tensor-product Gauss-Legendre rule mapped affinely onto the domain."""
    x, w = gauss_legendre_1d(q)
    nodes_1d, weights_1d = [], []
    for j in range(domain.d):
        half = 0.5 * (domain.hi[j] - domain.lo[j])
        mid = 0.5 * (domain.hi[j] + domain.lo[j])
        nodes_1d.append(mid + half * x)
        weights_1d.append(half * w)
    grids = np.meshgrid(*nodes_1d, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*weights_1d, indexing="ij")
    weights = np.ones(nodes.shape[0])
    for g in wgrids:
        weights *= g.ravel()
    return QuadratureRule(nodes=nodes, weights=weights)

