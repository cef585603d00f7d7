"""Scaling action on fields and weights, closed-form Laplace transforms, and
the Radon-Nikodym density connecting the rescaled and original measures."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FieldConfig, compute_beta, compute_theta, h_beta
from .grassmann import DomainError, GeneratorSet, GrassmannElement, as_even
from .graphs import Graph

__all__ = [
    "ScaleParams",
    "scale_fields",
    "rescale_weights",
    "laplace_closed_form",
    "tilt",
    "radon_nikodym",
    "theta_conditional_covariance",
]


@dataclass(frozen=True)
class ScaleParams:
    """Per-vertex group parameters [a_i, b_i]; the pinned entry is [1, 0]."""

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != b.shape:
            raise ValueError("a and b must have the same shape")
        if np.any(a <= 0):
            raise ValueError("a entries must be positive")
        if a[-1] != 1.0 or b[-1] != 0.0:
            raise ValueError("pinned entry must be the identity [1, 0]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @staticmethod
    def identity(n_total: int) -> "ScaleParams":
        return ScaleParams(np.ones(n_total), np.zeros(n_total))

    def compose(self, other: "ScaleParams") -> "ScaleParams":
        """Group law [a, b] * [a', b'] = [a a', b + a b']."""
        return ScaleParams(self.a * other.a, self.b + self.a * other.b)

    def inverse(self) -> "ScaleParams":
        return ScaleParams(1.0 / self.a, -self.b / self.a)


def scale_fields(p: ScaleParams, cfg: FieldConfig, direction: str = "forward") -> FieldConfig:
    """Apply the scaling action to (u, s).

    forward: (u + log a, s - e^{-u} b / a); inverse: (u - log a, s + e^{-u} b).
    The two directions compose to the identity.
    """
    u, s = cfg.u, cfg.s
    if direction == "forward":
        return FieldConfig(u + np.log(p.a), s - np.exp(-u) * p.b / p.a)
    if direction == "inverse":
        return FieldConfig(u - np.log(p.a), s + np.exp(-u) * p.b)
    raise ValueError(f"unknown direction {direction!r}")


def rescale_weights(p: ScaleParams, g: Graph) -> Graph:
    """Graph with weights W^a_ij = a_i a_j W_ij."""
    return Graph(g.vertex_ids, g.weights * np.outer(p.a, p.a))


def laplace_closed_form(g: Graph, p, chibar=None, chi=None, algebra: GeneratorSet | None = None):
    """Closed-form joint Laplace transform of (beta, theta) and, with odd
    parameters, of the odd observables as well.

    Real case (chibar is None): prod_edges e^{-W_ij (a_i a_j + b_i b_j - 1)}
    times prod_{j in V} 1/a_j, returned as a float.

    With odd parameter vectors chibar/chi (entries over `algebra`, pinned
    entries zero) the exponent per edge gains chibar_i chi_j + chibar_j chi_i
    and the result is an even GrassmannElement; a/b entries may themselves be
    even elements with positive body.
    """
    a, b = (p.a, p.b) if isinstance(p, ScaleParams) else p
    n = g.n_total
    if chibar is None and chi is None and not any(isinstance(x, GrassmannElement) for x in list(a) + list(b)):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        i, j, w = g.edge_arrays
        return math.exp(-(w * (a[i] * a[j] + b[i] * b[j] - 1.0)).sum()) / float(np.prod(a[:-1]))
    if algebra is None:
        pool = [x for x in list(a) + list(b) + list(chibar or []) + list(chi or []) if isinstance(x, GrassmannElement)]
        if not pool:
            raise ValueError("algebra required for Grassmann parameters")
        algebra = pool[0].algebra
    zero = algebra.zero()
    if chibar is None:
        chibar = [zero] * n
    if chi is None:
        chi = [zero] * n
    ae = [as_even(x, algebra) for x in a]
    be = [as_even(x, algebra) for x in b]
    chibar = [x.embed(algebra) for x in chibar]
    chi = [x.embed(algebra) for x in chi]
    for x in ae:
        if not (isinstance(x.body, float) or np.isrealobj(x.body)) or complex(x.body).real <= 0:
            raise DomainError("a entries must have positive body")
    exponent = algebra.zero()
    for i, j, w in g.edges():
        term = ae[i] * ae[j] + be[i] * be[j] + chibar[i] * chi[j] + chibar[j] * chi[i] - algebra.one()
        exponent = exponent - term * w
    out = exponent.fn("exp")
    for x in ae[:-1]:
        out = out * x.fn("inverse")
    return out


def tilt(g: Graph, p: ScaleParams, u, s):
    """The exponential tilt e^{-<(a^2+b^2-1)_V, beta> - <b_V, theta>} at fields
    (u, s) of shape (..., n_total); its expectation is laplace_closed_form(g, p)."""
    c = p.a[:-1] ** 2 + p.b[:-1] ** 2 - 1.0
    return np.exp(-compute_beta(g, u) @ c - compute_theta(g, u, s) @ p.b[:-1])


def radon_nikodym(g: Graph, p: ScaleParams, cfg: FieldConfig) -> float:
    """Density of the pushed-forward rescaled measure against the original
    one: the tilt over its expectation, L(a, b)^{-1} tilt(g, p, u, s)."""
    return float(tilt(g, p, cfg.u, cfg.s) / laplace_closed_form(g, p))


def theta_conditional_covariance(g: Graph, u: np.ndarray) -> np.ndarray:
    """Covariance of theta given u: the inner block of e^{-u} A(u) e^{-u}."""
    return h_beta(g, u)[:-1, :-1]
