"""Deterministic quadrature oracles for graphs with a single inner vertex.

Tensor Gauss-Legendre panels over (u, s) in horospherical coordinates (with a
u-dependent rescaling of s matching the local Gaussian width) and over (x, y)
in cartesian coordinates.  Grassmann sectors are reduced symbolically at every
quadrature node, so these integrals are exact up to quadrature error and serve
as oracles for the Monte-Carlo estimators.
"""

from __future__ import annotations

import math

import numpy as np

from .core import LOG_UNDERFLOW, _log_rho, build_A
from .grassmann import GeneratorSet, GrassmannElement, berezin_pairs
from .graphs import Graph
from .sampler import fermion_weight, grassmann_reduce, psi_algebra, psi_vectors

__all__ = [
    "expect_quadrature_1v",
    "super_expect_quadrature_1v",
    "cartesian_expect_quadrature_1v",
    "zeta_integral_1v",
]


def _check_single_inner(g: Graph):
    if g.n_inner != 1:
        raise ValueError("quadrature oracle requires exactly one inner vertex")


def _gauss_grid(lo: float, hi: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _restrict(x: GrassmannElement, param_algebra: GeneratorSet) -> GrassmannElement:
    """Coefficients of x on monomials of the parameter generators only, over
    `param_algebra` (the integrated generators are fully reduced); x itself
    when there are no parameter generators."""
    if not param_algebra.names:
        return x
    coeffs = {}
    for names, cval in x.subsets():
        if all(nm in param_algebra.index for nm in names):
            mask = 0
            for nm in names:
                mask |= 1 << param_algebra.index[nm]
            coeffs[mask] = cval
    return GrassmannElement(param_algebra, coeffs)


def _total_weight(g: Graph) -> float:
    return float(g.weights[0, :].sum())


def _horospherical_rows(g: Graph, n_u: int, n_t: int, u_lim: float, t_lim: float):
    """Gauss-Legendre nodes of the (u, s) plane, one u-row at a time.

    s = t e^{-u/2} / sqrt(W_tot) matches the conditional Gaussian width.  Per
    row yields (u, s, w): the fields of shape (k, n_total) and the weights
    rho e^{-u} du ds / (2 pi) of the k nodes whose log rho is not below
    LOG_UNDERFLOW; rows without such nodes are skipped.
    """
    _check_single_inner(g)
    w_tot = _total_weight(g)
    u_nodes, u_w = _gauss_grid(-u_lim, u_lim, n_u)
    t_nodes, t_w = _gauss_grid(-t_lim, t_lim, n_t)
    u = np.zeros((n_t, 2))
    s = np.zeros((n_t, 2))
    for u1, wu in zip(u_nodes, u_w):
        sigma = math.exp(-0.5 * u1) / math.sqrt(w_tot)
        u[:, 0] = u1
        s[:, 0] = t_nodes * sigma
        log_rho = _log_rho(g, u, s)
        keep = log_rho >= LOG_UNDERFLOW
        if keep.any():
            w = t_w[keep] * np.exp(log_rho[keep]) * (wu * sigma * math.exp(-u1) / (2.0 * math.pi))
            yield u[keep], s[keep], w


def expect_quadrature_1v(g: Graph, f, n_u: int = 240, n_t: int = 120, u_lim: float = 12.0, t_lim: float = 10.0):
    """E[f(u, s)] on a single-inner-vertex graph.

    Like `expect`'s observables, `f(u, s)` takes (N, n_total) arrays; it is
    called once per u-row of the grid, on the nodes where rho does not
    underflow.
    """
    return sum((w * f(u, s)).sum() for u, s, w in _horospherical_rows(g, n_u, n_t, u_lim, t_lim))


def super_expect_quadrature_1v(
    g: Graph,
    f,
    param_algebra: GeneratorSet,
    n_u: int = 160,
    n_t: int = 80,
    u_lim: float = 11.0,
    t_lim: float = 9.0,
) -> GrassmannElement:
    """Superintegral of f over a single-inner-vertex graph.

    f has the sampler evaluator signature (u, s, psibar, psi, algebra); at
    every node the fermionic sector is reduced exactly by Berezin derivatives
    against e^{-<psibar, A psi>}, and the scalar weight rho e^{-u}/(2 pi) is
    applied.  Returns an element of the parameter algebra.
    """
    algebra = psi_algebra(g, param_algebra)
    psibar, psi = psi_vectors(g, algebra)
    acc: dict = {}
    for u, s, w in _horospherical_rows(g, n_u, n_t, u_lim, t_lim):
        weight = fermion_weight(g, u[0], algebra)
        # the reduction of the fermion weight alone is det A_VV = A_11
        w = w / build_A(g, u[0])[0, 0]
        for uk, sk, wk in zip(u, s, w):
            val = f(uk, sk, psibar, psi, algebra)
            if not isinstance(val, GrassmannElement):
                val = algebra.scalar(val)
            for m, cval in grassmann_reduce(g, weight * val).coeffs.items():
                acc[m] = acc.get(m, 0.0) + wk * cval
    return _restrict(GrassmannElement(algebra, acc), param_algebra)


def cartesian_expect_quadrature_1v(
    g: Graph,
    f_cart,
    param_algebra: GeneratorSet,
    n_r: int = 260,
    n_phi: int = 64,
    r_lim: float = 30.0,
) -> GrassmannElement:
    """Superintegral in cartesian coordinates for a single inner vertex.

    Computes int dx dy/(2 pi) d_xi d_eta [ z^{-1} e^{S_cart} f_cart ], with
    z = sqrt(1 + x^2 + y^2 + 2 xi eta), in polar coordinates.  f_cart has
    signature (x, y, xi, eta, algebra) with scalar x, y and odd xi, eta.
    """
    _check_single_inner(g)
    base = GeneratorSet(["xi_1", "eta_1"]).union(param_algebra)
    xi = base.gen("xi_1")
    eta = base.gen("eta_1")
    w_tot = _total_weight(g)
    r_nodes, r_w = _gauss_grid(0.0, r_lim, n_r)
    phi_nodes = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    phi_w = 2.0 * math.pi / n_phi
    acc: dict = {}
    for r, wr in zip(r_nodes, r_w):
        for phi in phi_nodes:
            x, y = r * math.cos(phi), r * math.sin(phi)
            z = (base.scalar(1.0 + x * x + y * y) + xi * eta * 2.0).fn("sqrt")
            # single inner vertex: S_cart = -W_tot (z - 1)
            s_cart = (base.one() - z) * w_tot
            integrand = z.fn("inverse") * s_cart.fn("exp") * f_cart(x, y, xi, eta, base)
            reduced = berezin_pairs(integrand, [("xi_1", "eta_1")])
            factor = wr * phi_w * r / (2.0 * math.pi)
            for m, cval in reduced.coeffs.items():
                acc[m] = acc.get(m, 0.0) + factor * cval
    return _restrict(GrassmannElement(base, acc), param_algebra)


def zeta_integral_1v(f, n_u: int = 240, n_s: int = 240, u_lim: float = 14.0, s_lim: float = 14.0, s_center=None):
    """Reference-measure integral int f(u, s) e^{-u} du ds for |V| = 1.

    f is evaluated once, on node arrays that broadcast to (n_u, n_s): u of
    shape (n_u, 1) and s of shape (n_u, n_s) or (1, n_s).  The test function
    must decay fast enough in both directions (e.g. have compact support or
    a Gaussian window).  When the s-localization of f drifts with u (as it
    does after a scaling with b != 0), pass `s_center`, mapping the array of
    u-nodes to their centers, so the s panel tracks the mass.
    """
    u_nodes, u_w = _gauss_grid(-u_lim, u_lim, n_u)
    s_nodes, s_w = _gauss_grid(-s_lim, s_lim, n_s)
    shift = 0.0 if s_center is None else s_center(u_nodes)
    s = s_nodes + np.reshape(shift, (-1, 1))
    return float((u_w * np.exp(-u_nodes)) @ (f(u_nodes[:, None], s) @ s_w))
