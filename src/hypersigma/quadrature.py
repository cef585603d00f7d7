"""Deterministic quadrature oracles for graphs with a single inner vertex.

Tensor Gauss-Legendre panels over (u, s) in horospherical coordinates (with a
u-dependent rescaling of s matching the local Gaussian width) and over (x, y)
in cartesian coordinates.  Each oracle call lays out its whole grid once and
evaluates the density, the observable and, for superfunctions, the fermion
weight and the Berezin reduction once on all of its nodes (Grassmann
coefficients are arrays over the nodes), so these integrals are exact up to
quadrature error and serve as oracles for the Monte-Carlo estimators.  The
Gauss-Legendre nodes of each order are computed once and shared read-only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import LOG_UNDERFLOW, _h_beta_ldl, _log_rho
from .grassmann import GeneratorSet, GrassmannElement, berezin_pairs
from .graphs import Graph
from .sampler import _berezin_coefficients

__all__ = [
    "expect_quadrature_1v",
    "super_expect_quadrature_1v",
    "cartesian_expect_quadrature_1v",
    "zeta_integral_1v",
]


def _check_single_inner(g: Graph):
    if g.n_inner != 1:
        raise ValueError("quadrature oracle requires exactly one inner vertex")


@functools.cache
def _legendre(n: int):
    """Gauss-Legendre nodes and weights of order n on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_grid(lo: float, hi: float, n: int):
    x, w = _legendre(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _total_weight(g: Graph) -> float:
    return float(g.weights[0, :].sum())


def _horospherical_rows(g: Graph, n_u: int, n_t: int, u_lim: float, t_lim: float):
    """Gauss-Legendre nodes of the (u, s) plane, laid out once for all u-rows.

    s = t e^{-u/2} / sqrt(W_tot) matches the conditional Gaussian width.
    Returns (u, s, w, rows): the fields of shape (M, n_total) and the weights
    rho e^{-u} du ds / (2 pi) of the M nodes whose log rho is not below
    LOG_UNDERFLOW, in u-row order, and one slice of them per u-row that keeps
    any node.
    """
    _check_single_inner(g)
    w_tot = _total_weight(g)
    u_nodes, u_w = _gauss_grid(-u_lim, u_lim, n_u)
    t_nodes, t_w = _gauss_grid(-t_lim, t_lim, n_t)
    # math.exp, not np.exp, whose last bit differs on some nodes: the oracles'
    # values are pinned to the bit by the reports at fixed seeds
    sigma = np.array([math.exp(-0.5 * u1) / math.sqrt(w_tot) for u1 in u_nodes])
    row_w = np.array([wu * sg * math.exp(-u1) / (2.0 * math.pi) for u1, wu, sg in zip(u_nodes, u_w, sigma)])
    u = np.zeros((n_u, n_t, 2))
    s = np.zeros((n_u, n_t, 2))
    u[:, :, 0] = u_nodes[:, None]
    s[:, :, 0] = t_nodes * sigma[:, None]
    log_rho = _log_rho(g, u, s)
    keep = log_rho >= LOG_UNDERFLOW
    counts = keep.sum(axis=1)
    w = np.broadcast_to(t_w, keep.shape)[keep] * np.exp(log_rho[keep]) * np.repeat(row_w, counts)
    rows = [slice(end - k, end) for end, k in zip(np.cumsum(counts), counts) if k]
    return u[keep], s[keep], w, rows


def expect_quadrature_1v(g: Graph, f, n_u: int = 240, n_t: int = 120, u_lim: float = 12.0, t_lim: float = 10.0):
    """E[f(u, s)] on a single-inner-vertex graph.

    `f(u, s)`, unlike `expect`'s observables of (u, ldl), takes (M, n_total)
    arrays of both fields and returns a vector of length M, or an (M, k) array
    of k observables, whose k expectations are returned.  It is called once,
    on all nodes of the grid where rho does not underflow; the weighted values
    are summed one u-row at a time and the row sums added in u order.
    """
    u, s, w, rows = _horospherical_rows(g, n_u, n_t, u_lim, t_lim)
    # each row of the transpose is summed contiguously, as a single observable is
    terms = w * np.ascontiguousarray(np.transpose(f(u, s)))
    return sum(terms[..., row].sum(axis=-1) for row in rows)


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

    f has the sampler evaluator signature (u, s, psibar, psi, algebra) and is
    called once, with u and s of shape (n_total, M) over the grid's M nodes
    (`expect_quadrature_1v`); the fermionic sector is reduced exactly by
    Berezin derivatives against e^{-<psibar, A psi>} and normalized by det A_VV
    (`_berezin_coefficients`), and the coefficients are integrated against
    rho e^{-u}/(2 pi).  Returns an element of the parameter algebra.
    """
    def coefficients(u, s):
        return _berezin_coefficients(g, f, u, s, param_algebra, _h_beta_ldl(g, u[:, :-1]))

    coeffs = expect_quadrature_1v(g, coefficients, n_u, n_t, u_lim, t_lim)
    return GrassmannElement(param_algebra, dict(enumerate(coeffs)))


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
    signature (x, y, xi, eta, algebra) and is called once, with x and y the
    (n_r, n_phi) arrays of all nodes and odd xi, eta.
    """
    _check_single_inner(g)
    base = GeneratorSet(["xi_1", "eta_1"]).union(param_algebra)
    xi = base.gen("xi_1")
    eta = base.gen("eta_1")
    w_tot = _total_weight(g)
    r_nodes, r_w = _gauss_grid(0.0, r_lim, n_r)
    phi_nodes = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    r = r_nodes[:, None]
    x, y = r * np.cos(phi_nodes), r * np.sin(phi_nodes)
    # z and S_cart = -W_tot (z - 1) (single inner vertex) depend on r only
    z = (base.scalar(1.0 + r * r) + xi * eta * 2.0).fn("sqrt")
    radial = z.fn("inverse") * ((base.one() - z) * w_tot).fn("exp")
    node_w = r_w[:, None] * (2.0 * math.pi / n_phi) * r / (2.0 * math.pi)
    reduced = berezin_pairs(radial * f_cart(x, y, xi, eta, base), [("xi_1", "eta_1")])
    # xi_1 and eta_1 are the two lowest generators of `base` and are reduced;
    # a coefficient constant along phi still counts at every phi node
    coeffs = {m >> 2: (node_w * np.broadcast_to(c, x.shape)).sum() for m, c in reduced.coeffs.items()}
    return GrassmannElement(param_algebra, coeffs)


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
