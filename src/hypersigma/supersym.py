"""Full superspace sector: the superdensity, the odd observables phi and
phibar, the super scaling transform and its Jacobian, the pairing exponent
-<pi, varpi> of the Grassmann-Laplace transform, and the vectorized
observable of the derivative-martingale checks.

The checks that estimate these objects and the report schema live in `verify`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FieldConfig, _edge_action, build_A, compute_beta, compute_theta
from .grassmann import DomainError, GeneratorSet, GrassmannElement, GroupElement, SuperMatrix, as_even
from .graphs import Graph
from .sampler import fermion_weight

__all__ = ["compute_phi", "bold_rho", "super_scale_pullback", "super_jacobian"]


def compute_phi(g: Graph, u, psibar, psi, algebra: GeneratorSet, kind: str = "phi"):
    """Odd observables phi = e^{-u} A(u) psi on the inner vertices.

    Componentwise phi_i = sum_j W_ij e^{u_j} (psi_i - psi_j); kind="phibar"
    substitutes the psibar generators instead.  u has shape (n_total,), or
    (n_total, N) for coefficients that are arrays over a batch of N fields.
    """
    vec = psibar if kind == "phibar" else psi
    if kind not in ("phi", "phibar"):
        raise ValueError(f"unknown kind {kind!r}")
    u = np.asarray(u, dtype=float)
    a = np.moveaxis(build_A(g, u.T), (-2, -1), (0, 1))
    emu = np.exp(-u)
    out = []
    for i in range(g.n_inner):
        acc = algebra.zero()
        for j in range(g.n_total):
            if np.any(a[i, j] != 0.0):
                acc = acc + vec[j] * (emu[i] * a[i, j])
        out.append(acc)
    return out


def bold_rho(g: Graph, cfg: FieldConfig, algebra: GeneratorSet, soul_weights=None) -> GrassmannElement:
    """Superdensity: e^{-(1/2)<s,As>} e^{-<psibar,A psi>} prod e^{-W[cosh-1]}.

    `soul_weights`, when given, adds nilpotent even elements to the edge
    weights (entries of an n x n nested list); bodies must stay positive.
    """
    scalar_exponent = algebra.zero()
    for i, j, w, act in zip(*g.edge_arrays, _edge_action(g, cfg.u, cfg.s)):
        wij = algebra.scalar(w)
        if soul_weights is not None:
            wij = wij + soul_weights[i][j]
        if complex(wij.body).real <= 0.0:
            raise DomainError("edge weight body must be positive")
        scalar_exponent = scalar_exponent - wij * act
    return scalar_exponent.fn("exp") * fermion_weight(g, cfg.u, algebra, soul_weights)


def _quad_entries(v: GroupElement, i: int, algebra: GeneratorSet):
    return tuple(e.embed(algebra) for e in v.quads[i])


def super_scale_pullback(v: GroupElement, f):
    """Pull a superfunction f(u, s, psibar, psi, algebra) back along the
    scaling with parameters v.

    Substitutes u -> u + log a, s -> s - e^{-u} b / a, psibar -> psibar -
    e^{-u} chibar / a, psi -> psi - e^{-u} chi / a, expanding even functions
    of the substituted arguments as finite Taylor series in the souls.
    """

    def pulled(u, s, psibar, psi, algebra):
        n = len(u)
        u2, s2, pb2, p2 = [], [], [], []
        for i in range(n):
            a, b, cb, c = _quad_entries(v, i, algebra)
            ue = as_even(u[i], algebra)
            se = as_even(s[i], algebra)
            emu = (-ue).fn("exp")
            ainv = a.fn("inverse")
            u2.append(ue + a.fn("log"))
            s2.append(se - emu * ainv * b)
            pb2.append(psibar[i] - emu * ainv * cb)
            p2.append(psi[i] - emu * ainv * c)
        return f(u2, s2, pb2, p2, algebra)

    return pulled


def super_jacobian(v: GroupElement, u) -> SuperMatrix:
    """Jacobian of the scaling transform at u, over the inner vertices.

    Even coordinates ordered (u_1..u_n, s_1..s_n), odd ones (psibar_1..n,
    psi_1..n).  The superdeterminant is 1.
    """
    algebra = v.algebra
    n = len(v) - 1
    u = np.asarray(u, dtype=float)
    zero, one = algebra.zero(), algebra.one()
    a_blk = [[one if i == j else zero for j in range(2 * n)] for i in range(2 * n)]
    gamma = [[zero for _ in range(2 * n)] for _ in range(2 * n)]
    sigma = [[zero for _ in range(2 * n)] for _ in range(2 * n)]
    b_blk = [[one if i == j else zero for j in range(2 * n)] for i in range(2 * n)]
    for i in range(n):
        a, b, cb, c = v.quads[i]
        ainv = a.fn("inverse")
        emu = math.exp(-u[i])
        a_blk[n + i][i] = ainv * b * emu
        gamma[i][i] = ainv * cb * emu
        gamma[n + i][i] = ainv * c * emu
    return SuperMatrix.from_blocks(a_blk, sigma, gamma, b_blk)


# -- observables of the identity checks --------------------------------------


def _pairing_exponent(g: Graph, u, s, psibar, psi, algebra, a, b, chibar, chi):
    """-<pi, varpi> as an even element at a sample (u, s).

    The pairing is <(a^2+b^2+2*chibar*chi-1)_V, beta> + <b_V, theta>
    + <chibar_V, phi> + <phibar, chi_V> (the last product in reversed order).
    u and s have shape (n_total,), or (n_total, N) over a batch of N fields.
    """
    beta = compute_beta(g, np.transpose(u)).T
    theta = compute_theta(g, np.transpose(u), np.transpose(s)).T
    phi = compute_phi(g, u, psibar, psi, algebra, "phi")
    phibar = compute_phi(g, u, psibar, psi, algebra, "phibar")
    acc = algebra.zero()
    for i in range(g.n_inner):
        ai = as_even(a[i], algebra)
        bi = as_even(b[i], algebra)
        cbi = chibar[i].embed(algebra) if isinstance(chibar[i], GrassmannElement) else algebra.zero()
        ci = chi[i].embed(algebra) if isinstance(chi[i], GrassmannElement) else algebra.zero()
        even_part = ai * ai + bi * bi + cbi * ci * 2.0 - 1.0
        acc = acc + even_part * beta[i] + bi * theta[i] + cbi * phi[i] + phibar[i] * ci
    return -acc


def _derivative_martingale_observable(gk: Graph, j_ids, tilt_a, tilt_b):
    """Vectorized conditional expectation of M_{j_1..j_k} times the tilt.

    The Gaussian s-sector is integrated out analytically per u-sample
    (conditional mean -e^{-u}b, covariance A_VV^{-1}), which removes all
    s-variance from the estimator, so the observable takes u alone (as
    `expect_importance` requires); j_ids is a multiset of up to 3 vertex ids.
    """
    idx = [gk.index_of(v) for v in j_ids]
    if len(idx) > 3:
        raise ValueError("at most 3 derivative indices supported")
    a = np.asarray(tilt_a, dtype=float)
    b = np.asarray(tilt_b, dtype=float)

    def obs(u):
        beta = compute_beta(gk, u)
        # tilt times the Gaussian normalization: the b^2 beta terms cancel,
        # leaving exp(-<(a^2-1)_V, beta> - (1/2) sum_{i != j in V} W_ij b_i b_j)
        w_vv = gk.weights[:-1, :-1]
        const = -0.5 * b[:-1] @ w_vv @ b[:-1]
        weight = np.exp(-(a[:-1] ** 2 - 1.0) @ beta.T + const)
        m = -(np.exp(-u) * b)[:, :-1]
        k = len(idx)
        if k >= 2:
            cov = np.linalg.inv(build_A(gk, u)[:, :-1, :-1])
        if k == 0:
            poly = np.ones(len(u), dtype=complex)
        elif k == 1:
            (p,) = idx
            poly = 1.0 + 1j * m[:, p]
        elif k == 2:
            p, q = idx
            poly = 1.0 + 1j * (m[:, p] + m[:, q]) - (cov[:, p, q] + m[:, p] * m[:, q])
        else:
            p, q, r = idx
            pair = (
                cov[:, p, q]
                + cov[:, p, r]
                + cov[:, q, r]
                + m[:, p] * m[:, q]
                + m[:, p] * m[:, r]
                + m[:, q] * m[:, r]
            )
            triple = (
                m[:, p] * m[:, q] * m[:, r]
                + m[:, p] * cov[:, q, r]
                + m[:, q] * cov[:, p, r]
                + m[:, r] * cov[:, p, q]
            )
            poly = 1.0 + 1j * (m[:, p] + m[:, q] + m[:, r]) - pair - 1j * triple
        return np.exp(u[:, idx].sum(axis=1)) * poly * weight

    return obs
