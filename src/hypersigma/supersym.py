"""Full superspace sector: the superdensity, the odd observables phi and
phibar, the super scaling transform and its Jacobian, the pairing exponent
-<pi, varpi> of the Grassmann-Laplace transform, and the observables of u
and the LDL^T factor of H_beta that integrate s out of the tilted checks.

The checks that estimate these objects and the report schema live in `verify`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import EstimationError, FieldConfig, _edge_action, _h_beta_inverse_entries, compute_beta, compute_theta
from .grassmann import GeneratorSet, GrassmannElement, GroupElement, SuperMatrix, as_even
from .graphs import Graph
from .sampler import fermion_weight

__all__ = ["compute_phi", "bold_rho", "super_scale_pullback", "super_jacobian"]


def compute_phi(g: Graph, u, vec, algebra: GeneratorSet):
    """Odd observables phi = e^{-u} A(u) vec on the inner vertices.

    Componentwise phi_i = sum_j W_ij e^{u_j} (vec_i - vec_j), one term per end
    of each edge of `g.edge_arrays`; vec is psi for phi and psibar for phibar.
    u has shape (n_total,), or (n_total, N) for coefficients that are arrays
    over a batch of N fields.
    """
    eu = np.exp(np.asarray(u, dtype=float))
    phi = [algebra.zero() for _ in range(g.n_total)]
    for i, j, w in zip(*g.edge_arrays):
        diff = vec[i] - vec[j]
        phi[i] = phi[i] + diff * (w * eu[j])
        phi[j] = phi[j] - diff * (w * eu[i])
    return phi[:-1]


def bold_rho(g: Graph, cfg: FieldConfig, algebra: GeneratorSet) -> GrassmannElement:
    """Superdensity: e^{-(1/2)<s,As>} e^{-<psibar,A psi>} prod e^{-W[cosh-1]}."""
    return fermion_weight(g, cfg.u, algebra) * math.exp(-(g.edge_arrays[2] * _edge_action(g, cfg.u, cfg.s)).sum())


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
    phi = compute_phi(g, u, psi, algebra)
    phibar = compute_phi(g, u, psibar, algebra)
    acc = algebra.zero()
    for i in range(g.n_inner):
        ai = as_even(a[i], algebra)
        bi = as_even(b[i], algebra)
        cbi = chibar[i].embed(algebra) if isinstance(chibar[i], GrassmannElement) else algebra.zero()
        ci = chi[i].embed(algebra) if isinstance(chi[i], GrassmannElement) else algebra.zero()
        even_part = ai * ai + bi * bi + cbi * ci * 2.0 - 1.0
        acc = acc + even_part * beta[i] + bi * theta[i] + cbi * phi[i] + phibar[i] * ci
    return -acc


def _wick(mean, cov, pos):
    """E[prod_{p in pos} X_p] for a Gaussian vector with means `mean[p]` and
    covariances `cov[p, q]` (arrays over a batch); `pos` may repeat an index.
    Isserlis' rule: E[X_a R] = mean_a E[R] + sum_{X_q in R} cov_aq E[R without X_q]."""
    if not pos:
        return np.ones(mean.shape[1:], dtype=complex)
    a, rest = pos[0], pos[1:]
    out = mean[a] * _wick(mean, cov, rest)
    for t, q in enumerate(rest):
        out = out + cov[a, q] * _wick(mean, cov, rest[:t] + rest[t + 1 :])
    return out


def _tilt_kernel(gk: Graph, tilt_a, tilt_b, cols, reduce):
    """The observable (u, ldl) -> reduce(weight, mean, cov) = E[F tilt | u] for
    F of X_j = e^{u_j}(1 + i s_j), j in cols, and the tilt e^{-<(a^2+b^2-1)_V,
    beta> - <b_V, theta>}: s_V given u is Gaussian (covariance A_VV^{-1}), so
    the weight is exp(-<(a^2-1)_V, beta> - (1/2) b_V^T W_VV b_V) and X has mean
    e^{u_j} - i b_j and covariance -(H_beta^{-1})_jj' from ldl, the factor of
    H_beta(u).  Raises EstimationError when the values overflow."""
    a, b = np.asarray(tilt_a, dtype=float), np.asarray(tilt_b, dtype=float)
    const = -0.5 * b[:-1] @ gk.weights[:-1, :-1] @ b[:-1]

    def obs(u, ldl):
        with np.errstate(all="ignore"):
            weight = np.exp(-(a[:-1] ** 2 - 1.0) @ compute_beta(gk, u).T + const)
            mean = np.exp(u[:, cols]).T - 1j * b[cols, None]
            out = reduce(weight, mean, -_h_beta_inverse_entries(gk, ldl, cols))
        if not np.isfinite(out).all():
            raise EstimationError("observable overflowed")
        return out

    return obs


def _generating_observable(gk: Graph, alpha, tilt_a, tilt_b):
    """E[e^{<alpha, e^u(1 + is)>} tilt | u] = weight exp(<alpha_V, mean> +
    (1/2) alpha_V^T cov alpha_V + alpha_delta), alpha over gk's vertices."""
    al = np.asarray(alpha, dtype=float)[:-1]

    def reduce(weight, mean, cov):
        return weight * np.exp(al @ mean + 0.5 * np.einsum("p,pqn,q->n", al, cov, al) + alpha[-1])

    return _tilt_kernel(gk, tilt_a, tilt_b, list(range(gk.n_inner)), reduce)


def _wick_positions(gk: Graph, j_sets):
    """The sorted vertex indices of the union of the multisets j_sets, and per
    multiset the positions of its vertex ids among them."""
    cols = sorted({gk.index_of(v) for j_ids in j_sets for v in j_ids})
    return cols, [tuple(cols.index(gk.index_of(v)) for v in j_ids) for j_ids in j_sets]


def _derivative_martingale_observable(gk: Graph, j_ids, tilt_a, tilt_b):
    """E[M_{j_1..j_k} tilt | u] = E[prod_p X_{j_p} tilt | u] by `_wick`, for a
    multiset j_ids of vertex ids; the empty one gives the weight, E[tilt | u]."""
    cols, (pos,) = _wick_positions(gk, [j_ids])
    return _tilt_kernel(gk, tilt_a, tilt_b, cols, lambda weight, mean, cov: _wick(mean, cov, pos) * weight)


def _derivative_martingale_columns(gk: Graph, j_sets, tilt_a, tilt_b):
    """The (N, len(j_sets)) observable whose column k is
    `_derivative_martingale_observable(gk, j_sets[k], tilt_a, tilt_b)`, from
    one tilt kernel over the union of the multisets' vertices, so the weight
    and the entries of H_beta^{-1} are computed once per chunk."""
    cols, pos = _wick_positions(gk, j_sets)
    return _tilt_kernel(
        gk, tilt_a, tilt_b, cols, lambda weight, mean, cov: np.stack([_wick(mean, cov, p) * weight for p in pos], axis=1)
    )
