"""Full superspace sector: superdensity, odd observables, the super scaling
transform and its Jacobian, Grassmann-Laplace transforms, Ward identities,
martingale checks, and level consistency.

All expectations use the exact per-sample Berezin reduction from `sampler`;
statistical comparisons are reported coefficient-by-coefficient with z-scores.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .core import FieldConfig, _edge_action, build_A, compute_beta, compute_theta
from .grassmann import (
    DomainError,
    GeneratorSet,
    GrassmannElement,
    GroupElement,
    SuperMatrix,
    as_even,
)
from .graphs import Graph, GraphTower, extend_alpha, wired_subgraph
from .sampler import ChainConfig, Estimate, _log_target, expect, expect_importance, fermion_weight, super_expect
from .scaling import ScaleParams, laplace_closed_form

__all__ = [
    "compute_phi",
    "bold_rho",
    "super_scale_pullback",
    "super_jacobian",
    "grassmann_laplace_check",
    "super_image_measure_check",
    "ward_check",
    "susy_martingale_check",
    "martingale_generating_check",
    "martingale_derivative_check",
    "consistency_check",
]

#: stderr floor preventing division by zero in z-scores for exact observables
STDERR_FLOOR = 1e-12


def compute_phi(g: Graph, u, psibar, psi, algebra: GeneratorSet, kind: str = "phi"):
    """Odd observables phi = e^{-u} A(u) psi on the inner vertices.

    Componentwise phi_i = sum_j W_ij e^{u_j} (psi_i - psi_j); kind="phibar"
    substitutes the psibar generators instead.
    """
    vec = psibar if kind == "phibar" else psi
    if kind not in ("phi", "phibar"):
        raise ValueError(f"unknown kind {kind!r}")
    u = np.asarray(u, dtype=float)
    a = build_A(g, u)
    emu = np.exp(-u)
    out = []
    for i in range(g.n_inner):
        acc = algebra.zero()
        for j in range(g.n_total):
            if a[i, j] != 0.0:
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
            plain = (
                not isinstance(u[i], GrassmannElement)
                and not isinstance(s[i], GrassmannElement)
                and a.soul.is_zero(0.0)
                and b.soul.is_zero(0.0)
                and cb.is_zero(0.0)
                and c.is_zero(0.0)
            )
            if plain:
                ab, bb = a.body, b.body
                u2.append(u[i] + math.log(ab))
                s2.append(s[i] - math.exp(-u[i]) * bb / ab)
                pb2.append(psibar[i])
                p2.append(psi[i])
                continue
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


# -- report plumbing ---------------------------------------------------------


def _row(subset, estimate, stderr, reference, threshold):
    se = max(stderr, STDERR_FLOOR)
    est = complex(estimate)
    ref = complex(reference)
    z = abs(est - ref) / se
    return {
        "subset": list(subset),
        "estimate": est.real if abs(est.imag) < 1e-300 else [est.real, est.imag],
        "stderr": se,
        "reference": ref.real if abs(ref.imag) < 1e-300 else [ref.real, ref.imag],
        "z": z,
    }


def _ref_coefficient(ref, subset):
    if isinstance(ref, GrassmannElement):
        return ref.coefficient(subset)
    return ref if subset == () else 0.0


def _rows_vs_reference(est: Estimate, ref, threshold: float):
    rows = []
    subsets = set(est.mean) | (
        {names for names, _ in ref.subsets()} if isinstance(ref, GrassmannElement) else {()}
    )
    for subset in sorted(subsets, key=lambda t: (len(t), t)):
        mu = est.mean.get(subset, 0.0)
        se = est.stderr.get(subset, 0.0)
        rows.append(_row(subset, mu, se, _ref_coefficient(ref, subset), threshold))
    return rows


def _report(check: str, rows, seed: int, threshold: float = 3.0, extra=None) -> dict:
    verdict = "pass" if all(r["z"] <= threshold for r in rows) else "fail"
    rep = {"check": check, "verdict": verdict, "seed": seed, "coefficients": rows, "runtime_s": 0.0}
    if extra:
        rep.update(extra)
    return rep


# -- identity checks ---------------------------------------------------------


def _pairing_exponent(g: Graph, u, s, psibar, psi, algebra, a, b, chibar, chi):
    """-<pi, varpi> as an even element at a sample (u, s).

    The pairing is <(a^2+b^2+2*chibar*chi-1)_V, beta> + <b_V, theta>
    + <chibar_V, phi> + <phibar, chi_V> (the last product in reversed order).
    """
    beta = compute_beta(g, u)
    theta = compute_theta(g, u, s)
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


def grassmann_laplace_check(g: Graph, p: ScaleParams, chibar, chi, cc: ChainConfig, threshold: float = 3.0) -> dict:
    """Compare the MC Grassmann-Laplace transform against its closed form."""
    param_algebra = None
    for e in list(chibar) + list(chi):
        if isinstance(e, GrassmannElement):
            param_algebra = e.algebra
            break
    if param_algebra is None:
        param_algebra = GeneratorSet([])

    def f(u, s, psibar, psi, algebra):
        return _pairing_exponent(g, u, s, psibar, psi, algebra, p.a, p.b, chibar, chi).fn("exp")

    est = super_expect(g, f, param_algebra, cc)
    ref = laplace_closed_form(g, p, list(chibar), list(chi), param_algebra) if len(param_algebra) else laplace_closed_form(g, p)
    rows = _rows_vs_reference(est, ref, threshold)
    return _report("laplace-grassmann", rows, cc.seed, threshold)


def _mean_as_element(est: Estimate, algebra: GeneratorSet) -> GrassmannElement:
    coeffs = {}
    for names, val in est.mean.items():
        mask = 0
        for nm in names:
            mask |= 1 << algebra.index[nm]
        coeffs[mask] = val
    return GrassmannElement(algebra, coeffs)


def _scaled_estimate(est: Estimate, const: GrassmannElement, algebra: GeneratorSet) -> Estimate:
    """Multiply a Grassmann-valued estimate by a constant even element.

    Coefficient stderrs combine in quadrature through the bilinear expansion.
    """
    mean_elt = _mean_as_element(est, algebra) * const
    var: dict = {}
    for names_c, c in const.subsets():
        mask_c = 0
        for nm in names_c:
            mask_c |= 1 << algebra.index[nm]
        for names_e, se in est.stderr.items():
            mask_e = 0
            for nm in names_e:
                mask_e |= 1 << algebra.index[nm]
            if mask_c & mask_e:
                continue
            m = mask_c | mask_e
            var[m] = var.get(m, 0.0) + (abs(c) * se) ** 2
    mean, stderr = {}, {}
    masks = set(mean_elt.coeffs) | set(var)
    for m in masks:
        names = tuple(algebra.names[k] for k in range(len(algebra)) if m >> k & 1)
        mean[names] = mean_elt.coeffs.get(m, 0.0)
        stderr[names] = math.sqrt(var.get(m, 0.0))
    return Estimate(mean=mean, stderr=stderr, n_effective=est.n_effective, seed=est.seed)


def super_image_measure_check(g: Graph, v: GroupElement, f, cc: ChainConfig, threshold: float = 3.0) -> dict:
    """Two-sided check of the image-measure identity.

    Left side: E_{mu^W}[f e^{-<pi, varpi>}].  Right side: L(a,b,chibar,chi)
    times E_{mu^{W^a}}[pullback of f], with Grassmann-valued rescaled weights
    handled by exact per-sample reweighting against their body.
    """
    param_algebra = v.algebra
    a = [q[0] for q in v.quads]
    b = [q[1] for q in v.quads]
    chibar = [q[2] for q in v.quads]
    chi = [q[3] for q in v.quads]

    def lhs_f(u, s, psibar, psi, algebra):
        tilt = _pairing_exponent(g, u, s, psibar, psi, algebra, a, b, chibar, chi).fn("exp")
        return tilt * as_even(f(u, s, psibar, psi, algebra), algebra)

    lhs = super_expect(g, lhs_f, param_algebra, cc)

    a_body = np.array([complex(x.body).real for x in a])
    g_scaled = Graph(g.vertex_ids, g.weights * np.outer(a_body, a_body))
    souls = None
    if any(not x.soul.is_zero(0.0) for x in a):
        n = g.n_total
        souls = [[param_algebra.zero() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if g.weights[i, j] != 0.0:
                    full = a[i] * a[j] * g.weights[i, j]
                    souls[i][j] = full.soul
    pulled = super_scale_pullback(v, f)
    rhs_cc = replace(cc, seed=cc.seed + 1)
    rhs_raw = super_expect(g_scaled, pulled, param_algebra, rhs_cc, soul_weights=souls)
    lap = laplace_closed_form(g, ([x for x in a], [x for x in b]), chibar, chi, param_algebra)
    if not isinstance(lap, GrassmannElement):
        lap = param_algebra.scalar(lap)
    rhs = _scaled_estimate(rhs_raw, lap, param_algebra)

    rows = []
    subsets = set(lhs.mean) | set(rhs.mean)
    for subset in sorted(subsets, key=lambda t: (len(t), t)):
        ml = lhs.mean.get(subset, 0.0)
        mr = rhs.mean.get(subset, 0.0)
        se = math.hypot(lhs.stderr.get(subset, 0.0), rhs.stderr.get(subset, 0.0))
        rows.append(_row(subset, ml, se, mr, threshold))
    return _report("image-measure-super", rows, cc.seed, threshold)


def ward_check(g: Graph, alpha: np.ndarray, tau, cc: ChainConfig, threshold: float = 3.0) -> dict:
    """Ward identity: E[e^{<alpha, e^u(1+is)> + <tau, e^u(psibar+i psi)>}]
    equals e^{<alpha, 1>}; every tau-bearing coefficient vanishes."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha > 0):
        raise ValueError("alpha must be nonpositive")
    param_algebra = GeneratorSet([])
    for t in tau:
        if isinstance(t, GrassmannElement):
            param_algebra = t.algebra
            break

    def f(u, s, psibar, psi, algebra):
        acc = algebra.zero()
        for i in range(g.n_total):
            ui = as_even(u[i], algebra)
            si = as_even(s[i], algebra)
            eu = ui.fn("exp")
            acc = acc + (eu + eu * si * 1j) * alpha[i]
            ti = tau[i]
            if isinstance(ti, GrassmannElement) and not ti.is_zero(0.0):
                acc = acc + ti.embed(algebra) * (eu * (psibar[i] + psi[i] * 1j))
        return acc.fn("exp")

    est = super_expect(g, f, param_algebra, cc)
    ref = param_algebra.scalar(math.exp(alpha.sum()))
    rows = _rows_vs_reference(est, ref, threshold)
    # tau-bearing coefficients that cancel exactly per sample are pruned from
    # the estimate; report them as explicit zero rows
    seen = {tuple(r["subset"]) for r in rows}
    n_par = len(param_algebra)
    for mask in range(1, 1 << n_par):
        names = tuple(param_algebra.names[k] for k in range(n_par) if mask >> k & 1)
        if names not in seen:
            rows.append(_row(names, est.mean.get(names, 0.0), est.stderr.get(names, 0.0), 0.0, threshold))
    return _report("ward", rows, cc.seed, threshold)


# -- tower checks ------------------------------------------------------------


def _extend_tau(tower: GraphTower, tau: dict, n: int):
    """tau entries kept on the level; anything outside is dropped (the pinned
    odd fields vanish, so no boundary aggregation occurs)."""
    level = list(tower.levels[n])
    return {v: t for v, t in tau.items() if v in level}


def _extend_params(tower: GraphTower, params: dict, n: int, param_algebra: GeneratorSet):
    """Per-vertex [a, b, chibar, chi], identity outside the support."""
    level = list(tower.levels[n])
    zero = param_algebra.zero()
    out = []
    for vid in level:
        out.append(params.get(vid, (1.0, 0.0, zero, zero)))
    out.append((1.0, 0.0, zero, zero))
    return out


def _tilt_exponent_entries(quads, param_algebra):
    a = [as_even(q[0], param_algebra) for q in quads]
    b = [as_even(q[1], param_algebra) for q in quads]
    cb = [q[2] if isinstance(q[2], GrassmannElement) else param_algebra.zero() for q in quads]
    c = [q[3] if isinstance(q[3], GrassmannElement) else param_algebra.zero() for q in quads]
    return a, b, cb, c


def _susy_level_estimate(tower, k, alpha, tau, quads, param_algebra, cc):
    """E over level k of M_{alpha,tau} e^{-<pi, varpi>} plus its closed form."""
    gk = wired_subgraph(tower, k)
    alpha_k = extend_alpha(tower, alpha, k)
    tau_k = _extend_tau(tower, tau, k)
    a, b, cb, c = _tilt_exponent_entries(quads, param_algebra)

    def f(u, s, psibar, psi, algebra):
        acc = _pairing_exponent(gk, u, s, psibar, psi, algebra, a, b, cb, c)
        for i in range(gk.n_total):
            ui = as_even(u[i], algebra)
            si = as_even(s[i], algebra)
            eu = ui.fn("exp")
            acc = acc + (eu + eu * si * 1j) * alpha_k[i]
            vid = gk.vertex_ids[i]
            if vid in tau_k:
                acc = acc + tau_k[vid].embed(algebra) * (eu * (psibar[i] + psi[i] * 1j))
        return acc.fn("exp")

    est = super_expect(gk, f, param_algebra, cc)

    lap = laplace_closed_form(gk, (a, b), cb, c, param_algebra) if len(param_algebra) else laplace_closed_form(
        gk, ScaleParams(np.array([x.body for x in a]), np.array([x.body for x in b]))
    )
    if not isinstance(lap, GrassmannElement):
        lap = param_algebra.scalar(lap)
    scalar_exp = 0.0 + 0.0j
    for i in range(gk.n_total):
        ai, bi = complex(a[i].body), complex(b[i].body)
        scalar_exp += alpha_k[i] * (ai - 1j * bi)
    odd_exp = param_algebra.zero()
    for i in range(gk.n_inner):
        vid = gk.vertex_ids[i]
        if vid in tau_k:
            odd_exp = odd_exp - tau_k[vid] * (cb[i] + c[i] * 1j)
    ref = lap * (complex(math.e) ** scalar_exp) * odd_exp.fn("exp")
    return est, ref


def susy_martingale_check(tower: GraphTower, n: int, alpha: dict, tau: dict, params: dict, cc: ChainConfig, threshold: float = 3.0) -> dict:
    """Two-level martingale test for the generating superfunction.

    Both levels are compared to the shared closed form L * e^{<alpha, a-ib>}
    * e^{-<tau, chibar+i chi>} and to each other.
    """
    param_algebra = GeneratorSet([])
    for q in params.values():
        for e in q[2:]:
            if isinstance(e, GrassmannElement):
                param_algebra = e.algebra
    for t in tau.values():
        if isinstance(t, GrassmannElement):
            param_algebra = param_algebra.union(t.algebra)
    quads_n = _extend_params(tower, params, n, param_algebra)
    quads_n1 = _extend_params(tower, params, n + 1, param_algebra)

    cc2 = replace(cc, seed=cc.seed + 1)
    est_n, ref_n = _susy_level_estimate(tower, n, alpha, tau, quads_n, param_algebra, cc)
    est_n1, ref_n1 = _susy_level_estimate(tower, n + 1, alpha, tau, quads_n1, param_algebra, cc2)

    rows = []
    subsets = set(est_n.mean) | set(est_n1.mean)
    for subset in sorted(subsets, key=lambda t: (len(t), t)):
        ref = _ref_coefficient(ref_n, subset)
        rows.append(_row(subset, est_n.mean.get(subset, 0.0), est_n.stderr.get(subset, 0.0), ref, threshold))
        rows.append(_row(subset, est_n1.mean.get(subset, 0.0), est_n1.stderr.get(subset, 0.0), ref, threshold))
        se = math.hypot(est_n.stderr.get(subset, 0.0), est_n1.stderr.get(subset, 0.0))
        rows.append(_row(subset, est_n.mean.get(subset, 0.0), se, est_n1.mean.get(subset, 0.0), threshold))
    closed_res = max(
        abs(_ref_coefficient(ref_n, s) - _ref_coefficient(ref_n1, s))
        for s in set(dict(ref_n.subsets())) | set(dict(ref_n1.subsets()))
    )
    rep = _report("martingale-super", rows, cc.seed, threshold)
    rep["closed_form_residual"] = closed_res
    if closed_res > 1e-12:
        rep["verdict"] = "fail"
    return rep


def _derivative_martingale_observable(gk: Graph, j_ids, tilt_a, tilt_b):
    """Vectorized conditional expectation of M_{j_1..j_k} times the tilt.

    The Gaussian s-sector is integrated out analytically per u-sample
    (conditional mean -e^{-u}b, covariance A_VV^{-1}), which removes all
    s-variance from the estimator; j_ids is a multiset of up to 3 vertex ids.
    """
    idx = [gk.index_of(v) for v in j_ids]
    if len(idx) > 3:
        raise ValueError("at most 3 derivative indices supported")
    a = np.asarray(tilt_a, dtype=float)
    b = np.asarray(tilt_b, dtype=float)

    def obs(u, s):
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


def _tilt_arrays(gk: Graph, tilt: dict):
    a = np.ones(gk.n_total)
    b = np.zeros(gk.n_total)
    for vid, (av, bv) in tilt.items():
        if vid in gk.vertex_ids[:-1]:
            i = gk.index_of(vid)
            a[i], b[i] = av, bv
    return a, b


def _generating_observable(gk: Graph, alpha_k: np.ndarray, tilt_a, tilt_b):
    """Vectorized observable e^{<alpha, e^u(1+is)>} times the exponential tilt."""
    a = np.asarray(tilt_a, dtype=float)
    b = np.asarray(tilt_b, dtype=float)

    def obs(u, s):
        beta = compute_beta(gk, u)
        theta = compute_theta(gk, u, s)
        tilt = np.exp(-(a[:-1] ** 2 + b[:-1] ** 2 - 1.0) @ beta.T - b[:-1] @ theta.T)
        m = np.exp((np.exp(u) * (1.0 + 1j * s)) @ alpha_k)
        return m * tilt

    return obs


def martingale_generating_check(tower: GraphTower, n: int, alpha: dict, tilt: dict, cc: ChainConfig, threshold: float = 3.0) -> dict:
    """Two-level test of the exponential generating observable under a tilt.

    At both levels the estimate is compared to the closed form
    L(a, b) * e^{<alpha, a - i b>} (alpha summed onto the boundary outside the
    level) and the two levels are compared to each other.
    """
    rows = []
    ests = []
    for k, seed_shift in ((n, 0), (n + 1, 1)):
        gk = wired_subgraph(tower, k)
        alpha_k = extend_alpha(tower, alpha, k)
        a, b = _tilt_arrays(gk, tilt)
        obs = _generating_observable(gk, alpha_k, a, b)
        cck = replace(cc, seed=cc.seed + seed_shift)
        est = expect(gk, obs, cck)
        lap = laplace_closed_form(gk, ScaleParams(a, b))
        ref = lap * np.exp(alpha_k @ (a - 1j * b))
        ests.append(est)
        rows.append(_row((f"level_{k}",), est.mean, est.stderr, ref, threshold))
    e0, e1 = ests
    se = math.hypot(e0.stderr, e1.stderr)
    rows.append(_row(("cross_level",), e0.mean, se, e1.mean, threshold))
    return _report("martingale-generating", rows, cc.seed, threshold)


def _tail_saddle(gk: Graph, counts: np.ndarray) -> np.ndarray:
    """Maximizer of log rho_u(u) + <counts, u> over the inner vertices.

    Locates the ridge that dominates expectations of prod e^{u_{j_p}} under
    the u-marginal, used to center importance-sampling proposals.
    """
    from scipy.optimize import minimize

    def neg(ui):
        return -(_log_target(gk, ui[None, :])[0] + counts @ ui)

    res = minimize(neg, np.zeros(gk.n_inner), method="Nelder-Mead", options={"xatol": 1e-4, "fatol": 1e-8, "maxiter": 4000})
    return res.x


def martingale_derivative_check(tower: GraphTower, n: int, j_ids, tilt: dict, cc: ChainConfig, threshold: float = 3.0, check_id: str = "martingale-derivatives") -> dict:
    """Two-level test for the derivative martingales M_{j_1,...,j_k} under an
    exponential tilt, against the closed form L * prod (a_j - i b_j)."""
    rows = []
    ests = []
    for k, seed_shift in ((n, 0), (n + 1, 1)):
        gk = wired_subgraph(tower, k)
        a, b = _tilt_arrays(gk, tilt)
        # the observable grows like prod e^{u_{j_p}}, so the mean is dominated
        # by rare correlated excursions of u; importance sampling with mixture
        # components along the path to the saddle of log rho + <k, u> covers
        # both the bulk and the dominating ridge
        obs = _derivative_martingale_observable(gk, j_ids, a, b)
        counts = np.zeros(gk.n_inner)
        for vid in j_ids:
            counts[gk.index_of(vid)] += 1.0
        centers = None
        if j_ids:
            saddle = _tail_saddle(gk, counts)
            centers = [0.5 * saddle, saddle]
        cck = replace(cc, seed=cc.seed + seed_shift)
        est = expect_importance(gk, obs, cck, sigma=1.5, centers=centers)
        lap = laplace_closed_form(gk, ScaleParams(a, b))
        ref = lap * np.prod([(a[gk.index_of(v)] - 1j * b[gk.index_of(v)]) for v in j_ids]) if j_ids else lap
        ests.append((est, ref))
        rows.append(_row((f"level_{k}",), est.mean, est.stderr, ref, threshold))
    (e0, _), (e1, _) = ests
    se = math.hypot(e0.stderr, e1.stderr)
    rows.append(_row(("cross_level",), e0.mean, se, e1.mean, threshold))
    return _report(check_id, rows, cc.seed, threshold)


def consistency_check(tower: GraphTower, n: int, params: dict, cc: ChainConfig, threshold: float = 3.0) -> dict:
    """Closed-form level consistency L_n = L_{n+1} plus MC moment matching of
    (beta, theta) on V_n across the two wired levels."""
    g_n = wired_subgraph(tower, n)
    g_n1 = wired_subgraph(tower, n + 1)
    for vid in params:
        if vid not in tower.levels[n]:
            raise ValueError(f"parameter support {vid!r} outside level {n}")

    lap_n = laplace_closed_form(g_n, ScaleParams(*_tilt_arrays(g_n, params)))
    lap_n1 = laplace_closed_form(g_n1, ScaleParams(*_tilt_arrays(g_n1, params)))
    closed_res = abs(lap_n - lap_n1) / abs(lap_n)

    rows = [
        {
            "subset": ["closed_form"],
            "estimate": lap_n,
            "stderr": STDERR_FLOOR,
            "reference": lap_n1,
            "z": 0.0 if closed_res <= 1e-14 else float("inf"),
        }
    ]

    level_ids = list(tower.levels[n])
    names = (
        [f"beta_{v}" for v in level_ids]
        + [f"theta_{v}" for v in level_ids]
        + [f"beta2_{v}" for v in level_ids]
        + [f"theta2_{v}" for v in level_ids]
    )

    def moments(gk, cck):
        idx = [gk.index_of(v) for v in level_ids]

        def obs_pack(u, s):
            beta = compute_beta(gk, u)[:, idx]
            theta = compute_theta(gk, u, s)[:, idx]
            return np.concatenate([beta, theta, beta**2, theta**2], axis=1)

        return expect(gk, obs_pack, cck)

    m_n = moments(g_n, cc)
    m_n1 = moments(g_n1, replace(cc, seed=cc.seed + 1))
    for col, name in enumerate(names):
        se = math.hypot(m_n.stderr[col], m_n1.stderr[col])
        rows.append(_row((name,), m_n.mean[col], se, m_n1.mean[col], threshold))
    return _report("consistency", rows, cc.seed, threshold, extra={"closed_form_residual": closed_res})
