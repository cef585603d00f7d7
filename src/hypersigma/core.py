"""Deterministic quantities of the marginal model.

Coupling matrix A(u), the local observables beta and theta, the conjugated
matrix H_beta, three equivalent forms of the density rho, the inversion
beta -> u by one solve with H_beta (H_beta e^{u_V} = eta, eta_i = W_{i delta}),
and the batched LDL^T factor of H_beta(u) behind log det A_VV, entries of
A_VV^{-1} and s-draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph

__all__ = [
    "FieldConfig",
    "build_A",
    "compute_beta",
    "compute_theta",
    "h_beta",
    "rho_density",
    "log_rho_density",
    "u_from_beta",
    "s_from_beta_theta",
    "spinor_det_sides",
    "InversionError",
    "EstimationError",
]


class EstimationError(RuntimeError):
    """A field kernel or an estimator met an overflow, a matrix that is not
    positive definite, or a non-finite value."""


class InversionError(RuntimeError):
    """beta is not finite or H_beta is not positive definite."""


@dataclass(frozen=True)
class FieldConfig:
    """A point (u, s) of the field space; the pinned components vanish."""

    u: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if u.shape != s.shape:
            raise ValueError("u and s must have the same shape")
        if abs(u[-1]) > 0 or abs(s[-1]) > 0:
            raise ValueError("pinned components must vanish")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", s)


def build_A(g: Graph, u: np.ndarray) -> np.ndarray:
    """Weighted coupling matrix: off-diagonal -W_ij e^{u_i+u_j}, rows sum to 0.

    `u` has shape (..., n_total); the result has shape (..., n_total, n_total).
    """
    eu = np.exp(np.asarray(u, dtype=float))
    a = -g.weights * (eu[..., :, None] * eu[..., None, :])
    n = g.n_total
    # the diagonal as a strided view of the flattened (contiguous) matrices
    a.reshape(a.shape[:-2] + (n * n,))[..., :: n + 1] = -a.sum(axis=-1)
    return a


def compute_beta(g: Graph, u: np.ndarray) -> np.ndarray:
    """beta_i = (1/2) sum_j W_ij e^{u_j - u_i} on the inner vertices; u is (..., n_total)."""
    eu = np.exp(np.asarray(u, dtype=float))
    return 0.5 * ((eu @ g.weights) / eu)[..., :-1]


def compute_theta(g: Graph, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """theta = e^{-u} A(u) s on inner vertices, as s (e^u W) - (e^u s) W without A(u);
    u and s have shape (..., n_total).  einsum, unlike BLAS, gives a row the same bits batched or alone."""
    eu = np.exp(np.asarray(u, dtype=float))
    s = np.asarray(s, dtype=float)
    return (s * np.einsum("...j,ji->...i", eu, g.weights) - np.einsum("...j,ji->...i", eu * s, g.weights))[..., :-1]


def h_beta(g: Graph, u: np.ndarray) -> np.ndarray:
    """H = e^{-u} A(u) e^{-u}: off-diagonal -W_ij, diagonal 2*beta_i."""
    u = np.asarray(u, dtype=float)
    emu = np.exp(-u)
    return emu[:, None] * build_A(g, u) * emu[None, :]


def _eliminate(g: Graph, rows: int, pivot):
    """LDL^T elimination of H_beta = 2 beta - W_VV over the inner vertices in
    index order, for `rows` fields at once (samples on the last axis), on the
    fill pattern of `g.elimination`.  What and etac, the Schur-complement
    weights and right-hand side left by the earlier columns, start as W_VV and
    eta, eta_i = W_{i delta}.  Column k's pivot x_k = 1/(2 beta_k - What_kk) is
    `pivot(k, etac_k, (What_kj)_{j>k})`; eliminating k adds x_k What_ik What_jk
    to What_ij and x_k What_jk etac_k to etac_j.  Returns x (n_inner, rows),
    What (n_pairs, rows) and etac = L^{-1} eta, with L_jk = -x_k What_kj."""
    el = g.elimination
    m = g.n_inner
    what = np.repeat(el.w0, rows, axis=1)
    etac = np.repeat(g.weights[:m, -1:], rows, axis=1)
    x = np.empty((m, rows))
    for k in range(m):
        wk = what[el.col[k]]
        x[k] = pivot(k, etac[k], wk)
        etac[el.pattern[k]] += (x[k] * etac[k]) * wk
        tgt, a, b = el.upd[k]
        if len(tgt):
            what[tgt] += x[k] * wk[a] * wk[b]
    return x, what, etac


def _back_substitute(g: Graph, x: np.ndarray, what: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """y = L^{-T} D^{-1} rhs for the factor of `_eliminate` (D = diag(1/x)):
    y_k = x_k (rhs_k + sum_{j>k} What_kj y_j), from the last column to the first."""
    el = g.elimination
    y = np.empty_like(rhs)
    for k in reversed(range(len(x))):
        y[k] = x[k] * (rhs[k] + (what[el.col[k]] * y[el.pattern[k]]).sum(axis=0))
    return y


def _h_beta_ldl(g: Graph, u_inner: np.ndarray):
    """x and What of `_eliminate` for H_beta(u), u_inner (..., n_inner) flattened to N fields.

    The deterministic twin of `sampler._stz_u`: as H_beta e^{u_V} = eta, each
    pivot x_k = e^{u_k} / (etac_k + sum_{j>k} What_kj e^{u_j}) is a ratio of
    positive sums.  Raises EstimationError on a non-positive or non-finite pivot.
    """
    psi = np.exp(np.asarray(u_inner, dtype=float).reshape(-1, g.n_inner).T)
    pat = g.elimination.pattern
    with np.errstate(all="ignore"):
        x, what, _ = _eliminate(g, psi.shape[1], lambda k, r, wk: psi[k] / (r + (wk * psi[pat[k]]).sum(axis=0)))
    # NaN fails both comparisons
    if not (x.min(initial=1.0) > 0.0 and x.max(initial=1.0) < np.inf):
        raise EstimationError("H_beta overflowed or lost positive definiteness")
    return x, what


def _avv_logdet(g: Graph, u_inner: np.ndarray) -> np.ndarray:
    """log det A_VV(u) = 2 sum_V u - sum_k log x_k (A_VV = e^u H_beta e^u) for
    u_inner of shape (..., n_inner).  Raises EstimationError as `_h_beta_ldl`."""
    u_inner = np.asarray(u_inner, dtype=float)
    x, _ = _h_beta_ldl(g, u_inner)
    return 2.0 * u_inner.sum(axis=-1) - np.log(x).sum(axis=0).reshape(u_inner.shape[:-1])


def _h_beta_inverse_entries(g: Graph, ldl, idx) -> np.ndarray:
    """G_pq = (H_beta(u)^{-1})_{idx_p idx_q} = e^{u_p+u_q} A_VV^{-1}_{idx_p idx_q},
    shape (len(idx), len(idx), N), from the factor `ldl = _h_beta_ldl(g, u_inner)`
    of N fields.  As H_beta^{-1} = L^{-T} D^{-1} L^{-1}, G_pq = sum_k x_k v^p_k v^q_k
    with v^p = L^{-1} e_{idx_p}, a sum of non-negative terms."""
    x, what = ldl
    el = g.elimination
    v = np.zeros((len(idx), g.n_inner, x.shape[1]))
    v[np.arange(len(idx)), idx] = 1.0
    for k in range(g.n_inner):
        v[:, el.pattern[k]] += x[k] * v[:, k, None] * what[el.col[k]]
    return np.einsum("akn,bkn,kn->abn", v, v, x)


#: below this log value exp underflows float64 to 0, so rho reads as 0.0
LOG_UNDERFLOW = -745.0


def _edge_action(g: Graph, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-edge action cosh(u_i-u_j) - 1 + (1/2)(s_i-s_j)^2 e^{u_i+u_j}.

    u and s have shape (..., n_total); the result has shape (..., n_edges),
    one column per edge of `g.edge_arrays`.
    """
    i, j, _ = g.edge_arrays
    return np.cosh(u[..., i] - u[..., j]) - 1.0 + 0.5 * (s[..., i] - s[..., j]) ** 2 * np.exp(u[..., i] + u[..., j])


def _log_rho(g: Graph, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """log rho = log det A_VV(u) - sum_edges W [edge action] for (..., n_total)
    fields with vanishing pinned components; shape (...).

    Raises EstimationError when A_VV(u) overflows or is not positive definite.
    """
    return _avv_logdet(g, u[..., :-1]) - (g.edge_arrays[2] * _edge_action(g, u, s)).sum(axis=-1)


def log_rho_density(g: Graph, cfg: FieldConfig, mode: str = "direct") -> float:
    """log of the model density, in one of three equivalent representations.

    Raises EstimationError when A_VV(u) overflows or is not positive definite.
    """
    u, s = cfg.u, cfg.s
    if mode == "direct":
        return float(_log_rho(g, u, s))
    logdet = _avv_logdet(g, u[:-1])
    if mode == "quadratic":
        a = build_A(g, u)
        emu = np.exp(-u)
        return float(logdet - 0.5 * s @ a @ s - 0.5 * emu @ a @ emu)
    if mode == "spinor":
        acc = 0.0
        for i, j, w in g.edges():
            vi = np.array([[np.exp(-u[i]), s[i]], [0.0, 1.0]])
            vj = np.array([[np.exp(-u[j]), s[j]], [0.0, 1.0]])
            mi = vi @ vi.T * np.exp(u[i])
            mj = vj @ vj.T * np.exp(u[j])
            # ad - bc: np.linalg.det's LU would divide by a pivot that a subnormal entry zeroes
            d = mi - mj
            acc += 0.5 * w * (d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0])
        return float(logdet + acc)
    raise ValueError(f"unknown mode {mode!r}")


def rho_density(g: Graph, cfg: FieldConfig, mode: str = "direct") -> float:
    """exp of log_rho_density; 0.0 below LOG_UNDERFLOW.

    Raises EstimationError when A_VV(u) overflows or is not positive definite.
    """
    logval = log_rho_density(g, cfg, mode)
    if logval < LOG_UNDERFLOW:
        return 0.0
    return float(np.exp(logval))


def _solve_h_beta(g: Graph, beta: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """H_beta^{-1} rhs from one Cholesky factor of H_beta = 2 diag(beta) - W_VV;
    raises InversionError when beta is not finite or H_beta is not positive
    definite."""
    if not np.isfinite(beta).all():
        raise InversionError("beta must be finite")
    try:
        chol = np.linalg.cholesky(2.0 * np.diag(beta) - g.weights[:-1, :-1])
    except np.linalg.LinAlgError:
        raise InversionError("H_beta is not positive definite") from None
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


def u_from_beta(g: Graph, beta: np.ndarray) -> np.ndarray:
    """Invert compute_beta by one solve: H_beta e^{u_V} = eta, eta_i = W_{i delta}."""
    eu = _solve_h_beta(g, beta, g.weights[:-1, -1])
    return np.append(np.log(eu), 0.0)


def s_from_beta_theta(g: Graph, beta: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """s (pinned component 0) from theta = H_beta e^{u_V} s_V, with the same
    factorisation as u_from_beta."""
    rhs = np.stack([g.weights[:-1, -1], np.asarray(theta, dtype=float)], axis=1)
    x = _solve_h_beta(g, beta, rhs)
    return np.append(x[:, 1] / x[:, 0], 0.0)


def spinor_det_sides(vi, vj):
    """Both sides of the 2x2 determinant identity for group points [a, b].

    A point v = [a, b] with a > 0 is the matrix [[a, b], [0, 1]].  Returns
    (det(v_i v_i^t / a_i - v_j v_j^t / a_j),
     2 - ||v_i^t eps v_j||_F^2 / (a_i a_j)) with eps = [[0, -1], [1, 0]].
    a and b may be arrays of one shape, for as many pairs of points; the sides
    then have that shape.
    """
    ai, bi = np.asarray(vi[0], dtype=float), np.asarray(vi[1], dtype=float)
    aj, bj = np.asarray(vj[0], dtype=float), np.asarray(vj[1], dtype=float)

    def point(a, b):
        m = np.zeros(a.shape + (2, 2))
        m[..., 0, 0], m[..., 0, 1], m[..., 1, 1] = a, b, 1.0
        return m

    mi, mj = point(ai, bi), point(aj, bj)
    d = mi @ mi.swapaxes(-1, -2) / ai[..., None, None] - mj @ mj.swapaxes(-1, -2) / aj[..., None, None]
    lhs = d[..., 0, 0] * d[..., 1, 1] - d[..., 0, 1] * d[..., 1, 0]  # ad - bc, as in log_rho_density
    eps = np.array([[0.0, -1.0], [1.0, 0.0]])
    cross = mi.swapaxes(-1, -2) @ eps @ mj
    rhs = 2.0 - (cross**2).sum(axis=(-2, -1)) / (ai * aj)
    return lhs[()], rhs[()]
