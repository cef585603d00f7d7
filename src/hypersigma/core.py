"""Deterministic quantities of the marginal model.

Coupling matrix A(u), the local observables beta and theta, the conjugated
matrix H_beta, three equivalent forms of the density rho, the inversion
beta -> u by one solve with H_beta (H_beta e^{u_V} = eta, eta_i = W_{i delta}),
and the cartesian coordinate change (including the odd sector).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grassmann import GeneratorSet, GrassmannElement
from .graphs import Graph

__all__ = [
    "FieldConfig",
    "CartesianPoint",
    "build_A",
    "compute_beta",
    "compute_theta",
    "h_beta",
    "rho_density",
    "log_rho_density",
    "u_from_beta",
    "s_from_beta_theta",
    "spinor_det_sides",
    "to_cartesian",
    "s_cart",
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
    """theta = e^{-u} A(u) s on inner vertices; equals sum_j W_ij e^{u_j}(s_i - s_j).

    u and s have shape (..., n_total).
    """
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    a_s = np.einsum("...ij,...j->...i", build_A(g, u), s)
    return (np.exp(-u) * a_s)[..., :-1]


def h_beta(g: Graph, u: np.ndarray) -> np.ndarray:
    """H = e^{-u} A(u) e^{-u}: off-diagonal -W_ij, diagonal 2*beta_i."""
    u = np.asarray(u, dtype=float)
    emu = np.exp(-u)
    return emu[:, None] * build_A(g, u) * emu[None, :]


def _avv_logdet(g: Graph, u_inner: np.ndarray) -> np.ndarray:
    """log det A_VV(u) for u_inner of shape (..., n_inner).

    The pinned component of u is 0.  Closed-form determinants for n_inner <= 3,
    an LU factorization (slogdet) above.  Raises EstimationError when A_VV
    overflows or its determinant is not positive.
    """
    u_inner = np.asarray(u_inner, dtype=float)
    u = np.concatenate([u_inner, np.zeros(u_inner.shape[:-1] + (1,))], axis=-1)
    avv = build_A(g, u)[..., :-1, :-1]
    n = g.n_inner
    if n > 3:
        sign, logdet = np.linalg.slogdet(avv)
        ok = sign.min() > 0.0 and np.isfinite(logdet).all()
    else:
        if n == 1:
            det = avv[..., 0, 0]
        elif n == 2:
            det = avv[..., 0, 0] * avv[..., 1, 1] - avv[..., 0, 1] * avv[..., 1, 0]
        else:
            a, b, c = avv[..., 0, 0], avv[..., 0, 1], avv[..., 0, 2]
            d, e, f = avv[..., 1, 0], avv[..., 1, 1], avv[..., 1, 2]
            g_, h, i = avv[..., 2, 0], avv[..., 2, 1], avv[..., 2, 2]
            det = a * (e * i - f * h) - b * (d * i - f * g_) + c * (d * h - e * g_)
        # NaN fails both comparisons
        ok = det.min() > 0.0 and det.max() < np.inf
        logdet = np.log(det) if ok else None
    if not ok:
        raise EstimationError("A_VV overflowed or lost positive definiteness")
    return logdet


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
    """
    ai, bi = vi
    aj, bj = vj
    mi = np.array([[ai, bi], [0.0, 1.0]])
    mj = np.array([[aj, bj], [0.0, 1.0]])
    d = mi @ mi.T / ai - mj @ mj.T / aj
    lhs = d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]  # ad - bc, as in log_rho_density
    eps = np.array([[0.0, -1.0], [1.0, 0.0]])
    cross = mi.T @ eps @ mj
    rhs = 2.0 - (cross**2).sum() / (ai * aj)
    return float(lhs), float(rhs)


@dataclass(frozen=True)
class CartesianPoint:
    """Cartesian coordinates (x, y, z, xi, eta).

    y is a real vector; xi/eta are odd elements; x and z are even elements
    (x acquires a nilpotent part from the odd sector) obeying the constraint
    z_i^2 = 1 + x_i^2 + y_i^2 + 2 xi_i eta_i, with z = 1, x = y = 0 at the
    pinned vertex.
    """

    x: tuple  # even GrassmannElements
    y: np.ndarray
    z: tuple  # even GrassmannElements
    xi: tuple  # odd GrassmannElements
    eta: tuple


def to_cartesian(cfg: FieldConfig, psibar=None, psi=None, algebra: GeneratorSet | None = None) -> CartesianPoint:
    """Map horospherical coordinates (and odd partners) to cartesian ones.

    psibar/psi are sequences of odd GrassmannElements per vertex (pinned entry
    zero); omitted they default to 0 over a trivial algebra.
    """
    u, s = cfg.u, cfg.s
    n = len(u)
    if algebra is None:
        algebra = GeneratorSet([])
    zero = algebra.zero()
    if psibar is None:
        psibar = [zero] * n
    if psi is None:
        psi = [zero] * n
    eu = np.exp(u)
    y = s * eu
    x = []
    z = []
    xi = []
    eta = []
    for i in range(n):
        pp = psibar[i] * psi[i]
        x_i = algebra.scalar(np.sinh(u[i]) - 0.5 * s[i] ** 2 * eu[i]) - pp * eu[i]
        z_i = algebra.scalar(np.cosh(u[i]) + 0.5 * s[i] ** 2 * eu[i]) + pp * eu[i]
        x.append(x_i)
        z.append(z_i)
        xi.append(psibar[i] * eu[i])
        eta.append(psi[i] * eu[i])
    return CartesianPoint(x=tuple(x), y=y, z=tuple(z), xi=tuple(xi), eta=tuple(eta))


def s_cart(g: Graph, p: CartesianPoint) -> GrassmannElement:
    """Edge action in cartesian coordinates, as an even element.

    With vanishing odd part its body equals
    -sum_edges W [cosh(u_i-u_j) - 1 + (1/2)(s_i-s_j)^2 e^{u_i+u_j}].
    """
    algebra = p.z[0].algebra
    y = p.y
    total = algebra.zero()
    for i, j, w in g.edges():
        term = (
            algebra.scalar(-1.0 - y[i] * y[j])
            - p.x[i] * p.x[j]
            + p.z[i] * p.z[j]
            - p.xi[i] * p.eta[j]
            + p.eta[i] * p.xi[j]
        )
        total = total - term * w
    return total
