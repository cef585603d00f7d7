"""Monte-Carlo machinery for the sigma-model measure.

Every estimate is one stream of chunks (u, ldl, log w) of at most CHUNK_ROWS
draws ending in one reduction (`_reduce`), with ldl the LDL^T factor of
H_beta(u) = e^{-u} A_VV(u) e^{-u}.  Exact draws (`expect`) have equal weights:
on the inner vertices beta has the Sabot-Tarres-Zeng law, whose inverse
Gaussian pivots build that factor while drawing (`_stz_u`).  Importance draws
(`expect_importance`) are factored once each and weighted by the exact
u-marginal.  Given u, s_V is Gaussian with covariance A_VV^{-1}: observables
of (u, ldl) integrate it out with entries of H_beta^{-1} read from ldl or,
where s is the subject, draw it from ldl (`_s_draws`).  Grassmann-valued
observables are reduced exactly per sample by Berezin integration, one
evaluation per chunk (`_berezin_coefficients`), so their expectation is
`expect` of the real vector of parameter-algebra coefficients.  No dense A_VV
is built, and estimates are fully determined by (seed, config, graph).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import EstimationError, _back_substitute, _eliminate, _h_beta_ldl
from .grassmann import GeneratorSet, GrassmannElement, as_even, berezin_pairs
from .graphs import Graph

__all__ = [
    "ChainConfig",
    "Estimate",
    "sample_u",
    "sample_s_given_u",
    "expect",
    "expect_importance",
    "super_expect",
    "EstimationError",
]


@dataclass(frozen=True)
class ChainConfig:
    """Sample count and seed of an estimate.

    Only `n_samples` and `seed` act.  `burn_in`, `thinning`, `n_chains` and
    `proposal_scale` configured the Metropolis chain that exact draws
    replaced; they stay, in this order, until the benchmark's `chain-scale`
    workload, which builds this class positionally, is redefined.
    """

    n_samples: int = 100_000
    burn_in: int = 2_000
    thinning: int = 1
    n_chains: int = 8
    proposal_scale: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass(frozen=True)
class Estimate:
    """Monte-Carlo estimate; mean and stderr may be scalars, arrays, or
    per-coefficient dicts for Grassmann-valued observables."""

    mean: object
    stderr: object
    n_effective: float
    seed: int
    diagnostics: dict = field(default_factory=dict)


#: rows drawn, and handed to an observable, at a time
CHUNK_ROWS = 4096

#: inflation of the importance proposal's covariance over the inverse Hessian
PROPOSAL_SIGMA = 1.5

#: Newton steps `_tail_saddle` may take before it gives up
SADDLE_MAX_STEPS = 50


def _log_target(g: Graph, u_inner: np.ndarray, ldl) -> np.ndarray:
    """Log density of the u-marginal (up to a constant) at u_inner (..., n_inner).

    Obtained by integrating the Gaussian s-sector out of the model measure:
    (1/2) log det A_VV(u) - sum_edges W [cosh(u_i - u_j) - 1] - sum_V u_i.  As
    A_VV = e^u H_beta e^u, (1/2) log det A_VV - sum_V u = -(1/2) sum_k log x_k
    over the pivots x of `ldl`, the factor `core._h_beta_ldl(g, u_inner)`.
    Raises EstimationError when it overflows.
    """
    u_full = np.concatenate([u_inner, np.zeros(u_inner.shape[:-1] + (1,))], axis=-1)
    i, j, w = g.edge_arrays
    with np.errstate(over="ignore"):
        edge_sum = (w * (np.cosh(u_full[..., i] - u_full[..., j]) - 1.0)).sum(axis=-1)
    out = -0.5 * np.log(ldl[0]).sum(axis=0).reshape(u_inner.shape[:-1]) - edge_sum
    if not np.isfinite(out).all():
        raise EstimationError("log target overflowed")
    return out


def _log_target_derivatives(g: Graph, u_inner: np.ndarray):
    """Gradient and Hessian of `_log_target` at one inner point (n_inner,).

    As log det A_VV = 2 sum_V u + log det H, the target is (1/2) log det H -
    sum_edges W [cosh(u_i - u_j) - 1], H = 2 diag(beta) - W_VV, with u only in
    2 beta_i = sum_j E_ij, E_ij = W_ij e^{u_j - u_i}.  With G = H^{-1} and
    J_ik = d_k (2 beta_i): gradient (1/2) J^T diag(G), Hessian
    (1/2) (T - J^T (G o G) J), T_kl = sum_i G_ii d_k d_l (2 beta_i), plus the
    sinh and cosh terms of the edges.  Raises EstimationError when H
    overflows or is not positive definite.
    """
    diff = u_inner[:, None] - np.append(u_inner, 0.0)[None, :]
    w = g.weights[:-1]
    e = w * np.exp(-diff)
    two_beta = e.sum(axis=1)
    e_vv = e[:, :-1]
    try:
        inv_chol = np.linalg.inv(np.linalg.cholesky(np.diag(two_beta) - g.weights[:-1, :-1]))
    except np.linalg.LinAlgError as exc:
        raise EstimationError("H_beta overflowed or is not positive definite") from exc
    gmat = inv_chol.T @ inv_chol
    gd = np.diag(gmat)
    jac = e_vv - np.diag(two_beta)
    ge = gd[:, None] * e_vv
    t = np.diag(two_beta * gd + e_vv.T @ gd) - ge - ge.T
    cw = w * np.cosh(diff)
    grad = 0.5 * jac.T @ gd - (w * np.sinh(diff)).sum(axis=1)
    hess = 0.5 * (t - jac.T @ (gmat * gmat) @ jac) - np.diag(cw.sum(axis=1)) + cw[:, :-1]
    # at saddles far from u = 0 the terms cancel, and rounding alone would
    # leave the Hessian up to ~1e-9 (relative) from symmetric
    return grad, 0.5 * (hess + hess.T)


def _tail_saddle(g: Graph, counts: np.ndarray) -> np.ndarray:
    """Maximizer of `_log_target` + <counts, u> over the inner vertices: the
    ridge that dominates expectations of prod e^{u_{j_p}}, where importance
    proposals are centred.  Newton steps with the exact Hessian and a
    backtracking line search from u = 0, and one more full step once the
    gradient's max-norm is <= 1e-8.  Raises EstimationError when the Hessian
    is not negative definite or after SADDLE_MAX_STEPS steps without convergence.
    """

    def objective(x):
        return _log_target(g, x[None, :], _h_beta_ldl(g, x[None, :]))[0] + counts @ x

    u = np.zeros(g.n_inner)
    f = objective(u)
    for _ in range(SADDLE_MAX_STEPS):
        grad, hess = _log_target_derivatives(g, u)
        grad = grad + counts
        if not np.linalg.eigvalsh(hess).max() < 0.0:
            raise EstimationError("Hessian of the log target not negative definite")
        step = np.linalg.solve(-hess, grad)
        if np.abs(grad).max() <= 1e-8:
            return u + step
        # Armijo backtracking; the allowance keeps roundoff in the objective
        # from rejecting the full steps of the quadratic phase
        slack = 1e-12 * (1.0 + abs(f))
        t = 1.0
        while objective(u + t * step) < f + 1e-4 * t * (grad @ step) - slack and t > 1e-10:
            t *= 0.5
        u = u + t * step
        f = objective(u)
    raise EstimationError(f"saddle search did not converge in {SADDLE_MAX_STEPS} steps")


def _stz_u(g: Graph, n: int, seed: int, out=None):
    """n independent draws from the u-marginal as chunks (u, ldl, log w) of
    CHUNK_ROWS rows: u (rows, n_total), pinned column 0 (rows of `out` if
    given), ldl = (x, What) as `core._h_beta_ldl(g, u[:, :-1])` computes it,
    and equal log weights 0.

    On the inner vertices beta has the STZ law nu^{W, eta}, eta_i = W_{i delta},
    and e^u = H_beta^{-1} eta with H_beta = 2 beta - W_VV.  The LDL^T elimination
    of H_beta (`core._eliminate`) samples each pivot instead of computing it:
    with What and etac the Schur-complement weights and right-hand side left
    by the earlier columns, x_k = 1/(2 beta_k - What_kk) is inverse Gaussian
    with mean 1/(etac_k + sum_{j>k} What_kj) and shape 1 (STZ restriction and
    conditioning lemmas).  Back-substitution gives
    e^{u_k} = x_k (etac_k + sum_{j>k} What_kj e^{u_j}).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5EED)))
    for start in range(0, n, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, n - start)
        x, what, etac = _eliminate(g, rows, lambda k, r, wk: rng.wald(1.0 / (r + wk.sum(axis=0)), 1.0))
        u = np.zeros((rows, g.n_total)) if out is None else out[start : start + rows]
        u[:, :-1] = np.log(_back_substitute(g, x, what, etac)).T
        yield u, (x, what), np.zeros(rows)


def sample_u(g: Graph, cc: ChainConfig) -> np.ndarray:
    """Independent draws from the u-marginal, shape (n_samples, n_total); pinned column 0."""
    out = np.zeros((cc.n_samples, g.n_total))
    for _ in _stz_u(g, cc.n_samples, cc.seed, out):
        pass
    return out


def _draw_s(g: Graph, u_inner: np.ndarray, z: np.ndarray, ldl) -> np.ndarray:
    """s with covariance A_VV(u)^{-1} on the inner vertices from standard
    normals z (both shaped (..., n_inner)) and ldl = (x, What) of H_beta(u);
    the pinned column is appended as 0.

    With A_VV = e^u H_beta e^u and H_beta = L D L^T (D = diag(1/x)),
    s_V = e^{-u} L^{-T} D^{-1/2} z: y_k = sqrt(x_k) z_k + x_k sum_{j>k} What_kj y_j.
    This is the map z -> C^{-T} z of the Cholesky factor C of A_VV, up to
    rounding.  Raises EstimationError when s overflows.
    """
    x, what = ldl
    shape = np.shape(z)
    with np.errstate(all="ignore"):
        y = _back_substitute(g, x, what, np.reshape(z, (-1, g.n_inner)).T / np.sqrt(x))
        s_inner = (np.exp(-np.reshape(u_inner, (-1, g.n_inner))) * y.T).reshape(shape)
    if not np.isfinite(s_inner).all():
        raise EstimationError("s overflowed")
    return np.concatenate([s_inner, np.zeros(shape[:-1] + (1,))], axis=-1)


def sample_s_given_u(g: Graph, u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact conditional draw: s_V Gaussian with covariance A_VV(u)^{-1}.

    u has shape (..., n_total) and one s is drawn per field, from the same
    normals as one call per field in order.
    """
    u = np.asarray(u, dtype=float)
    return _draw_s(g, u[..., :-1], rng.standard_normal(u.shape[:-1] + (g.n_inner,)), _h_beta_ldl(g, u[..., :-1]))


def _s_draws(g: Graph, seed: int):
    """draw(u, ldl): s given u for one chunk, from its factor, continuing the stream of `seed`."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5)))
    return lambda u, ldl: _draw_s(g, u[:, :-1], rng.standard_normal((len(u), g.n_inner)), ldl)


def _with_s(g: Graph, f, seed: int):
    """The observable (u, ldl) -> f(u, s), s drawn by `_s_draws(g, seed)`."""
    draw = _s_draws(g, seed)
    return lambda u, ldl: f(u, draw(u, ldl))


def _reduce(observable, chunks, seed: int) -> Estimate:
    """The estimate of `observable(u, ldl)` over (u, ldl, log w) chunks: the
    self-normalised mean m = sum w v / sum w, the delta-method standard error
    sqrt(n/(n-1) sum w^2 |v - m|^2) / sum w and Kong's effective sample size
    (sum w)^2 / sum w^2; with equal weights, the i.i.d. mean, stderr and n.
    An (N, k) observable gives arrays of length k."""
    vals, lw = zip(*((np.asarray(observable(u, ldl)), log_w) for u, ldl, log_w in chunks))
    vals, lw = np.concatenate(vals), np.concatenate(lw)
    if not np.all(np.isfinite(np.abs(vals))):
        raise EstimationError("observable produced NaN/Inf values")
    n = len(vals)
    w = np.exp(lw - lw.max())
    total = w.sum()
    cols = vals.T if vals.ndim == 2 else [vals]
    mean = np.array([(w * c).sum() / total for c in cols])
    var = [(w**2 * np.abs(c - mu) ** 2).sum() * n / (n - 1) for c, mu in zip(cols, mean)]
    stderr = np.sqrt(var) / total
    if vals.ndim == 1:
        mean, stderr = mean[0], float(stderr[0])
    ess = float(total**2 / (w**2).sum())
    return Estimate(mean=mean, stderr=stderr, n_effective=ess, seed=seed, diagnostics={"ess": ess})


def expect(g: Graph, observable, cc: ChainConfig) -> Estimate:
    """Monte-Carlo mean of a real/complex observable over exact independent
    draws, with the i.i.d. standard error (`_reduce`).  `observable(u, ldl)`
    gets one chunk of at most CHUNK_ROWS draws, u (N, n_total) and the factor
    of H_beta(u) `_stz_u` built while drawing, and returns a vector of length
    N, or an (N, k) array of k observables read from the same draws."""
    return _reduce(observable, _stz_u(g, cc.n_samples, cc.seed), cc.seed)


def _proposal_mixture(g: Graph, centers):
    """The importance proposal: an equal-weight Gaussian mixture with one
    component per center c_k, of covariance L_k L_k^T = PROPOSAL_SIGMA^2
    times the inverse of the exact negative Hessian of the log target at c_k.

    Returns (draw, log_q).  draw(z, pick) maps standard normals z (N, n_inner)
    to the points c_k + L_k z of the components `pick` (N,); log_q(u_t) is the
    mixture's log density at the columns of u_t (n_inner, N), up to the shared
    constant -(n_inner/2) log 2 pi.  The components sit side by side, so each
    is one matrix product for all of them: with the factors L_k^T for draws,
    with the whitening factors L_k^{-1} for densities.
    """
    nc, n = len(centers), g.n_inner
    centers = np.array(centers, dtype=float)
    precs = [-_log_target_derivatives(g, c)[1] / PROPOSAL_SIGMA**2 for c in centers]
    chols = [np.linalg.cholesky(np.linalg.inv(prec)) for prec in precs]
    factors = np.concatenate([chol.T for chol in chols], axis=1)
    whiten = np.concatenate([np.linalg.inv(chol) for chol in chols])
    offset = (whiten.reshape(nc, n, n) @ centers[:, :, None]).reshape(-1, 1)
    # log det L_k from its diagonal, and the equal weights 1/nc
    log_norm = np.log([np.diag(chol) for chol in chols]).sum(axis=1)[:, None] + math.log(nc)

    def draw(z, pick):
        return (z @ factors).reshape(len(z), nc, n)[np.arange(len(z)), pick] + centers[pick]

    def log_q(u_t):
        z = whiten @ u_t
        z -= offset
        z *= z
        comps = z.reshape(nc, n, -1).sum(axis=1)
        comps *= -0.5
        comps -= log_norm
        top = comps.max(axis=0)
        comps -= top
        np.exp(comps, out=comps)
        return top + np.log(comps.sum(axis=0))

    return draw, log_q


def expect_importance(g: Graph, observable, cc: ChainConfig, counts=None) -> Estimate:
    """Self-normalized importance-sampling mean of an observable of u alone.

    `observable(u, ldl)` is called as by `expect`, with the factor the target
    density was read from.  `counts` holds the growth exponents k of its
    columns (each grows like e^{<k, u>}), one vector per column or a single
    one.  Proposes u from the mixture of `_proposal_mixture` centred at the
    origin and at 1/2 and 1 times the saddle (`_tail_saddle`) of each nonzero
    k, and weights each draw by the exact u-marginal density over the
    mixture's (`_reduce`).  The components' covariances match the strong
    correlations of the marginal, and its superexponential decay keeps the
    weights bounded, so this resolves tail-dominated observables whose plain
    Monte-Carlo mean has a far larger standard error at the same sample count.
    """
    n = g.n_inner
    rng = np.random.default_rng(np.random.SeedSequence((cc.seed, 0x15)))
    centers = [np.zeros(n)]
    for k in np.atleast_2d(np.asarray([] if counts is None else counts, dtype=float)):
        if k.any():
            saddle = _tail_saddle(g, k)
            centers += [0.5 * saddle, saddle]
    draw, log_q = _proposal_mixture(g, centers)
    pick = rng.integers(0, len(centers), cc.n_samples)
    z0 = rng.standard_normal((cc.n_samples, n))

    def chunks():
        for start in range(0, cc.n_samples, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            ui = draw(z0[rows], pick[rows])
            ldl = _h_beta_ldl(g, ui)
            yield np.concatenate([ui, np.zeros((len(ui), 1))], axis=1), ldl, _log_target(g, ui, ldl) - log_q(ui.T)

    return _reduce(observable, chunks(), cc.seed)


def psi_algebra(g: Graph, param_algebra: GeneratorSet | None = None) -> GeneratorSet:
    """Algebra with one (psibar_i, psi_i) pair per inner vertex, optionally
    followed by the parameter generators."""
    alg = GeneratorSet([f"{p}_{vid}" for vid in g.vertex_ids[:-1] for p in ("pb", "p")])
    return alg if param_algebra is None else alg.union(param_algebra)


def psi_vectors(g: Graph, algebra: GeneratorSet):
    """(psibar, psi) per-vertex generator lists; pinned entries are zero."""
    psibar = [algebra.gen(f"pb_{vid}") for vid in g.vertex_ids[:-1]] + [algebra.zero()]
    psi = [algebra.gen(f"p_{vid}") for vid in g.vertex_ids[:-1]] + [algebra.zero()]
    return psibar, psi


def fermion_weight(g: Graph, u: np.ndarray, algebra: GeneratorSet) -> GrassmannElement:
    """exp(-<psibar, A(u) psi>) over `algebra` (which must contain the psi pairs).

    A(u) is the Laplacian of the couplings W_ij e^{u_i+u_j}, so the exponent is
    -sum_edges W_ij e^{u_i+u_j} (psibar_i - psibar_j)(psi_i - psi_j) over
    `g.edge_arrays`.  `u` has shape (n_total,), or (n_total, N) for a weight
    whose coefficients are arrays over a batch of N fields.
    """
    psibar, psi = psi_vectors(g, algebra)
    u = np.asarray(u, dtype=float)
    exponent = algebra.zero()
    for i, j, w in zip(*g.edge_arrays):
        exponent = exponent - (psibar[i] - psibar[j]) * (psi[i] - psi[j]) * (w * np.exp(u[i] + u[j]))
    return exponent.fn("exp")


def grassmann_reduce(g: Graph, x: GrassmannElement) -> GrassmannElement:
    """Apply prod_i d_psibar_i d_psi_i over the inner vertices."""
    pairs = [(f"pb_{vid}", f"p_{vid}") for vid in g.vertex_ids[:-1]]
    return berezin_pairs(x, pairs)


def _berezin_coefficients(g: Graph, f, u: np.ndarray, s: np.ndarray, param_algebra: GeneratorSet, ldl):
    """Per-sample Berezin integral of a superfunction, as parameter-algebra
    coefficients.

    For fields u, s of shape (N, n_total), row k of the (N, 2^len(param_algebra))
    complex result holds det A_VV(u_k)^{-1} int dpsi e^{-<psibar, A(u_k) psi>}
    f(u_k, s_k, psibar, psi, algebra), column m the coefficient of the
    parameter monomial with bitmask m; log det A_VV is read from ldl, the
    factor of H_beta(u).  `f` is called once, on the whole batch: it receives
    u and s transposed to (n_total, N), so u[i] is vertex i over the batch,
    and returns an element over the combined algebra (psi pairs first, then
    the parameter generators) whose coefficients are arrays over it.  Raises
    EstimationError when a coefficient of the weight, the value or the result
    is not finite, also one that the product drops.
    """
    algebra = psi_algebra(g, param_algebra)
    psibar, psi = psi_vectors(g, algebra)
    out = np.zeros((len(u), 1 << len(param_algebra)), dtype=complex)
    with np.errstate(all="ignore"):
        weight = fermion_weight(g, u.T, algebra)
        val = as_even(f(u.T, s.T, psibar, psi, algebra), algebra)
        scale = np.exp(np.log(ldl[0]).sum(axis=0) - 2.0 * u[:, :-1].sum(axis=1))
        for mask, cval in grassmann_reduce(g, weight * val).coeffs.items():
            out[:, mask >> (2 * g.n_inner)] = cval * scale
    if not all(np.isfinite(c).all() for c in [*weight.coeffs.values(), *val.coeffs.values(), out]):
        raise EstimationError("Berezin integrand overflowed")
    return out


def super_expect(g: Graph, f, param_algebra: GeneratorSet, cc: ChainConfig) -> Estimate:
    """Grassmann-valued Monte-Carlo expectation.

    `f(u, s, psibar, psi, algebra)` returns the superfunction value over the
    combined algebra (psi pairs first, then the parameter generators); u and s
    have shape (n_total, N) and the coefficients of the value are arrays over
    the N samples of one chunk (`_berezin_coefficients`), s drawn from its
    factor.  The psi sector is integrated out exactly per sample, so the
    estimate is `expect` of the vector of parameter-algebra coefficients;
    only the (u, s) average is stochastic.
    The returned mean/stderr are dicts keyed by tuples of parameter-generator
    names, without the monomials whose mean and stderr are both at most
    1e-12 max(1, |body mean|): roundoff of a coefficient that vanishes in
    exact arithmetic, so the row set does not depend on the seed.
    """
    draw = _s_draws(g, cc.seed)
    est = expect(g, lambda u, ldl: _berezin_coefficients(g, f, u, draw(u, ldl), param_algebra, ldl), cc)
    mean: dict = {}
    stderr: dict = {}
    roundoff = 1e-12 * max(1.0, abs(est.mean[0]))
    for mask, (mu, se) in enumerate(zip(est.mean, est.stderr)):
        if abs(mu) <= roundoff and se <= roundoff:
            continue
        names = tuple(param_algebra.names[b] for b in range(len(param_algebra)) if mask >> b & 1)
        mean[names] = complex(mu) if abs(complex(mu).imag) > 0 else float(complex(mu).real)
        stderr[names] = float(se)
    if () not in mean:
        mean[()] = 0.0
        stderr[()] = 0.0
    return replace(est, mean=mean, stderr=stderr)
