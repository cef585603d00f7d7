"""Monte-Carlo machinery for the sigma-model measure.

The u-marginal (with the Gaussian s-sector integrated out analytically) is
sampled by a random-walk Metropolis chain; s is then drawn exactly from its
conditional Gaussian.  Estimates carry batch-means standard errors and are
fully determined by (seed, config, graph).  Grassmann-valued observables are
reduced exactly per sample by Berezin integration, so only (u, s) is
stochastic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EstimationError, _avv_logdet, _edge_action
from .grassmann import GeneratorSet, GrassmannElement, berezin_pairs
from .graphs import Graph

__all__ = [
    "ChainConfig",
    "Estimate",
    "sample_u",
    "sample_s_given_u",
    "expect",
    "expect_importance",
    "super_expect",
    "gelman_rubin",
    "EstimationError",
]


@dataclass(frozen=True)
class ChainConfig:
    n_samples: int = 100_000
    burn_in: int = 2_000
    thinning: int = 1
    n_chains: int = 8
    proposal_scale: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if min(self.n_samples, self.burn_in, self.thinning, self.n_chains) < 1:
            raise ValueError("counts must be >= 1")
        if self.proposal_scale <= 0:
            raise ValueError("proposal_scale must be positive")


@dataclass(frozen=True)
class Estimate:
    """Monte-Carlo estimate; mean and stderr may be scalars, arrays, or
    per-coefficient dicts for Grassmann-valued observables."""

    mean: object
    stderr: object
    n_effective: float
    seed: int
    acceptance_rate: float = float("nan")
    diagnostics: dict = field(default_factory=dict)


def _log_target(g: Graph, u_inner: np.ndarray) -> np.ndarray:
    """Log density of the u-marginal (up to a constant).

    Obtained by integrating the Gaussian s-sector out of the model measure:
    (1/2) log det A_VV(u) - sum_edges W [cosh(u_i - u_j) - 1] - sum_V u_i.
    """
    _, logdet = _avv_logdet(g, u_inner)
    u_full = np.concatenate([u_inner, np.zeros(u_inner.shape[:-1] + (1,))], axis=-1)
    i, j, w = g.edge_arrays
    edge_sum = (w * (np.cosh(u_full[..., i] - u_full[..., j]) - 1.0)).sum(axis=-1)
    return 0.5 * logdet - edge_sum - u_inner.sum(axis=-1)


def _run_chains(g: Graph, cc: ChainConfig):
    """Vectorized Metropolis chains.

    Returns (samples with shape (n_chains, per_chain, n_inner), acceptance
    rate after tuning).  The proposal scale is tuned toward acceptance 0.3
    during burn-in only, preserving detailed balance afterwards.
    """
    n = g.n_inner
    c = cc.n_chains
    per_chain = -(-cc.n_samples // c)
    rng = np.random.default_rng(np.random.SeedSequence((cc.seed, 0x5EED)))

    u = 0.1 * rng.standard_normal((c, n))
    logp = _log_target(g, u)
    scale = np.full(c, cc.proposal_scale)

    accepted = np.zeros(c)
    proposed = 0

    def step(tune: bool):
        nonlocal u, logp, accepted, proposed
        prop = u + scale[:, None] * rng.standard_normal((c, n))
        logp_prop = _log_target(g, prop)
        accept = np.log(rng.random(c)) < logp_prop - logp
        u = np.where(accept[:, None], prop, u)
        logp = np.where(accept, logp_prop, logp)
        accepted += accept
        proposed += 1
        if tune and proposed % 50 == 0:
            rate = accepted / proposed
            scale[:] = scale * np.exp(0.6 * (rate - 0.3))

    for _ in range(cc.burn_in):
        step(tune=True)
    accepted[:] = 0.0
    proposed = 0
    out = np.empty((c, per_chain, n))
    for k in range(per_chain):
        for _ in range(cc.thinning):
            step(tune=False)
        out[:, k, :] = u
    rate = float(accepted.sum() / (proposed * c))
    return out, rate


def sample_u(g: Graph, cc: ChainConfig) -> np.ndarray:
    """Draws from the u-marginal, shape (n_samples, n_total); pinned column 0."""
    chains, _ = _run_chains(g, cc)
    flat = chains.reshape(-1, g.n_inner)[: cc.n_samples]
    return np.concatenate([flat, np.zeros((len(flat), 1))], axis=1)


def _draw_s(g: Graph, u_inner: np.ndarray, z: np.ndarray) -> np.ndarray:
    """s with covariance A_VV(u)^{-1} on the inner vertices from standard
    normals z (both shaped (..., n_inner)); the pinned column is appended as 0."""
    avv, _ = _avv_logdet(g, u_inner)
    try:
        chol = np.linalg.cholesky(avv)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("A_VV not positive definite") from exc
    s_inner = np.linalg.solve(np.swapaxes(chol, -1, -2), z[..., None])[..., 0]
    return np.concatenate([s_inner, np.zeros(s_inner.shape[:-1] + (1,))], axis=-1)


def sample_s_given_u(g: Graph, u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact conditional draw: s_V Gaussian with covariance A_VV(u)^{-1}.

    u has shape (..., n_total) and one s is drawn per field, from the same
    normals as one call per field in order.
    """
    u = np.asarray(u, dtype=float)
    return _draw_s(g, u[..., :-1], rng.standard_normal(u.shape[:-1] + (g.n_inner,)))


def _sample_us_chains(g: Graph, cc: ChainConfig):
    """(u, s) samples keeping chain structure: two arrays (c, m, n_total)."""
    chains, rate = _run_chains(g, cc)
    c, m, n = chains.shape
    rng = np.random.default_rng(np.random.SeedSequence((cc.seed, 0x5)))
    z = rng.standard_normal((c * m, n))
    s_full = _draw_s(g, chains.reshape(-1, n), z).reshape(c, m, n + 1)
    u_full = np.concatenate([chains, np.zeros((c, m, 1))], axis=-1)
    return u_full, s_full, rate


def _batch_means(values: np.ndarray, n_chains: int, min_batches: int = 32):
    """Mean and batch-means stderr for values of shape (c, m) (possibly complex)."""
    c, m = values.shape[:2]
    per_chain_batches = max(min_batches // c, 2)
    bs = max(m // per_chain_batches, 1)
    usable = (m // bs) * bs
    batches = values[:, :usable].reshape(c, -1, bs).mean(axis=2)
    bm = batches.reshape(-1)
    mean = values[:, :usable].mean()
    nb = len(bm)
    stderr = np.sqrt(np.abs(bm - mean).__pow__(2).sum() / (nb * (nb - 1)))
    var = np.abs(values[:, :usable] - mean).__pow__(2).mean()
    n_eff = var / stderr**2 if stderr > 0 else float(c * usable)
    return mean, float(stderr), float(n_eff)


def expect(g: Graph, observable, cc: ChainConfig) -> Estimate:
    """Monte-Carlo mean of a real/complex observable of (u, s).

    `observable(u, s)` must accept batched arrays of shape (N, n_total) and
    return a vector of length N, or an (N, k) array of k observables read
    from the same draws; then mean and stderr are arrays of length k and
    n_effective is the smallest over the columns.
    """
    u, s, rate = _sample_us_chains(g, cc)
    c, m, n = u.shape
    vals = np.asarray(observable(u.reshape(-1, n), s.reshape(-1, n)))
    if not np.all(np.isfinite(np.abs(vals))):
        raise EstimationError("observable produced NaN/Inf values")
    vals = vals.reshape((c, m) + vals.shape[1:])
    if vals.ndim == 2:
        mean, stderr, n_eff = _batch_means(vals, c)
    else:
        cols = [_batch_means(vals[:, :, k], c) for k in range(vals.shape[2])]
        mean, stderr, n_effs = (np.array(x) for x in zip(*cols))
        n_eff = float(n_effs.min())
    return Estimate(mean=mean, stderr=stderr, n_effective=n_eff, seed=cc.seed, acceptance_rate=rate)


def _log_target_hessian(g: Graph, c: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Negative Hessian of the u-marginal log density at an inner point."""
    n = len(c)
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pts = []
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    x = c.copy()
                    x[i] += si * step
                    x[j] += sj * step
                    pts.append(x)
            f = _log_target(g, np.array(pts))
            h[i, j] = -(f[0] - f[1] - f[2] + f[3]) / (4.0 * step * step)
    return 0.5 * (h + h.T)


def expect_importance(g: Graph, observable, cc: ChainConfig, sigma: float = 1.5, centers=None) -> Estimate:
    """Self-normalized importance-sampling mean of an observable of (u, s).

    Proposes u from an equal-weight Gaussian mixture over the given centers
    (always including the origin) on the inner vertices, reweights by the
    exact u-marginal density, and draws s from its conditional Gaussian.
    Each component uses the inverse Hessian of the log density at its center
    as covariance, inflated by `sigma`, so the strong correlations of the
    marginal are matched.  The superexponential decay of the marginal keeps
    the weights bounded, so this resolves tail-dominated observables (e.g.
    growing like e^{k u_j}) that random-walk chains cannot estimate reliably
    at desk scale.  Draws are independent; the standard error uses batched
    ratio statistics.
    """
    n = g.n_inner
    rng = np.random.default_rng(np.random.SeedSequence((cc.seed, 0x15)))
    all_centers = [np.zeros(n)]
    if centers is not None:
        all_centers += [np.asarray(c, dtype=float) for c in centers]
    nc = len(all_centers)
    chols, precs, logdets = [], [], []
    for c in all_centers:
        cov = np.linalg.inv(_log_target_hessian(g, c)) * sigma**2
        chols.append(np.linalg.cholesky(cov))
        precs.append(np.linalg.inv(cov))
        logdets.append(np.linalg.slogdet(cov)[1])
    pick = rng.integers(0, nc, cc.n_samples)
    z0 = rng.standard_normal((cc.n_samples, n))
    ui = np.empty((cc.n_samples, n))
    for k, c in enumerate(all_centers):
        m = pick == k
        ui[m] = c + z0[m] @ chols[k].T
    logp = _log_target(g, ui)
    comps = []
    for k, c in enumerate(all_centers):
        d = ui - c
        comps.append(-0.5 * np.einsum("ni,ij,nj->n", d, precs[k], d) - 0.5 * logdets[k])
    logq = np.logaddexp.reduce(np.stack(comps), axis=0) - math.log(nc)
    lw = np.clip(logp, -700.0, None) - logq
    w = np.exp(lw - lw.max())

    s_full = _draw_s(g, ui, rng.standard_normal((cc.n_samples, n)))
    u_full = np.concatenate([ui, np.zeros((cc.n_samples, 1))], axis=1)

    vals = np.asarray(observable(u_full, s_full))
    if not np.all(np.isfinite(np.abs(vals))):
        raise EstimationError("observable produced NaN/Inf values")

    nb = 64
    bs = max(cc.n_samples // nb, 1)
    usable = (cc.n_samples // bs) * bs
    bw = w[:usable].reshape(-1, bs).sum(axis=1)
    bv = (w * vals)[:usable].reshape(-1, bs).sum(axis=1)
    total_w = w[:usable].sum()
    mean = (w * vals)[:usable].sum() / total_w
    nb = len(bw)
    mean_bw = bw.mean()
    mean_bv = bv.mean()
    var_v = np.abs(bv - mean_bv).__pow__(2).sum() / (nb * (nb - 1))
    var_w = np.abs(bw - mean_bw).__pow__(2).sum() / (nb * (nb - 1))
    cov = (np.conj(bv - mean_bv) * (bw - mean_bw)).sum().real / (nb * (nb - 1))
    var_r = (var_v + np.abs(mean) ** 2 * var_w - 2.0 * (np.conj(mean) * cov).real) / mean_bw**2
    stderr = float(np.sqrt(max(var_r, 0.0)))
    ess = float(total_w**2 / (w[:usable] ** 2).sum())
    return Estimate(
        mean=mean,
        stderr=stderr,
        n_effective=ess,
        seed=cc.seed,
        diagnostics={"ess": ess},
    )


def psi_algebra(g: Graph, param_algebra: GeneratorSet | None = None) -> GeneratorSet:
    """Algebra with one (psibar_i, psi_i) pair per inner vertex, optionally
    followed by the parameter generators."""
    names = []
    for vid in g.vertex_ids[:-1]:
        names.extend([f"pb_{vid}", f"p_{vid}"])
    alg = GeneratorSet(names)
    if param_algebra is not None:
        alg = alg.union(param_algebra)
    return alg


def psi_vectors(g: Graph, algebra: GeneratorSet):
    """(psibar, psi) per-vertex generator lists; pinned entries are zero."""
    psibar = [algebra.gen(f"pb_{vid}") for vid in g.vertex_ids[:-1]] + [algebra.zero()]
    psi = [algebra.gen(f"p_{vid}") for vid in g.vertex_ids[:-1]] + [algebra.zero()]
    return psibar, psi


def fermion_weight(g: Graph, u: np.ndarray, algebra: GeneratorSet, soul_weights=None) -> GrassmannElement:
    """exp(-<psibar, A(u) psi>) over `algebra` (which must contain the psi pairs).

    `soul_weights`, when given, is an (n x n) array of even nilpotent elements
    added to the real edge weights.
    """
    psibar, psi = psi_vectors(g, algebra)
    eu = np.exp(np.asarray(u, dtype=float))
    n = g.n_total
    exponent = algebra.zero()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            w = g.weights[i, j]
            wij = algebra.scalar(w)
            if soul_weights is not None:
                wij = wij + soul_weights[i][j]
            if w == 0.0 and (soul_weights is None or wij.is_zero(0.0)):
                continue
            coup = wij * (eu[i] * eu[j])
            # off-diagonal -A_ij = W_ij e^{u_i+u_j}; diagonal collects row sums
            exponent = exponent + psibar[i] * psi[j] * coup - psibar[i] * psi[i] * coup
    return exponent.fn("exp")


def grassmann_reduce(g: Graph, x: GrassmannElement) -> GrassmannElement:
    """Apply prod_i d_psibar_i d_psi_i over the inner vertices."""
    pairs = [(f"pb_{vid}", f"p_{vid}") for vid in g.vertex_ids[:-1]]
    return berezin_pairs(x, pairs)


def super_expect(g: Graph, f, param_algebra: GeneratorSet, cc: ChainConfig, soul_weights=None) -> Estimate:
    """Grassmann-valued Monte-Carlo expectation.

    `f(u, s, psibar, psi, algebra)` returns the superfunction value at a single
    (u, s) as a GrassmannElement over the combined algebra (psi pairs first,
    then the parameter generators).  Per sample the fermionic Gaussian weight
    is attached, the psi sector is integrated out exactly by Berezin
    derivatives, and the result is normalized by det A_VV(u); only the (u, s)
    average is stochastic.  The returned mean/stderr are dicts keyed by
    parameter-generator subsets.

    With `soul_weights` (nilpotent even additions to the edge weights) the
    sample stream still targets the real-weight measure and the density ratio
    is folded into the per-sample value exactly.
    """
    algebra = psi_algebra(g, param_algebra)
    u, s, rate = _sample_us_chains(g, cc)
    c, m, n = u.shape
    u, s = u.reshape(-1, n), s.reshape(-1, n)
    _, logdet = _avv_logdet(g, u[:, :-1])

    psibar, psi = psi_vectors(g, algebra)
    lifted_souls = None
    if soul_weights is not None:
        lifted_souls = [[soul_weights[i][j].embed(algebra) for j in range(g.n_total)] for i in range(g.n_total)]
        # density-ratio correction for the nilpotent part of the weights:
        # exp(-sum_edges soul_ij * action_ij) per sample
        souls = [
            (e, lifted_souls[i][j])
            for e, (i, j) in enumerate(zip(*g.edge_arrays[:2]))
            if not lifted_souls[i][j].is_zero(0.0)
        ]
        action = _edge_action(g, u, s)

    series: dict = {}
    for k in range(c * m):
        weight = fermion_weight(g, u[k], algebra, lifted_souls)
        if lifted_souls is not None:
            expo = algebra.zero()
            for e, soul in souls:
                expo = expo - soul * action[k, e]
            weight = weight * expo.fn("exp")
        val = f(u[k], s[k], psibar, psi, algebra)
        if not isinstance(val, GrassmannElement):
            val = algebra.scalar(val)
        reduced = grassmann_reduce(g, weight * val) * math.exp(-logdet[k])
        for mask, cval in reduced.coeffs.items():
            if mask not in series:
                series[mask] = np.zeros((c, m), dtype=complex)
            series[mask][k // m, k % m] = cval

    if not all(np.all(np.isfinite(vals)) for vals in series.values()):
        raise EstimationError("observable produced NaN/Inf values")
    mean: dict = {}
    stderr: dict = {}
    n_eff = float(c * m)
    for mask, vals in series.items():
        mu, se, ne = _batch_means(vals, c)
        names = tuple(algebra.names[b] for b in range(len(algebra)) if mask >> b & 1)
        if abs(mu) < 1e-14 and se == 0.0:
            continue
        mean[names] = complex(mu) if abs(complex(mu).imag) > 0 else float(complex(mu).real)
        stderr[names] = se
        n_eff = min(n_eff, ne)
    if () not in mean:
        mean[()] = 0.0
        stderr[()] = 0.0
    return Estimate(mean=mean, stderr=stderr, n_effective=n_eff, seed=cc.seed, acceptance_rate=rate)


def gelman_rubin(chains: np.ndarray) -> float:
    """Potential scale reduction factor for per-chain scalar draws (c, m)."""
    c, m = chains.shape
    means = chains.mean(axis=1)
    w = chains.var(axis=1, ddof=1).mean()
    b = m * means.var(ddof=1)
    var_hat = (m - 1) / m * w + b / m
    return float(np.sqrt(var_hat / w))
