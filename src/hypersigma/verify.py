"""Registry and runner for the named identity checks.

Each check compares an implementation of a structural identity against an
independent route (closed form, quadrature oracle, second coordinate system,
or a second wired level) and reports per-coefficient residuals or z-scores in
one machine-readable schema: a row per compared coefficient and a verdict
from the spec's thresholds.  One handler per check turns a `CheckSpec` into
its report.
"""

from __future__ import annotations

import fnmatch
import math
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .core import (
    FieldConfig,
    _log_rho,
    build_A,
    compute_beta,
    compute_theta,
    log_rho_density,
    rho_density,
    spinor_det_sides,
)
from .grassmann import GeneratorSet, GrassmannElement, GroupElement, as_even, sdet
from .graphs import Graph, GraphTower, extend_alpha, line_tower, single_edge, triangle, wired_subgraph
from .quadrature import (
    cartesian_expect_quadrature_1v,
    expect_quadrature_1v,
    super_expect_quadrature_1v,
    zeta_integral_1v,
)
from .sampler import (
    ChainConfig,
    Estimate,
    _with_s,
    expect,
    expect_importance,
    grassmann_reduce,
    psi_algebra,
    sample_s_given_u,
    super_expect,
)
from .scaling import ScaleParams, laplace_closed_form, rescale_weights, theta_conditional_covariance, tilt
from .supersym import (
    _derivative_martingale_columns,
    _derivative_martingale_observable,
    _generating_observable,
    _pairing_exponent,
    bold_rho,
    super_jacobian,
    super_scale_pullback,
)

__all__ = ["CheckSpec", "Report", "run_check", "run_suite", "default_specs", "list_check_ids", "UnknownCheckError"]


class UnknownCheckError(KeyError):
    pass


@dataclass(frozen=True)
class CheckSpec:
    """A runnable check: id, fixture, parameters and comparison policy."""

    id: str
    graph: Graph | None = None
    tower: GraphTower | None = None
    params: dict = field(default_factory=dict)
    chain: ChainConfig = field(default_factory=ChainConfig)
    z_threshold: float = 3.0
    tolerance: float = 1e-12

    def __post_init__(self):
        if self.z_threshold <= 0 or self.tolerance <= 0:
            raise ValueError("policy thresholds must be positive")


# -- report schema -----------------------------------------------------------

#: stderr floor preventing division by zero in z-scores for exact observables
STDERR_FLOOR = 1e-12


@dataclass(frozen=True)
class Report:
    """Result of one check in the serializable report schema."""

    check: str
    verdict: str
    seed: int
    coefficients: tuple
    runtime_s: float
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "verdict": self.verdict,
            "seed": self.seed,
            "coefficients": [dict(r) for r in self.coefficients],
            "runtime_s": self.runtime_s,
        }
        out.update(self.extra)
        return out

    @staticmethod
    def from_dict(data: dict) -> "Report":
        extra = {k: v for k, v in data.items() if k not in ("check", "verdict", "seed", "coefficients", "runtime_s")}
        return Report(
            check=data["check"],
            verdict=data["verdict"],
            seed=data["seed"],
            coefficients=tuple(data["coefficients"]),
            runtime_s=data.get("runtime_s", 0.0),
            extra=extra,
        )


def _row(subset, estimate, stderr, reference) -> dict:
    """A statistical row: z = |estimate - reference| / stderr, as plain Python numbers."""
    se = float(max(stderr, STDERR_FLOOR))
    est = complex(estimate)
    ref = complex(reference)
    return {
        "subset": list(subset),
        "estimate": est.real if abs(est.imag) < 1e-300 else [est.real, est.imag],
        "stderr": se,
        "reference": ref.real if abs(ref.imag) < 1e-300 else [ref.real, ref.imag],
        "z": abs(est - ref) / se,
    }


def _det_row(name: str, residual: float, tol: float) -> dict:
    """A deterministic row: z is 0 within the tolerance and infinite outside."""
    return {
        "subset": [name],
        "estimate": float(residual),
        "stderr": STDERR_FLOOR,
        "reference": 0.0,
        "z": 0.0 if residual <= tol else float("inf"),
    }


def _report(spec: CheckSpec, rows, extra=None, exact: bool = True) -> dict:
    """The report of `spec`: it passes when every row is within the spec's z
    threshold and the exact side condition `exact` holds."""
    verdict = "pass" if exact and all(r["z"] <= spec.z_threshold for r in rows) else "fail"
    return {"check": spec.id, "verdict": verdict, "seed": spec.chain.seed, "coefficients": rows, **(extra or {})}


def _coefficients(x) -> dict:
    """{subset: (mean, stderr)} of an estimate, {subset: value} of a closed
    form; a dict is already one, a number is the coefficient of the empty subset."""
    if isinstance(x, Estimate):
        mean, stderr = (x.mean, x.stderr) if isinstance(x.mean, dict) else ({(): x.mean}, {(): x.stderr})
        return {k: (m, stderr[k]) for k, m in mean.items()}
    if isinstance(x, dict):
        return x
    return dict(x.subsets()) if isinstance(x, GrassmannElement) else {(): x}


def _ordered(subsets) -> list:
    return sorted(subsets, key=lambda t: (len(t), t))


def _rows_vs_reference(est: Estimate, ref) -> list:
    """One row per coefficient of the estimate or of the reference element."""
    c, r = _coefficients(est), _coefficients(ref)
    return [_row(subset, *c.get(subset, (0.0, 0.0)), r.get(subset, 0.0)) for subset in _ordered(c | r)]


def _level_rows(spec: CheckSpec, n: int, estimate):
    """Rows of the same identity at the wired levels n and n + 1.

    `estimate(level, chain)` returns (estimate, closed form), each as
    `_coefficients` takes it; the two levels run at seeds seed and seed + 1.
    Each coefficient gets a row per level against that level's closed form,
    tagged level_k, and a cross_level row between the two estimates.  Returns
    the rows and the largest difference between the two closed forms.
    """
    (e0, r0), (e1, r1) = (
        map(_coefficients, estimate(k, replace(spec.chain, seed=spec.chain.seed + j))) for j, k in enumerate((n, n + 1))
    )
    rows = []
    for subset in _ordered(e0 | e1):
        (m0, s0), (m1, s1) = e0.get(subset, (0.0, 0.0)), e1.get(subset, (0.0, 0.0))
        rows.append(_row(subset + (f"level_{n}",), m0, s0, r0.get(subset, 0.0)))
        rows.append(_row(subset + (f"level_{n + 1}",), m1, s1, r1.get(subset, 0.0)))
        rows.append(_row(subset + ("cross_level",), m0, math.hypot(s0, s1), m1))
    return rows, max(abs(r0.get(s, 0.0) - r1.get(s, 0.0)) for s in r0 | r1)


def _random_graph(rng: np.random.Generator, max_inner: int = 4) -> Graph:
    """Random connected pinned graph: spanning tree plus extra edges."""
    n_inner = int(rng.integers(1, max_inner + 1))
    n = n_inner + 1
    w = np.zeros((n, n))
    order = list(rng.permutation(n))
    for k in range(1, n):
        i, j = order[k], order[int(rng.integers(0, k))]
        w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    for i in range(n):
        for j in range(i + 1, n):
            if w[i, j] == 0.0 and rng.random() < 0.3:
                w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    ids = tuple(str(k + 1) for k in range(n_inner)) + ("delta",)
    return Graph(ids, w)


def _random_fields(rng: np.random.Generator, n: int, scale: float = 0.8) -> FieldConfig:
    u = np.concatenate([scale * rng.standard_normal(n - 1), [0.0]])
    s = np.concatenate([scale * rng.standard_normal(n - 1), [0.0]])
    return FieldConfig(u, s)


# -- deterministic checks ----------------------------------------------------


def _check_rho_equivalence(spec: CheckSpec) -> dict:
    rng = np.random.default_rng(spec.chain.seed)
    n_cases = spec.params.get("n_cases", 100)
    worst = 0.0
    for _ in range(n_cases):
        g = _random_graph(rng)
        cfg = _random_fields(rng, g.n_total)
        logs = [log_rho_density(g, cfg, mode) for mode in ("direct", "quadratic", "spinor")]
        worst = max(worst, max(logs) - min(logs))
    rows = [_det_row("max_log_density_spread", worst, spec.tolerance)]
    return _report(spec, rows)


def _check_spinor_identity(spec: CheckSpec) -> dict:
    rng = np.random.default_rng(spec.chain.seed)
    n_pairs = spec.params.get("n_pairs", 1000)
    # one row (log a_i, b_i, log a_j, b_j) per pair, the stream of one scalar
    # draw at a time; math.exp, not np.exp, whose last bit differs on some
    # draws and moves the residual's roundoff at fixed seeds
    la_i, b_i, la_j, b_j = rng.uniform([-1.5, -2.0, -1.5, -2.0], [1.5, 2.0, 1.5, 2.0], (n_pairs, 4)).T
    a_i, a_j = (np.array([math.exp(x) for x in la]) for la in (la_i, la_j))
    lhs, rhs = spinor_det_sides((a_i, b_i), (a_j, b_j))
    worst = float(np.abs(lhs - rhs).max(initial=0.0))
    hand_lhs, hand_rhs = spinor_det_sides((1.0, 0.0), (1.0, 1.0))
    rows = [
        _det_row("max_residual", worst, spec.tolerance),
        _det_row("hand_case_lhs", abs(hand_lhs + 1.0), spec.tolerance),
        _det_row("hand_case_rhs", abs(hand_rhs + 1.0), spec.tolerance),
    ]
    return _report(spec, rows)


def _check_a_scale_invariance(spec: CheckSpec) -> dict:
    """A(W, u + log a) equals A(W^a, u) entrywise."""
    rng = np.random.default_rng(spec.chain.seed)
    n_cases = spec.params.get("n_cases", 50)
    worst = 0.0
    for _ in range(n_cases):
        g = _random_graph(rng)
        u = np.concatenate([rng.standard_normal(g.n_inner), [0.0]])
        a = np.concatenate([np.exp(rng.uniform(-0.7, 0.7, g.n_inner)), [1.0]])
        p = ScaleParams(a, np.zeros(g.n_total))
        lhs = build_A(g, u + np.log(a))
        rhs = build_A(rescale_weights(p, g), u)
        scale = max(np.abs(lhs).max(), 1.0)
        worst = max(worst, np.abs(lhs - rhs).max() / scale)
    rows = [_det_row("max_entry_residual", worst, spec.tolerance)]
    return _report(spec, rows)


def _check_zeta_scaling(spec: CheckSpec) -> dict:
    """Reference-measure behaviour under the scaling: int f(S(u,s)) = a int f."""
    a = spec.params.get("a", 1.4)
    b = spec.params.get("b", -0.5)

    def fwin(u, s):
        return np.exp(-((u - 0.3) ** 2) - 0.5 * (s + 0.2) ** 2)

    def fscaled(u, s):
        return fwin(u + math.log(a), s - np.exp(-u) * b / a)

    ref = zeta_integral_1v(fwin)
    lhs = zeta_integral_1v(fscaled, s_center=lambda u: -0.2 + np.exp(-u) * b / a)
    residual = abs(lhs / a - ref) / abs(ref)
    rows = [_det_row("relative_residual", residual, spec.tolerance)]
    return _report(spec, rows)


def _check_marginal_lemma(spec: CheckSpec) -> dict:
    """Berezin reduction of the superdensity reproduces the scalar density."""
    g = spec.graph or triangle()
    rng = np.random.default_rng(spec.chain.seed)
    n_cases = spec.params.get("n_cases", 50)
    algebra = psi_algebra(g)
    worst = 0.0
    for _ in range(n_cases):
        cfg = _random_fields(rng, g.n_total)
        reduced = grassmann_reduce(g, bold_rho(g, cfg, algebra)).body
        ref = rho_density(g, cfg)
        worst = max(worst, abs(reduced - ref) / max(abs(ref), 1e-300))
    rows = [_det_row("max_relative_residual", worst, spec.tolerance)]
    return _report(spec, rows)


def _random_group_element(rng: np.random.Generator, algebra: GeneratorSet, n_vertices: int, min_margin=None) -> GroupElement:
    """Random (a, b, chibar, chi) per inner vertex; with `min_margin`, each
    vertex's (a, b) is redrawn until 4a^2 - 12b^2 - 3 >= min_margin."""
    odd_gens = [algebra.gen(nm) for nm in algebra.names]
    quads = []
    for _ in range(n_vertices - 1):
        while True:
            a, b = math.exp(rng.uniform(-0.6, 0.6)), rng.uniform(-1.0, 1.0)
            if min_margin is None or 4.0 * a * a - 12.0 * b * b - 3.0 >= min_margin:
                break
        a, b = algebra.scalar(a), algebra.scalar(b)
        cb = algebra.zero()
        c = algebra.zero()
        for gnr in odd_gens:
            cb = cb + gnr * rng.uniform(-0.5, 0.5)
            c = c + gnr * rng.uniform(-0.5, 0.5)
        quads.append((a, b, cb, c))
    quads.append((1.0, 0.0, 0.0, 0.0))
    return GroupElement(algebra, quads)


def _check_jacobian_sdet(spec: CheckSpec) -> dict:
    rng = np.random.default_rng(spec.chain.seed)
    n_cases = spec.params.get("n_cases", 20)
    algebra = GeneratorSet(["cb_1", "c_1", "cb_2", "c_2"])
    worst = 0.0
    for _ in range(n_cases):
        n_vertices = int(rng.integers(2, 4))
        v = _random_group_element(rng, algebra, n_vertices)
        u = np.concatenate([rng.standard_normal(n_vertices - 1), [0.0]])
        dev = sdet(super_jacobian(v, u)) - algebra.one()
        residual = max((abs(c) for c in dev.coeffs.values()), default=0.0)
        worst = max(worst, residual)
    rows = [_det_row("max_sdet_deviation", worst, spec.tolerance)]
    return _report(spec, rows)


def _check_cartesian_horospherical(spec: CheckSpec) -> dict:
    """The same superfunction integrates identically in both coordinate systems.

    Uses x + z = e^u and y = s e^u (exact including the odd sector) plus the
    xi eta = e^{2u} psibar psi pairing on the single-edge fixture.
    """
    g = spec.graph or single_edge()
    alpha = spec.params.get("alpha", -0.5)
    c_odd = spec.params.get("c_odd", 0.7)
    empty = GeneratorSet([])

    def f_h(u, s, psibar, psi, algebra):
        even = algebra.scalar(np.exp(u[0]) * (alpha + 1j * alpha * s[0])).fn("exp")
        return even * (algebra.one() + psibar[0] * psi[0] * (c_odd * np.exp(2.0 * u[0])))

    def f_cart(x, y, xi, eta, algebra):
        z = (algebra.scalar(1.0 + x * x + y * y) + xi * eta * 2.0).fn("sqrt")
        even = ((z + algebra.scalar(x + 1j * y)) * alpha).fn("exp")
        return even * (algebra.one() + xi * eta * c_odd)

    lhs = super_expect_quadrature_1v(g, f_h, empty).body
    rhs = cartesian_expect_quadrature_1v(g, f_cart, empty).body
    residual = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    rows = [_det_row("relative_residual", residual, spec.tolerance)]
    return _report(spec, rows, {"lhs": complex(lhs).real, "rhs": complex(rhs).real})


def _check_theta_conditional(spec: CheckSpec) -> dict:
    """Empirical covariance of theta given u matches the conjugated matrix."""
    g = spec.graph or triangle()
    rng = np.random.default_rng(spec.chain.seed)
    n_draws = spec.params.get("n_draws", 100_000)
    u = np.concatenate([0.6 * rng.standard_normal(g.n_inner), [0.0]])
    cov_ref = theta_conditional_covariance(g, u)
    us = np.broadcast_to(u, (n_draws, g.n_total))
    draws = compute_theta(g, us, sample_s_given_u(g, us, rng))
    emp = draws.T @ draws / n_draws
    rows = []
    for i in range(g.n_inner):
        for j in range(i, g.n_inner):
            se = math.sqrt((cov_ref[i, i] * cov_ref[j, j] + cov_ref[i, j] ** 2) / n_draws)
            rows.append(_row((f"cov_{i}_{j}",), emp[i, j], se, cov_ref[i, j]))
    return _report(spec, rows)


# -- statistical checks built from closed forms ------------------------------


def _spec_scale_params(spec: CheckSpec, g: Graph) -> ScaleParams:
    a = np.ones(g.n_total)
    b = np.zeros(g.n_total)
    a[:-1] = np.asarray(spec.params.get("a", 1.2 * np.ones(g.n_inner)), dtype=float)
    b[:-1] = np.asarray(spec.params.get("b", 0.3 * np.ones(g.n_inner)), dtype=float)
    return ScaleParams(a, b)


def _quadrature_rows(spec: CheckSpec, g: Graph, p: ScaleParams, name: str) -> list:
    """On one inner vertex, the tilt's quadrature against its closed form."""
    if g.n_inner != 1:
        return []
    ref = laplace_closed_form(g, p)
    quad = expect_quadrature_1v(g, partial(tilt, g, p))
    return [_det_row(name, abs(quad - ref) / abs(ref), spec.tolerance)]


def _check_laplace_real(spec: CheckSpec) -> dict:
    g = spec.graph or single_edge()
    p = _spec_scale_params(spec, g)
    ref = laplace_closed_form(g, p)
    est = expect(g, _derivative_martingale_observable(g, (), p.a, p.b), spec.chain)
    rows = [_row(("mc",), est.mean, est.stderr, ref)] + _quadrature_rows(spec, g, p, "quadrature_residual")
    return _report(spec, rows, {"stderr_max": float(est.stderr)})


def _check_radon_nikodym(spec: CheckSpec) -> dict:
    g = spec.graph or triangle()
    rng = np.random.default_rng(spec.chain.seed)
    p = _spec_scale_params(spec, g)
    n_points = spec.params.get("n_points", 1000)
    lap = laplace_closed_form(g, p)
    g2 = rescale_weights(p, g)
    # the normals of one _random_fields call per point (u, then s), pinned 0 appended
    u, s = np.pad(0.8 * rng.standard_normal((n_points, 2, g.n_inner)), ((0, 0), (0, 0), (0, 1))).transpose(1, 0, 2)
    lhs = tilt(g, p, u, s) / lap
    # the rescaled density at the inversely scaled fields over the original one
    rhs = np.exp(_log_rho(g2, u - np.log(p.a), s + np.exp(-u) * p.b) - _log_rho(g, u, s)) * np.prod(p.a[:-1])
    worst = float((np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)).max())
    rows = [_det_row("max_pointwise_residual", worst, spec.tolerance)]

    # bump k is centred at (mu_u, mu_s) = mu[k]; each side is one estimate with a column per bump
    mu = rng.uniform(-0.5, 0.5, (spec.params.get("n_bumps", 5), 2))

    def bumps(u, s):
        du, ds = u[:, None, :-1] - mu[:, :1], s[:, None, :-1] - mu[:, 1:]
        return np.exp(-(du**2).sum(axis=2) - 0.5 * (ds**2).sum(axis=2))

    cc_r = replace(spec.chain, seed=spec.chain.seed + 1)
    el = expect(g, _with_s(g, lambda u, s: bumps(u, s) * tilt(g, p, u, s)[:, None], spec.chain.seed), spec.chain)
    er = expect(g2, _with_s(g2, lambda u, s: bumps(u + np.log(p.a), s - np.exp(-u) * p.b / p.a), cc_r.seed), cc_r)
    for k, (ml, sl, mr, sr) in enumerate(zip(el.mean, el.stderr, er.mean, er.stderr)):
        rows.append(_row((f"bump_{k}",), ml, math.hypot(sl, lap * sr), lap * mr))
    return _report(spec, rows)


def _martingale_terms(g: Graph, alpha, tau: dict, quads: dict, algebra: GeneratorSet):
    """The martingale identity's superfunction on the wired level g,
    e^{-<pi, varpi>} e^{<alpha, e^u(1+is)> + <tau, e^u(psibar+i psi)>}, and its
    expectation L(a, b, chibar, chi) e^{<alpha, a-ib>} e^{-<tau, chibar+i chi>}.

    `alpha` holds a number per vertex.  `quads` maps inner vertex ids to
    [a, b, chibar, chi] (the identity elsewhere) and `tau` to odd sources (zero
    elsewhere); the pinned odd fields vanish, so nothing lands on the boundary.
    """
    inner = g.vertex_ids[:-1]
    identity = (1.0, 0.0, algebra.zero(), algebra.zero())
    a, b, cb, c = zip(*[quads.get(v, identity) for v in inner], identity)
    a, b = [as_even(x, algebra) for x in a], [as_even(x, algebra) for x in b]
    tau = {v: t for v, t in tau.items() if v in inner}

    def f(u, s, psibar, psi, alg):
        # at the identity every term of the pairing vanishes
        acc = _pairing_exponent(g, u, s, psibar, psi, alg, a, b, cb, c) if quads else alg.zero()
        for i, vid in enumerate(g.vertex_ids):
            eu = as_even(u[i], alg).fn("exp")
            acc = acc + (eu + eu * as_even(s[i], alg) * 1j) * alpha[i]
            if vid in tau:
                acc = acc + tau[vid].embed(alg) * (eu * (psibar[i] + psi[i] * 1j))
        return acc.fn("exp")

    even = sum(((a[i] - b[i] * 1j) * alpha[i] for i in range(g.n_total)), algebra.zero())
    odd = sum((-tau[v] * (cb[i] + c[i] * 1j) for i, v in enumerate(inner) if v in tau), algebra.zero())
    return f, laplace_closed_form(g, (a, b), cb, c, algebra) * even.fn("exp") * odd.fn("exp")


def _check_laplace_grassmann(spec: CheckSpec) -> dict:
    """MC Grassmann-Laplace transform against its closed form, coefficient by
    coefficient; on one inner vertex also its body against quadrature."""
    g = spec.graph or single_edge()
    p = _spec_scale_params(spec, g)
    algebra = GeneratorSet(["cb_1", "c_1"])
    chibar = [algebra.gen("cb_1") * spec.params.get("cb_coeff", 0.8)] + [algebra.zero()] * (g.n_total - 1)
    chi = [algebra.gen("c_1") * spec.params.get("c_coeff", 0.6)] + [algebra.zero()] * (g.n_total - 1)
    quads = dict(zip(g.vertex_ids, zip(p.a, p.b, chibar, chi)))
    f, ref = _martingale_terms(g, np.zeros(g.n_total), {}, quads, algebra)
    est = super_expect(g, f, algebra, spec.chain)
    rows = _rows_vs_reference(est, ref) + _quadrature_rows(spec, g, p, "body_quadrature_residual")
    return _report(spec, rows)


# -- Grassmann-valued identity checks ----------------------------------------


def _check_ward(spec: CheckSpec) -> dict:
    """Ward identity: E[e^{<alpha, e^u(1+is)> + <tau, e^u(psibar+i psi)>}]
    equals e^{<alpha, 1>}; every tau-bearing coefficient vanishes."""
    g = spec.graph or triangle()
    alpha = np.asarray(spec.params.get("alpha", [-1.0] + [0.0] * (g.n_total - 1)), dtype=float)
    if np.any(alpha > 0):
        raise ValueError("alpha must be nonpositive")
    tau_coeffs = spec.params.get("tau", {"1": 0.8, "2": 0.6})
    algebra = GeneratorSet([f"tau_{vid}" for vid in tau_coeffs])
    tau = {vid: algebra.gen(f"tau_{vid}") * coeff for vid, coeff in tau_coeffs.items()}
    f, ref = _martingale_terms(g, alpha, tau, {}, algebra)
    est = super_expect(g, f, algebra, spec.chain)
    rows = _rows_vs_reference(est, ref)
    # tau-bearing coefficients that cancel exactly per sample are pruned from
    # the estimate; report them as explicit zero rows
    seen = {tuple(r["subset"]) for r in rows}
    for mask in range(1, 1 << len(algebra)):
        names = tuple(algebra.names[k] for k in range(len(algebra)) if mask >> k & 1)
        if names not in seen:
            rows.append(_row(names, 0.0, 0.0, 0.0))
    return _report(spec, rows)


def _check_image_measure_super(spec: CheckSpec) -> dict:
    """Two-sided image-measure identity at a random group element v.

    Left side: E_{mu^W}[f e^{-<pi, varpi>}].  Right side: E_{mu^{W^a}}[pullback
    of f along v, times L(a, b, chibar, chi)], so its stderr is that of the
    per-sample product.  The left side's tilt is
    T = e^{-(a^2+b^2-1) beta - b theta}.  E[T^2] is the Laplace transform at
    a'^2 = 2a^2 - 2b^2 - 1, so the estimator's variance is infinite when some
    inner vertex has 2a^2 - 2b^2 <= 1; E[T^4], behind the variance of the
    sample variance and so the stderr, is the transform at
    a''^2 = 4a^2 - 12b^2 - 3.  The element is therefore drawn with
    4a^2 - 12b^2 - 3 >= 0.3 at every inner vertex, which implies
    2a^2 - 2b^2 - 1 > 0; its a entries are plain numbers, so the rescaled
    weights W^a are too.

    Per sample, each side's (cb_1, c_1) coefficient is its body times one
    constant, so only the body is a statistical row and the two sides' ratios
    of that coefficient to the body must agree within the spec's tolerance.
    """
    g = spec.graph or triangle()
    algebra = GeneratorSet(["cb_1", "c_1"])
    rng = np.random.default_rng(spec.chain.seed + 17)
    v = _random_group_element(rng, algebra, g.n_total, min_margin=0.3)
    a, b, chibar, chi = map(list, zip(*v.quads))
    decay = spec.params.get("decay", 0.3)

    def f(u, s, psibar, psi, alg):
        acc = alg.zero()
        for i in range(len(u)):
            acc = acc - as_even(u[i], alg).fn("exp") * decay
        return acc.fn("exp")

    def lhs_f(u, s, psibar, psi, alg):
        weight = _pairing_exponent(g, u, s, psibar, psi, alg, a, b, chibar, chi).fn("exp")
        return weight * as_even(f(u, s, psibar, psi, alg), alg)

    closed = laplace_closed_form(g, (a, b), chibar, chi, algebra)
    pulled = super_scale_pullback(v, f)

    def rhs_f(u, s, psibar, psi, alg):
        return as_even(pulled(u, s, psibar, psi, alg), alg) * closed.embed(alg)

    lhs = super_expect(g, lhs_f, algebra, spec.chain)
    a_body = np.array([complex(x.body).real for x in a])
    g_scaled = Graph(g.vertex_ids, g.weights * np.outer(a_body, a_body))
    rhs = super_expect(g_scaled, rhs_f, algebra, replace(spec.chain, seed=spec.chain.seed + 1))

    ratio = [side.mean.get(("cb_1", "c_1"), 0.0) / side.mean[()] for side in (lhs, rhs)]
    body = _row((), lhs.mean[()], math.hypot(lhs.stderr[()], rhs.stderr[()]), rhs.mean[()])
    return _report(spec, [body, _det_row("cb_1_c_1_over_body_residual", abs(ratio[0] - ratio[1]), spec.tolerance)])


# -- tower checks ------------------------------------------------------------


def _tilt_arrays(gk: Graph, tilt: dict):
    """Per-vertex (a, b) on a wired level from {vertex id: (a, b)}; (1, 0)
    elsewhere, and entries outside the level are dropped."""
    a = np.ones(gk.n_total)
    b = np.zeros(gk.n_total)
    for vid, (av, bv) in tilt.items():
        if vid in gk.vertex_ids[:-1]:
            i = gk.index_of(vid)
            a[i], b[i] = av, bv
    return a, b


def _check_consistency(spec: CheckSpec) -> dict:
    """Closed-form level consistency L_n = L_{n+1} plus MC moment matching of
    (beta, theta) on V_n across the two wired levels."""
    tower = spec.tower or line_tower()
    n = spec.params.get("level", 1)
    params = spec.params.get("vertex_params", {"1": (1.2, 0.3)})
    g_n = wired_subgraph(tower, n)
    g_n1 = wired_subgraph(tower, n + 1)
    for vid in params:
        if vid not in tower.levels[n]:
            raise ValueError(f"parameter support {vid!r} outside level {n}")

    lap_n = laplace_closed_form(g_n, ScaleParams(*_tilt_arrays(g_n, params)))
    lap_n1 = laplace_closed_form(g_n1, ScaleParams(*_tilt_arrays(g_n1, params)))
    closed_res = abs(lap_n - lap_n1) / abs(lap_n)
    rows = [{**_det_row("closed_form", closed_res, spec.tolerance), "estimate": lap_n, "reference": lap_n1}]

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

        return expect(gk, _with_s(gk, obs_pack, cck.seed), cck)

    m_n = moments(g_n, spec.chain)
    m_n1 = moments(g_n1, replace(spec.chain, seed=spec.chain.seed + 1))
    for col, name in enumerate(names):
        se = math.hypot(m_n.stderr[col], m_n1.stderr[col])
        rows.append(_row((name,), m_n.mean[col], se, m_n1.mean[col]))
    return _report(spec, rows, {"closed_form_residual": closed_res})


def _check_martingale_generating(spec: CheckSpec) -> dict:
    """Two-level test of the exponential generating observable under a tilt.

    At both levels the estimate is compared to the closed form
    L(a, b) * e^{<alpha, a - i b>} (alpha summed onto the boundary outside the
    level) and the two levels are compared to each other.
    """
    tower = spec.tower or line_tower()
    n = spec.params.get("level", 1)
    alpha = spec.params.get("alpha", {"1": -0.7, "3": -0.4})
    tilts = spec.params.get("tilt", {"1": (1.2, 0.3), "2": (0.9, -0.2)})

    def estimate(k, chain):
        gk = wired_subgraph(tower, k)
        alpha_k = extend_alpha(tower, alpha, k)
        p = ScaleParams(*_tilt_arrays(gk, tilts))
        ref = laplace_closed_form(gk, p) * np.exp(alpha_k @ (p.a - 1j * p.b))
        return expect(gk, _generating_observable(gk, alpha_k, p.a, p.b), chain), ref

    rows, residual = _level_rows(spec, n, estimate)
    return _report(spec, rows, {"closed_form_residual": residual}, exact=residual <= spec.tolerance)


def _check_martingale_super(spec: CheckSpec) -> dict:
    """Grassmann-valued martingale with odd tilt parameters and an odd source
    tau on vertex 1, at two consecutive wired levels.

    Both levels are compared to their closed forms L * e^{<alpha, a-ib>}
    * e^{-<tau, chibar+i chi>} and to each other; the closed forms of the two
    levels must agree within the spec's tolerance.
    """
    tower = spec.tower or line_tower()
    algebra = GeneratorSet(["cb_1", "c_1", "tau_1"])
    params = {"1": (1.2, 0.3, algebra.gen("cb_1") * 0.8, algebra.gen("c_1") * 0.6)}
    tau = {"1": algebra.gen("tau_1") * 0.5}
    alpha = {"1": -0.7}

    def estimate(k, chain):
        gk = wired_subgraph(tower, k)
        f, ref = _martingale_terms(gk, extend_alpha(tower, alpha, k), tau, params, algebra)
        return super_expect(gk, f, algebra, chain), ref

    rows, residual = _level_rows(spec, spec.params.get("level", 1), estimate)
    return _report(spec, rows, {"closed_form_residual": residual}, exact=residual <= spec.tolerance)


#: default index multisets j of the two derivative-martingale checks; repeated
#: indices realize powers and products of the per-vertex factor
#: e^{u_j}(1 + i s_j), e.g. the pair (j, j) gives e^{2u_j}(1 - s_j^2) + 2 i s_j e^{2u_j}
_DERIVATIVE_J_SETS = {
    "martingale-derivatives": [("1",), ("1", "2"), ("1", "2", "3")],
    "martingale-special-cases": [("1", "1"), ("1", "1", "1"), ("1", "1", "2")],
}


def _check_martingale_derivatives(spec: CheckSpec) -> dict:
    """Two-level test of the derivative martingales M_{j_1,...,j_k} under an
    exponential tilt, against the closed form L * prod (a_j - i b_j), for each
    multiset j (rows labelled by it) at two consecutive wired levels.  Each
    level is one importance-sampled estimate with a column per multiset."""
    tower = spec.tower or line_tower()
    # damping tilt: entries a >= 1 keep the heavy e^{ku} tails integrable in MC
    tilts = spec.params.get("tilt", {"1": (1.15, 0.2), "2": (1.1, -0.15), "3": (1.05, 0.1)})
    j_sets = spec.params.get("j_sets", _DERIVATIVE_J_SETS[spec.id])
    labels = [("+".join(j_ids) if j_ids else "unit",) for j_ids in j_sets]

    def estimate(level, chain):
        gk = wired_subgraph(tower, level)
        a, b = _tilt_arrays(gk, tilts)
        idx = [[gk.index_of(v) for v in j_ids] for j_ids in j_sets]
        # M_j grows like prod e^{u_{j_p}}: its mean is dominated by rare
        # correlated excursions of u, along the ridge of the multiset's counts
        counts = [np.bincount(i, minlength=gk.n_inner) for i in idx]
        est = expect_importance(gk, _derivative_martingale_columns(gk, j_sets, a, b), chain, counts=counts)
        lap = laplace_closed_form(gk, ScaleParams(a, b))
        ref = {label: lap * np.prod(a[i] - 1j * b[i]) for label, i in zip(labels, idx)}
        return {label: (m, se) for label, m, se in zip(labels, est.mean, est.stderr)}, ref

    rows, residual = _level_rows(spec, spec.params.get("level", 2), estimate)
    return _report(spec, rows, {"closed_form_residual": residual}, exact=residual <= spec.tolerance)


# -- registry ----------------------------------------------------------------


_HANDLERS = {
    "rho-equivalence": _check_rho_equivalence,
    "spinor-identity": _check_spinor_identity,
    "A-scale-invariance": _check_a_scale_invariance,
    "zeta-scaling": _check_zeta_scaling,
    "radon-nikodym": _check_radon_nikodym,
    "laplace-real": _check_laplace_real,
    "laplace-grassmann": _check_laplace_grassmann,
    "consistency": _check_consistency,
    "martingale-generating": _check_martingale_generating,
    "martingale-super": _check_martingale_super,
    "martingale-derivatives": _check_martingale_derivatives,
    "martingale-special-cases": _check_martingale_derivatives,
    "ward": _check_ward,
    "marginal-lemma": _check_marginal_lemma,
    "jacobian-sdet": _check_jacobian_sdet,
    "theta-conditional": _check_theta_conditional,
    "cartesian-horospherical": _check_cartesian_horospherical,
    "image-measure-super": _check_image_measure_super,
}


def list_check_ids() -> list:
    return list(_HANDLERS)


def default_specs(seed: int = 0) -> dict:
    """Bundled CheckSpec per registered id, sized for a quick full suite."""
    fast = ChainConfig(n_samples=20_000, seed=seed)
    slow = ChainConfig(n_samples=2_000, seed=seed)
    # importance-sampling checks are cheap per sample; give them more draws
    heavy = ChainConfig(n_samples=200_000, seed=seed)
    specs = {
        "rho-equivalence": CheckSpec("rho-equivalence", chain=fast),
        "spinor-identity": CheckSpec("spinor-identity", chain=fast),
        "A-scale-invariance": CheckSpec("A-scale-invariance", chain=fast),
        "zeta-scaling": CheckSpec("zeta-scaling", chain=fast, tolerance=1e-6),
        "radon-nikodym": CheckSpec(
            "radon-nikodym", graph=triangle(), chain=fast, tolerance=1e-10, params={"n_bumps": 3}
        ),
        "laplace-real": CheckSpec("laplace-real", graph=single_edge(), chain=fast, tolerance=1e-6),
        "laplace-grassmann": CheckSpec("laplace-grassmann", graph=single_edge(), chain=slow, tolerance=1e-6),
        "consistency": CheckSpec("consistency", tower=line_tower(), chain=fast, tolerance=1e-14),
        "martingale-generating": CheckSpec("martingale-generating", tower=line_tower(), chain=fast),
        "martingale-super": CheckSpec("martingale-super", tower=line_tower(), chain=ChainConfig(n_samples=1_000, seed=seed)),
        "martingale-derivatives": CheckSpec("martingale-derivatives", tower=line_tower(), chain=heavy),
        "martingale-special-cases": CheckSpec("martingale-special-cases", tower=line_tower(), chain=heavy),
        "ward": CheckSpec("ward", graph=triangle(), chain=slow),
        "marginal-lemma": CheckSpec("marginal-lemma", graph=triangle(), chain=fast),
        "jacobian-sdet": CheckSpec("jacobian-sdet", chain=fast),
        "theta-conditional": CheckSpec(
            "theta-conditional", graph=triangle(), chain=fast, z_threshold=5.0, params={"n_draws": 40_000}
        ),
        "cartesian-horospherical": CheckSpec("cartesian-horospherical", graph=single_edge(), chain=fast, tolerance=1e-5),
        "image-measure-super": CheckSpec("image-measure-super", graph=triangle(), chain=slow),
    }
    return specs


def run_check(spec: CheckSpec) -> Report:
    """Execute one registered check; the report is deterministic given the spec."""
    if spec.id not in _HANDLERS:
        raise UnknownCheckError(spec.id)
    t0 = time.perf_counter()
    data = _HANDLERS[spec.id](spec)
    data["runtime_s"] = time.perf_counter() - t0
    return Report.from_dict(data)


def run_suite(pattern: str = "*", specs: dict | None = None, seed: int = 0):
    """Run every check whose id matches the glob pattern.

    Returns (reports, summary); summary carries pass/fail counts, total
    runtime, and the overall verdict.
    """
    all_specs = specs if specs is not None else default_specs(seed)
    selected = [s for cid, s in all_specs.items() if fnmatch.fnmatch(cid, pattern)]
    t0 = time.perf_counter()
    reports = [run_check(s) for s in selected]
    total_runtime = time.perf_counter() - t0
    passed = sum(1 for r in reports if r.passed)
    summary = {
        "total": len(reports),
        "passed": passed,
        "failed": len(reports) - passed,
        "runtime_s": total_runtime,
        "verdict": "pass" if passed == len(reports) else "fail",
    }
    return reports, summary
