"""Registry and runner for the named identity checks.

Each check compares an implementation of a structural identity against an
independent route (closed form, quadrature oracle, second coordinate system,
or a second wired level) and reports per-coefficient residuals or z-scores in
a machine-readable schema.
"""

from __future__ import annotations

import fnmatch
import math
import time
from dataclasses import dataclass, field, replace

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
from .grassmann import GeneratorSet, GroupElement, sdet
from .graphs import Graph, GraphTower, line_tower, single_edge, triangle
from .quadrature import (
    cartesian_expect_quadrature_1v,
    expect_quadrature_1v,
    super_expect_quadrature_1v,
    zeta_integral_1v,
)
from .sampler import ChainConfig, expect, grassmann_reduce, psi_algebra, sample_s_given_u
from .scaling import ScaleParams, laplace_closed_form, rescale_weights, theta_conditional_covariance
from .supersym import (
    STDERR_FLOOR,
    _report,
    _row,
    bold_rho,
    consistency_check,
    grassmann_laplace_check,
    martingale_derivative_check,
    martingale_generating_check,
    super_image_measure_check,
    super_jacobian,
    susy_martingale_check,
    ward_check,
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


def _det_row(name: str, residual: float, tol: float) -> dict:
    return {
        "subset": [name],
        "estimate": float(residual),
        "stderr": STDERR_FLOOR,
        "reference": 0.0,
        "z": 0.0 if residual <= tol else float("inf"),
    }


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
    return _report(spec.id, rows, spec.chain.seed)


def _check_spinor_identity(spec: CheckSpec) -> dict:
    rng = np.random.default_rng(spec.chain.seed)
    n_pairs = spec.params.get("n_pairs", 1000)
    worst = 0.0
    for _ in range(n_pairs):
        vi = (math.exp(rng.uniform(-1.5, 1.5)), rng.uniform(-2.0, 2.0))
        vj = (math.exp(rng.uniform(-1.5, 1.5)), rng.uniform(-2.0, 2.0))
        lhs, rhs = spinor_det_sides(vi, vj)
        worst = max(worst, abs(lhs - rhs))
    hand_lhs, hand_rhs = spinor_det_sides((1.0, 0.0), (1.0, 1.0))
    rows = [
        _det_row("max_residual", worst, spec.tolerance),
        _det_row("hand_case_lhs", abs(hand_lhs + 1.0), spec.tolerance),
        _det_row("hand_case_rhs", abs(hand_rhs + 1.0), spec.tolerance),
    ]
    return _report(spec.id, rows, spec.chain.seed)


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
    return _report(spec.id, rows, spec.chain.seed)


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
    return _report(spec.id, rows, spec.chain.seed)


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
    return _report(spec.id, rows, spec.chain.seed)


def _random_group_element(rng: np.random.Generator, algebra: GeneratorSet, n_vertices: int, min_margin=None) -> GroupElement:
    """Random (a, b, chibar, chi) per inner vertex; with `min_margin`, each
    vertex's (a, b) is redrawn until 2a^2 - 2b^2 - 1 >= min_margin."""
    odd_gens = [algebra.gen(nm) for nm in algebra.names]
    quads = []
    for _ in range(n_vertices - 1):
        while True:
            a, b = math.exp(rng.uniform(-0.6, 0.6)), rng.uniform(-1.0, 1.0)
            if min_margin is None or 2.0 * a * a - 2.0 * b * b - 1.0 >= min_margin:
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
    return _report(spec.id, rows, spec.chain.seed)


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
        eu = (algebra.scalar(u[0]) if not hasattr(u[0], "algebra") else u[0]).fn("exp")
        even = (eu * (alpha + 1j * alpha * s[0])).fn("exp")
        return even * (algebra.one() + psibar[0] * psi[0] * (c_odd * math.exp(2.0 * u[0])))

    def f_cart(x, y, xi, eta, algebra):
        z = (algebra.scalar(1.0 + x * x + y * y) + xi * eta * 2.0).fn("sqrt")
        even = ((z + algebra.scalar(x + 1j * y)) * alpha).fn("exp")
        return even * (algebra.one() + xi * eta * c_odd)

    lhs = super_expect_quadrature_1v(g, f_h, empty).body
    rhs = cartesian_expect_quadrature_1v(g, f_cart, empty).body
    residual = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    rows = [_det_row("relative_residual", residual, spec.tolerance)]
    rep = _report(spec.id, rows, spec.chain.seed)
    rep["lhs"] = complex(lhs).real
    rep["rhs"] = complex(rhs).real
    return rep


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
            rows.append(_row((f"cov_{i}_{j}",), emp[i, j], se, cov_ref[i, j], spec.z_threshold))
    return _report(spec.id, rows, spec.chain.seed, spec.z_threshold)


# -- statistical checks built from closed forms ------------------------------


def _tilt_observable(g: Graph, a: np.ndarray, b: np.ndarray):
    """e^{-<(a^2+b^2-1)_V, beta> - <b_V, theta>} at (u, s) of shape (..., n_total)."""

    c = a[:-1] ** 2 + b[:-1] ** 2 - 1.0
    b_inner = b[:-1]

    def obs(u, s):
        return np.exp(-compute_beta(g, u) @ c - compute_theta(g, u, s) @ b_inner)

    return obs


def _spec_scale_params(spec: CheckSpec, g: Graph) -> ScaleParams:
    a = np.ones(g.n_total)
    b = np.zeros(g.n_total)
    a[:-1] = np.asarray(spec.params.get("a", 1.2 * np.ones(g.n_inner)), dtype=float)
    b[:-1] = np.asarray(spec.params.get("b", 0.3 * np.ones(g.n_inner)), dtype=float)
    return ScaleParams(a, b)


def _check_laplace_real(spec: CheckSpec) -> dict:
    g = spec.graph or single_edge()
    p = _spec_scale_params(spec, g)
    ref = laplace_closed_form(g, p)
    est = expect(g, _tilt_observable(g, p.a, p.b), spec.chain)
    rows = [_row(("mc",), est.mean, est.stderr, ref, spec.z_threshold)]
    if g.n_inner == 1:
        quad = expect_quadrature_1v(g, _tilt_observable(g, p.a, p.b))
        rows.append(_det_row("quadrature_residual", abs(quad - ref) / abs(ref), spec.tolerance))
    rep = _report(spec.id, rows, spec.chain.seed, spec.z_threshold)
    rep["stderr_max"] = float(est.stderr)
    return rep


def _check_radon_nikodym(spec: CheckSpec) -> dict:
    g = spec.graph or triangle()
    rng = np.random.default_rng(spec.chain.seed)
    p = _spec_scale_params(spec, g)
    n_points = spec.params.get("n_points", 1000)
    lap = laplace_closed_form(g, p)
    g2 = rescale_weights(p, g)
    # the normals of one _random_fields call per point (u, then s), pinned 0 appended
    u, s = np.pad(0.8 * rng.standard_normal((n_points, 2, g.n_inner)), ((0, 0), (0, 0), (0, 1))).transpose(1, 0, 2)
    lhs = _tilt_observable(g, p.a, p.b)(u, s) / lap
    # the rescaled density at the inversely scaled fields over the original one
    rhs = np.exp(_log_rho(g2, u - np.log(p.a), s + np.exp(-u) * p.b) - _log_rho(g, u, s)) * np.prod(p.a[:-1])
    worst = float((np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)).max())
    rows = [_det_row("max_pointwise_residual", worst, spec.tolerance)]

    n_bumps = spec.params.get("n_bumps", 5)
    for k in range(n_bumps):
        mu_u = rng.uniform(-0.5, 0.5)
        mu_s = rng.uniform(-0.5, 0.5)

        def bump(u, s, mu_u=mu_u, mu_s=mu_s):
            return np.exp(-((u[:, :-1] - mu_u) ** 2).sum(axis=1) - 0.5 * ((s[:, :-1] - mu_s) ** 2).sum(axis=1))

        tilt = _tilt_observable(g, p.a, p.b)

        def lhs_obs(u, s, bump=bump, tilt=tilt):
            return bump(u, s) * tilt(u, s)

        def rhs_obs(u, s, bump=bump):
            u2 = u + np.log(p.a)
            s2 = s - np.exp(-u) * p.b / p.a
            return bump(u2, s2)

        cc_l = replace(spec.chain, seed=spec.chain.seed + 2 * k)
        cc_r = replace(spec.chain, seed=spec.chain.seed + 2 * k + 1)
        el = expect(g, lhs_obs, cc_l)
        er = expect(g2, rhs_obs, cc_r)
        se = math.hypot(el.stderr, lap * er.stderr)
        rows.append(_row((f"bump_{k}",), el.mean, se, lap * er.mean, spec.z_threshold))
    return _report(spec.id, rows, spec.chain.seed, spec.z_threshold)


def _check_laplace_grassmann(spec: CheckSpec) -> dict:
    g = spec.graph or single_edge()
    p = _spec_scale_params(spec, g)
    algebra = GeneratorSet(["cb_1", "c_1"])
    chibar = [algebra.gen("cb_1") * spec.params.get("cb_coeff", 0.8)] + [algebra.zero()] * (g.n_total - 1)
    chi = [algebra.gen("c_1") * spec.params.get("c_coeff", 0.6)] + [algebra.zero()] * (g.n_total - 1)
    rep = grassmann_laplace_check(g, p, chibar, chi, spec.chain, spec.z_threshold)
    rep["check"] = spec.id
    if g.n_inner == 1:
        ref = laplace_closed_form(g, p)
        quad = expect_quadrature_1v(g, _tilt_observable(g, p.a, p.b))
        rep["coefficients"].append(_det_row("body_quadrature_residual", abs(quad - ref) / abs(ref), spec.tolerance))
        if rep["coefficients"][-1]["z"] > spec.z_threshold:
            rep["verdict"] = "fail"
    return rep


def _check_consistency(spec: CheckSpec) -> dict:
    tower = spec.tower or line_tower()
    n = spec.params.get("level", 1)
    params = spec.params.get("vertex_params", {"1": (1.2, 0.3)})
    return consistency_check(tower, n, params, spec.chain, spec.z_threshold)


def _check_martingale_generating(spec: CheckSpec) -> dict:
    tower = spec.tower or line_tower()
    n = spec.params.get("level", 1)
    alpha = spec.params.get("alpha", {"1": -0.7, "3": -0.4})
    tilt = spec.params.get("tilt", {"1": (1.2, 0.3), "2": (0.9, -0.2)})
    return martingale_generating_check(tower, n, alpha, tilt, spec.chain, spec.z_threshold)


def _check_martingale_super(spec: CheckSpec) -> dict:
    """Grassmann-valued martingale with odd tilt parameters and an odd source
    tau on vertex 1, at two consecutive wired levels."""
    tower = spec.tower or line_tower()
    algebra = GeneratorSet(["cb_1", "c_1", "tau_1"])
    params = {"1": (1.2, 0.3, algebra.gen("cb_1") * 0.8, algebra.gen("c_1") * 0.6)}
    tau = {"1": algebra.gen("tau_1") * 0.5}
    n = spec.params.get("level", 1)
    return susy_martingale_check(tower, n, {"1": -0.7}, tau, params, spec.chain, spec.z_threshold)


def _merged_derivative_check(spec: CheckSpec, j_sets) -> dict:
    tower = spec.tower or line_tower()
    n = spec.params.get("level", 2)
    # damping tilt: entries a >= 1 keep the heavy e^{ku} tails integrable in MC
    tilt = spec.params.get("tilt", {"1": (1.15, 0.2), "2": (1.1, -0.15), "3": (1.05, 0.1)})
    rows = []
    verdict = "pass"
    for k, j_ids in enumerate(j_sets):
        cc = replace(spec.chain, seed=spec.chain.seed + 10 * k)
        rep = martingale_derivative_check(tower, n, list(j_ids), tilt, cc, spec.z_threshold, spec.id)
        label = "+".join(j_ids) if j_ids else "unit"
        for r in rep["coefficients"]:
            r = dict(r)
            r["subset"] = [label] + list(r["subset"])
            rows.append(r)
        if rep["verdict"] == "fail":
            verdict = "fail"
    rep = _report(spec.id, rows, spec.chain.seed, spec.z_threshold)
    rep["verdict"] = verdict
    return rep


def _check_martingale_derivatives(spec: CheckSpec) -> dict:
    j_sets = spec.params.get("j_sets", [("1",), ("1", "2"), ("1", "2", "3")])
    return _merged_derivative_check(spec, j_sets)


def _check_martingale_special_cases(spec: CheckSpec) -> dict:
    """Powers and products of the per-vertex factor e^{u_j}(1 + i s_j).

    Repeated indices realize the listed polynomial observables, for example
    the pair (j, j) gives e^{2u_j}(1 - s_j^2) + 2 i s_j e^{2u_j}.
    """
    j_sets = spec.params.get("j_sets", [("1", "1"), ("1", "1", "1"), ("1", "1", "2")])
    return _merged_derivative_check(spec, j_sets)


def _check_ward(spec: CheckSpec) -> dict:
    g = spec.graph or triangle()
    alpha = np.asarray(spec.params.get("alpha", [-1.0] + [0.0] * (g.n_total - 1)), dtype=float)
    tau_coeffs = spec.params.get("tau", {"1": 0.8, "2": 0.6})
    names = [f"tau_{vid}" for vid in tau_coeffs]
    algebra = GeneratorSet(names)
    tau = []
    for vid in g.vertex_ids:
        if vid in tau_coeffs:
            tau.append(algebra.gen(f"tau_{vid}") * tau_coeffs[vid])
        else:
            tau.append(algebra.zero())
    return ward_check(g, alpha, tau, spec.chain, spec.z_threshold)


def _check_image_measure_super(spec: CheckSpec) -> dict:
    """Image-measure identity at a random group element.

    The left side estimates E[T f] with the tilt
    T = e^{-(a^2+b^2-1) beta - b theta}.  E[T^2] is the Laplace transform at
    a'^2 = 2a^2 - 2b^2 - 1, which diverges as a' -> 0, so the estimator's
    variance is infinite when some inner vertex has 2a^2 - 2b^2 <= 1 and
    huge just above.  The element is therefore drawn with
    2a^2 - 2b^2 - 1 >= 0.3 at every inner vertex.
    """
    g = spec.graph or triangle()
    algebra = GeneratorSet(["cb_1", "c_1"])
    rng = np.random.default_rng(spec.chain.seed + 17)
    v = _random_group_element(rng, algebra, g.n_total, min_margin=0.3)
    decay = spec.params.get("decay", 0.3)

    def f(u, s, psibar, psi, alg):
        acc = alg.zero()
        for i in range(len(u)):
            ui = u[i] if hasattr(u[i], "algebra") else alg.scalar(u[i])
            acc = acc - ui.fn("exp") * decay
        return acc.fn("exp")

    return super_image_measure_check(g, v, f, spec.chain, spec.z_threshold)


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
    "martingale-special-cases": _check_martingale_special_cases,
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
    fast = ChainConfig(n_samples=20_000, burn_in=1_500, n_chains=8, seed=seed)
    slow = ChainConfig(n_samples=2_000, burn_in=800, n_chains=4, seed=seed)
    # importance-sampling checks are cheap per sample; give them more draws
    heavy = ChainConfig(n_samples=200_000, burn_in=1_500, n_chains=8, seed=seed)
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
        "martingale-super": CheckSpec(
            "martingale-super", tower=line_tower(), chain=ChainConfig(n_samples=1_000, burn_in=800, n_chains=4, seed=seed)
        ),
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
    data["check"] = spec.id
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
