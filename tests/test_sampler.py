"""Monte-Carlo machinery: exact draws of u, conditional draws of s, importance
sampling, and Grassmann-valued estimates."""

import inspect
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersigma import (
    ChainConfig,
    EstimationError,
    GeneratorSet,
    Graph,
    expect,
    expect_importance,
    fermion_weight,
    grassmann_reduce,
    line_tower,
    psi_algebra,
    psi_vectors,
    sample_s_given_u,
    sample_u,
    single_edge,
    super_expect,
    theta_conditional_covariance,
    triangle,
    wired_subgraph,
)
from hypersigma import sampler
from hypersigma.cli import main
from hypersigma.core import _avv_logdet, _h_beta_inverse_entries, _h_beta_ldl, build_A, compute_beta, compute_theta
from hypersigma.sampler import (
    _berezin_coefficients,
    _draw_s,
    _log_target,
    _log_target_derivatives,
    _reduce,
    _tail_saddle,
    _with_s,
)
from hypersigma.quadrature import expect_quadrature_1v
from hypersigma.scaling import ScaleParams, laplace_closed_form, tilt
from hypersigma.supersym import _derivative_martingale_observable, _generating_observable, _pairing_exponent
from hypersigma.verify import _martingale_terms, _random_graph

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(n_samples=0)


def test_sample_u_reproducible_and_pinned():
    g = triangle()
    cc = ChainConfig(n_samples=500, seed=42)
    u1 = sample_u(g, cc)
    u2 = sample_u(g, cc)
    assert np.array_equal(u1, u2)
    assert np.abs(u1[:, -1]).max() == 0.0
    assert u1.shape == (500, 3)


def test_sample_u_seed_changes_draws():
    g = triangle()
    u1 = sample_u(g, ChainConfig(n_samples=200, seed=1))
    u2 = sample_u(g, ChainConfig(n_samples=200, seed=2))
    assert not np.array_equal(u1, u2)


def test_sample_s_conditional_covariance():
    g = triangle()
    rng = np.random.default_rng(3)
    u = np.array([0.4, -0.3, 0.0])
    draws = sample_s_given_u(g, np.broadcast_to(u, (40_000, g.n_total)), rng)[:, :-1]
    emp = draws.T @ draws / len(draws)
    ref = np.linalg.inv(build_A(g, u)[:-1, :-1])
    assert np.abs(emp - ref).max() < 0.01


def test_sample_s_batch_matches_single_draws():
    """One (N, n_total) call gives, bit for bit, the N single calls made from
    the same generator state."""
    g = triangle()
    u = np.concatenate([np.random.default_rng(5).standard_normal((7, g.n_inner)), np.zeros((7, 1))], axis=1)
    batch = sample_s_given_u(g, u, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    singles = np.array([sample_s_given_u(g, uk, rng) for uk in u])
    assert batch.shape == (7, g.n_total)
    assert np.array_equal(batch, singles)


def test_expect_against_quadrature():
    """MC mean of a smooth bounded observable matches the 2-d quadrature."""
    g = single_edge()

    def f(u, s):
        return np.exp(-(u[:, 0] ** 2) - 0.5 * s[:, 0] ** 2)

    ref = expect_quadrature_1v(g, f)
    est = expect(g, _with_s(g, f, 0), ChainConfig(n_samples=200_000, seed=0))
    assert abs(est.mean - ref) < 4.0 * est.stderr
    assert est.stderr < 2e-3


def test_expect_rejects_nan_observable():
    g = single_edge()

    def bad(u, ldl):
        out = np.zeros(len(u))
        out[0] = np.nan
        return out

    with pytest.raises(EstimationError):
        expect(g, bad, ChainConfig(n_samples=100))


def test_super_expect_rejects_nan_observable():
    g = triangle()

    def bad(u, s, psibar, psi, algebra):
        return float("nan")

    with pytest.raises(EstimationError):
        super_expect(g, bad, GeneratorSet([]), ChainConfig(n_samples=100))


def test_expect_vector_observable_matches_columns():
    """An (N, k) observable gives, per column, exactly the estimate of that
    column alone on the same draws.  For `expect_importance` with one count
    vector per column, that is a one-column run at the same seed and with
    the same full `counts` list."""
    g = triangle()
    cc = ChainConfig(n_samples=2_000, seed=8)
    cols = [lambda u, s: np.exp(-(u[:, 0] ** 2)), lambda u, s: s[:, 1] ** 2, lambda u, s: u[:, 0] * s[:, 1]]
    est = expect(g, _with_s(g, lambda u, s: np.stack([f(u, s) for f in cols], axis=1), cc.seed), cc)
    assert est.mean.shape == est.stderr.shape == (3,)
    singles = [expect(g, _with_s(g, f, cc.seed), cc) for f in cols]
    for k, one in enumerate(singles):
        assert est.mean[k] == one.mean
        assert est.stderr[k] == one.stderr
    assert est.n_effective == min(one.n_effective for one in singles)

    g = wired_subgraph(line_tower(), 3)
    a, b = np.full(g.n_total, 1.1), np.full(g.n_total, 0.1)
    j_sets = [(), ("1",), ("1", "1", "2")]
    cols = [_derivative_martingale_observable(g, j_ids, a, b) for j_ids in j_sets]
    counts = [np.bincount([g.index_of(v) for v in j_ids], minlength=g.n_inner) for j_ids in j_sets]
    cc = ChainConfig(n_samples=3_000, seed=8)
    est = expect_importance(g, lambda u, ldl: np.stack([f(u, ldl) for f in cols], axis=1), cc, counts=counts)
    assert est.mean.shape == est.stderr.shape == (3,)
    for k, f in enumerate(cols):
        one = expect_importance(g, f, cc, counts=counts)
        assert est.mean[k] == one.mean
        assert est.stderr[k] == one.stderr
        assert est.n_effective == one.n_effective


def test_expect_importance_centres_a_ridge_on_each_nonzero_count(monkeypatch):
    """The mixture has the origin and 1/2 and 1 times the saddle of each
    nonzero count vector; a single vector gives the same estimate as a list
    holding it."""
    g = wired_subgraph(line_tower(), 3)
    built = []
    original = sampler._proposal_mixture
    monkeypatch.setattr(sampler, "_proposal_mixture", lambda g, centers: built.append(centers) or original(g, centers))
    f = _derivative_martingale_observable(g, ("1", "2"), np.full(g.n_total, 1.1), np.full(g.n_total, 0.1))
    cc = ChainConfig(n_samples=500, seed=2)
    one = expect_importance(g, f, cc, counts=[1.0, 1.0, 0.0, 0.0])
    listed = expect_importance(g, f, cc, counts=[[1.0, 1.0, 0.0, 0.0], np.zeros(4), [0.0, 2.0, 0.0, 0.0]])
    expect_importance(g, f, cc)
    saddle = _tail_saddle(g, np.array([1.0, 1.0, 0.0, 0.0]))
    assert [len(c) for c in built] == [3, 5, 1]
    for centers in built:
        assert not centers[0].any()
    assert np.array_equal(built[0][1], 0.5 * saddle) and np.array_equal(built[0][2], saddle)
    assert np.array_equal(built[1][4], _tail_saddle(g, np.array([0.0, 2.0, 0.0, 0.0])))
    assert one.mean != listed.mean
    assert expect_importance(g, f, cc, counts=[[1.0, 1.0, 0.0, 0.0]]).mean == one.mean


def test_expect_importance_matches_expect():
    """IS and exact draws agree on a bounded observable of u; IS resolves it
    with a large effective sample size."""
    g = triangle()

    def f(u, ldl):
        return np.exp(-np.abs(u[:, :-1]).sum(axis=1))

    cc = ChainConfig(n_samples=100_000, seed=5)
    e1 = expect(g, f, cc)
    e2 = expect_importance(g, f, cc)
    assert abs(e1.mean - e2.mean) < 4.0 * np.hypot(e1.stderr, e2.stderr)
    assert e2.n_effective > 10_000


def test_expect_importance_reproducible():
    g = single_edge()

    def f(u, ldl):
        return np.exp(u[:, 0])

    cc = ChainConfig(n_samples=20_000, seed=11)
    e1 = expect_importance(g, f, cc)
    e2 = expect_importance(g, f, cc)
    assert e1.mean == e2.mean
    assert e1.stderr == e2.stderr


def test_expect_keeps_its_parameter_names():
    """The benchmark's tracer binds g, observable and cc by name."""
    assert list(inspect.signature(expect).parameters) == ["g", "observable", "cc"]


def test_expect_importance_keeps_its_parameter_names():
    """The benchmark's tracer binds g, observable and cc by name."""
    assert list(inspect.signature(expect_importance).parameters) == ["g", "observable", "cc", "counts"]


def test_super_expect_keeps_its_parameter_names():
    """The benchmark's tracer binds g, f and cc by name."""
    assert list(inspect.signature(super_expect).parameters) == ["g", "f", "param_algebra", "cc"]


def _level3_derivative_case(n_samples, seed=0):
    g = wired_subgraph(line_tower(), 3)
    a, b = np.full(g.n_total, 1.1), np.full(g.n_total, 0.1)
    obs = _derivative_martingale_observable(g, ("1", "1", "2"), a, b)
    return g, obs, ChainConfig(n_samples=n_samples, seed=seed), np.array([2.0, 1.0, 0.0, 0.0])


def test_expect_importance_factors_each_draw_once(monkeypatch):
    """The target density and the derivative observable share one LDL^T of
    H_beta per chunk of draws (the saddle search, which factors one point
    per step, runs before counting starts)."""
    import hypersigma

    g, obs, cc, counts = _level3_derivative_case(sampler.CHUNK_ROWS + 10)
    saddle = _tail_saddle(g, counts)
    monkeypatch.setattr(sampler, "_tail_saddle", lambda g, c: saddle)
    rows = []
    original = hypersigma.core._h_beta_ldl

    def counting(g, u_inner):
        rows.append(np.size(u_inner) // g.n_inner)
        return original(g, u_inner)

    for mod in (hypersigma.core, sampler):
        monkeypatch.setattr(mod, "_h_beta_ldl", counting)
    expect_importance(g, obs, cc, counts=counts)
    assert rows == [sampler.CHUNK_ROWS, 10]


def test_expect_importance_is_chunk_invariant(monkeypatch):
    """Chunking changes only the rounding of the estimate."""
    g, obs, cc, counts = _level3_derivative_case(5_000, seed=7)
    default = expect_importance(g, obs, cc, counts=counts)
    monkeypatch.setattr(sampler, "CHUNK_ROWS", 1_000)
    small = expect_importance(g, obs, cc, counts=counts)
    assert abs(small.mean - default.mean) <= 1e-12 * abs(default.mean)
    assert abs(small.stderr - default.stderr) <= 1e-12 * default.stderr
    assert abs(small.n_effective - default.n_effective) <= 1e-12 * default.n_effective


@pytest.mark.parametrize("name", ["triangle", "level3"])
def test_proposal_mixture_matches_dense_references(name):
    """The stacked mixture's draws are c_k + C_k z with C_k the Cholesky factor
    of component k's covariance, and its log density is the log-sum-exp of
    the components' Gaussian densities from slogdet and solve, to 1e-12, also
    far out along the saddle, where one component dominates."""
    g = _fixture(name)
    saddle = _tail_saddle(g, np.append(2.0, np.ones(g.n_inner - 1)))
    centers = [np.zeros(g.n_inner), 0.5 * saddle, saddle]
    covs = [np.linalg.inv(-_log_target_derivatives(g, c)[1]) * sampler.PROPOSAL_SIGMA**2 for c in centers]
    draw, log_q = sampler._proposal_mixture(g, centers)
    rng = np.random.default_rng(23)
    z = rng.standard_normal((60, g.n_inner))
    pick = rng.integers(0, len(centers), 60)
    ref_u = np.array([centers[k] + np.linalg.cholesky(covs[k]) @ zi for k, zi in zip(pick, z)])
    u = draw(z, pick)
    assert np.abs(u - ref_u).max() <= 1e-12 * np.abs(ref_u).max()
    far = np.outer(np.linspace(1.0, 12.0, 20), saddle) + 0.1 * rng.standard_normal((20, g.n_inner))
    points = np.concatenate([u, far, -far])
    comps = []
    for c, cov in zip(centers, covs):
        d = points - c
        quad = np.einsum("ni,ni->n", d, np.linalg.solve(cov, d.T).T)
        comps.append(-0.5 * quad - 0.5 * np.linalg.slogdet(cov)[1])
    top = np.max(comps, axis=0)
    ref = top + np.log(np.exp(np.array(comps) - top).sum(axis=0)) - math.log(len(centers))
    # somewhere the runner-up component is below e^-10 of the top one
    assert np.sort(np.array(comps) - top, axis=0)[-2].min() < -10.0
    assert np.abs(log_q(points.T) - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_fermion_weight_reduces_to_determinant():
    """Berezin reduction of the fermionic edge weight yields det A_VV, on
    random graphs and for a batch of fields at once."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = _random_graph(rng)
        u = np.concatenate([rng.standard_normal((g.n_inner, 5)), np.zeros((1, 5))])
        red = grassmann_reduce(g, fermion_weight(g, u, psi_algebra(g)))
        ref = np.linalg.det(build_A(g, u.T)[:, :-1, :-1])
        assert np.abs(red.body - ref).max() <= 1e-12 * np.abs(ref).max()


def test_super_expect_of_one_is_exactly_one():
    g = triangle()
    empty = GeneratorSet([])

    def f(u, s, psibar, psi, algebra):
        return algebra.one()

    est = super_expect(g, f, empty, ChainConfig(n_samples=500, seed=0))
    mean = est.mean if not hasattr(est.mean, "body") else est.mean.body
    if isinstance(mean, dict):
        mean = mean.get((), mean.get(0, 0.0))
    assert float(np.real(mean)) == pytest.approx(1.0, abs=1e-12)
    stderr = est.stderr
    if isinstance(stderr, dict):
        stderr = max(stderr.values())
    assert float(np.max(stderr)) < 1e-12


def _odd_pair_superfunction(u, s, psibar, psi, algebra):
    """Inhomogeneous superfunction on the triangle with parameters xi, eta,
    so that every parameter monomial keeps a nonzero Berezin coefficient."""
    xi, eta = algebra.gen("xi"), algebra.gen("eta")
    return (
        algebra.scalar(np.exp(-(u[0] ** 2)) + 1j * s[1])
        + xi * (0.3 + u[1])
        + eta * psibar[0] * psi[1] * (0.2 - s[0])
        + xi * eta * psibar[0] * psi[0] * (0.7 * np.exp(u[0]))
    )


def _repeating_fields(g, rng):
    """Six (u, s) rows; rows 0-1 and 3-5 repeat u with different s."""
    u = np.zeros((6, g.n_total))
    u[:, :-1] = rng.standard_normal((6, g.n_inner))[[0, 0, 1, 2, 2, 2]]
    s = np.zeros((6, g.n_total))
    s[:, :-1] = rng.standard_normal((6, g.n_inner))
    return u, s


def test_berezin_coefficients_match_per_sample_reduction():
    """Each row equals the fermion weight times f reduced by Berezin
    integration and divided by det A_VV, read monomial by monomial, also
    where u repeats."""
    g = triangle()
    params = GeneratorSet(["xi", "eta"])
    alg = psi_algebra(g, params)
    psibar, psi = psi_vectors(g, alg)
    u, s = _repeating_fields(g, np.random.default_rng(4))
    out = sampler._berezin_coefficients(g, _odd_pair_superfunction, u, s, params, _h_beta_ldl(g, u[:, :-1]))
    assert out.shape == (6, 4)
    for k in range(6):
        weight = fermion_weight(g, u[k], alg)
        ref = grassmann_reduce(g, weight * _odd_pair_superfunction(u[k], s[k], psibar, psi, alg))
        det = np.linalg.det(build_A(g, u[k])[:-1, :-1])
        for mask, names in enumerate([(), ("xi",), ("eta",), ("xi", "eta")]):
            assert ref.coefficient(names) != 0.0
            assert out[k, mask] == pytest.approx(ref.coefficient(names) / det, rel=1e-12, abs=0.0)


def test_super_expect_builds_one_fermion_weight(monkeypatch):
    """The fermion weight is built once per chunk of samples, as one element
    whose coefficients are arrays over the chunk."""
    g = triangle()
    calls = []
    build = sampler.fermion_weight
    monkeypatch.setattr(sampler, "fermion_weight", lambda *args: calls.append(args[1]) or build(*args))
    cc = ChainConfig(n_samples=400, seed=2)
    super_expect(g, _odd_pair_superfunction, GeneratorSet(["xi", "eta"]), cc)
    assert len(calls) == 1
    assert calls[0].shape == (g.n_total, cc.n_samples)


def test_psi_vectors_pinned_entries_zero():
    g = triangle()
    algebra = psi_algebra(g)
    psibar, psi = psi_vectors(g, algebra)
    assert psibar[-1].is_zero()
    assert psi[-1].is_zero()


def _wired_box(side):
    """side x side box of Z^2 with unit weights; the pinned vertex takes one
    unit of weight for every missing lattice neighbour."""
    n = side * side
    w = np.zeros((n + 1, n + 1))
    for k in range(n):
        if k % side + 1 < side:
            w[k, k + 1] = w[k + 1, k] = 1.0
        if k + side < n:
            w[k, k + side] = w[k + side, k] = 1.0
    w[:n, n] = w[n, :n] = 4.0 - w[:n, :n].sum(axis=1)
    return Graph(tuple(str(k + 1) for k in range(n)) + ("delta",), w)


def _fixture(name):
    return {
        "edge": single_edge(1.3),
        "triangle": triangle(0.7, 1.2, 0.9),
        "level1": wired_subgraph(line_tower(), 1),
        "level2": wired_subgraph(line_tower(), 2),
        "level3": wired_subgraph(line_tower(), 3),
        "box16": _wired_box(4),
    }[name]


FIXTURES = ["edge", "triangle", "level1", "level2", "level3", "box16"]


def _log_stz_density(g, beta):
    """log nu^{W, eta}(beta), eta_i = W_{i delta}, H = 2 beta - W_VV:
    (n/2) log(2/pi) - <1, H 1>/2 - <eta, H^{-1} eta>/2 + <eta, 1> - log det(H)/2."""
    eta = g.weights[:-1, -1]
    h = 2.0 * np.diag(beta) - g.weights[:-1, :-1]
    sign, logdet = np.linalg.slogdet(h)
    assert sign > 0
    quadratic = -0.5 * h.sum() - 0.5 * eta @ np.linalg.solve(h, eta) + eta.sum()
    return 0.5 * g.n_inner * math.log(2 / math.pi) + quadratic - 0.5 * logdet


@pytest.mark.parametrize("name", FIXTURES + [f"random{k}" for k in range(8)])
def test_log_target_is_the_stz_law_in_u(name):
    """The law the sampler draws is the one `_log_target` describes: the
    u-marginal is the STZ law of beta pulled back along u -> beta(u), so
    _log_target(u) - log nu(beta(u)) - log |det d beta / du| is the constant
    (n/2) log 2 pi, normalisation included."""
    rng = np.random.default_rng(int(name[6:]) if name.startswith("random") else 0)
    g = _random_graph(rng, 5) if name.startswith("random") else _fixture(name)
    diffs = []
    for _ in range(30):
        u = np.append(0.8 * rng.standard_normal(g.n_inner), 0.0)
        e = g.weights[:-1, :-1] * np.exp(u[None, :-1] - u[:-1, None])
        beta = compute_beta(g, u)
        jac = 0.5 * e - np.diag(beta)  # d beta_i / d u_k
        log_target = _log_target(g, u[None, :-1], _h_beta_ldl(g, u[None, :-1]))[0]
        diffs.append(log_target - _log_stz_density(g, beta) - np.linalg.slogdet(jac)[1])
    assert max(diffs) - min(diffs) <= 1e-12
    assert abs(np.mean(diffs) - 0.5 * g.n_inner * math.log(2 * math.pi)) <= 1e-12


@pytest.mark.parametrize("name", FIXTURES)
def test_sample_u_matches_laplace_closed_form(name):
    """Under a random tilt a on the inner vertices, the mean of
    e^{-<a^2 - 1, beta(u)>} over exact draws of u matches L(a, 0)."""
    g = _fixture(name)
    rng = np.random.default_rng(FIXTURES.index(name))
    a = np.append(rng.uniform(0.9, 1.3, g.n_inner), 1.0)
    u = sample_u(g, ChainConfig(n_samples=100_000, seed=FIXTURES.index(name)))
    vals = np.exp(-compute_beta(g, u) @ (a[:-1] ** 2 - 1.0))
    ref = laplace_closed_form(g, ScaleParams(a, np.zeros(g.n_total)))
    z = (vals.mean() - ref) / (vals.std(ddof=1) / math.sqrt(len(vals)))
    assert abs(z) <= 4.0


def test_expect_stderr_holds_on_a_wide_level():
    """On line level 31 (32 inner vertices) at 76,800 draws the z-scores of
    the tilt at vertex 1 against L = e^{-0.2}/1.2 follow their null over
    seeds 0-9.  With 256 Metropolis chains of 300 draws, batch means
    understated the stderr there: z 2.81, 2.78 and 2.36 at seeds 0-2."""
    g = wired_subgraph(line_tower(32), 31)
    a, b = np.ones(g.n_total), np.zeros(g.n_total)
    a[0], b[0] = 1.2, 0.3
    p = ScaleParams(a, b)
    ref = laplace_closed_form(g, p)
    assert ref == pytest.approx(math.exp(-0.2) / 1.2, rel=1e-12)
    zs = []
    for seed in range(10):
        obs = _with_s(g, lambda u, s: tilt(g, p, u, s), seed)
        est = expect(g, obs, ChainConfig(76800, 1000, 1, 256, 0.8, seed))
        zs.append((est.mean - ref) / est.stderr)
    assert math.sqrt(np.mean(np.square(zs))) <= 1.6


def test_expect_hands_the_observable_one_chunk_at_a_time():
    """The observable sees at most CHUNK_ROWS rows per call, so its
    intermediates do not grow with the sample count."""
    g = single_edge()
    n = 2 * sampler.CHUNK_ROWS + 7
    rows = []

    def f(u, ldl):
        rows.append(len(u))
        assert ldl[0].shape == (g.n_inner, len(u))
        return u[:, 0]

    expect(g, f, ChainConfig(n_samples=n, seed=0))
    assert max(rows) <= sampler.CHUNK_ROWS
    assert len(rows) == math.ceil(n / sampler.CHUNK_ROWS)
    assert sum(rows) == n


def test_expect_reads_the_draws_of_sample_u(tmp_path):
    """Chunk by chunk, expect sees the rows of sample_u, and an observable of
    (u, s) the s that `hypersigma sample` streams for them."""
    path = FIXTURE_DIR / "triangle.json"
    g = Graph.load(str(path))
    cc = ChainConfig(n_samples=sampler.CHUNK_ROWS + 100, seed=3)
    seen = []
    expect(g, _with_s(g, lambda u, s: seen.append((u.copy(), s.copy())) or u[:, 0], cc.seed), cc)
    out = tmp_path / "draws.jsonl"
    assert main(["sample", "--graph", str(path), "--samples", str(cc.n_samples), "--seed", "3", "--out", str(out)]) == 0
    streamed = [json.loads(line) for line in out.read_text().splitlines()]
    u = np.concatenate([x for x, _ in seen])
    assert np.array_equal(u, sample_u(g, cc))
    assert np.array_equal(u, [rec["u"] for rec in streamed])
    assert np.array_equal(np.concatenate([y for _, y in seen]), [rec["s"] for rec in streamed])


def _central_differences(g, u, h=1e-4):
    """Gradient and Hessian of _log_target at u by central differences."""
    n = len(u)
    steps = h * np.eye(n)

    def f(x):
        return _log_target(g, x[None, :], _h_beta_ldl(g, x[None, :]))[0]

    grad = np.array([(f(u + steps[k]) - f(u - steps[k])) / (2 * h) for k in range(n)])
    hess = np.empty((n, n))
    for k in range(n):
        for m in range(n):
            pp, pm = f(u + steps[k] + steps[m]), f(u + steps[k] - steps[m])
            mp, mm = f(u - steps[k] + steps[m]), f(u - steps[k] - steps[m])
            hess[k, m] = (pp - pm - mp + mm) / (4 * h * h)
    return grad, hess


@pytest.mark.parametrize("name", FIXTURES)
def test_log_target_derivatives_match_central_differences(name):
    g = _fixture(name)
    u = 0.5 * np.random.default_rng(3).standard_normal(g.n_inner)
    grad, hess = _log_target_derivatives(g, u)
    grad_fd, hess_fd = _central_differences(g, u)
    assert np.abs(grad - grad_fd).max() <= 1e-6 * np.abs(grad_fd).max()
    assert np.abs(hess - hess_fd).max() <= 1e-6 * np.abs(hess_fd).max()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tail_saddle_single_edge_closed_form(k):
    """On one edge of weight W the saddle solves sinh u = (k - 1/2)/W."""
    w = 1.3
    saddle = _tail_saddle(single_edge(w), np.array([float(k)]))
    assert abs(saddle[0] - np.arcsinh((k - 0.5) / w)) <= 1e-12


def test_tail_saddle_level_3(monkeypatch):
    g = wired_subgraph(line_tower(), 3)
    counts = np.array([1.0, 1.0, 1.0, 0.0])
    saddle = _tail_saddle(g, counts)
    grad, hess = _log_target_derivatives(g, saddle)
    assert np.abs(grad + counts).max() <= 1e-8
    assert np.linalg.eigvalsh(hess).max() < 0.0
    monkeypatch.setattr(sampler, "SADDLE_MAX_STEPS", 1)
    with pytest.raises(EstimationError):
        _tail_saddle(g, counts)


KERNEL_GRAPHS = FIXTURES + [f"random{k}" for k in range(8)]


def _kernel_graph(name):
    if name.startswith("random"):
        return _random_graph(np.random.default_rng(int(name[6:])), 5)
    return _fixture(name)


@pytest.mark.parametrize("name", KERNEL_GRAPHS)
def test_ldl_kernel_matches_dense_references(name):
    """The LDL^T factor of H_beta gives log det A_VV, the entries of
    H_beta^{-1} = e^u A_VV^{-1} e^u and the s-draw of the dense references
    (slogdet, inv and the Cholesky map z -> C^{-T} z of A_VV = C C^T) to
    1e-12, for a batch of fields and for one field alone."""
    g = _kernel_graph(name)
    rng = np.random.default_rng(17)
    u = np.concatenate([0.8 * rng.standard_normal((20, g.n_inner)), np.zeros((20, 1))], axis=1)
    z = rng.standard_normal((20, g.n_inner))
    avv = build_A(g, u)[:, :-1, :-1]
    ref_logdet = np.linalg.slogdet(avv)[1]
    eu = np.exp(u[:, :-1])
    ref_g = np.linalg.inv(avv) * eu[:, :, None] * eu[:, None, :]
    chol = np.linalg.cholesky(avv)
    ref_s = np.linalg.solve(np.swapaxes(chol, -1, -2), z[..., None])[..., 0]
    idx = list(range(g.n_inner))[::-1] + [0]
    for rows in (slice(None), 0):
        logdet = _avv_logdet(g, u[rows, :-1])
        assert np.shape(logdet) == np.shape(ref_logdet[rows])
        assert np.abs(logdet - ref_logdet[rows]).max() <= 1e-12 * max(1.0, np.abs(ref_logdet).max())
        s = _draw_s(g, u[rows, :-1], z[rows], _h_beta_ldl(g, u[rows, :-1]))
        assert s.shape == u[rows].shape and np.all(s[..., -1] == 0.0)
        assert np.abs(s[..., :-1] - ref_s[rows]).max() <= 1e-12 * np.abs(ref_s).max()
        entries = np.moveaxis(_h_beta_inverse_entries(g, _h_beta_ldl(g, u[rows, :-1]), idx), -1, 0)
        ref = ref_g[rows][..., idx, :][..., idx].reshape(entries.shape)
        assert np.abs(entries - ref).max() <= 1e-12 * np.abs(ref).max()


def _superfunctions(g):
    """(superfunction, parameter algebra) of the ward and laplace-grassmann
    checks on g: alpha -1 on the first inner vertex and odd sources on the
    first two; the tilt (1.2, 0.3) on every inner vertex, with odd parts on
    the first."""
    inner = g.vertex_ids[:-1]
    taus = GeneratorSet([f"tau_{v}" for v in inner[:2]])
    tau = {v: taus.gen(f"tau_{v}") * c for v, c in zip(inner[:2], (0.8, 0.6))}
    odd = GeneratorSet(["cb_1", "c_1"])
    quads = {v: (1.2, 0.3, odd.zero(), odd.zero()) for v in inner}
    quads[inner[0]] = (1.2, 0.3, odd.gen("cb_1") * 0.8, odd.gen("c_1") * 0.6)
    ward = _martingale_terms(g, np.append(-1.0, np.zeros(g.n_inner)), tau, {}, taus)[0]
    return (ward, taus), (_martingale_terms(g, np.zeros(g.n_total), {}, quads, odd)[0], odd)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIXTURES), st.data())
def test_field_kernels_are_finite_or_raise_at_extreme_u(name, data):
    """At |u| up to 700 the log det, the log target, the s-draw, the tilt,
    generating and derivative observables of the conditional-Gaussian kernel
    and the Berezin coefficients of the ward and laplace-grassmann
    superfunctions (up to 4 inner vertices) return finite values or raise
    EstimationError, without a RuntimeWarning."""
    g = _fixture(name)
    u = np.array(data.draw(st.lists(st.floats(-700.0, 700.0), min_size=g.n_inner, max_size=g.n_inner)))
    z = np.random.default_rng(0).standard_normal(g.n_inner)
    a, b, alpha = np.full(g.n_total, 1.1), np.full(g.n_total, 0.1), np.full(g.n_total, -0.5)
    j_ids = (g.vertex_ids[0],) * 2 + (g.vertex_ids[-2],)
    observables = (
        _derivative_martingale_observable(g, (), a, b),
        _generating_observable(g, alpha, a, b),
        _derivative_martingale_observable(g, j_ids, a, b),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernels = (
            lambda: _avv_logdet(g, u),
            lambda: _log_target(g, u[None], _h_beta_ldl(g, u[None])),
            lambda: _draw_s(g, u, z, _h_beta_ldl(g, u)),
        ) + tuple(lambda obs=obs: obs(np.append(u, 0.0)[None], _h_beta_ldl(g, u[None])) for obs in observables)
        fields = np.append(u, 0.0)[None], np.append(z, 0.0)[None]
        kernels += tuple(
            lambda f=f, alg=alg: _berezin_coefficients(g, f, *fields, alg, _h_beta_ldl(g, u[None]))
            for f, alg in (_superfunctions(g) if g.n_inner <= 4 else ())
        )
        for kernel in kernels:
            try:
                out = kernel()
            except EstimationError:
                continue
            assert np.isfinite(out).all()


def test_estimators_build_no_dense_A_VV(monkeypatch):
    """expect of the tilt on line levels 3 and 31, expect_importance of the
    derivative observable and super_expect of the Grassmann-Laplace tilt
    call neither build_A nor a batched inv, slogdet or cholesky."""
    calls = []
    # every module that binds the name, so no import of it goes unseen
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "hypersigma" and hasattr(mod, "build_A"):
            monkeypatch.setattr(mod, "build_A", lambda *args: calls.append("build_A"))
    for fname in ("inv", "slogdet", "cholesky"):
        original = getattr(np.linalg, fname)

        def recording(a, *args, original=original, fname=fname):
            if np.ndim(a) > 2:
                calls.append(fname)
            return original(a, *args)

        monkeypatch.setattr(np.linalg, fname, recording)
    for g in (wired_subgraph(line_tower(), 3), wired_subgraph(line_tower(32), 31)):
        p = ScaleParams(np.append(np.full(g.n_inner, 1.1), 1.0), np.append(np.full(g.n_inner, 0.1), 0.0))
        expect(g, _with_s(g, lambda u, s: tilt(g, p, u, s), 0), ChainConfig(n_samples=sampler.CHUNK_ROWS + 10, seed=0))
    g = wired_subgraph(line_tower(), 3)
    a, b = np.full(g.n_total, 1.1), np.full(g.n_total, 0.1)
    obs = _derivative_martingale_observable(g, ("1", "1", "2"), a, b)
    expect_importance(g, obs, ChainConfig(n_samples=5_000, seed=0), counts=[2.0, 1.0, 0.0, 0.0])
    params = GeneratorSet(["cb_1", "c_1"])
    chibar = [params.gen("cb_1") * 0.3] * g.n_inner + [0.0]
    chi = [params.gen("c_1") * -0.2] * g.n_inner + [0.0]

    def f(u, s, psibar, psi, alg):
        return _pairing_exponent(g, u, s, psibar, psi, alg, a, b, chibar, chi).fn("exp")

    super_expect(g, f, params, ChainConfig(n_samples=200, seed=0))
    assert calls == []


def test_expect_and_super_expect_factor_no_chunk(monkeypatch):
    """expect hands its observables the factor the sampler built, and
    super_expect reads s and log det A_VV from it: neither calls
    _h_beta_ldl or _avv_logdet."""
    calls = []
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "hypersigma":
            for fname in ("_h_beta_ldl", "_avv_logdet"):
                if hasattr(mod, fname):
                    monkeypatch.setattr(mod, fname, lambda *args, fname=fname: calls.append(fname))
    g = wired_subgraph(line_tower(), 3)
    a, b = np.append(np.full(g.n_inner, 1.1), 1.0), np.append(np.full(g.n_inner, 0.1), 0.0)
    cc = ChainConfig(n_samples=sampler.CHUNK_ROWS + 10, seed=0)
    expect(g, _with_s(g, lambda u, s: tilt(g, ScaleParams(a, b), u, s), 0), cc)
    expect(g, _generating_observable(g, np.full(g.n_total, -0.3), a, b), cc)
    expect(g, _derivative_martingale_observable(g, ("1", "2"), a, b), cc)
    super_expect(g, lambda u, s, psibar, psi, alg: alg.scalar(np.exp(-(u[0] ** 2))), GeneratorSet([]), cc)
    assert calls == []


@pytest.mark.parametrize("name", KERNEL_GRAPHS + ["level31"])
def test_expect_hands_the_factor_of_its_draws(name):
    """The factor expect hands its observable is that of H_beta at the drawn
    u, entry by entry to 1e-12 relative."""
    g = wired_subgraph(line_tower(32), 31) if name == "level31" else _kernel_graph(name)
    worst = []

    def record(u, ldl):
        for got, ref in zip(ldl, _h_beta_ldl(g, u[:, :-1])):
            worst.append((np.abs(got - ref) / np.abs(ref)).max(initial=0.0))
        return u[:, 0]

    expect(g, record, ChainConfig(n_samples=sampler.CHUNK_ROWS + 50, seed=1))
    assert len(worst) == 4 and max(worst) <= 1e-12


def test_reduce_with_equal_weights_is_the_iid_estimate():
    """With equal weights the shared reduction gives the i.i.d. mean bit for
    bit, the i.i.d. standard error to 1e-12 and n_effective = n, for real,
    complex and (N, k) observables over several chunks."""
    rng = np.random.default_rng(5)
    n = 3 * sampler.CHUNK_ROWS + 17
    for vals in (
        rng.standard_normal(n),
        rng.standard_normal(n) + 1j * rng.standard_exponential(n),
        rng.standard_normal((n, 3)) ** 3,
    ):
        parts = [vals[k : k + sampler.CHUNK_ROWS] for k in range(0, n, sampler.CHUNK_ROWS)]
        est = _reduce(lambda v, ldl: v, ((v, None, np.zeros(len(v))) for v in parts), 0)
        cols = vals.T if vals.ndim == 2 else [vals]
        for k, c in enumerate(cols):
            mean, stderr = (est.mean[k], est.stderr[k]) if vals.ndim == 2 else (est.mean, est.stderr)
            assert mean == c.mean()
            iid = math.sqrt((np.abs(c - c.mean()) ** 2).sum() / (n * (n - 1)))
            assert abs(stderr - iid) <= 1e-12 * iid
        assert est.n_effective == n
