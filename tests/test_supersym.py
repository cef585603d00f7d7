"""Superdensity, pullbacks, odd observables, and the registered checks that
estimate them."""

import itertools
import math

import numpy as np
import pytest

from hypersigma import (
    ChainConfig,
    CheckSpec,
    FieldConfig,
    GeneratorSet,
    GroupElement,
    bold_rho,
    build_A,
    compute_phi,
    expect,
    extend_alpha,
    grassmann_reduce,
    line_tower,
    psi_algebra,
    psi_vectors,
    rho_density,
    run_check,
    sample_s_given_u,
    sample_u,
    sdet,
    single_edge,
    super_jacobian,
    super_scale_pullback,
    triangle,
    wired_subgraph,
)
from hypersigma.core import _h_beta_ldl, compute_beta
from hypersigma.sampler import expect_importance
from hypersigma.scaling import ScaleParams, laplace_closed_form, tilt
from hypersigma.supersym import _derivative_martingale_columns, _derivative_martingale_observable, _generating_observable
from hypersigma.verify import _DERIVATIVE_J_SETS, _random_graph, _tilt_arrays


def random_fields(rng, n, scale=0.8):
    u = np.concatenate([scale * rng.standard_normal(n - 1), [0.0]])
    s = np.concatenate([scale * rng.standard_normal(n - 1), [0.0]])
    return FieldConfig(u, s)


def test_bold_rho_reduces_to_scalar_density():
    rng = np.random.default_rng(0)
    g = triangle()
    algebra = psi_algebra(g)
    for _ in range(25):
        cfg = random_fields(rng, 3)
        red = grassmann_reduce(g, bold_rho(g, cfg, algebra))
        assert red.body == pytest.approx(rho_density(g, cfg), rel=1e-12)


def test_compute_phi_matches_matrix_action():
    """phi = e^{-u} A vec, checked coefficientwise against the dense matrix on
    random graphs, for vec = psi and psibar and a batch of fields at once."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = _random_graph(rng)
        algebra = psi_algebra(g)
        u = np.concatenate([rng.standard_normal((g.n_inner, 5)), np.zeros((1, 5))])
        a = build_A(g, u.T)
        emu = np.exp(-u)
        for vec in psi_vectors(g, algebra):
            phi = compute_phi(g, u, vec, algebra)
            assert len(phi) == g.n_inner
            for i in range(g.n_inner):
                expected = algebra.zero()
                for j in range(g.n_total):
                    expected = expected + vec[j] * (emu[i] * a[:, i, j])
                diff = phi[i] - expected
                assert max((np.abs(c).max() for c in diff.coeffs.values()), default=0.0) < 1e-12 * np.abs(a).max()


def _group_element(algebra, entries):
    quads = list(entries) + [(1.0, 0.0, 0.0, 0.0)]
    return GroupElement(algebra, quads)


def test_super_jacobian_sdet_is_one():
    algebra = GeneratorSet(["cb_1", "c_1"])
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        entries = []
        for _ in range(n):
            a = algebra.scalar(math.exp(rng.uniform(-0.5, 0.5)))
            b = algebra.scalar(rng.uniform(-1, 1))
            cb = algebra.gen("cb_1") * rng.uniform(-0.5, 0.5)
            c = algebra.gen("c_1") * rng.uniform(-0.5, 0.5)
            entries.append((a, b, cb, c))
        v = _group_element(algebra, entries)
        u = np.concatenate([rng.standard_normal(n), [0.0]])
        dev = sdet(super_jacobian(v, u)) - algebra.one()
        assert max((abs(c) for c in dev.coeffs.values()), default=0.0) < 1e-12


def test_pullback_composition_follows_group_product():
    """Pulling back twice equals pulling back along the composed parameters."""
    algebra = GeneratorSet(["cb_1", "c_1"])
    rng = np.random.default_rng(3)

    def probe(u, s, psibar, psi, alg):
        ue = u[0] if hasattr(u[0], "algebra") else alg.scalar(u[0])
        se = s[0] if hasattr(s[0], "algebra") else alg.scalar(s[0])
        return ue.fn("exp") * se + psibar[0] * psi[0] + ue

    def rand_v():
        a = algebra.scalar(math.exp(rng.uniform(-0.4, 0.4)))
        b = algebra.scalar(rng.uniform(-0.8, 0.8))
        cb = algebra.gen("cb_1") * rng.uniform(-0.5, 0.5)
        c = algebra.gen("c_1") * rng.uniform(-0.5, 0.5)
        return _group_element(algebra, [(a, b, cb, c)])

    base_pb = [algebra.gen("cb_1") * 0.3, algebra.zero()]
    base_p = [algebra.gen("c_1") * 0.4, algebra.zero()]
    for _ in range(5):
        v1, v2 = rand_v(), rand_v()
        u = [rng.uniform(-1, 1), 0.0]
        s = [rng.uniform(-1, 1), 0.0]
        once = super_scale_pullback(v1, super_scale_pullback(v2, probe))
        lhs = once(u, s, base_pb, base_p, algebra)
        for composed in (v1 * v2, v2 * v1):
            rhs = super_scale_pullback(composed, probe)(u, s, base_pb, base_p, algebra)
            diff = lhs - rhs
            if max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-10:
                break
        else:
            raise AssertionError("pullback does not compose along either product order")


def test_ward_check_small_run():
    cc = ChainConfig(n_samples=4_000, seed=0)
    rep = run_check(CheckSpec("ward", graph=triangle(), params={"alpha": [-1.0, 0.0, 0.0], "tau": {"1": 0.7}}, chain=cc))
    assert rep.verdict == "pass"
    body = next(r for r in rep.coefficients if r["subset"] == [])
    assert body["reference"] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_martingale_generating_two_levels():
    cc = ChainConfig(n_samples=20_000, seed=1)
    params = {"level": 1, "alpha": {"1": -0.7}, "tilt": {"1": (1.2, 0.3)}}
    rep = run_check(CheckSpec("martingale-generating", tower=line_tower(), params=params, chain=cc))
    assert rep.verdict == "pass"


def test_martingale_derivative_runs_a_four_index_multiset():
    """The observable takes multisets of any size; k = 4 passes at levels 2 and 3."""
    cc = ChainConfig(n_samples=20_000, seed=0)
    params = {"level": 2, "j_sets": [("1", "1", "2", "3")]}
    rep = run_check(CheckSpec("martingale-derivatives", tower=line_tower(), params=params, chain=cc))
    assert rep.verdict == "pass"
    assert {tuple(r["subset"]) for r in rep.coefficients} >= {("1+1+2+3", "level_2"), ("1+1+2+3", "level_3")}


def _hand_expanded_observable(gk, j_ids, a, b):
    """The derivative observable as it was written out for k <= 3, with a
    dense inverse of A_VV: the reference of the Wick recursion."""
    idx = [gk.index_of(v) for v in j_ids]

    def obs(u):
        beta = compute_beta(gk, u)
        const = -0.5 * b[:-1] @ gk.weights[:-1, :-1] @ b[:-1]
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


def _level_fields(level, rows=50, seed=0):
    gk = wired_subgraph(line_tower(), level)
    rng = np.random.default_rng(seed + level)
    u = np.concatenate([0.7 * rng.standard_normal((rows, gk.n_inner)), np.zeros((rows, 1))], axis=1)
    a = np.append(rng.uniform(0.9, 1.3, gk.n_inner), 1.0)
    b = np.append(rng.uniform(-0.4, 0.4, gk.n_inner), 0.0)
    return gk, u, a, b


@pytest.mark.parametrize("level", [2, 3])
def test_wick_observable_matches_the_hand_expansion(level):
    """For every multiset of at most 3 inner vertices the Wick recursion
    gives the hand-expanded polynomial, sample by sample."""
    gk, u, a, b = _level_fields(level)
    ids = gk.vertex_ids[:-1]
    for k in range(4):
        for j_ids in itertools.combinations_with_replacement(ids, k):
            new = _derivative_martingale_observable(gk, j_ids, a, b)(u, _h_beta_ldl(gk, u[:, :-1]))
            ref = _hand_expanded_observable(gk, j_ids, a, b)(u)
            assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max(), j_ids


@pytest.mark.parametrize("check", sorted(_DERIVATIVE_J_SETS))
@pytest.mark.parametrize("level", [2, 3])
def test_shared_derivative_kernel_matches_each_multiset(check, level):
    """One tilt kernel over the union of the multisets' vertices gives, per
    column, the single-multiset observable bit for bit."""
    gk, u, a, b = _level_fields(level, rows=200)
    ldl = _h_beta_ldl(gk, u[:, :-1])
    j_sets = _DERIVATIVE_J_SETS[check] + [()]
    cols = _derivative_martingale_columns(gk, j_sets, a, b)(u, ldl)
    assert cols.shape == (len(u), len(j_sets))
    for k, j_ids in enumerate(j_sets):
        assert np.array_equal(cols[:, k], _derivative_martingale_observable(gk, j_ids, a, b)(u, ldl)), j_ids


def _perfect_matchings(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for t, other in enumerate(rest):
        for m in _perfect_matchings(rest[:t] + rest[t + 1 :]):
            yield [(first, other)] + m


@pytest.mark.parametrize("j_ids", [("1", "1", "2", "3"), ("4", "2", "2", "2"), ("1", "2", "3", "4", "1"), ("3",) * 5])
def test_wick_observable_matches_subsets_and_matchings(j_ids):
    """At k = 4 and 5, E[prod_p e^{u_p}(1 + i s_p) | u] is the sum over the
    subsets S of positions of the product of the means off S times the sum
    over perfect matchings of S of the product of covariances -G_pq, with G
    from a dense inverse."""
    gk, u, a, b = _level_fields(3, rows=20)
    idx = [gk.index_of(v) for v in j_ids]
    eu = np.exp(u[:, :-1])
    g_dense = np.linalg.inv(build_A(gk, u)[:, :-1, :-1]) * eu[:, :, None] * eu[:, None, :]
    mean = np.exp(u[:, idx]) - 1j * b[idx]
    ref = np.zeros(len(u), dtype=complex)
    for size in range(0, len(idx) + 1, 2):
        for sub in itertools.combinations(range(len(idx)), size):
            off = np.prod(mean[:, [p for p in range(len(idx)) if p not in sub]], axis=1)
            for matching in _perfect_matchings(list(sub)):
                ref += off * np.prod([-g_dense[:, idx[p], idx[q]] for p, q in matching], axis=0)
    ref *= np.exp(-(a[:-1] ** 2 - 1.0) @ compute_beta(gk, u).T - 0.5 * b[:-1] @ gk.weights[:-1, :-1] @ b[:-1])
    new = _derivative_martingale_observable(gk, j_ids, a, b)(u, _h_beta_ldl(gk, u[:, :-1]))
    assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


def test_four_index_derivative_martingale_matches_closed_form():
    """expect_importance of M_{1122} under a tilt on line level 1 lies within
    4 sigma of L(a, b) prod_p (a_{j_p} - i b_{j_p})."""
    gk = wired_subgraph(line_tower(), 1)
    a, b = np.array([1.15, 1.1, 1.0]), np.array([0.2, -0.15, 0.0])
    j_ids = ("1", "1", "2", "2")
    idx = [gk.index_of(v) for v in j_ids]
    obs = _derivative_martingale_observable(gk, j_ids, a, b)
    counts = np.bincount(idx, minlength=gk.n_inner)
    est = expect_importance(gk, obs, ChainConfig(n_samples=100_000, seed=4), counts=counts)
    ref = laplace_closed_form(gk, ScaleParams(a, b)) * np.prod(a[idx] - 1j * b[idx])
    assert abs(est.mean - ref) <= 4.0 * est.stderr
    assert est.stderr <= 0.2 * abs(ref)


def _generating_case(level):
    """The martingale-generating check's alpha and tilt on a wired level."""
    tower = line_tower()
    gk = wired_subgraph(tower, level)
    alpha = extend_alpha(tower, {"1": -0.7, "3": -0.4}, level)
    return gk, alpha, ScaleParams(*_tilt_arrays(gk, {"1": (1.2, 0.3), "2": (0.9, -0.2)}))


@pytest.mark.parametrize("case, ratio", [("laplace", 2.0), ("generating1", 5.0), ("generating2", 5.0)])
def test_integrating_s_out_cuts_the_variance(case, ratio):
    """The conditional-Gaussian observables of laplace-real and
    martingale-generating agree with the average of their (u, s) forms over the
    same draws (u from sample_u, s from sample_s_given_u) within 4 combined
    stderr, with a variance at least `ratio` times lower."""
    if case == "laplace":
        gk, alpha, p = single_edge(), np.zeros(2), ScaleParams(np.array([1.2, 1.0]), np.array([0.3, 0.0]))
        obs = _derivative_martingale_observable(gk, (), p.a, p.b)
    else:
        gk, alpha, p = _generating_case(int(case[-1]))
        obs = _generating_observable(gk, alpha, p.a, p.b)
    cc = ChainConfig(n_samples=20_000, seed=7)
    est = expect(gk, obs, cc)
    u = sample_u(gk, cc)
    s = sample_s_given_u(gk, u, np.random.default_rng(cc.seed))
    vals = np.exp((np.exp(u) * (1.0 + 1j * s)) @ alpha) * tilt(gk, p, u, s)
    ref_se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(est.mean - vals.mean()) <= 4.0 * math.hypot(est.stderr, ref_se)
    assert ref_se**2 >= ratio * est.stderr**2


def test_consistency_runs_each_level_chain_once(monkeypatch):
    """All moment columns of a level are read from one batch of draws."""
    from hypersigma import sampler

    calls = []
    stz_u = sampler._stz_u

    def counting(g, n, rng):
        calls.append((g.n_inner, n))
        return stz_u(g, n, rng)

    monkeypatch.setattr(sampler, "_stz_u", counting)
    cc = ChainConfig(n_samples=2_000, seed=3)
    params = {"level": 1, "vertex_params": {"1": (1.2, 0.3)}}
    rep = run_check(CheckSpec("consistency", tower=line_tower(), params=params, chain=cc))
    assert calls == [(2, 2_000), (3, 2_000)]
    assert len(rep.coefficients) == 1 + 4 * 2
