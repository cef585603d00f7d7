"""Coupling matrix, density representations and inversions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypersigma
from hypersigma import (
    EstimationError,
    FieldConfig,
    Graph,
    InversionError,
    build_A,
    compute_beta,
    compute_theta,
    h_beta,
    line_tower,
    log_rho_density,
    rho_density,
    s_from_beta_theta,
    single_edge,
    spinor_det_sides,
    triangle,
    u_from_beta,
    wired_subgraph,
)
from hypersigma.core import _log_rho
from hypersigma.verify import _random_graph

finite_floats = st.floats(-2.0, 2.0, allow_nan=False)


def random_graph(rng, max_inner=4):
    n_inner = int(rng.integers(1, max_inner + 1))
    n = n_inner + 1
    w = np.zeros((n, n))
    order = list(rng.permutation(n))
    for k in range(1, n):
        i, j = order[k], order[int(rng.integers(0, k))]
        w[i, j] = w[j, i] = rng.uniform(0.5, 2.0)
    ids = tuple(str(k + 1) for k in range(n_inner)) + ("delta",)
    return Graph(ids, w)


def random_fields(rng, n, scale=0.8):
    u = np.concatenate([scale * rng.standard_normal(n - 1), [0.0]])
    s = np.concatenate([scale * rng.standard_normal(n - 1), [0.0]])
    return FieldConfig(u, s)


def test_field_config_rejects_unpinned():
    with pytest.raises(ValueError):
        FieldConfig(np.array([0.2, 0.1]), np.array([0.0, 0.0]))


def random_batch(rng, g, n=6):
    """(n, n_total) fields with pinned column 0."""
    return np.concatenate([rng.standard_normal((n, g.n_inner)), np.zeros((n, 1))], axis=1)


def assert_rows_match(batched, scalar_fn, *rows):
    """A batched kernel result equals the scalar call on each row."""
    for k in range(len(rows[0])):
        assert np.array_equal(batched[k], scalar_fn(*(r[k] for r in rows)))


def test_build_A_rows_sum_to_zero():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_graph(rng)
        u = np.concatenate([rng.standard_normal(g.n_inner), [0.0]])
        a = build_A(g, u)
        assert np.abs(a.sum(axis=1)).max() < 1e-12
        assert np.abs(a - a.T).max() < 1e-12
        ub = random_batch(rng, g)
        ab = build_A(g, ub)
        assert ab.shape == (len(ub), g.n_total, g.n_total)
        assert np.abs(ab.sum(axis=-1)).max() < 1e-12
        assert_rows_match(ab, lambda x: build_A(g, x), ub)


def test_h_beta_structure():
    """Off-diagonal entries are -W_ij; the diagonal is twice beta."""
    rng = np.random.default_rng(1)
    g = triangle(1.3, 0.7, 1.1)
    u = np.concatenate([rng.standard_normal(2), [0.0]])
    h = h_beta(g, u)
    off = h.copy()
    np.fill_diagonal(off, 0.0)
    assert np.abs(off + g.weights).max() < 1e-12
    beta_all = 0.5 * (g.weights @ np.exp(u)) / np.exp(u)
    assert np.abs(np.diag(h) - 2.0 * beta_all).max() < 1e-12
    assert np.abs(compute_beta(g, u) - beta_all[:-1]).max() < 1e-12
    ub = random_batch(rng, g)
    assert_rows_match(compute_beta(g, ub), lambda x: compute_beta(g, x), ub)


def test_energy_relations():
    """<e^{-u}, A e^{-u}> = 2 sum W [cosh(u_i-u_j)-1] + 2 sum W = <1, H 1> + 2 sum W."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_graph(rng)
        u = np.concatenate([rng.standard_normal(g.n_inner), [0.0]])
        emu = np.exp(-u)
        lhs = emu @ build_A(g, u) @ emu
        cosh_sum = 2.0 * sum(w * (math.cosh(u[i] - u[j]) - 1.0) for i, j, w in g.edges())
        ones = np.ones(g.n_total)
        assert abs(lhs - cosh_sum) < 1e-10
        assert abs(ones @ h_beta(g, u) @ ones - cosh_sum) < 1e-10


@pytest.mark.parametrize("mode", ["quadratic", "spinor"])
def test_density_representations_agree(mode):
    """The three forms of log rho agree; the batched kernel behind the direct
    form gives, row by row, the single-field value."""
    rng = np.random.default_rng(3)
    batch_rng = np.random.default_rng(4)
    for _ in range(100):
        g = random_graph(rng)
        cfg = random_fields(rng, g.n_total)
        ref = log_rho_density(g, cfg, "direct")
        alt = log_rho_density(g, cfg, mode)
        assert abs(alt - ref) < 1e-10
        ub, sb = random_batch(batch_rng, g), random_batch(batch_rng, g)
        assert_rows_match(_log_rho(g, ub, sb), lambda u, s: log_rho_density(g, FieldConfig(u, s)), ub, sb)


def test_density_rejects_unknown_mode():
    g = single_edge()
    cfg = FieldConfig(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        log_rho_density(g, cfg, "fancy")


@settings(max_examples=50, deadline=None)
@given(finite_floats, finite_floats, finite_floats, finite_floats)
# a subnormal b_j leaves the 2x2 difference matrix with a zero pivot
@example(0.0, 0.0, 0.0, 5e-324)
def test_spinor_identity_property(la_i, b_i, la_j, b_j):
    vi = (math.exp(0.5 * la_i), b_i)
    vj = (math.exp(0.5 * la_j), b_j)
    lhs, rhs = spinor_det_sides(vi, vj)
    assert abs(lhs - rhs) < 1e-10


def test_spinor_sides_of_arrays_match_scalar_calls():
    rng = np.random.default_rng(5)
    la_i, b_i, la_j, b_j = rng.uniform([-1.5, -2.0, -1.5, -2.0], [1.5, 2.0, 1.5, 2.0], (200, 4)).T
    a_i, a_j = np.exp(la_i), np.exp(la_j)
    lhs, rhs = spinor_det_sides((a_i, b_i), (a_j, b_j))
    assert lhs.shape == rhs.shape == (200,)
    ref = np.array([spinor_det_sides((a_i[k], b_i[k]), (a_j[k], b_j[k])) for k in range(200)])
    assert np.array_equal(lhs, ref[:, 0]) and np.array_equal(rhs, ref[:, 1])


def test_spinor_identity_hand_case():
    lhs, rhs = spinor_det_sides((1.0, 0.0), (1.0, 1.0))
    assert lhs == pytest.approx(-1.0, abs=1e-14)
    assert rhs == pytest.approx(-1.0, abs=1e-14)


def _round_trip_cases(seed, n_cases=500, scale=2.0):
    """(graph, u, s) on random graphs with extra edges, fields at `scale`."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        g = _random_graph(rng, max_inner=6)
        u = np.append(scale * rng.standard_normal(g.n_inner), 0.0)
        s = np.append(scale * rng.standard_normal(g.n_inner), 0.0)
        yield g, u, s


def test_u_from_beta_round_trip():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g, u, _ in _round_trip_cases(4):
            u_rec = u_from_beta(g, compute_beta(g, u))
            assert np.abs(u_rec - u).max() < 1e-10
            assert u_rec[-1] == 0.0


def test_s_from_beta_theta_round_trip():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g, u, s in _round_trip_cases(5):
            s_rec = s_from_beta_theta(g, compute_beta(g, u), compute_theta(g, u, s))
            assert np.abs(s_rec - s).max() < 1e-10
            assert s_rec[-1] == 0.0
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = random_graph(rng)
        cfg = random_fields(rng, g.n_total)
        theta = compute_theta(g, cfg.u, cfg.s)
        edge_sum = np.zeros(g.n_total)
        for i, j, w in g.edges():
            edge_sum[i] += w * math.exp(cfg.u[j]) * (cfg.s[i] - cfg.s[j])
            edge_sum[j] += w * math.exp(cfg.u[i]) * (cfg.s[j] - cfg.s[i])
        assert np.abs(theta - edge_sum[:-1]).max() < 1e-12
        ub, sb = random_batch(rng, g), random_batch(rng, g)
        assert_rows_match(compute_theta(g, ub, sb), lambda x, y: compute_theta(g, x, y), ub, sb)


@pytest.mark.parametrize("beta", [[0.1, 0.1], [np.nan, 1.0]])
def test_inversion_rejects_beta_outside_the_image(beta):
    """At beta = (0.1, 0.1) on the triangle H_beta = 2 diag(beta) - W_VV is not
    positive definite; a NaN beta is no beta either."""
    g = triangle()
    with pytest.raises(InversionError):
        u_from_beta(g, beta)
    with pytest.raises(InversionError):
        s_from_beta_theta(g, beta, [0.3, -0.2])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n_inner", [1, 2, 3, 8])
def test_field_kernel_error_contract(n_inner):
    """Overflow raises EstimationError at every size, in rho, in the u-marginal's
    log density and in the conditional s-draw alike; an underflowing rho is 0.0."""
    from hypersigma.core import _h_beta_ldl
    from hypersigma.sampler import _log_target, sample_s_given_u

    g = wired_subgraph(line_tower(n_inner), n_inner - 1) if n_inner > 1 else single_edge()
    assert g.n_inner == n_inner
    u = np.zeros(g.n_total)
    u[0] = 800.0
    cfg = FieldConfig(u, np.zeros(g.n_total))
    with pytest.raises(EstimationError):
        rho_density(g, cfg)
    with pytest.raises(EstimationError):
        _log_target(g, u[None, :-1], _h_beta_ldl(g, u[None, :-1]))
    with pytest.raises(EstimationError):
        sample_s_given_u(g, u[None], np.random.default_rng(0))
    u[0] = -700.0
    assert rho_density(g, FieldConfig(u, np.zeros(g.n_total))) == 0.0
    assert hypersigma.sampler.EstimationError is EstimationError
