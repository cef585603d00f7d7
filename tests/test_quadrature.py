"""Deterministic quadrature oracles for single-inner-vertex graphs."""

import math

import numpy as np
import pytest

from hypersigma import GeneratorSet, single_edge
from hypersigma.core import LOG_UNDERFLOW, _log_rho
from hypersigma import sampler
from hypersigma.quadrature import (
    _gauss_grid,
    _horospherical_rows,
    _legendre,
    cartesian_expect_quadrature_1v,
    expect_quadrature_1v,
    super_expect_quadrature_1v,
    zeta_integral_1v,
)


def test_normalization_is_one():
    g = single_edge()
    val = expect_quadrature_1v(g, lambda u, s: 1.0)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_requires_single_inner_vertex():
    from hypersigma import triangle

    with pytest.raises(ValueError):
        expect_quadrature_1v(triangle(), lambda u, s: 1.0)


def test_quadrature_masks_underflowing_nodes():
    """An observable that is infinite wherever rho underflows never reaches
    the sum.  Beyond |t| = sqrt(2 * 745) the s-term alone underflows rho, so
    every u-row of this grid has such nodes."""
    g = single_edge()

    def f(u, s):
        return np.where(_log_rho(g, u, s) < LOG_UNDERFLOW, np.inf, 1.0)

    val = expect_quadrature_1v(g, f, n_t=400, t_lim=45.0)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_zeta_integral_gaussian_window():
    """Product Gaussian against e^{-u} du ds integrates in closed form."""

    def f(u, s):
        return np.exp(-((u - 0.3) ** 2) - 0.5 * s**2)

    # int e^{-(u-0.3)^2 - u} du = sqrt(pi) e^{0.25 - 0.3}; int e^{-s^2/2} ds = sqrt(2 pi)
    ref = math.sqrt(math.pi) * math.exp(-0.05) * math.sqrt(2.0 * math.pi)
    assert zeta_integral_1v(f) == pytest.approx(ref, rel=1e-12)


def test_zeta_integral_tracks_shifted_center():
    def f(u, s):
        return np.exp(-(u**2) - 0.5 * (s - 3.0 * np.exp(-u)) ** 2)

    fixed = zeta_integral_1v(f)
    tracked = zeta_integral_1v(f, s_center=lambda u: 3.0 * np.exp(-u))
    # the drifting s-window loses mass on the fixed grid but not the moving one
    ref = math.sqrt(math.pi) * math.exp(0.25) * math.sqrt(2.0 * math.pi)
    assert tracked == pytest.approx(ref, rel=1e-10)
    assert abs(fixed - ref) > 1e-8


def test_super_quadrature_body_matches_scalar_quadrature():
    g = single_edge()
    empty = GeneratorSet([])

    def f(u, s):
        return np.exp(-(u[..., 0] ** 2) - 0.5 * s[..., 0] ** 2)

    ref = expect_quadrature_1v(g, f)
    # a superfunction receives (n_total, k) fields: one column per node
    val = super_expect_quadrature_1v(g, lambda u, s, psibar, psi, algebra: f(u.T, s.T), empty)
    assert val.body == pytest.approx(ref, rel=1e-8)


def test_vector_observable_matches_columns():
    """An (N, k) observable gives, per column, exactly the quadrature of that
    column alone."""
    g = single_edge()
    cols = [
        lambda u, s: np.exp(-(u[:, 0] ** 2) - 0.5 * s[:, 0] ** 2),
        lambda u, s: np.cos(s[:, 0]) * np.exp(-np.abs(u[:, 0])),
        lambda u, s: (u[:, 0] + s[:, 0]) * np.exp(-(u[:, 0] ** 2)),
    ]
    val = expect_quadrature_1v(g, lambda u, s: np.stack([f(u, s) for f in cols], axis=1))
    assert val.shape == (3,)
    for k, f in enumerate(cols):
        assert val[k] == expect_quadrature_1v(g, f)


def _per_row_quadrature(g, f, n_u, n_t, u_lim, t_lim):
    """The oracle one u-row at a time: f on each row's unmasked nodes, the
    weighted values summed per row and the row sums added in u order."""
    u_nodes, u_w = _gauss_grid(-u_lim, u_lim, n_u)
    t_nodes, t_w = _gauss_grid(-t_lim, t_lim, n_t)
    u, s = np.zeros((n_t, 2)), np.zeros((n_t, 2))
    total = 0
    for u1, wu in zip(u_nodes, u_w):
        sigma = math.exp(-0.5 * u1) / math.sqrt(g.weights[0].sum())
        u[:, 0], s[:, 0] = u1, t_nodes * sigma
        log_rho = _log_rho(g, u, s)
        keep = log_rho >= LOG_UNDERFLOW
        if keep.any():
            w = t_w[keep] * np.exp(log_rho[keep]) * (wu * sigma * math.exp(-u1) / (2.0 * math.pi))
            total = total + (w * np.ascontiguousarray(f(u[keep], s[keep]).T)).sum(axis=-1)
    return total


def test_batched_quadrature_equals_the_per_row_loop():
    """On a grid whose outer rows are partly masked, one call on all nodes
    gives the per-row loop's sums bit for bit, column by column."""
    g = single_edge()
    grid = dict(n_u=14, n_t=9, u_lim=12.0, t_lim=45.0)

    def f(u, s):
        return np.stack([np.exp(-(u[:, 0] ** 2) - 0.5 * s[:, 0] ** 2), np.cos(s[:, 0]), u[:, 0] * s[:, 0]], axis=1)

    val = expect_quadrature_1v(g, f, **grid)
    assert val.shape == (3,)
    assert np.array_equal(val, _per_row_quadrature(g, f, **grid))


def test_quadrature_calls_the_observable_once():
    g = single_edge()
    calls = []

    def f(u, s):
        calls.append(len(u))
        return np.exp(-(u[:, 0] ** 2))

    grid = dict(n_u=12, n_t=8, u_lim=12.0, t_lim=10.0)
    expect_quadrature_1v(g, f, **grid)
    _, _, w, rows = _horospherical_rows(g, **grid)
    assert calls == [len(w)] and len(rows) > 1


def test_super_quadrature_builds_one_fermion_weight_per_call(monkeypatch):
    """All nodes of the grid share one fermion weight and one Berezin reduction."""
    g = single_edge()
    calls = []
    build = sampler.fermion_weight
    monkeypatch.setattr(sampler, "fermion_weight", lambda *args: calls.append(args[1].shape) or build(*args))
    grid = dict(n_u=12, n_t=8, u_lim=11.0, t_lim=9.0)
    val = super_expect_quadrature_1v(g, lambda u, s, psibar, psi, algebra: algebra.one(), GeneratorSet([]), **grid)
    _, _, w, rows = _horospherical_rows(g, **grid)
    assert calls == [(2, len(w))] and len(rows) > 1
    # the Berezin integral of the weight is 1 at each node, as det A_VV normalises it
    assert val.body == pytest.approx(expect_quadrature_1v(g, lambda u, s: 1.0, **grid), rel=1e-12)


def test_gauss_legendre_nodes_are_cached_read_only():
    x, w = _legendre(17)
    assert _legendre(17)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    ref_x, ref_w = np.polynomial.legendre.leggauss(17)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    nodes, weights = _gauss_grid(-2.0, 2.0, 17)
    assert nodes.flags.writeable and np.array_equal(nodes, 2.0 * ref_x)


def test_cartesian_normalization_is_one():
    g = single_edge()
    empty = GeneratorSet([])

    def f(x, y, xi, eta, algebra):
        return algebra.one()

    val = cartesian_expect_quadrature_1v(g, f, empty)
    assert val.body == pytest.approx(1.0, abs=1e-7)
