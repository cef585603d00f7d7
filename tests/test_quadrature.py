"""Deterministic quadrature oracles for single-inner-vertex graphs."""

import math

import numpy as np
import pytest

from hypersigma import GeneratorSet, single_edge
from hypersigma.core import LOG_UNDERFLOW, _log_rho
from hypersigma.quadrature import (
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
    val = super_expect_quadrature_1v(g, lambda u, s, psibar, psi, algebra: f(u, s), empty)
    assert val.body == pytest.approx(ref, rel=1e-8)


def test_cartesian_normalization_is_one():
    g = single_edge()
    empty = GeneratorSet([])

    def f(x, y, xi, eta, algebra):
        return algebra.one()

    val = cartesian_expect_quadrature_1v(g, f, empty)
    assert val.body == pytest.approx(1.0, abs=1e-7)
