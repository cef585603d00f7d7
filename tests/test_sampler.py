"""Monte-Carlo machinery: chains, conditional draws, importance sampling, and
Grassmann-valued estimates."""

import numpy as np
import pytest

from hypersigma import (
    ChainConfig,
    EstimationError,
    GeneratorSet,
    expect,
    expect_importance,
    fermion_weight,
    gelman_rubin,
    grassmann_reduce,
    psi_algebra,
    psi_vectors,
    sample_s_given_u,
    sample_u,
    single_edge,
    super_expect,
    theta_conditional_covariance,
    triangle,
)
from hypersigma.core import build_A, compute_theta
from hypersigma.quadrature import expect_quadrature_1v


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(n_samples=0)
    with pytest.raises(ValueError):
        ChainConfig(proposal_scale=-1.0)


def test_sample_u_reproducible_and_pinned():
    g = triangle()
    cc = ChainConfig(n_samples=500, burn_in=300, seed=42)
    u1 = sample_u(g, cc)
    u2 = sample_u(g, cc)
    assert np.array_equal(u1, u2)
    assert np.abs(u1[:, -1]).max() == 0.0
    assert u1.shape == (500, 3)


def test_sample_u_seed_changes_draws():
    g = triangle()
    u1 = sample_u(g, ChainConfig(n_samples=200, burn_in=200, seed=1))
    u2 = sample_u(g, ChainConfig(n_samples=200, burn_in=200, seed=2))
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
    est = expect(g, f, ChainConfig(n_samples=200_000, burn_in=2_000, seed=0))
    assert abs(est.mean - ref) < 4.0 * est.stderr
    assert est.stderr < 2e-3


def test_expect_rejects_nan_observable():
    g = single_edge()

    def bad(u, s):
        out = np.zeros(len(u))
        out[0] = np.nan
        return out

    with pytest.raises(EstimationError):
        expect(g, bad, ChainConfig(n_samples=100, burn_in=50))


def test_super_expect_rejects_nan_observable():
    g = triangle()

    def bad(u, s, psibar, psi, algebra):
        return float("nan")

    with pytest.raises(EstimationError):
        super_expect(g, bad, GeneratorSet([]), ChainConfig(n_samples=100, burn_in=50, n_chains=4))


def test_expect_vector_observable_matches_columns():
    """An (N, k) observable gives, per column, exactly the estimate of that
    column alone on the same chain."""
    g = triangle()
    cc = ChainConfig(n_samples=2_000, burn_in=300, n_chains=4, seed=8)
    cols = [lambda u, s: np.exp(-(u[:, 0] ** 2)), lambda u, s: s[:, 1] ** 2, lambda u, s: u[:, 0] * s[:, 1]]
    est = expect(g, lambda u, s: np.stack([f(u, s) for f in cols], axis=1), cc)
    assert est.mean.shape == est.stderr.shape == (3,)
    singles = [expect(g, f, cc) for f in cols]
    for k, one in enumerate(singles):
        assert est.mean[k] == one.mean
        assert est.stderr[k] == one.stderr
    assert est.n_effective == min(one.n_effective for one in singles)


def test_expect_importance_matches_expect():
    """IS and MCMC agree on a bounded observable; IS resolves it with a large
    effective sample size."""
    g = triangle()

    def f(u, s):
        return np.exp(-np.abs(u[:, :-1]).sum(axis=1))

    cc = ChainConfig(n_samples=100_000, burn_in=2_000, seed=5)
    e1 = expect(g, f, cc)
    e2 = expect_importance(g, f, cc)
    assert abs(e1.mean - e2.mean) < 4.0 * np.hypot(e1.stderr, e2.stderr)
    assert e2.n_effective > 10_000


def test_expect_importance_reproducible():
    g = single_edge()

    def f(u, s):
        return np.exp(u[:, 0])

    cc = ChainConfig(n_samples=20_000, seed=11)
    e1 = expect_importance(g, f, cc)
    e2 = expect_importance(g, f, cc)
    assert e1.mean == e2.mean
    assert e1.stderr == e2.stderr


def test_fermion_weight_reduces_to_determinant():
    """Berezin reduction of the fermionic edge weight yields det A_VV."""
    rng = np.random.default_rng(7)
    g = triangle()
    u = np.concatenate([rng.standard_normal(2), [0.0]])
    algebra = psi_algebra(g)
    w = fermion_weight(g, u, algebra)
    red = grassmann_reduce(g, w)
    assert red.body == pytest.approx(np.linalg.det(build_A(g, u)[:-1, :-1]), rel=1e-12)


def test_super_expect_soul_weights_keep_normalisation():
    """Nilpotent additions to the edge weights leave the total mass 1: per
    sample the body is exactly 1, and the density-ratio correction averages
    the soul coefficient to 0."""
    g = triangle()
    algebra = GeneratorSet(["cb_1", "c_1"])
    souls = [[algebra.zero()] * g.n_total for _ in range(g.n_total)]
    for i, j, _ in g.edges():
        souls[i][j] = souls[j][i] = algebra.gen("cb_1") * algebra.gen("c_1") * 0.4
    cc = ChainConfig(n_samples=1_000, burn_in=300, n_chains=4, seed=0)
    est = super_expect(g, lambda u, s, psibar, psi, alg: alg.one(), algebra, cc, soul_weights=souls)
    assert est.mean[()] == pytest.approx(1.0, abs=1e-12)
    top = ("cb_1", "c_1")
    assert est.stderr[top] > 0.0
    assert abs(est.mean[top]) < 4.0 * est.stderr[top]


def test_super_expect_of_one_is_exactly_one():
    g = triangle()
    empty = GeneratorSet([])

    def f(u, s, psibar, psi, algebra):
        return algebra.one()

    est = super_expect(g, f, empty, ChainConfig(n_samples=500, burn_in=200, seed=0))
    mean = est.mean if not hasattr(est.mean, "body") else est.mean.body
    if isinstance(mean, dict):
        mean = mean.get((), mean.get(0, 0.0))
    assert float(np.real(mean)) == pytest.approx(1.0, abs=1e-12)
    stderr = est.stderr
    if isinstance(stderr, dict):
        stderr = max(stderr.values())
    assert float(np.max(stderr)) < 1e-12


def test_psi_vectors_pinned_entries_zero():
    g = triangle()
    algebra = psi_algebra(g)
    psibar, psi = psi_vectors(g, algebra)
    assert psibar[-1].is_zero()
    assert psi[-1].is_zero()


def test_gelman_rubin_near_one_for_iid():
    rng = np.random.default_rng(0)
    chains = rng.standard_normal((4, 5_000))
    assert abs(gelman_rubin(chains) - 1.0) < 0.01
