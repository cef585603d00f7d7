"""Superdensity, pullbacks, odd observables, and the statistical identity
checks built on them."""

import math

import numpy as np
import pytest

from hypersigma import (
    ChainConfig,
    FieldConfig,
    GeneratorSet,
    GroupElement,
    bold_rho,
    build_A,
    compute_phi,
    grassmann_reduce,
    line_tower,
    martingale_derivative_check,
    martingale_generating_check,
    psi_algebra,
    psi_vectors,
    rho_density,
    sdet,
    single_edge,
    super_jacobian,
    super_scale_pullback,
    triangle,
    ward_check,
)


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
    """phi = e^{-u} A psi, checked coefficientwise against the dense matrix."""
    rng = np.random.default_rng(1)
    g = triangle()
    algebra = psi_algebra(g)
    psibar, psi = psi_vectors(g, algebra)
    u = np.concatenate([rng.standard_normal(2), [0.0]])
    phi = compute_phi(g, u, psibar, psi, algebra, "phi")
    a = build_A(g, u)
    emu = np.exp(-u)
    for i in range(g.n_inner):
        expected = algebra.zero()
        for j in range(g.n_total):
            expected = expected + psi[j] * (emu[i] * a[i, j])
        diff = phi[i] - expected
        assert max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-12


def test_compute_phi_rejects_unknown_kind():
    g = single_edge()
    algebra = psi_algebra(g)
    psibar, psi = psi_vectors(g, algebra)
    with pytest.raises(ValueError):
        compute_phi(g, np.zeros(2), psibar, psi, algebra, "other")


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
    g = triangle()
    algebra = GeneratorSet(["tau_1"])
    tau = [algebra.gen("tau_1") * 0.7, algebra.zero(), algebra.zero()]
    alpha = np.array([-1.0, 0.0, 0.0])
    rep = ward_check(g, alpha, tau, ChainConfig(n_samples=4_000, burn_in=800, n_chains=4, seed=0))
    assert rep["verdict"] == "pass"
    body = next(r for r in rep["coefficients"] if r["subset"] == [])
    assert body["reference"] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_martingale_generating_two_levels():
    tower = line_tower()
    cc = ChainConfig(n_samples=20_000, burn_in=1_500, n_chains=8, seed=1)
    rep = martingale_generating_check(tower, 1, {"1": -0.7}, {"1": (1.2, 0.3)}, cc)
    assert rep["verdict"] == "pass"


def test_martingale_derivative_rejects_large_multisets():
    tower = line_tower()
    cc = ChainConfig(n_samples=2_000, burn_in=500, n_chains=4, seed=0)
    with pytest.raises(ValueError):
        martingale_derivative_check(tower, 2, ["1", "1", "1", "1"], {}, cc)


def test_consistency_runs_each_level_chain_once(monkeypatch):
    """All moment columns of a level are read from one chain."""
    from hypersigma import consistency_check, sampler

    calls = []
    run_chains = sampler._run_chains

    def counting(g, cc):
        calls.append(cc.seed)
        return run_chains(g, cc)

    monkeypatch.setattr(sampler, "_run_chains", counting)
    cc = ChainConfig(n_samples=2_000, burn_in=300, n_chains=4, seed=3)
    rep = consistency_check(line_tower(), 1, {"1": (1.2, 0.3)}, cc)
    assert calls == [3, 4]
    assert len(rep["coefficients"]) == 1 + 4 * 2
