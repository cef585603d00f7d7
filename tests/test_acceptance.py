"""End-to-end acceptance suite.

Eleven criteria, each with its stated tolerance, sample budget, and runtime
bound.  Every test prints a single pass/fail line so a plain `pytest -s`
run doubles as an acceptance report.
"""

import time

import numpy as np

from hypersigma import (
    ChainConfig,
    CheckSpec,
    GeneratorSet,
    GroupElement,
    berezin_pairs,
    compute_beta,
    compute_theta,
    line_tower,
    run_check,
    s_from_beta_theta,
    sdet,
    single_edge,
    super_expect,
    super_jacobian,
    triangle,
    u_from_beta,
)
from hypersigma.verify import default_specs

from test_grassmann import random_supermatrix


def _line(num, name, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({elapsed:.1f}s)")
    assert ok, f"criterion {num:02d} {name} failed"


def test_criterion_01_density_representations():
    t0 = time.perf_counter()
    spec = CheckSpec("rho-equivalence", chain=ChainConfig(seed=0), params={"n_cases": 100}, tolerance=1e-12)
    rep = run_check(spec)
    elapsed = time.perf_counter() - t0
    _line(1, "density-representations", rep.passed and elapsed < 1.0, elapsed)


def test_criterion_02_spinor_identity():
    t0 = time.perf_counter()
    spec = CheckSpec("spinor-identity", chain=ChainConfig(seed=0), params={"n_pairs": 1000}, tolerance=1e-12)
    rep = run_check(spec)
    elapsed = time.perf_counter() - t0
    _line(2, "spinor-identity", rep.passed and elapsed < 1.0, elapsed)


def test_criterion_03_real_laplace_transform():
    t0 = time.perf_counter()
    cc = ChainConfig(n_samples=1_000_000, seed=11)
    ok = True
    for g, a, b in (
        (single_edge(), [1.3], [0.4]),
        (triangle(), [0.9, 1.4], [-0.3, 0.2]),
    ):
        spec = CheckSpec(
            "laplace-real", graph=g, chain=cc, tolerance=1e-6, params={"a": np.array(a), "b": np.array(b)}
        )
        rep = run_check(spec)
        ok = ok and rep.passed and rep.extra["stderr_max"] <= 2e-3
    elapsed = time.perf_counter() - t0
    _line(3, "real-laplace-transform", ok and elapsed < 120.0, elapsed)


def test_criterion_04_radon_nikodym():
    t0 = time.perf_counter()
    spec = CheckSpec(
        "radon-nikodym",
        graph=triangle(),
        chain=ChainConfig(n_samples=40_000, seed=2),
        tolerance=1e-10,
        params={"n_points": 1000, "n_bumps": 5},
    )
    rep = run_check(spec)
    elapsed = time.perf_counter() - t0
    _line(4, "radon-nikodym", rep.passed and elapsed < 180.0, elapsed)


def test_criterion_05_consistency():
    t0 = time.perf_counter()
    spec = CheckSpec(
        "consistency",
        tower=line_tower(),
        chain=ChainConfig(n_samples=40_000, seed=3),
        tolerance=1e-14,
    )
    rep = run_check(spec)
    elapsed = time.perf_counter() - t0
    _line(5, "level-consistency", rep.passed and elapsed < 120.0, elapsed)


def test_criterion_06_martingale_hierarchy():
    t0 = time.perf_counter()
    specs = default_specs(seed=6)
    ok = True
    gen = specs["martingale-generating"]
    assert len(gen.params.get("alpha", {"1": -0.7, "3": -0.4})) <= 2
    for cid in ("martingale-generating", "martingale-derivatives", "martingale-special-cases"):
        rep = run_check(specs[cid])
        ok = ok and rep.passed
    elapsed = time.perf_counter() - t0
    _line(6, "martingale-hierarchy", ok and elapsed < 300.0, elapsed)


def test_criterion_07_ward_identity():
    t0 = time.perf_counter()
    spec = default_specs(seed=7)["ward"]
    rep = run_check(spec)
    body = next(c for c in rep.coefficients if c["subset"] == [])
    ok = rep.passed and abs(body["reference"] - 0.36788) < 1e-5
    # odd parameter coefficients must vanish within threshold
    tau_rows = [c for c in rep.coefficients if c["subset"]]
    ok = ok and len(tau_rows) > 0
    elapsed = time.perf_counter() - t0
    _line(7, "ward-identity", ok and elapsed < 60.0, elapsed)


def test_criterion_08_grassmann_exactness():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(8)
    # Berezin pair reduction of the fermionic Gaussian equals det A for n <= 4
    for n in (1, 2, 3, 4):
        a = rng.uniform(-1, 1, (n, n))
        names = [f"pb_{i}" for i in range(n)] + [f"p_{i}" for i in range(n)]
        algebra = GeneratorSet(names)
        quad = algebra.zero()
        for i in range(n):
            for j in range(n):
                quad = quad - algebra.gen(f"pb_{i}") * algebra.gen(f"p_{j}") * a[i, j]
        val = berezin_pairs(quad.fn("exp"), [(f"pb_{i}", f"p_{i}") for i in range(n)])
        ok = ok and abs(val.body - np.linalg.det(a)) < 1e-12
    # sdet of the scaling Jacobian is exactly 1
    algebra = GeneratorSet(["cb_1", "c_1"])
    quads = [
        (algebra.scalar(1.3), algebra.scalar(0.4), algebra.gen("cb_1") * 0.5, algebra.gen("c_1") * 0.3),
        (1.0, 0.0, 0.0, 0.0),
    ]
    v = GroupElement(algebra, quads)
    dev = sdet(super_jacobian(v, np.array([0.2, 0.0]))) - algebra.one()
    ok = ok and max((abs(c) for c in dev.coeffs.values()), default=0.0) < 1e-12
    # sdet multiplicativity on random supermatrices
    alg2 = GeneratorSet(["x", "y", "z", "w"])
    for seed in range(3):
        rng2 = np.random.default_rng(seed)
        m1 = random_supermatrix(alg2, rng2, 2, 2)
        m2 = random_supermatrix(alg2, rng2, 2, 2)
        diff = sdet(m1 @ m2) - sdet(m1) * sdet(m2)
        ok = ok and max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-12
    # normalization: the superintegral of 1 is exactly 1 with zero variance
    est = super_expect(
        triangle(),
        lambda u, s, pb, p, alg: alg.one(),
        GeneratorSet([]),
        ChainConfig(n_samples=200, seed=0),
    )
    mean = est.mean[()] if isinstance(est.mean, dict) else est.mean
    stderr = max(est.stderr.values()) if isinstance(est.stderr, dict) else float(np.max(est.stderr))
    ok = ok and abs(complex(mean).real - 1.0) < 1e-12 and abs(complex(mean).imag) < 1e-12 and stderr < 1e-12
    elapsed = time.perf_counter() - t0
    _line(8, "grassmann-exactness", ok and elapsed < 1.0, elapsed)


def test_criterion_09_grassmann_laplace_transform():
    t0 = time.perf_counter()
    spec = CheckSpec(
        "laplace-grassmann",
        graph=single_edge(),
        chain=ChainConfig(n_samples=4_000, seed=9),
        tolerance=1e-6,
    )
    rep = run_check(spec)
    elapsed = time.perf_counter() - t0
    _line(9, "grassmann-laplace-transform", rep.passed and elapsed < 180.0, elapsed)


def test_criterion_10_theta_conditional_law():
    t0 = time.perf_counter()
    spec = CheckSpec(
        "theta-conditional",
        graph=triangle(),
        chain=ChainConfig(seed=10),
        z_threshold=5.0,
        params={"n_draws": 100_000},
    )
    rep = run_check(spec)
    elapsed = time.perf_counter() - t0
    _line(10, "theta-conditional-law", rep.passed and elapsed < 30.0, elapsed)


def test_criterion_11_inversions():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(11)
    for g in (single_edge(), triangle()):
        for _ in range(100):
            u = np.concatenate([0.7 * rng.standard_normal(g.n_inner), [0.0]])
            s = np.concatenate([0.7 * rng.standard_normal(g.n_inner), [0.0]])
            beta = compute_beta(g, u)
            theta = compute_theta(g, u, s)
            u_rec = u_from_beta(g, beta)
            s_rec = s_from_beta_theta(g, beta, theta)
            ok = ok and np.abs(compute_beta(g, u_rec) - beta).max() <= 1e-8
            ok = ok and np.abs(u_rec - u).max() <= 1e-6
            ok = ok and np.abs(s_rec - s).max() <= 1e-6
    elapsed = time.perf_counter() - t0
    _line(11, "inversion-round-trips", ok and elapsed < 10.0, elapsed)
