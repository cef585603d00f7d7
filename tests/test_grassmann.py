"""Exterior-algebra engine: arithmetic, grading, even calculus, Berezin
derivatives, and superdeterminants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersigma import (
    DomainError,
    GeneratorSet,
    GrassmannElement,
    GroupElement,
    ParityError,
    SuperMatrix,
    berezin,
    berezin_pairs,
    even_det,
    sdet,
)


@pytest.fixture
def algebra():
    return GeneratorSet(["a", "b", "c", "d"])


def random_element(algebra, rng, even_only=False):
    out = algebra.zero()
    n = len(algebra.names)
    for mask in range(1 << n):
        if even_only and bin(mask).count("1") % 2 == 1:
            continue
        term = algebra.scalar(rng.uniform(-1, 1))
        for k in range(n):
            if mask >> k & 1:
                term = term * algebra.gen(algebra.names[k])
        out = out + term
    return out


def test_generators_anticommute(algebra):
    x = algebra.gen("a")
    y = algebra.gen("b")
    assert (x * y + y * x).coeffs == {}
    assert (x * x).coeffs == {}


def test_body_soul_decomposition(algebra):
    x = algebra.scalar(2.5) + algebra.gen("a") * algebra.gen("b") * 3.0
    assert x.body == 2.5
    soul = x - algebra.scalar(x.body)
    # soul is nilpotent: power n+1 vanishes
    p = soul
    for _ in range(len(algebra.names)):
        p = p * soul
    assert p.coeffs == {}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_product_associative(seed):
    algebra = GeneratorSet(["a", "b", "c"])
    rng = np.random.default_rng(seed)
    x = random_element(algebra, rng)
    y = random_element(algebra, rng)
    z = random_element(algebra, rng)
    lhs = (x * y) * z
    rhs = x * (y * z)
    diff = lhs - rhs
    assert max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_product_distributive(seed):
    algebra = GeneratorSet(["a", "b", "c"])
    rng = np.random.default_rng(seed)
    x = random_element(algebra, rng)
    y = random_element(algebra, rng)
    z = random_element(algebra, rng)
    diff = x * (y + z) - (x * y + x * z)
    assert max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_exp_log_round_trip(seed):
    algebra = GeneratorSet(["a", "b", "c", "d"])
    rng = np.random.default_rng(seed)
    x = random_element(algebra, rng, even_only=True)
    x = x + algebra.scalar(1.5)  # keep the body positive
    back = x.fn("exp").fn("log")
    diff = back - x
    assert max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sqrt_squares_back(seed):
    algebra = GeneratorSet(["a", "b", "c", "d"])
    rng = np.random.default_rng(seed)
    x = random_element(algebra, rng, even_only=True) + algebra.scalar(2.0)
    r = x.fn("sqrt")
    diff = r * r - x
    assert max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_inverse_multiplies_to_one(seed):
    algebra = GeneratorSet(["a", "b", "c", "d"])
    rng = np.random.default_rng(seed)
    x = random_element(algebra, rng, even_only=True) + algebra.scalar(1.7)
    diff = x * x.fn("inverse") - algebra.one()
    assert max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-10


def _batch(elements):
    """One element whose coefficients are arrays over `elements`."""
    algebra = elements[0].algebra
    masks = set().union(*(e.coeffs for e in elements))
    return GrassmannElement(algebra, {m: np.array([e.coeffs.get(m, 0.0) for e in elements]) for m in masks})


def _entry(batched, k, size):
    """Entry k of a batched element, whose coefficients may also be numbers."""
    return GrassmannElement(batched.algebra, {m: np.broadcast_to(c, (size,))[k] for m, c in batched.coeffs.items()})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_batched_operations_match_each_entry(seed, size):
    """Arithmetic, embedding, Berezin pairs and even functions of an element
    whose coefficients are arrays over a batch equal, entry by entry, the same
    operations on the elements of the batch."""
    algebra = GeneratorSet(["a", "b", "c", "d"])
    target = GeneratorSet(["x", "c", "a", "y", "d", "b"])
    rng = np.random.default_rng(seed)
    xs = [random_element(algebra, rng) for _ in range(size)]
    ys = [random_element(algebra, rng) for _ in range(size)]
    evens = [random_element(algebra, rng, even_only=True) + algebra.scalar(1.5) for _ in range(size)]
    w = rng.uniform(-1.0, 1.0, size)
    x, y, e = _batch(xs), _batch(ys), _batch(evens)
    pairs = [("a", "b"), ("c", "d")]
    cases = [
        (x * y, lambda k: xs[k] * ys[k]),
        (x + y, lambda k: xs[k] + ys[k]),
        (w * x, lambda k: xs[k] * w[k]),
        (x * w, lambda k: xs[k] * w[k]),
        (x.embed(target), lambda k: xs[k].embed(target)),
        (berezin_pairs(x, pairs), lambda k: berezin_pairs(xs[k], pairs)),
    ] + [(e.fn(name), lambda k, name=name: evens[k].fn(name)) for name in ("exp", "log", "sqrt", "inverse")]
    for batched, single in cases:
        for k in range(size):
            assert _entry(batched, k, size).allclose(single(k), 1e-12)
    bodies = np.full(size, 1.5)
    bodies[rng.integers(size)] = -0.3
    with pytest.raises(DomainError):
        (algebra.scalar(bodies) + algebra.gen("a") * algebra.gen("b")).fn("log")


def test_exp_requires_even(algebra):
    with pytest.raises(ParityError):
        (algebra.gen("a") + algebra.scalar(1.0)).fn("exp")


def test_log_requires_positive_body(algebra):
    with pytest.raises(DomainError):
        (algebra.gen("a") * algebra.gen("b") - algebra.one()).fn("log")


def test_berezin_extracts_top_coefficient(algebra):
    x = algebra.scalar(4.0) + algebra.gen("a") * 2.0 + algebra.gen("a") * algebra.gen("b") * 3.0
    d = berezin(x, "a")
    # left derivative: d/da (2 a + 3 a b) = 2 + 3 b
    assert abs(d.body - 2.0) < 1e-14
    assert abs((d - algebra.scalar(2.0) - algebra.gen("b") * 3.0).body) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_berezin_pair_exponential_gives_determinant(n):
    """prod_i d/dpsibar_i d/dpsi_i of e^{-<psibar, A psi>} equals det A."""
    rng = np.random.default_rng(17 + n)
    a = rng.uniform(-1, 1, (n, n))
    names = [f"pb_{i}" for i in range(n)] + [f"p_{i}" for i in range(n)]
    algebra = GeneratorSet(names)
    pb = [algebra.gen(f"pb_{i}") for i in range(n)]
    p = [algebra.gen(f"p_{i}") for i in range(n)]
    quad = algebra.zero()
    for i in range(n):
        for j in range(n):
            quad = quad - pb[i] * p[j] * a[i, j]
    val = berezin_pairs(quad.fn("exp"), [(f"pb_{i}", f"p_{i}") for i in range(n)])
    assert abs(val.body - np.linalg.det(a)) < 1e-12


def random_supermatrix(algebra, rng, n, m):
    def even():
        e = algebra.scalar(rng.uniform(0.5, 1.5))
        names = algebra.names
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                e = e + algebra.gen(names[i]) * algebra.gen(names[j]) * rng.uniform(-0.4, 0.4)
        return e

    def odd():
        e = algebra.zero()
        for nm in algebra.names:
            e = e + algebra.gen(nm) * rng.uniform(-0.5, 0.5)
        return e

    a = [[even() for _ in range(n)] for _ in range(n)]
    b = [[even() for _ in range(m)] for _ in range(m)]
    sig = [[odd() for _ in range(m)] for _ in range(n)]
    gam = [[odd() for _ in range(n)] for _ in range(m)]
    for i in range(n):
        a[i][i] = a[i][i] + algebra.scalar(2.0)
    for i in range(m):
        b[i][i] = b[i][i] + algebra.scalar(2.0)
    return SuperMatrix.from_blocks(a, sig, gam, b)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sdet_multiplicative(seed):
    algebra = GeneratorSet(["x", "y", "z", "w"])
    rng = np.random.default_rng(seed)
    m1 = random_supermatrix(algebra, rng, 2, 2)
    m2 = random_supermatrix(algebra, rng, 2, 2)
    lhs = sdet(m1 @ m2)
    rhs = sdet(m1) * sdet(m2)
    diff = lhs - rhs
    assert max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-12


def test_even_det_at_size_five():
    """Cofactor expansion beyond the 4x4 blocks `sdet` uses: number entries
    against np.linalg.det, even entries through det(AB) = det A det B."""
    algebra = GeneratorSet(["x", "y", "z", "w"])
    rng = np.random.default_rng(6)
    nums = rng.uniform(-1.0, 1.0, (5, 5)) + 2.0 * np.eye(5)
    det = even_det([[algebra.scalar(x) for x in row] for row in nums])
    assert det.body == pytest.approx(np.linalg.det(nums), rel=1e-12)
    assert set(det.coeffs) == {0}
    pairs = [algebra.gen(p) * algebra.gen(q) for p, q in (("x", "y"), ("z", "w"), ("x", "w"))]

    def even():
        return sum((pair * rng.uniform(-0.4, 0.4) for pair in pairs), algebra.scalar(rng.uniform(-1.0, 1.0)))

    a = [[even() for _ in range(5)] for _ in range(5)]
    b = [[even() for _ in range(5)] for _ in range(5)]
    ab = [[sum((a[i][k] * b[k][j] for k in range(5)), algebra.zero()) for j in range(5)] for i in range(5)]
    diff = even_det(ab) - even_det(a) * even_det(b)
    assert max(abs(c) for mask, c in even_det(ab).coeffs.items() if mask) > 1e-2
    assert max((abs(c) for c in diff.coeffs.values()), default=0.0) < 1e-10


def test_group_element_inverse_round_trip():
    algebra = GeneratorSet(["cb", "c"])
    rng = np.random.default_rng(5)
    quads = []
    for _ in range(2):
        a = algebra.scalar(math.exp(rng.uniform(-0.5, 0.5)))
        b = algebra.scalar(rng.uniform(-1, 1))
        cb = algebra.gen("cb") * rng.uniform(-0.5, 0.5)
        c = algebra.gen("c") * rng.uniform(-0.5, 0.5)
        quads.append((a, b, cb, c))
    quads.append((1.0, 0.0, 0.0, 0.0))
    v = GroupElement(algebra, quads)
    ident = GroupElement.identity(algebra, len(v))
    assert (v * v.inv()).allclose(ident)
    assert (v.inv() * v).allclose(ident)


def test_pinned_component_must_be_identity():
    algebra = GeneratorSet(["cb", "c"])
    with pytest.raises(ValueError):
        GroupElement(algebra, [(2.0, 0.0, 0.0, 0.0)])
