"""Exact finite-dimensional exterior-algebra engine.

Multivectors with real or complex coefficients over a fixed ordered set of
anticommuting generators, analytic functions of even elements (finite Taylor
series in the nilpotent part), left Berezin derivatives, supermatrices with
their superdeterminant, and the supergroup of [a, b, chi_bar, chi] matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "GeneratorSet",
    "GrassmannElement",
    "as_even",
    "SuperMatrix",
    "GroupElement",
    "berezin",
    "sdet",
    "even_det",
    "even_matrix_inverse",
]

MAX_GENERATORS = 24

#: per-coefficient tolerance used by GrassmannElement equality checks
EQ_TOL = 1e-12
#: coefficients below this fraction of the largest one are pruned to keep the
#: canonical form (relative, so elements of any overall magnitude survive)
PRUNE_TOL = 1e-15


class AlgebraMismatchError(ValueError):
    """Operands live over different generator sets."""


class ParityError(ValueError):
    """Operation requires a homogeneous element of the other parity."""


class DomainError(ValueError):
    """Analytic function applied outside its domain (e.g. log of nonpositive body)."""


class GeneratorSet:
    """Ordered set of odd generator symbols; the order is fixed at construction."""

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        if len(names) > MAX_GENERATORS:
            raise ValueError(f"at most {MAX_GENERATORS} generators supported")
        self.names = names
        self.index = {name: k for k, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratorSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"GeneratorSet({list(self.names)!r})"

    def gen(self, name: str) -> "GrassmannElement":
        """The generator `name` as a degree-1 element."""
        return GrassmannElement(self, {1 << self.index[name]: 1.0})

    def scalar(self, value) -> "GrassmannElement":
        return GrassmannElement(self, {0: value})

    def zero(self) -> "GrassmannElement":
        return GrassmannElement(self, {})

    def one(self) -> "GrassmannElement":
        return self.scalar(1.0)

    def union(self, other: "GeneratorSet") -> "GeneratorSet":
        """Combined algebra: self's generators followed by other's new ones."""
        extra = [n for n in other.names if n not in self.index]
        return GeneratorSet(self.names + tuple(extra))


def _merge_sign(mask_a: int, mask_b: int) -> int:
    # Number of transpositions needed to merge two ascending monomials:
    # pairs (i in a, j in b) with i > j.
    swaps = 0
    t = mask_a
    while t:
        low = t & -t
        swaps += (mask_b & (low - 1)).bit_count()
        t ^= low
    return -1 if swaps & 1 else 1


class GrassmannElement:
    """Multivector in canonical form: map bitmask-of-generators -> coefficient.

    Immutable after construction; zero coefficients are pruned.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GeneratorSet, coeffs: dict):
        self.algebra = algebra
        scale = max((abs(c) for c in coeffs.values()), default=0.0)
        # NaN and infinite coefficients are kept, so estimators can reject them
        tol = PRUNE_TOL * scale if scale < math.inf else 0.0
        self.coeffs = {m: c for m, c in coeffs.items() if not abs(c) <= tol}

    # -- structure ---------------------------------------------------------

    @property
    def body(self):
        return self.coeffs.get(0, 0.0)

    @property
    def soul(self) -> "GrassmannElement":
        return GrassmannElement(self.algebra, {m: c for m, c in self.coeffs.items() if m})

    def is_even(self) -> bool:
        return all(m.bit_count() % 2 == 0 for m in self.coeffs)

    def is_odd(self) -> bool:
        return all(m.bit_count() % 2 == 1 for m in self.coeffs)

    def is_zero(self, tol: float = EQ_TOL) -> bool:
        return all(abs(c) <= tol for c in self.coeffs.values())

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "GrassmannElement":
        if isinstance(other, GrassmannElement):
            if other.algebra != self.algebra:
                raise AlgebraMismatchError("operands over different generator sets")
            return other
        if isinstance(other, (int, float, complex)):
            return GrassmannElement(self.algebra, {0: other})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return GrassmannElement(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.algebra, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GrassmannElement(self.algebra, {m: c * other for m, c in self.coeffs.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                if ma & mb:
                    continue  # repeated generator squares to zero
                m = ma | mb
                out[m] = out.get(m, 0.0) + _merge_sign(ma, mb) * ca * cb
        return GrassmannElement(self.algebra, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * (1.0 / other)
        if isinstance(other, GrassmannElement):
            return self * other.fn("inverse")
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.fn("inverse") ** (-k)
        out = self.algebra.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.allclose(other)

    def __hash__(self):
        raise TypeError("GrassmannElement is not hashable (tolerance-based equality)")

    def allclose(self, other: "GrassmannElement", tol: float = EQ_TOL) -> bool:
        other = self._coerce(other)
        masks = set(self.coeffs) | set(other.coeffs)
        return all(abs(self.coeffs.get(m, 0.0) - other.coeffs.get(m, 0.0)) <= tol for m in masks)

    # -- analytic functions of even elements -------------------------------

    def fn(self, name: str) -> "GrassmannElement":
        """Apply exp/log/inverse/sqrt; exact finite Taylor series in the soul."""
        if not self.is_even():
            raise ParityError(f"{name} requires an even element")
        b = self.body
        n = self.soul
        if name == "exp":
            coeff_fn = lambda k: 1.0 / math.factorial(k)  # noqa: E731
            scale = _exp(b)
            rel = n
        elif name in ("log", "inverse", "sqrt"):
            breal = b.real if isinstance(b, complex) else b
            if isinstance(b, complex) and abs(b.imag) > PRUNE_TOL:
                if name != "inverse":
                    raise DomainError(f"{name} requires a real positive body")
                if abs(b) <= PRUNE_TOL:
                    raise DomainError("inverse requires nonzero body")
            elif breal <= 0.0:
                raise DomainError(f"{name} requires positive body, got {b!r}")
            rel = n * (1.0 / b)
            if name == "log":
                result = self.algebra.scalar(_log(b))
                term = rel
                for k in range(1, len(self.algebra) + 1):
                    if term.is_zero(0.0):
                        break
                    result = result + term * ((-1.0) ** (k + 1) / k)
                    term = term * rel
                return result
            elif name == "inverse":
                coeff_fn = lambda k: (-1.0) ** k  # noqa: E731
                scale = 1.0 / b
            else:  # sqrt
                coeff_fn = lambda k: _binom_half(k)  # noqa: E731
                scale = math.sqrt(breal)
        else:
            raise ValueError(f"unknown function {name!r}")

        result = self.algebra.one()
        term = rel
        for k in range(1, len(self.algebra) + 1):
            if term.is_zero(0.0):
                break
            result = result + term * coeff_fn(k)
            term = term * rel
        return result * scale

    # -- misc --------------------------------------------------------------

    def embed(self, target: GeneratorSet) -> "GrassmannElement":
        """Re-express over a larger algebra containing the same generator names."""
        perm = [target.index[name] for name in self.algebra.names]
        out: dict = {}
        for m, c in self.coeffs.items():
            newmask = 0
            order = []
            k = 0
            t = m
            while t:
                if t & 1:
                    order.append(perm[k])
                    newmask |= 1 << perm[k]
                t >>= 1
                k += 1
            # sign of sorting the relabeled generators back into ascending order
            swaps = sum(1 for i in range(len(order)) for j in range(i + 1, len(order)) if order[i] > order[j])
            out[newmask] = out.get(newmask, 0.0) + ((-1) ** swaps) * c
        return GrassmannElement(target, out)

    def coefficient(self, names: Iterable[str]):
        """Coefficient of the ascending monomial built from `names`."""
        mask = 0
        for name in names:
            mask |= 1 << self.algebra.index[name]
        return self.coeffs.get(mask, 0.0)

    def subsets(self):
        """(tuple of generator names, coefficient) pairs in canonical order."""
        for m in sorted(self.coeffs):
            names = tuple(self.algebra.names[k] for k in range(len(self.algebra)) if m >> k & 1)
            yield names, self.coeffs[m]

    def to_json(self) -> dict:
        terms = []
        for m in sorted(self.coeffs):
            idx = [k for k in range(len(self.algebra)) if m >> k & 1]
            c = self.coeffs[m]
            terms.append({"subset": idx, "coeff": c if not isinstance(c, complex) else [c.real, c.imag]})
        return {"generators": list(self.algebra.names), "terms": terms}

    @staticmethod
    def from_json(data: dict) -> "GrassmannElement":
        alg = GeneratorSet(data["generators"])
        coeffs = {}
        for term in data["terms"]:
            mask = 0
            for k in term["subset"]:
                mask |= 1 << k
            c = term["coeff"]
            if isinstance(c, list):
                c = complex(c[0], c[1])
            coeffs[mask] = c
        return GrassmannElement(alg, coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for names, c in self.subsets():
            mono = "*".join(names) if names else "1"
            parts.append(f"{c!r}*{mono}")
        return " + ".join(parts)


def as_even(x, algebra: GeneratorSet) -> GrassmannElement:
    """Lift a number or an element to an even element of `algebra`."""
    if isinstance(x, GrassmannElement):
        return x if x.algebra == algebra else x.embed(algebra)
    return algebra.scalar(x)


def _exp(b):
    return complex(math.e) ** b if isinstance(b, complex) else math.exp(b)


def _log(b):
    if isinstance(b, complex):
        import cmath

        return cmath.log(b)
    return math.log(b)


def _binom_half(k: int) -> float:
    # binomial(1/2, k)
    out = 1.0
    for j in range(k):
        out *= (0.5 - j) / (j + 1)
    return out


def berezin(x: GrassmannElement, generator: str) -> GrassmannElement:
    """Left derivative with respect to `generator`.

    The generator is anticommuted to the front of each monomial (collecting
    signs) and deleted; monomials not containing it map to zero.
    """
    if generator not in x.algebra.index:
        raise ValueError(f"unknown generator {generator!r}")
    bit = 1 << x.algebra.index[generator]
    out: dict = {}
    for m, c in x.coeffs.items():
        if not m & bit:
            continue
        below = (m & (bit - 1)).bit_count()
        sign = -1.0 if below & 1 else 1.0
        out[m ^ bit] = sign * c
    return GrassmannElement(x.algebra, out)


def berezin_pairs(x: GrassmannElement, pairs: Sequence[tuple[str, str]]) -> GrassmannElement:
    """Apply the composite operator prod_i d_{left_i} d_{right_i}.

    Each pair (left, right) acts as a right-to-left composition, i.e. the
    `right` derivative is applied first.  The pairs themselves are even
    operators and commute.
    """
    out = x
    for left, right in reversed(pairs):
        out = berezin(berezin(out, right), left)
    return out


# -- even-entry linear algebra ---------------------------------------------


def _as_matrix(entries) -> list:
    return [list(row) for row in entries]


def even_det(m: Sequence[Sequence[GrassmannElement]]) -> GrassmannElement:
    """Determinant of a square matrix with commuting (even) entries.

    Cofactor expansion for size <= 4, LU elimination with largest-|body|
    pivoting beyond that.
    """
    n = len(m)
    if n == 0:
        raise ValueError("empty matrix")
    alg = m[0][0].algebra
    if n == 1:
        return m[0][0]
    if n <= 4:
        # cofactor expansion along the first row
        result = alg.zero()
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j] for r in range(1, n)]
            term = m[0][j] * even_det(minor)
            result = result + (term if j % 2 == 0 else -term)
        return result
    a = _as_matrix(m)
    det = alg.one()
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(a[r][k].body))
        if abs(a[pivot_row][k].body) <= PRUNE_TOL:
            return alg.zero()
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        pivot = a[k][k]
        det = det * pivot
        inv_pivot = pivot.fn("inverse")
        for r in range(k + 1, n):
            factor = a[r][k] * inv_pivot
            for c in range(k, n):
                a[r][c] = a[r][c] - factor * a[k][c]
    return det


def even_matrix_inverse(m: Sequence[Sequence[GrassmannElement]]) -> list:
    """Inverse of a matrix with even entries and invertible body.

    Split M = M0 + N with real body part M0 and nilpotent soul part N, then
    M^-1 = sum_k (-M0^-1 N)^k M0^-1, which terminates.
    """
    import numpy as np

    n = len(m)
    alg = m[0][0].algebra
    body = np.array([[m[i][j].body for j in range(n)] for i in range(n)], dtype=complex)
    if abs(np.linalg.det(body)) <= PRUNE_TOL:
        raise DomainError("matrix body is singular")
    body_inv = np.linalg.inv(body)
    if abs(body.imag).max() < PRUNE_TOL:
        body_inv = body_inv.real

    def matmul_num_sym(num, sym):
        return [
            [sum((sym[k][j] * num[i][k] for k in range(n)), alg.zero()) for j in range(n)]
            for i in range(n)
        ]

    def matmul_sym(a, b):
        return [
            [sum((a[i][k] * b[k][j] for k in range(n)), alg.zero()) for j in range(n)]
            for i in range(n)
        ]

    soul = [[m[i][j].soul for j in range(n)] for i in range(n)]
    base = [[alg.scalar(body_inv[i][j]) for j in range(n)] for i in range(n)]
    step = matmul_num_sym(-body_inv, soul)  # -M0^-1 N
    result = base
    power = step
    for _ in range(len(alg)):
        if all(e.is_zero(0.0) for row in power for e in row):
            break
        result = [[result[i][j] + matmul_sym(power, base)[i][j] for j in range(n)] for i in range(n)]
        power = matmul_sym(power, step)
    return result


@dataclass(frozen=True)
class SuperMatrix:
    """Block matrix [[A, Sigma], [Gamma, B]] with even A,B and odd Sigma,Gamma."""

    a: tuple
    sigma: tuple
    gamma: tuple
    b: tuple

    @staticmethod
    def from_blocks(a, sigma, gamma, b) -> "SuperMatrix":
        freeze = lambda blk: tuple(tuple(row) for row in blk)  # noqa: E731
        m = SuperMatrix(freeze(a), freeze(sigma), freeze(gamma), freeze(b))
        for row in m.a:
            for e in row:
                if not e.is_even():
                    raise ParityError("A block must have even entries")
        for row in m.b:
            for e in row:
                if not e.is_even():
                    raise ParityError("B block must have even entries")
        for blk in (m.sigma, m.gamma):
            for row in blk:
                for e in row:
                    if not e.is_odd() and not e.is_zero(0.0):
                        raise ParityError("Sigma/Gamma blocks must have odd entries")
        return m

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        def mul(x, y):
            rows, inner, cols = len(x), len(y), len(y[0])
            assert len(x[0]) == inner
            alg = x[0][0].algebra
            return [
                [sum((x[i][k] * y[k][j] for k in range(inner)), alg.zero()) for j in range(cols)]
                for i in range(rows)
            ]

        def add(x, y):
            return [[x[i][j] + y[i][j] for j in range(len(x[0]))] for i in range(len(x))]

        return SuperMatrix.from_blocks(
            add(mul(self.a, other.a), mul(self.sigma, other.gamma)),
            add(mul(self.a, other.sigma), mul(self.sigma, other.b)),
            add(mul(self.gamma, other.a), mul(self.b, other.gamma)),
            add(mul(self.gamma, other.sigma), mul(self.b, other.b)),
        )


def sdet(m: SuperMatrix) -> GrassmannElement:
    """Superdeterminant det(A - Sigma B^-1 Gamma) / det(B)."""
    n_odd = len(m.b)
    b_inv = even_matrix_inverse(m.b)
    alg = m.a[0][0].algebra
    n_even = len(m.a)
    # Sigma B^-1 Gamma has even entries (odd*even*odd)
    sb = [
        [sum((b_inv[k][j] * m.sigma[i][k] for k in range(n_odd)), alg.zero()) for j in range(n_odd)]
        for i in range(n_even)
    ]
    sbg = [
        [sum((sb[i][k] * m.gamma[k][j] for k in range(n_odd)), alg.zero()) for j in range(n_even)]
        for i in range(n_even)
    ]
    top = [[m.a[i][j] - sbg[i][j] for j in range(n_even)] for i in range(n_even)]
    det_top = even_det(top)
    det_b = even_det(m.b)
    if abs(det_top.body) <= PRUNE_TOL or abs(det_b.body) <= PRUNE_TOL:
        raise DomainError("singular body in superdeterminant")
    return det_top * det_b.fn("inverse")


class GroupElement:
    """Per-vertex quadruples [a_i, b_i, chi_bar_i, chi_i] with the pinned
    component equal to [1, 0, 0, 0].

    Entries are GrassmannElements over a common algebra: a_i even with positive
    body, b_i even, chi_bar_i and chi_i odd.  The pinned vertex is the last one.
    """

    def __init__(self, algebra: GeneratorSet, quads: Sequence[tuple]):
        self.algebra = algebra
        self.quads = [tuple(self._lift(e) for e in q) for q in quads]
        for a, b, cb, c in self.quads:
            if not a.is_even() or not b.is_even():
                raise ParityError("a, b components must be even")
            if not (cb.is_odd() or cb.is_zero(0.0)) or not (c.is_odd() or c.is_zero(0.0)):
                raise ParityError("chi components must be odd")
            ab = a.body
            if (ab.real if isinstance(ab, complex) else ab) <= 0.0:
                raise DomainError("a component must have positive body")
        pa, pb, pcb, pc = self.quads[-1]
        if not (pa.allclose(self._lift(1.0)) and pb.is_zero() and pcb.is_zero() and pc.is_zero()):
            raise ValueError("pinned component must be [1, 0, 0, 0]")

    def _lift(self, e):
        if isinstance(e, GrassmannElement):
            if e.algebra != self.algebra:
                raise AlgebraMismatchError("entry over a different generator set")
            return e
        return self.algebra.scalar(e)

    @staticmethod
    def identity(algebra: GeneratorSet, n_vertices: int) -> "GroupElement":
        one, zero = 1.0, 0.0
        return GroupElement(algebra, [(one, zero, zero, zero)] * n_vertices)

    def __len__(self) -> int:
        return len(self.quads)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.algebra != other.algebra or len(self) != len(other):
            raise AlgebraMismatchError("incompatible group elements")
        quads = []
        for (a, b, cb, c), (a2, b2, cb2, c2) in zip(self.quads, other.quads):
            quads.append((a * a2, b + a * b2, cb + a * cb2, c + a * c2))
        return GroupElement(self.algebra, quads)

    def inv(self) -> "GroupElement":
        quads = []
        for a, b, cb, c in self.quads:
            ai = a.fn("inverse")
            quads.append((ai, -b * ai, -cb * ai, -c * ai))
        return GroupElement(self.algebra, quads)

    def allclose(self, other: "GroupElement", tol: float = EQ_TOL) -> bool:
        return all(
            all(x.allclose(y, tol) for x, y in zip(q1, q2))
            for q1, q2 in zip(self.quads, other.quads)
        )

    def __repr__(self) -> str:
        return f"GroupElement({self.quads!r})"
