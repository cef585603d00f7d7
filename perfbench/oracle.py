"""Closed forms and chain statistics computed by the benchmark itself.

Everything here works from weight matrices and parameter vectors alone (the
pinned vertex is the last index, as in the package), so the benchmark can judge
the package's estimates without calling the package's own closed forms.
"""

from __future__ import annotations

import math

import numpy as np


def laplace(w, a, b) -> float:
    """L(a, b) = prod_edges e^{-W_ij (a_i a_j + b_i b_j - 1)} / prod_{j in V} a_j."""
    w = np.asarray(w, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    iu = np.triu_indices(len(a), 1)
    exponent = -(w[iu] * (np.outer(a, a)[iu] + np.outer(b, b)[iu] - 1.0)).sum()
    return math.exp(exponent) / float(np.prod(a[:-1]))


def odd_pair_coefficient(w, x, y) -> float:
    """Coefficient E1 of the odd parameters chibar_i = x_i zb, chi_i = y_i z.

    The Grassmann-Laplace exponent gains -sum_edges W_ij (chibar_i chi_j +
    chibar_j chi_i) = E1 zb z, so the transform is L (1 + E1 zb z).
    """
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    iu = np.triu_indices(len(x), 1)
    return float(-(w[iu] * (np.outer(x, y)[iu] + np.outer(y, x)[iu])).sum())


def generating(w, a, b, alpha) -> complex:
    """L(a, b) e^{<alpha, a - i b>}, alpha including its boundary entry."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return laplace(w, a, b) * complex(np.exp(np.asarray(alpha, dtype=float) @ (a - 1j * b)))


def derivative(w, a, b, j_idx) -> complex:
    """L(a, b) prod_p (a_{j_p} - i b_{j_p}) over a multiset of vertex indices."""
    out = complex(laplace(w, a, b))
    for j in j_idx:
        out *= a[j] - 1j * b[j]
    return out


def wired_level(w_universe, universe, level):
    """Weights of a level with its wired boundary vertex appended last.

    Inner weights are copied; the boundary vertex gets, from each inner vertex,
    the total weight of the edges that leave the level.
    """
    w_universe = np.asarray(w_universe, dtype=float)
    inner = [universe.index(v) for v in level]
    outside = [k for k, v in enumerate(universe) if v not in level]
    m = len(inner)
    w = np.zeros((m + 1, m + 1))
    w[:m, :m] = w_universe[np.ix_(inner, inner)]
    w[:m, m] = w[m, :m] = w_universe[np.ix_(inner, outside)].sum(axis=1)
    return w


def extend_to_level(values: dict, level, identity: float, boundary_sum: bool = False) -> np.ndarray:
    """Per-vertex vector on a level plus its boundary entry.

    Entries outside the level are summed onto the boundary when
    `boundary_sum`; otherwise the boundary (and every unset vertex) holds
    `identity`.
    """
    out = np.full(len(level) + 1, float(identity))
    for vid, val in values.items():
        if vid in level:
            out[list(level).index(vid)] = val
        elif boundary_sum:
            out[-1] += val
    return out


def batch_means(values: np.ndarray, batches_per_chain: int = 5):
    """Mean, stderr and effective sample size of draws shaped (chains, steps).

    Each chain is cut into equal consecutive batches; the stderr comes from the
    spread of all batch means.
    """
    c, m = values.shape
    bs = m // batches_per_chain
    usable = values[:, : bs * batches_per_chain]
    bm = usable.reshape(c, batches_per_chain, bs).mean(axis=2).ravel()
    mean = float(usable.mean())
    nb = len(bm)
    stderr = math.sqrt(((bm - mean) ** 2).sum() / (nb * (nb - 1)))
    n_eff = float(usable.var() / stderr**2) if stderr > 0 else float(usable.size)
    return mean, stderr, n_eff


def acceptance(draws: np.ndarray) -> float:
    """Share of consecutive draws within a chain that differ; draws (c, m, n)."""
    moved = np.any(draws[:, 1:, :] != draws[:, :-1, :], axis=2)
    return float(moved.mean())
