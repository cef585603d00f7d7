"""Finite weighted graphs with a pinned vertex, and nested exhaustions of an
infinite graph with wired boundary conditions."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = ["Graph", "GraphTower", "wired_subgraph", "extend_alpha", "single_edge", "triangle", "line_tower"]


class GraphError(ValueError):
    pass


class Elimination(NamedTuple):
    """Symbolic fill of the LDL^T elimination of a matrix with W_VV's pattern.

    For each column k: `pattern[k]`, the index array of the later vertices j
    with a nonzero entry (k, j) once columns 0..k-1 are eliminated; `col[k]`, the positions of the
    pairs (k, j) among all fill pairs; `upd[k]`, a (3, T) array of triples:
    the position of a pair (i, j), i < j, and those of (k, i) and (k, j) in
    col[k].  `w0` (n_pairs, 1) holds W_VV on the pairs.
    """

    pattern: list
    col: list
    w0: np.ndarray
    upd: list


@dataclass(frozen=True)
class Graph:
    """Connected weighted graph on vertices V + pinned vertex delta.

    Vertex ids are strings in files; internally vertices map to dense indices
    with the pinned vertex always last.  `weights` is the full symmetric
    (n x n) matrix with zero diagonal.
    """

    vertex_ids: tuple
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        n = len(self.vertex_ids)
        if w.shape != (n, n):
            raise GraphError("weight matrix shape mismatch")
        if not np.allclose(w, w.T):
            raise GraphError("weights must be symmetric")
        if np.any(np.diag(w) != 0):
            raise GraphError("no direct loops allowed")
        if np.any(w < 0):
            raise GraphError("weights must be nonnegative")
        if not self._connected(w):
            raise GraphError("graph must be connected")
        object.__setattr__(self, "weights", w)

    @staticmethod
    def _connected(w: np.ndarray) -> bool:
        n = w.shape[0]
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in np.nonzero(w[i])[0]:
                if j not in seen:
                    seen.add(j)
                    stack.append(int(j))
        return len(seen) == n

    @property
    def n_total(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_inner(self) -> int:
        return self.n_total - 1

    @property
    def pinned_id(self) -> str:
        return self.vertex_ids[-1]

    @cached_property
    def edge_arrays(self):
        """Undirected edges as arrays (i, j, w) with i < j and w > 0, in
        row-major order; built once per graph for the vectorized kernels."""
        i, j = np.nonzero(np.triu(self.weights, 1))
        return i, j, self.weights[i, j]

    @cached_property
    def elimination(self) -> Elimination:
        """Symbolic LDL^T elimination of H_beta = 2 beta - W_VV over the inner
        vertices in index order; built once per graph for `core._eliminate`."""
        m = self.n_inner
        w_vv = self.weights[:m, :m]
        later = [set((k + 1 + np.nonzero(w_vv[k, k + 1 :])[0]).tolist()) for k in range(m)]
        for k in range(m):
            cols = sorted(later[k])
            for a, i in enumerate(cols):
                later[i].update(cols[a + 1 :])
        pattern = [sorted(c) for c in later]
        pairs = [(k, j) for k, c in enumerate(pattern) for j in c]
        pos = {pair: p for p, pair in enumerate(pairs)}
        col = [np.array([pos[k, j] for j in c], dtype=int) for k, c in enumerate(pattern)]
        upd = []
        for c in pattern:
            terms = [(pos[i, j], a, b) for a, i in enumerate(c) for b, j in enumerate(c) if i < j]
            upd.append(np.array(terms, dtype=int).reshape(-1, 3).T)
        pattern = [np.array(c, dtype=int) for c in pattern]
        return Elimination(pattern, col, np.array([w_vv[pair] for pair in pairs]).reshape(-1, 1), upd)

    def edges(self):
        """Undirected edges (i, j, w) with i < j and w > 0."""
        i, j, w = self.edge_arrays
        yield from zip(i.tolist(), j.tolist(), w)

    def index_of(self, vertex_id: str) -> int:
        return self.vertex_ids.index(vertex_id)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertex_ids[:-1]),
            "pinned": self.pinned_id,
            "edges": [
                {"i": self.vertex_ids[i], "j": self.vertex_ids[j], "w": w}
                for i, j, w in self.edges()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Graph":
        ids = tuple(data["vertices"]) + (data["pinned"],)
        idx = {v: k for k, v in enumerate(ids)}
        n = len(ids)
        w = np.zeros((n, n))
        for e in data["edges"]:
            i, j = idx[e["i"]], idx[e["j"]]
            w[i, j] = w[j, i] = e["w"]
        return Graph(ids, w)

    @staticmethod
    def load(path) -> "Graph":
        with open(path) as f:
            return Graph.from_json(json.load(f))


@dataclass(frozen=True)
class GraphTower:
    """Finite description of an infinite graph and an increasing exhaustion.

    `universe` lists all vertices referenced by any level or edge; weights are
    given on the universe.  Levels are strictly increasing vertex sets.  The
    data must be deep enough that every vertex of every level has all its
    neighbours inside the universe, so the wired boundary weight is exact.
    """

    universe: tuple
    weights: np.ndarray = field(repr=False)
    levels: tuple = ()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.universe), len(self.universe)):
            raise GraphError("weight matrix shape mismatch")
        if not np.allclose(w, w.T):
            raise GraphError("weights must be symmetric")
        prev: set = set()
        for level in self.levels:
            cur = set(level)
            if not prev <= cur or len(cur) <= len(prev):
                raise GraphError("levels must be strictly increasing")
            prev = cur
        object.__setattr__(self, "weights", w)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def to_json(self) -> dict:
        idx = {v: k for k, v in enumerate(self.universe)}
        edges = []
        n = len(self.universe)
        for i in range(n):
            for j in range(i + 1, n):
                if self.weights[i, j] > 0:
                    edges.append({"i": self.universe[i], "j": self.universe[j], "w": self.weights[i, j]})
        return {"vertices": list(self.universe), "edges": edges, "levels": [list(l) for l in self.levels]}

    @staticmethod
    def from_json(data: dict) -> "GraphTower":
        ids = tuple(data["vertices"])
        idx = {v: k for k, v in enumerate(ids)}
        n = len(ids)
        w = np.zeros((n, n))
        for e in data["edges"]:
            i, j = idx[e["i"]], idx[e["j"]]
            w[i, j] = w[j, i] = e["w"]
        return GraphTower(ids, w, tuple(tuple(l) for l in data["levels"]))

    @staticmethod
    def load(path) -> "GraphTower":
        with open(path) as f:
            return GraphTower.from_json(json.load(f))


def wired_subgraph(tower: GraphTower, n: int) -> Graph:
    """Finite graph at level `n` with the wired boundary vertex delta_n.

    Inside weights are copied; the boundary vertex collects, for each inner
    vertex, the total weight of its edges leaving the level.
    """
    if not 0 <= n < tower.n_levels:
        raise IndexError(f"level {n} outside exhaustion range")
    level = list(tower.levels[n])
    idx = {v: k for k, v in enumerate(tower.universe)}
    inner = [idx[v] for v in level]
    outside = [k for k in range(len(tower.universe)) if tower.universe[k] not in set(level)]
    m = len(inner)
    w = np.zeros((m + 1, m + 1))
    for a, ia in enumerate(inner):
        for b, ib in enumerate(inner):
            if a != b:
                w[a, b] = tower.weights[ia, ib]
        w[a, m] = w[m, a] = tower.weights[ia, outside].sum()
    if w[:m, m].sum() == 0:
        raise GraphError("wired boundary vertex would be isolated")
    delta_id = f"delta_{n}"
    return Graph(tuple(level) + (delta_id,), w)


def extend_alpha(tower: GraphTower, alpha: dict, n: int) -> np.ndarray:
    """Extend a finitely supported parameter map to level n.

    Values on the level are kept; everything outside is summed onto the wired
    boundary vertex.  Entries must lie in (-inf, 0].
    """
    if any(v > 0 for v in alpha.values()):
        raise ValueError("alpha entries must be nonpositive")
    unknown = set(alpha) - set(tower.universe)
    if unknown:
        raise ValueError(f"alpha supported outside the universe: {sorted(unknown)}")
    level = set(tower.levels[n])
    out = np.zeros(len(tower.levels[n]) + 1)
    pos = {v: k for k, v in enumerate(tower.levels[n])}
    for v, value in alpha.items():
        if v in level:
            out[pos[v]] = value
        else:
            out[-1] += value
    return out


# -- bundled fixtures --------------------------------------------------------


def single_edge(w: float = 1.0) -> Graph:
    return Graph(("1", "delta"), np.array([[0.0, w], [w, 0.0]]))


def triangle(w12: float = 1.0, w1d: float = 1.0, w2d: float = 1.0) -> Graph:
    return Graph(
        ("1", "2", "delta"),
        np.array([[0.0, w12, w1d], [w12, 0.0, w2d], [w1d, w2d, 0.0]]),
    )


def line_tower(depth: int = 5, w: float = 1.0) -> GraphTower:
    """Line graph on vertices 1..depth+2 with V_n = {1..n}; universe is one
    vertex deeper than the last level so boundary weights stay exact."""
    n_univ = depth + 2
    ids = tuple(str(k) for k in range(1, n_univ + 1))
    weights = np.zeros((n_univ, n_univ))
    for k in range(n_univ - 1):
        weights[k, k + 1] = weights[k + 1, k] = w
    levels = tuple(tuple(str(j) for j in range(1, m + 1)) for m in range(1, depth + 1))
    return GraphTower(ids, weights, levels)
