"""Workload inputs, one round of each workload, and the judgement of its outputs.

A round is a fixed list of operations, each timed on its own: the checks of a
`checks-*` workload (one `verify.run_suite` call per check) or the five
`sample_u` cases of `chain-scale`.  Each operation is judged against closed
forms recomputed in `oracle` from the benchmark's own weight matrices, never
against stored output.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from time import perf_counter

import numpy as np

import oracle

CHECKS_REAL = (
    "rho-equivalence",
    "spinor-identity",
    "A-scale-invariance",
    "zeta-scaling",
    "radon-nikodym",
    "laplace-real",
    "consistency",
    "martingale-generating",
    "martingale-derivatives",
    "martingale-special-cases",
    "theta-conditional",
)
#: image-measure-super is left out: its reported stderr is too small on some
#: seeds (z up to 6.6 over seeds 0-159, see README), so no z bound can judge it
CHECKS_SUPER = (
    "laplace-grassmann",
    "ward",
    "cartesian-horospherical",
    "marginal-lemma",
    "jacobian-sdet",
)

# -- graphs, as weight matrices (pinned vertex last) --------------------------

SINGLE_EDGE = (("1", "delta"), np.array([[0.0, 1.0], [1.0, 0.0]]))
TRIANGLE = (("1", "2", "delta"), np.ones((3, 3)) - np.eye(3))


def line_universe(depth: int):
    """Path 1..depth+2 with unit weights and levels {1..m}, m = 1..depth."""
    n = depth + 2
    w = np.zeros((n, n))
    for k in range(n - 1):
        w[k, k + 1] = w[k + 1, k] = 1.0
    universe = tuple(str(k) for k in range(1, n + 1))
    levels = tuple(universe[:m] for m in range(1, depth + 1))
    return universe, w, levels


def box_weights(side: int) -> np.ndarray:
    """side x side box of Z^2, unit weights, wired: the boundary vertex (last)
    takes one unit of weight for every missing lattice neighbour."""
    n = side * side
    w = np.zeros((n + 1, n + 1))
    for r in range(side):
        for c in range(side):
            k = r * side + c
            if c + 1 < side:
                w[k, k + 1] = w[k + 1, k] = 1.0
            if r + 1 < side:
                w[k, k + side] = w[k + side, k] = 1.0
    missing = 4.0 - w[:n, :n].sum(axis=1)
    w[:n, n] = w[n, :n] = missing
    return w


LINE = line_universe(5)

# -- explicit inputs of the checks with closed forms (the package defaults) ---

LAPLACE = {"a": [1.2], "b": [0.3]}
ODD = {"cb_coeff": 0.8, "c_coeff": 0.6}
CONSISTENCY = {"level": 1, "vertex_params": {"1": (1.2, 0.3)}}
GENERATING = {"level": 1, "alpha": {"1": -0.7, "3": -0.4}, "tilt": {"1": (1.2, 0.3), "2": (0.9, -0.2)}}
DERIVATIVE_TILT = {"1": (1.15, 0.2), "2": (1.1, -0.15), "3": (1.05, 0.1)}
DERIVATIVES = {"level": 2, "tilt": DERIVATIVE_TILT, "j_sets": [("1",), ("1", "2"), ("1", "2", "3")]}
SPECIAL_CASES = {"level": 2, "tilt": DERIVATIVE_TILT, "j_sets": [("1", "1"), ("1", "1", "1"), ("1", "1", "2")]}
WARD = {"alpha": [-1.0, 0.0, 0.0], "tau": {"1": 0.8, "2": 0.6}}

#: checks that estimate by Monte Carlo; their specs' sample counts make the
#: workload's sample budget
MONTE_CARLO = {
    "radon-nikodym",
    "laplace-real",
    "consistency",
    "martingale-generating",
    "martingale-derivatives",
    "martingale-special-cases",
    "theta-conditional",
    "laplace-grassmann",
    "ward",
}

#: checks-real runs its Monte-Carlo checks at 1/CHECKS_REAL_SAMPLE_DIVISOR of
#: their default sample counts (burn-in unchanged).  At the defaults a round
#: takes ~28 s, so a run holds one round and its time follows the machine's
#: slow spells; at a quarter a round takes ~11 s and a run takes the median of
#: several
CHECKS_REAL_SAMPLE_DIVISOR = 4


def fewer_samples(spec, divisor: int):
    """`spec` with its chain's samples (and theta-conditional's draws) cut by `divisor`."""
    params = spec.params
    if "n_draws" in params:
        params = {**params, "n_draws": params["n_draws"] // divisor}
    return replace(spec, chain=replace(spec.chain, n_samples=spec.chain.n_samples // divisor), params=params)


#: names of rows that carry a deterministic residual (estimate <= tolerance)
RESIDUAL_ROWS = {
    "max_log_density_spread",
    "max_residual",
    "hand_case_lhs",
    "hand_case_rhs",
    "max_entry_residual",
    "relative_residual",
    "max_relative_residual",
    "max_sdet_deviation",
    "quadrature_residual",
    "body_quadrature_residual",
    "max_pointwise_residual",
}

#: |z| bound for estimates against their reference in the checks' reports
CHECK_Z = 10.0

# -- chain-scale ---------------------------------------------------------------

CHAIN_BURN_IN = 1_000
CHAIN_TILT = 1.3  # A in E[e^{-(A^2-1) beta_1}] = e^{-W_1 (A-1)} / A
#: |z| bound for the chain-scale mean; see README for the seed sweep behind it
CHAIN_Z = 8.0
#: (name, graph builder, chains, steps per chain)
CHAIN_CASES = (
    ("line2", ("line", 2), 8, 20_000),
    ("line8", ("line", 8), 8, 8_000),
    ("line32", ("line", 32), 8, 3_000),
    ("box16", ("box", 4), 8, 4_000),
    ("line8-wide", ("line", 8), 256, 1_500),
)


class Workload:
    """Inputs built at set-up, then whole rounds of the same operations."""

    def __init__(self, hs, name: str, seed: int):
        self.hs = hs
        self.name = name
        self.seed = seed
        if name == "chain-scale":
            self.cases = [(case, self._chain_graph(*shape), chains, steps) for case, shape, chains, steps in CHAIN_CASES]
            self.operations = len(self.cases)
            self.sample_budget = sum(chains * steps for _, _, chains, steps in self.cases)
        else:
            ids = CHECKS_REAL if name == "checks-real" else CHECKS_SUPER
            self.specs = self._specs(ids)
            self.operations = len(self.specs)
            self.sample_budget = sum(
                s.params.get("n_draws", s.chain.n_samples) for s in self.specs.values() if s.id in MONTE_CARLO
            )

    # -- set-up --------------------------------------------------------------

    def _chain_graph(self, kind: str, size: int):
        if kind == "box":
            n = size * size
            return self.hs.graphs.Graph(tuple(str(k + 1) for k in range(n)) + ("delta",), box_weights(size))
        tower = self.hs.graphs.line_tower(size)
        return self.hs.graphs.wired_subgraph(tower, size - 1)

    def _specs(self, ids) -> dict:
        hs = self.hs
        tower = hs.graphs.GraphTower(*LINE)
        edge = hs.graphs.Graph(*SINGLE_EDGE)
        inputs = {
            "laplace-real": {"graph": edge, "params": LAPLACE},
            "laplace-grassmann": {"graph": edge, "params": {**LAPLACE, **ODD}},
            "consistency": {"tower": tower, "params": CONSISTENCY},
            "martingale-generating": {"tower": tower, "params": GENERATING},
            "martingale-derivatives": {"tower": tower, "params": DERIVATIVES},
            "martingale-special-cases": {"tower": tower, "params": SPECIAL_CASES},
            "ward": {"graph": hs.graphs.Graph(*TRIANGLE), "params": WARD},
        }
        defaults = hs.verify.default_specs(self.seed)
        specs = {cid: replace(defaults[cid], **inputs.get(cid, {})) for cid in ids}
        if self.name == "checks-real":
            for cid in MONTE_CARLO & specs.keys():
                specs[cid] = fewer_samples(specs[cid], CHECKS_REAL_SAMPLE_DIVISOR)
        return specs

    # -- one round -------------------------------------------------------------

    def run_round(self):
        """Run every operation once; returns the output and the wall seconds
        of each operation."""
        outputs, times = {}, {}
        for op, run in self._operations():
            t = perf_counter()
            outputs[op] = run()
            times[op] = perf_counter() - t
        return outputs, times

    def _operations(self):
        hs = self.hs
        if self.name == "chain-scale":
            for case, g, chains, steps in self.cases:
                cc = hs.sampler.ChainConfig(chains * steps, CHAIN_BURN_IN, 1, chains, 0.8, self.seed)
                yield case, partial(hs.sampler.sample_u, g, cc)
        else:
            for cid, spec in self.specs.items():
                yield cid, partial(self._check, spec)

    def _check(self, spec):
        reports, _summary = self.hs.verify.run_suite(specs={spec.id: spec})
        return reports[0]

    # -- judgement ---------------------------------------------------------

    def judge(self, outputs):
        """Problems found per operation (empty list: correct) and per-case
        chain statistics for chain-scale."""
        problems = {}
        stats = {}
        if self.name == "chain-scale":
            for case, g, chains, steps in self.cases:
                problems[case], stats[case] = judge_chain(g.weights, outputs[case], chains, steps)
        else:
            for cid, spec in self.specs.items():
                rep = outputs.get(cid)
                if rep is None:
                    problems[cid], stats[cid] = ["missing report"], {}
                else:
                    problems[cid], z = judge_report(spec, rep)
                    stats[cid] = {"z": z}
        return problems, stats


def judge_chain(w, draws, chains, steps):
    """Mean of e^{-(A^2-1) beta_1} over the draws against e^{-W_1 (A-1)}/A."""
    n = w.shape[0]
    if draws.shape != (chains * steps, n) or not np.all(np.isfinite(draws)) or np.any(draws[:, -1] != 0.0):
        return ["draws have the wrong shape, are not finite, or move the pinned vertex"], {}
    u = draws.reshape(chains, steps, n)
    nbrs = np.nonzero(w[0])[0]  # only these columns, to keep the judge's memory small
    beta1 = 0.5 * (np.exp(u[..., nbrs]) @ w[0, nbrs]) * np.exp(-u[..., 0])
    vals = np.exp(-(CHAIN_TILT**2 - 1.0) * beta1)
    a = np.ones(n)
    a[0] = CHAIN_TILT
    ref = oracle.laplace(w, a, np.zeros(n))
    mean, se, n_eff = oracle.batch_means(vals)
    z = abs(mean - ref) / se
    stats = {"acceptance": oracle.acceptance(u), "ess_per_draw": n_eff / vals.size, "z": z}
    return ([] if z <= CHAIN_Z else [f"mean {mean:.6f} vs closed form {ref:.6f}: z {z:.2f} > {CHAIN_Z}"]), stats


def _complex(x) -> complex:
    return complex(x[0], x[1]) if isinstance(x, list) else complex(x)


def closed_forms(spec) -> dict:
    """Closed-form reference per row subset of a statistical check."""
    cid, p = spec.id, spec.params
    if cid in ("laplace-real", "laplace-grassmann"):
        w = SINGLE_EDGE[1]
        ref = oracle.laplace(w, p["a"] + [1.0], p["b"] + [0.0])
        if cid == "laplace-real":
            return {("mc",): ref}
        x, y = [p["cb_coeff"], 0.0], [p["c_coeff"], 0.0]
        return {(): ref, ("cb_1",): 0.0, ("c_1",): 0.0, ("cb_1", "c_1"): ref * oracle.odd_pair_coefficient(w, x, y)}
    if cid == "ward":
        out = {(): math.exp(sum(p["alpha"]))}
        names = [f"tau_{v}" for v in p["tau"]]
        for mask in range(1, 1 << len(names)):
            out[tuple(nm for k, nm in enumerate(names) if mask >> k & 1)] = 0.0
        return out
    universe, wu, levels = LINE
    out = {}
    if cid == "martingale-generating":
        for k in (p["level"], p["level"] + 1):
            a, b, w = _level_tilt(universe, wu, levels[k], p["tilt"])
            alpha = oracle.extend_to_level(p["alpha"], levels[k], 0.0, boundary_sum=True)
            out[(f"level_{k}",)] = oracle.generating(w, a, b, alpha)
    if cid in ("martingale-derivatives", "martingale-special-cases"):
        for j_ids in p["j_sets"]:
            for k in (p["level"], p["level"] + 1):
                a, b, w = _level_tilt(universe, wu, levels[k], p["tilt"])
                idx = [levels[k].index(v) for v in j_ids]
                out[("+".join(j_ids), f"level_{k}")] = oracle.derivative(w, a, b, idx)
    if cid == "consistency":
        for k in (p["level"], p["level"] + 1):
            a, b, w = _level_tilt(universe, wu, levels[k], p["vertex_params"])
            out[k] = oracle.laplace(w, a, b)
    return out


def _level_tilt(universe, wu, level, tilt):
    w = oracle.wired_level(wu, universe, level)
    a = oracle.extend_to_level({v: ab[0] for v, ab in tilt.items()}, level, 1.0)
    b = oracle.extend_to_level({v: ab[1] for v, ab in tilt.items()}, level, 0.0)
    return a, b, w


def _close(x, ref) -> bool:
    return abs(complex(x) - complex(ref)) <= 1e-12 * max(1.0, abs(complex(ref)))


def judge_report(spec, rep):
    """Problems with one check's report, and the largest z of its
    statistical rows.

    Closed-form references must match to 1e-12 and residual rows must be
    within the spec's tolerance.  Estimates must lie within CHECK_Z standard
    errors of their reference; the check's own verdict (at its z threshold)
    is not required, because it fails on some seeds (see README).
    """
    problems = []
    if rep.check != spec.id or rep.seed != spec.chain.seed:
        problems.append(f"report {rep.check} seed {rep.seed}")
    refs = closed_forms(spec)
    seen = set()
    z_max = 0.0
    for row in rep.coefficients:
        subset = tuple(row["subset"])
        seen.add(subset)
        est, ref, se = _complex(row["estimate"]), _complex(row["reference"]), row["stderr"]
        if not (math.isfinite(abs(est)) and math.isfinite(abs(ref)) and se > 0):
            problems.append(f"{subset}: non-finite row")
        elif len(subset) == 1 and subset[0] in RESIDUAL_ROWS:
            if not 0.0 <= est.real <= spec.tolerance:
                problems.append(f"{subset}: residual {est.real:.3g} > {spec.tolerance:.3g}")
        elif spec.id == "consistency" and subset == ("closed_form",):
            level = spec.params["level"]
            if not (_close(est, refs[level]) and _close(ref, refs[level + 1])):
                problems.append(f"closed forms {est}, {ref} vs {refs[level]}, {refs[level + 1]}")
        else:
            if subset in refs and not _close(ref, refs[subset]):
                problems.append(f"{subset}: reference {ref} vs closed form {refs[subset]}")
            z = abs(est - ref) / se
            z_max = max(z_max, z)
            if z > CHECK_Z:
                problems.append(f"{subset}: z {z:.2f} > {CHECK_Z}")
    for subset, ref in refs.items():
        if isinstance(subset, tuple) and ref != 0.0 and subset not in seen:
            problems.append(f"{subset}: row missing")
    return problems, z_max
