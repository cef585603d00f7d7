"""Check registry: spec validation, report schema, dispatch, and suite runs."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hypersigma
from hypersigma import CheckSpec, Report, UnknownCheckError, default_specs, list_check_ids, run_check, run_suite
from hypersigma import verify
from hypersigma.sampler import ChainConfig

EXPECTED_CHECKS = {
    "rho-equivalence",
    "spinor-identity",
    "A-scale-invariance",
    "zeta-scaling",
    "radon-nikodym",
    "laplace-real",
    "laplace-grassmann",
    "consistency",
    "martingale-generating",
    "martingale-super",
    "martingale-derivatives",
    "martingale-special-cases",
    "ward",
    "marginal-lemma",
    "jacobian-sdet",
    "theta-conditional",
    "cartesian-horospherical",
    "image-measure-super",
}


def test_registry_lists_all_checks():
    assert set(list_check_ids()) == EXPECTED_CHECKS
    assert set(default_specs()) == EXPECTED_CHECKS


def test_spec_validation():
    with pytest.raises(ValueError):
        CheckSpec("rho-equivalence", z_threshold=0.0)
    with pytest.raises(ValueError):
        CheckSpec("rho-equivalence", tolerance=-1.0)


def test_unknown_check_raises():
    with pytest.raises(UnknownCheckError):
        run_check(CheckSpec("no-such-check"))


def test_report_schema_round_trip():
    spec = default_specs(seed=1)["spinor-identity"]
    rep = run_check(spec)
    data = rep.to_json()
    assert set(data) >= {"check", "verdict", "seed", "coefficients", "runtime_s"}
    assert data["verdict"] in ("pass", "fail")
    for row in data["coefficients"]:
        assert set(row) == {"subset", "estimate", "stderr", "reference", "z"}
    back = Report.from_dict(json.loads(json.dumps(data)))
    assert back.check == rep.check
    assert back.verdict == rep.verdict
    assert back.passed == rep.passed


def test_deterministic_checks_reproducible():
    spec = default_specs(seed=9)["rho-equivalence"]
    r1 = run_check(spec)
    r2 = run_check(spec)
    assert [dict(c) for c in r1.coefficients] == [dict(c) for c in r2.coefficients]


def test_run_suite_filters_and_summarizes():
    reports, summary = run_suite(pattern="spinor*", seed=2)
    assert [r.check for r in reports] == ["spinor-identity"]
    assert summary["total"] == 1
    assert summary["verdict"] == "pass"


def test_override_tolerance_can_fail_a_check():
    # the largest spread of 100 roundoff-level residuals is never exactly 0
    base = default_specs(seed=0)["rho-equivalence"]
    strict = CheckSpec(base.id, chain=base.chain, tolerance=1e-30)
    rep = run_check(strict)
    assert rep.verdict == "fail"


def test_graph_override_is_used():
    from hypersigma import triangle

    base = default_specs(seed=4)["laplace-real"]
    spec = CheckSpec(
        base.id,
        graph=triangle(),
        chain=ChainConfig(n_samples=20_000, seed=4),
        tolerance=base.tolerance,
    )
    rep = run_check(spec)
    # the triangle has two inner vertices, so the quadrature row is absent
    assert all("quadrature" not in "".join(map(str, c["subset"])) for c in rep.coefficients)
    assert rep.verdict == "pass"


def test_martingale_super_check():
    """The Grassmann-valued martingale passes at both levels, reports under its
    own id, and estimates the odd tilt and source coefficients."""
    rep = verify._HANDLERS["martingale-super"](default_specs(seed=0)["martingale-super"])
    assert rep["check"] == "martingale-super"
    assert rep["verdict"] == "pass"
    assert rep["closed_form_residual"] <= 1e-12
    subsets = {tuple(r["subset"]) for r in rep["coefficients"]}
    for tag in ("level_1", "level_2", "cross_level"):
        assert {(tag,), ("c_1", "tau_1", tag), ("cb_1", "tau_1", tag)} <= subsets


def test_martingale_super_row_set_does_not_depend_on_the_seed():
    """The (cb_1, c_1) coefficient vanishes in exact arithmetic; super_expect
    drops its roundoff on every seed, so seeds 0-5 report the same rows."""
    row_sets = []
    for seed in range(6):
        rep = run_check(default_specs(seed=seed)["martingale-super"])
        row_sets.append({tuple(r["subset"]) for r in rep.coefficients})
    assert all(rows == row_sets[0] for rows in row_sets)
    assert not any(rows[:2] == ("cb_1", "c_1") for rows in row_sets[0])


def test_martingale_closed_form_keeps_the_soul_of_a():
    """With a Grassmann-valued a (an even soul), the factor e^{<alpha, a - ib>}
    of the closed form is taken of the whole element, not of its body."""
    from hypersigma import GeneratorSet, extend_alpha, line_tower, super_expect, wired_subgraph

    tower = line_tower()
    algebra = GeneratorSet(["cb_1", "c_1", "tau_1"])
    cb, c = algebra.gen("cb_1"), algebra.gen("c_1")
    params = {"1": (algebra.scalar(1.2) + cb * c * 0.5, 0.3, cb * 0.8, c * 0.6)}
    tau = {"1": algebra.gen("tau_1") * 0.5}
    g = wired_subgraph(tower, 1)
    f, ref = verify._martingale_terms(g, extend_alpha(tower, {"1": -0.7}, 1), tau, params, algebra)
    est = super_expect(g, f, algebra, ChainConfig(n_samples=40_000, seed=3))
    rows = verify._rows_vs_reference(est, ref)
    assert ("cb_1", "c_1") in {tuple(r["subset"]) for r in rows}
    assert max(r["z"] for r in rows) < 4.0


def test_rows_of_a_report_have_distinct_subsets():
    """Every row of every registered check can be told apart by its subset,
    and its stderr and z are Python floats (numpy scalars would make sums of
    comparisons of them numpy integers, which json cannot write)."""
    for cid, spec in default_specs(seed=0).items():
        rep = run_check(replace(spec, chain=replace(spec.chain, n_samples=2_000)))
        subsets = [tuple(r["subset"]) for r in rep.coefficients]
        assert len(set(subsets)) == len(subsets), (cid, subsets)
        assert all(type(r["stderr"]) is float and type(r["z"]) is float for r in rep.coefficients), cid


def test_importance_sampled_check_does_not_import_scipy():
    """The saddle and the proposal use closed forms, so a derivative check
    runs on numpy alone."""
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        "import hypersigma.cli\n"
        "from hypersigma import ChainConfig, default_specs, run_check\n"
        "spec = default_specs(seed=0)['martingale-derivatives']\n"
        "run_check(replace(spec, chain=ChainConfig(n_samples=2_000, seed=0)))\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    src = str(Path(hypersigma.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_closed_form_comparisons_use_the_spec_tolerance(monkeypatch):
    """A 1e-13 gap between the closed forms of two wired levels passes at
    tolerance 1e-12 and fails at 1e-14, in consistency's closed_form row and in
    the closed-form verdict of the two-level martingale checks (whose z-scored
    rows are waived)."""
    exact = verify.laplace_closed_form

    def gapped(g, *args, **kwargs):
        return exact(g, *args, **kwargs) * (1.0 + 1e-13 * g.n_inner)

    monkeypatch.setattr(verify, "laplace_closed_form", gapped)
    cc = ChainConfig(n_samples=200, seed=0)
    for tol, z, verdict in ((1e-12, 0.0, "pass"), (1e-14, float("inf"), "fail")):
        rep = run_check(CheckSpec("consistency", chain=cc, tolerance=tol))
        assert rep.coefficients[0]["subset"] == ["closed_form"]
        assert rep.coefficients[0]["z"] == z
        for cid in ("martingale-super", "martingale-generating", "martingale-derivatives"):
            rep = run_check(CheckSpec(cid, chain=cc, tolerance=tol, z_threshold=1e9))
            assert 1e-14 < rep.extra["closed_form_residual"] < 1e-12, cid
            assert rep.verdict == verdict, cid


@pytest.mark.parametrize("cid", ["martingale-derivatives", "martingale-special-cases"])
def test_derivative_checks_draw_each_level_once(monkeypatch, cid):
    """Every multiset of a level is a column of one importance-sampled
    estimate, at seeds seed and seed + 1."""
    calls = []
    estimate = verify.expect_importance

    def counting(g, observable, cc, counts=None):
        calls.append((g.n_inner, cc.seed, len(counts)))
        return estimate(g, observable, cc, counts)

    monkeypatch.setattr(verify, "expect_importance", counting)
    rep = run_check(replace(default_specs(seed=3)[cid], chain=ChainConfig(n_samples=2_000, seed=3)))
    assert calls == [(3, 3, 3), (4, 4, 3)]
    labels = ["+".join(j) for j in verify._DERIVATIVE_J_SETS[cid]]
    tags = ["level_2", "level_3", "cross_level"]
    assert [r["subset"] for r in rep.coefficients] == [[label, tag] for label in labels for tag in tags]


def test_radon_nikodym_draws_each_side_once(monkeypatch):
    """All bumps of a side are read from one batch of draws."""
    from hypersigma import sampler

    calls = []
    stz_u = sampler._stz_u

    def counting(g, n, rng):
        calls.append((g.n_inner, n))
        return stz_u(g, n, rng)

    monkeypatch.setattr(sampler, "_stz_u", counting)
    spec = replace(default_specs(seed=3)["radon-nikodym"], chain=ChainConfig(n_samples=2_000, seed=3))
    rep = run_check(spec)
    assert calls == [(2, 2_000), (2, 2_000)]
    assert [r["subset"] for r in rep.coefficients] == [["max_pointwise_residual"], ["bump_0"], ["bump_1"], ["bump_2"]]
