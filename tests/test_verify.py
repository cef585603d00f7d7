"""Check registry: spec validation, report schema, dispatch, and suite runs."""

import json

import pytest

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


def test_run_suite_parallel_matches_serial():
    ids = "A-scale-invariance"
    r1, _ = run_suite(pattern=ids, parallelism=1, seed=3)
    r2, _ = run_suite(pattern=ids, parallelism=2, seed=3)
    assert [dict(c) for c in r1[0].coefficients] == [dict(c) for c in r2[0].coefficients]


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
        chain=ChainConfig(n_samples=20_000, burn_in=1_000, n_chains=4, seed=4),
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
    assert {(), ("c_1", "tau_1"), ("cb_1", "tau_1")} <= subsets
