"""Command-line interface: subcommands, flags, exit codes, output formats."""

import json
import os
from pathlib import Path

import pytest

from hypersigma.cli import EXIT_CHECK_FAILED, EXIT_FIXTURE, EXIT_OK, EXIT_USAGE, SEED_ENV_VAR, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_checks(capsys):
    code, out, _ = run_cli(capsys, "list-checks")
    assert code == EXIT_OK
    ids = out.split()
    assert "laplace-real" in ids
    assert "ward" in ids


def test_laplace_value(capsys):
    code, out, _ = run_cli(capsys, "laplace", "--graph", str(FIXTURES / "single_edge.json"), "--a", "1.2", "--b", "0.3")
    assert code == EXIT_OK
    assert out.strip() == "0.68228"


def test_laplace_missing_fixture(capsys):
    code, _, err = run_cli(capsys, "laplace", "--graph", "/no/such/file.json")
    assert code == EXIT_FIXTURE
    assert "cannot load" in err


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_unknown_check(capsys):
    code, _, err = run_cli(capsys, "run", "--check", "no-such-check")
    assert code == EXIT_USAGE
    assert "unknown check" in err


def test_run_deterministic_check_json(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "run", "--check", "spinor-identity", "--out", str(out_path))
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert data["check"] == "spinor-identity"
    assert data["verdict"] == "pass"


def test_run_table_format(capsys):
    code, out, _ = run_cli(capsys, "run", "--check", "rho-equivalence", "--format", "table")
    assert code == EXIT_OK
    assert "verdict: pass" in out


def test_run_failing_check_exits_one(capsys):
    # the largest spread of 100 roundoff-level residuals is never exactly 0
    code, out, _ = run_cli(capsys, "run", "--check", "rho-equivalence", "--tol", "1e-30")
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["verdict"] == "fail"


def test_suite_filter_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "suite", "--filter", "spinor*", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "suite", "--filter", "spinor*", "--seed", "7")
    assert code1 == code2 == EXIT_OK

    def strip_runtime(text):
        data = json.loads(text)
        data["summary"].pop("runtime_s")
        for rep in data["reports"]:
            rep.pop("runtime_s")
        return data

    assert strip_runtime(out1) == strip_runtime(out2)


def test_suite_no_match_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "suite", "--filter", "zzz*")
    assert code == EXIT_USAGE
    assert "no check matches" in err


def test_sample_streams_json_lines(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample",
        "--graph",
        str(FIXTURES / "triangle.json"),
        "--samples",
        "25",
        "--burnin",
        "50",
        "--chains",
        "2",
        "--seed",
        "3",
    )
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 25
    for ln in lines:
        rec = json.loads(ln)
        assert len(rec["u"]) == 3 and len(rec["s"]) == 3
        assert rec["u"][-1] == 0.0 and rec["s"][-1] == 0.0


def test_seed_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "123")
    code, out, _ = run_cli(capsys, "run", "--check", "spinor-identity")
    assert code == EXIT_OK
    assert json.loads(out)["seed"] == 123


def test_seed_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    code, _, err = run_cli(capsys, "run", "--check", "spinor-identity")
    assert code == EXIT_USAGE
    assert SEED_ENV_VAR in err
