"""Command-line front end: load fixtures, run samplers and checks, emit
reports as JSON or plain tables."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .graphs import Graph, GraphError, GraphTower
from .sampler import ChainConfig, _s_draws, _stz_u
from .scaling import ScaleParams, laplace_closed_form
from .verify import default_specs, list_check_ids, run_check, run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_FIXTURE = 3

SEED_ENV_VAR = "HYPERSIGMA_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        print(f"error: {SEED_ENV_VAR} must be an integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hypersigma", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_sample_flags(p):
        p.add_argument("--samples", type=int, default=None, help="number of independent draws")
        p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")

    def add_output_flags(p):
        p.add_argument("--out", type=str, default=None, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("json", "table"), default="json", help="output format")

    sub.add_parser("list-checks", help="print the registered check ids")

    run_p = sub.add_parser("run", help="run a single named check")
    run_p.add_argument("--check", required=True, help="check id (see list-checks)")
    run_p.add_argument("--graph", type=str, default=None, help="graph fixture JSON path")
    run_p.add_argument("--tower", type=str, default=None, help="tower fixture JSON path")
    run_p.add_argument("--tol", type=float, default=None, help="deterministic tolerance override")
    run_p.add_argument("--z-threshold", type=float, default=None, help="statistical z threshold override")
    add_sample_flags(run_p)
    add_output_flags(run_p)

    suite_p = sub.add_parser("suite", help="run every check matching a glob pattern")
    suite_p.add_argument("--filter", default="*", help="glob pattern over check ids")
    suite_p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")
    add_output_flags(suite_p)

    sample_p = sub.add_parser("sample", help="stream (u, s) draws as JSON lines")
    sample_p.add_argument("--graph", required=True, help="graph fixture JSON path")
    add_sample_flags(sample_p)
    sample_p.add_argument("--out", type=str, default=None, help="write JSON lines to this path")

    lap_p = sub.add_parser("laplace", help="print the closed-form Laplace transform value")
    lap_p.add_argument("--graph", required=True, help="graph fixture JSON path")
    lap_p.add_argument("--a", type=float, default=1.0, help="uniform a on inner vertices")
    lap_p.add_argument("--b", type=float, default=0.0, help="uniform b on inner vertices")

    return parser


def _load_graph(path: str) -> Graph:
    try:
        return Graph.load(path)
    except (OSError, GraphError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load graph fixture {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_FIXTURE)


def _load_tower(path: str) -> GraphTower:
    try:
        return GraphTower.load(path)
    except (OSError, GraphError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load tower fixture {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_FIXTURE)


def _chain_from_args(args, base: ChainConfig) -> ChainConfig:
    updates = {"n_samples": args.samples, "seed": args.seed}
    return replace(base, **{attr: value for attr, value in updates.items() if value is not None})


def _emit(text: str, out_path):
    if out_path is None:
        print(text)
    else:
        with open(out_path, "w") as f:
            f.write(text + "\n")


def _report_table(rep) -> str:
    lines = [f"check: {rep.check}  verdict: {rep.verdict}  seed: {rep.seed}  runtime: {rep.runtime_s:.2f}s"]
    for c in rep.coefficients:
        subset = "/".join(str(x) for x in c["subset"])
        lines.append(
            f"  {subset:32s} estimate {c['estimate']!s:>28} stderr {c['stderr']:.3e}"
            f" reference {c['reference']!s:>28} z {c['z']:.2f}"
        )
    return "\n".join(lines)


def _reports_payload(reports, summary=None) -> dict:
    payload = {"reports": [r.to_json() for r in reports]}
    if summary is not None:
        payload["summary"] = summary
    return payload


def _json_safe(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _cmd_list_checks(args) -> int:
    for cid in list_check_ids():
        print(cid)
    return EXIT_OK


def _cmd_run(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    specs = default_specs(seed)
    if args.check not in specs:
        print(f"error: unknown check {args.check!r}; see list-checks", file=sys.stderr)
        return EXIT_USAGE
    spec = specs[args.check]
    overrides = {"chain": _chain_from_args(args, replace(spec.chain, seed=seed))}
    if args.graph is not None:
        overrides["graph"] = _load_graph(args.graph)
    if args.tower is not None:
        overrides["tower"] = _load_tower(args.tower)
    if args.tol is not None:
        overrides["tolerance"] = args.tol
    if args.z_threshold is not None:
        overrides["z_threshold"] = args.z_threshold
    spec = replace(spec, **overrides)
    rep = run_check(spec)
    if args.format == "json":
        _emit(json.dumps(rep.to_json(), default=_json_safe, indent=2), args.out)
    else:
        _emit(_report_table(rep), args.out)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _cmd_suite(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    reports, summary = run_suite(pattern=args.filter, seed=seed)
    if not reports:
        print(f"error: no check matches pattern {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        _emit(json.dumps(_reports_payload(reports, summary), default=_json_safe, indent=2), args.out)
    else:
        lines = [_report_table(r) for r in reports]
        lines.append(
            f"total {summary['total']}  passed {summary['passed']}  failed {summary['failed']}"
            f"  verdict {summary['verdict']}"
        )
        _emit("\n".join(lines), args.out)
    return EXIT_OK if summary["verdict"] == "pass" else EXIT_CHECK_FAILED


def _cmd_sample(args) -> int:
    g = _load_graph(args.graph)
    seed = args.seed if args.seed is not None else _default_seed()
    cc = _chain_from_args(args, ChainConfig(seed=seed))
    draw_s = _s_draws(g, cc.seed)
    sink = open(args.out, "w") if args.out is not None else sys.stdout
    try:
        for us, ldl, _ in _stz_u(g, cc.n_samples, cc.seed):
            for u, s in zip(us, draw_s(us, ldl)):
                sink.write(json.dumps({"u": u.tolist(), "s": s.tolist()}) + "\n")
    finally:
        if args.out is not None:
            sink.close()
    return EXIT_OK


def _cmd_laplace(args) -> int:
    g = _load_graph(args.graph)
    a = np.ones(g.n_total)
    b = np.zeros(g.n_total)
    a[:-1] = args.a
    b[:-1] = args.b
    try:
        value = laplace_closed_form(g, ScaleParams(a, b))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{value:.5f}")
    return EXIT_OK


_COMMANDS = {
    "list-checks": _cmd_list_checks,
    "run": _cmd_run,
    "suite": _cmd_suite,
    "sample": _cmd_sample,
    "laplace": _cmd_laplace,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.subcommand](args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
