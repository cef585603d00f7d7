"""Benchmark driver: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload checks-real --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  Every interpreter it starts gets
OPENBLAS/OMP/MKL threads pinned to 1, a fixed PYTHONHASHSEED and
PYTHONPATH=src (the package is used from source, not installed).

With --trace 0 it times set-up as the median of SETUP_PROBES fresh
interpreters that import the package and build the workload's inputs, then
runs the workload untraced in one more fresh interpreter (worker.py) and
prints every end-to-end metric of BENCHMARK.json.  With --trace 1 the worker
also runs a traced round and the driver prints every per-layer metric.  The
last line of standard output is the result object; anything wrong with the
checkout (no package sources, a worker that fails) exits non-zero without it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 9
DEADLINE_S = 170.0

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, env, timeout, capture=False):
    """Run worker.py with `args`; waits for it, and kills it on timeout."""
    return subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        text=True,
        timeout=timeout,
        check=False,
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "hypersigma" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_times = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            probe = run_child([*common, "--setup-only"], env, DEADLINE_S)
            setup_times.append(time.perf_counter() - t0)
            if probe.returncode != 0:
                print("error: set-up failed", file=sys.stderr)
                return 1

    remaining = DEADLINE_S - (time.perf_counter() - start)
    try:
        work = run_child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, remaining, True)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    if work.returncode != 0 or not work.stdout.strip():
        print(f"error: worker exited with code {work.returncode}", file=sys.stderr)
        return 1
    res = json.loads(work.stdout.strip().splitlines()[-1])
    print("env", json.dumps({**res["env"], "pinned": PINNED_ENV, "rounds": res["rounds"]}))

    if args.trace:
        values = res["per_layer"]
        wanted = bench["per_layer"]
    else:
        values = {**res["end_to_end"], "setup_s": statistics.median(setup_times)}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
