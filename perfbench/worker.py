"""Run one workload in this interpreter and print its result as one JSON line.

Started by run.py in a fresh process per workload, with BLAS/OpenMP threads
pinned to 1.  With --setup-only it imports the package and builds the
workload's inputs, then exits: run.py times that as set-up.  Otherwise it runs
whole rounds of the workload, untraced, and starts another round only while
it should end within --seconds (at least one round).  Each operation is timed
on its own; `wall_s` is the sum over operations of each one's median over
rounds.  With --trace 1 it runs one untraced round and then one traced round,
checks that both gave identical outputs, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def setup(workload: str, seed: int):
    import hypersigma
    import hypersigma.cli  # noqa: F401  -- the command-line front end's import cost counts as set-up

    if Path(hypersigma.__file__).resolve().parent != ROOT / "src" / "hypersigma":
        raise ImportError(f"hypersigma imported from {hypersigma.__file__}, not from this checkout")
    from workloads import Workload

    return hypersigma, Workload(hypersigma, workload, seed)


def env_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def same_outputs(wl, first, second) -> bool:
    """Outputs of two rounds agree exactly, apart from their run times."""
    import numpy as np

    if first.keys() != second.keys():
        return False
    for key in first:
        if wl.name == "chain-scale":
            if not np.array_equal(first[key], second[key]):
                return False
        elif without_runtime(first[key]) != without_runtime(second[key]):
            return False
    return True


def without_runtime(report) -> str:
    data = report.to_json()
    data.pop("runtime_s")
    return json.dumps(data, sort_keys=True)


def per_layer_values(names, wl, tracer, traced_times, stats, overhead) -> dict:
    from workloads import CHAIN_BURN_IN, CHAIN_CASES

    steps = {case: steps for case, _shape, _chains, steps in CHAIN_CASES}
    out = {}
    for name in names:
        head, _, case = name.rpartition(".")
        if name == "trace.overhead_s":
            out[name] = overhead
        elif head in ("sampler.step_us", "sampler.acceptance", "sampler.ess_per_draw"):
            if wl.name != "chain-scale":
                out[name] = 0.0
            elif head == "sampler.step_us":
                out[name] = traced_times[case] / (CHAIN_BURN_IN + steps[case]) * 1e6
            else:
                out[name] = stats[case][head.rpartition(".")[2]]
        else:
            out[name] = tracer.value(name)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    hs, wl = setup(args.workload, args.seed)
    if args.setup_only:
        return 0

    from tracer import Tracer

    problems, rounds, failed = [], 0, 0
    walls = defaultdict(list)  # wall seconds per operation, one per round
    first = first_wall = None  # the untraced round's outputs and wall time, for the traced round

    def judge(out):
        found, stats = wl.judge(out)
        problems.extend(f"{op}: {p}" for op, ps in found.items() for p in ps)
        return stats

    deadline = time.perf_counter() + args.seconds
    while True:
        r0 = time.perf_counter()
        rounds += 1
        try:
            out, times = wl.run_round()
        except Exception:
            traceback.print_exc()
            failed += wl.operations
        else:
            for op, t in times.items():
                walls[op].append(t)
            judge(out)
            if args.trace:
                first, first_wall = out, sum(times.values())
            del out  # so peak RSS holds one round's outputs, however many rounds run
        round_s = time.perf_counter() - r0
        # start another round only if it should end within --seconds
        if args.trace or time.perf_counter() + round_s > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    identical = True
    per_layer = {}
    if args.trace:
        tracer = Tracer()
        tracer.install(hs)
        try:
            traced, traced_times = wl.run_round()
        finally:
            tracer.restore()
        rounds += 1
        stats = judge(traced)
        (HERE / "out").mkdir(exist_ok=True)
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
        identical = first is not None and same_outputs(wl, first, traced)
        if not identical:
            print("traced round gave other outputs than the untraced round", file=sys.stderr)
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        overhead = sum(traced_times.values()) - first_wall if first_wall is not None else 0.0
        per_layer = per_layer_values(names, wl, tracer, traced_times, stats, overhead)
    for p in problems:
        print("problem:", p, file=sys.stderr)

    # the sum over operations of each one's median over rounds, so a slow
    # spell of the machine in one operation of one round does not count
    wall_s = sum(statistics.median(v) for v in walls.values())
    result = {
        "attempted": wl.operations * rounds,
        "failed": failed,
        "correct": not problems and identical,
        "env": env_info(),
        "rounds": rounds,
        "end_to_end": {
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "samples_per_s": wl.sample_budget / wall_s if wall_s else 0.0,
        },
        "per_layer": per_layer,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
