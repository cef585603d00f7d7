"""Seed sweep behind the benchmark's z bounds (CHECK_Z, CHAIN_Z).

Runs one round of a workload per seed in this process and prints, per seed,
the largest z of each operation as a JSON line, then the largest z over all
seeds and the number of z values above each bound.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src \\
        python3 perfbench/sweep.py --workload chain-scale --first 0 --last 39
"""

from __future__ import annotations

import argparse
import json

from worker import setup
from workloads import CHAIN_Z, CHECK_Z


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("checks-real", "checks-super", "chain-scale"))
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--last", type=int, default=9)
    ap.add_argument("--checks", default=None, help="comma-separated check ids to run instead (checks-* only)")
    args = ap.parse_args()
    bound = CHAIN_Z if args.workload == "chain-scale" else CHECK_Z
    z_max, over = {}, 0
    for seed in range(args.first, args.last + 1):
        hs, wl = setup(args.workload, seed)
        if args.checks:
            default = hs.verify.default_specs(seed)
            wl.specs = {cid: wl.specs.get(cid, default[cid]) for cid in args.checks.split(",")}
        out, _times = wl.run_round()
        _problems, stats = wl.judge(out)
        zs = {op: s["z"] for op, s in stats.items() if "z" in s}
        over += sum(z > bound for z in zs.values())
        for op, z in zs.items():
            z_max[op] = max(z_max.get(op, 0.0), z)
        print(json.dumps({"seed": seed, "z": zs}), flush=True)
    print(json.dumps({"z_max": z_max, "bound": bound, "above_bound": over}))


if __name__ == "__main__":
    main()
