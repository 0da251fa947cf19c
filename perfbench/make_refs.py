#!/usr/bin/env python3
"""Record the reference pool of one workload.

Draws the pool from a fixed master seed, solves every configuration once,
and writes `refs/<workload>.json` with each configuration's outcome,
X-norm, iteration count and solve time, dealt into blocks.  Run from the
repository root; it overwrites the recorded references, so run it only
when the benchmark's inputs are meant to change:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_refs.py --workload fine_grid
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads as wl  # noqa: E402
from run import git_commit  # noqa: E402

# (pool size, blocks, master seed) per workload; a block is one pass of a run.
POOLS = {
    "fine_grid": (80, 40, 101),
    "many_modes": (48, 12, 202),
    "admissible_mix": (384, 8, 303),
}


def record(workload: str, pool: list, scratch: str) -> list:
    solver = wl.Solver(workload, scratch)
    solver.prepare(pool[0])
    entries = []
    for i, config in enumerate(pool):
        t0 = time.perf_counter()
        try:
            result = solver.attempt(config)
            reason = wl.check(result, {})
        except Exception as exc:  # recorded as this configuration's reference outcome
            result, reason = {}, type(exc).__name__
        elapsed = time.perf_counter() - t0
        wl.cleanup(result)
        ref = {"status": "ok" if reason is None else reason, "time_s": round(elapsed, 4)}
        if reason is None:
            ref.update(x_norm=result["x_norm"], iterations=result["iterations"],
                       weak_residual=result["weak_residual"])
        entries.append({"config": config, "ref": ref})
        print(f"{workload} {i:4d} {ref['status']:>24s} {elapsed:7.3f}s", flush=True)
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    args = ap.parse_args()

    size, blocks, master_seed = POOLS[args.workload]
    pool = wl.draw_pool(args.workload, size, master_seed)
    with tempfile.TemporaryDirectory(prefix="perfbench-refs-", dir=".") as scratch:
        entries = record(args.workload, pool, scratch)
    failed = sum(e["ref"]["status"] != "ok" for e in entries)
    doc = {"workload": args.workload, "master_seed": master_seed,
           "commit": git_commit(), "failed": failed,
           "blocks": wl.deal_blocks(entries, blocks), "entries": entries}
    out = os.path.join(wl.REFS_DIR, f"{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}: {len(entries)} entries, {failed} failed at the reference")


if __name__ == "__main__":
    main()
