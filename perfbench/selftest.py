#!/usr/bin/env python3
"""Self-test of the benchmark at toy size (P = 16, N = 1, six inputs).

For every workload it records a toy reference pool, then checks that:
- a run prints every end-to-end metric with its unit;
- a deliberately corrupted reference is counted as failed and wrong;
- two traced runs of one seed give identical call counts, and the tracer
  leaves every attempt's outcome as the untraced run had it.

Run from the repository root (takes about a minute):

    PYTHONPATH=src python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import make_refs  # noqa: E402
import workloads as wl  # noqa: E402

OUT = os.path.join(".perfbench_out", "selftest")
E2E = {"solve_s_p50": "s", "solve_s_tail": "s", "solves_per_s": "1/s",
       "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}
EXACT_LAYERS = ("calls", "errors", "picard_iters", "mode_solves_per_T", "artifact_bytes")


def run(workload, refs, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--refs", refs]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def toy_refs(workload) -> str:
    pool = wl.draw_pool(workload, 6, 7)
    for config in pool:
        config["panels"] = 16
        if "mode_cutoff" in config:
            config["mode_cutoff"] = 1
    entries = make_refs.record(workload, pool, OUT)
    path = os.path.join(OUT, f"{workload}.json")
    with open(path, "w") as fh:
        json.dump({"blocks": [list(range(len(entries)))], "entries": entries}, fh)
    return path


def corrupted(path) -> str:
    """A copy of the pool with one converged reference X-norm off by 1e-3."""
    with open(path) as fh:
        bad = json.load(fh)
    target = next(e for e in bad["entries"] if e["ref"]["status"] == "ok")
    target["ref"]["x_norm"] *= 1.001
    out = path.replace(".json", "-corrupt.json")
    with open(out, "w") as fh:
        json.dump(bad, fh)
    return out


def main():
    os.makedirs(OUT, exist_ok=True)
    problems = []
    for workload in wl.WORKLOADS:
        refs = toy_refs(workload)
        good = run(workload, refs, 0)
        got = {k: v["unit"] for k, v in good["metrics"].items()}
        if got != E2E or not good["correct"]:
            problems.append(f"{workload}: metrics {got}, correct {good['correct']}")

        bad = run(workload, corrupted(refs), 0)
        ok = (good["metrics"]["ok_frac"]["value"], bad["metrics"]["ok_frac"]["value"])
        if bad["correct"] or ok[1] >= ok[0]:
            problems.append(f"{workload}: corrupted reference not counted "
                            f"(ok_frac {ok[0]:.3f} -> {ok[1]:.3f})")

        first, second = run(workload, refs, 1), run(workload, refs, 1)
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if k.rsplit(".", 1)[-1] in EXACT_LAYERS} for r in (first, second)]
        if counts[0] != counts[1] or not (first["correct"] and second["correct"]):
            problems.append(f"{workload}: traced runs differ or tracer not faithful")
        print(f"selftest {workload}: ok_frac {ok[0]:.3f}, with a corrupted reference "
              f"{ok[1]:.3f}, traced counts equal {counts[0] == counts[1]}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
