#!/usr/bin/env python3
"""hamelflow benchmark: one workload, one seed, one fresh measured process.

Run from the repository root:

    python3 perfbench/run.py --workload fine_grid --seed 1 --seconds 30 --trace 0

Workloads: fine_grid, many_modes, admissible_mix (see perfbench/README.md).
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
same inputs untraced and then traced, and prints the per-layer metrics.
Human-readable lines come first; the last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fine_grid", "many_modes", "admissible_mix")
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    """The measured process: the default serial path, BLAS on one thread,
    and glibc's allocator keeping freed memory in the process."""
    env = dict(os.environ)
    env.pop("HAMELFLOW_THREADS", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # By default glibc trims the heap after each solve's temporaries are
    # freed, so a P = 256 solve faults in about 600 MB of fresh pages.  In a
    # VM the cost of those faults follows the host's memory pressure and
    # moved solve times by half within an hour; allocations under 32 MiB
    # from a heap that is never trimmed take it out of the measurement.
    env.update(MALLOC_MMAP_THRESHOLD_=str(32 << 20), MALLOC_TRIM_THRESHOLD_=str(1 << 32),
               MALLOC_TOP_PAD_=str(256 << 20))
    return env


def run_worker(args, extra, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", args.refs, "--scratch", os.path.join(OUT_DIR, "tmp")] + extra
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    # The ceiling keeps git from reporting a repository that merely encloses
    # a plain checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True, timeout=10, env=env).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def report_e2e(args, res, setup) -> dict:
    e, env = res["e2e"], res["env"]
    print(f"perfbench {args.workload} seed={args.seed}: python {env['python']}, "
          f"numpy {env['numpy']}, BLAS {env['blas']} (threads {env['blas_threads']}), "
          f"nproc {env['nproc']}, HAMELFLOW_THREADS {env['hamelflow_threads']}, "
          f"{env['malloc']}, "
          f"commit {git_commit()}")
    n = e["inputs"]
    tail_note = (f"p{e['tail_pct']:.1f} of {n} inputs"
                 + ("" if n > 10 else ", ten or fewer inputs so the maximum")
                 + ("" if e["tail_met"] else "; UNMET: lands on a failed input,"
                    " reported as one whole pass"))
    p50_note = "" if e["p50_met"] else "  (UNMET: lands on a failed input)"
    print(f"  {e['attempted']} attempts, {e['passes']} pass(es) over {n} inputs, in "
          f"{e['window_s']:.3f} s; each input timed by its fastest attempt")
    metrics = {
        "solve_s_p50": (e["solve_s_p50"], "s", p50_note),
        "solve_s_tail": (e["solve_s_tail"], "s", f"  ({tail_note})"),
        "solves_per_s": (e["solves_per_s"], "1/s", f"  (checked inputs over one pass"
                                                    f" of {e['pass_s']:.3f} s)"),
        "ok_frac": (1.0 - e["failed_frac"], "frac", "  (1 - failed_frac)"),
        "setup_s": (statistics.median(setup), "s",
                    f"  (median of {len(setup)} fresh processes)"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", ""),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<14s} {value:12.6g} {unit:<5s}{note}")
    print(f"  {'failed_frac':<14s} {e['failed_frac']:12.6g} frac   "
          f"({e['failed']} of {e['attempted']} failed: {', '.join(e['failure_types']) or 'none'};"
          f" {e['wrong']} wrong answers)")
    return {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}


def report_layers(args, res) -> dict:
    print(f"perfbench {args.workload} seed={args.seed} traced: "
          f"{res['e2e']['attempted']} attempts; tracer faithful: {res['faithful']}")
    metrics = {}
    for name, unit, value in res["layers"]:
        print(f"  {name:<38s} {value:12.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", help="reference pool (default: perfbench/refs/<workload>.json)")
    args = ap.parse_args()
    args.refs = args.refs or os.path.join(HERE, "refs", f"{args.workload}.json")

    if not os.path.isfile(os.path.join("src", "hamelflow", "__init__.py")):
        print("error: no src/hamelflow here; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    try:
        if args.trace:
            res = run_worker(args, [], deadline)
            metrics = report_layers(args, res)
            correct = res["faithful"] and res["e2e"]["wrong"] == 0
        else:
            setup = [run_worker(args, ["--setup-probe"], deadline)["setup_s"]
                     for _ in range(SETUP_PROBES)]
            res = run_worker(args, [], deadline)
            metrics = report_e2e(args, res, setup)
            correct = res["e2e"]["wrong"] == 0
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": res["e2e"]["attempted"],
                      "failed": res["e2e"]["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
