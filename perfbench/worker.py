"""One measured process of one workload; started by run.py.

Runs the workload as a closed loop with one caller: the next attempt
starts when the previous one returns.  A run makes whole passes over its
block of inputs, as many as fit in --seconds at the reference solve
times, so every run of one seed makes the same attempts.  Each input's
solve time is the fastest of its attempts in the run: other tenants of a
shared host only ever add time, and repeats spread over the run filter
that out.  Prints one JSON line.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

WARMUP = {"fine_grid": 1, "many_modes": 1, "admissible_mix": 3}
# A block this small gets at least two passes, so every input is repeated;
# a larger block's median already spans the whole run.
SMALL_BLOCK = 10
TRACE_DIR = ".perfbench_out"


def timed_attempt(solver, entry, tracer=None, index=None) -> dict:
    if tracer is not None:
        tracer.attempt = index
    t0 = time.perf_counter()
    result = {}
    try:
        result = solver.attempt(entry["config"])
        reason = wl.check(result, entry["ref"])
    except Exception as exc:  # an uncaught solver exception is a failed attempt
        reason = type(exc).__name__
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.attempt = None
    # Wrong: a completed solve failed its check, or a configuration that
    # converged at the reference commit failed now.
    wrong = reason is not None and (result.get("exit") == 0
                                    or entry["ref"]["status"] == "ok")
    outcome = {"s": elapsed, "failed": reason, "wrong": wrong,
               "x_norm": result.get("x_norm"), "bytes": wl.artifact_bytes(result)}
    wl.cleanup(result)
    return outcome


def planned_passes(refs, design, seconds) -> int:
    """Whole passes over the design that fit in `seconds` at the pool's mean
    reference solve time: fixed for a workload and a run length, however
    fast the host runs, so every run gives each input as many repeats."""
    mean_s = statistics.mean(e["ref"]["time_s"] for e in refs["entries"])
    return max(2 if len(design) < SMALL_BLOCK else 1,
               round(seconds / (mean_s * len(design))))


def run_passes(solver, design, passes, tracer=None) -> list:
    """`passes` whole passes over the design.  Each pass after the first
    visits the inputs in a new fixed order, so no input keeps the same
    place relative to a periodic disturbance."""
    outcomes = []
    for done in range(passes):
        order = list(range(len(design)))
        if done:
            random.Random(done).shuffle(order)
        for i in order:
            outcome = timed_attempt(solver, design[i], tracer, len(outcomes))
            outcome["input"] = i
            outcomes.append(outcome)
    return outcomes


def nearest_rank(values, p):
    """p-th percentile by nearest rank (1-based rank ceil(p n / 100))."""
    k = max(1, -(-len(values) * p // 100))
    return values[int(k) - 1]


def end_to_end(outcomes) -> dict:
    """Timing statistics over the inputs of the block, each input timed by
    its fastest attempt.  An input fails if any of its attempts failed;
    failed inputs rank slower than every completed one: they take the value
    of one whole pass, the sum of every input's time."""
    by_input = {}
    for o in outcomes:
        by_input.setdefault(o["input"], []).append(o)
    best = [min(o["s"] for o in runs) for runs in by_input.values()]
    ok = sorted(b for b, runs in zip(best, by_input.values())
                if not any(o["failed"] for o in runs))
    pass_s = sum(best)
    n = len(best)
    failed_inputs = n - len(ok)
    ranked = ok + [pass_s] * failed_inputs
    tail_rank = n - 10 if n > 10 else n     # leaves ten inputs beyond it
    failed = sum(o["failed"] is not None for o in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "inputs": n,
        "passes": len(outcomes) // n,
        "window_s": sum(o["s"] for o in outcomes),
        "pass_s": pass_s,
        "solve_s_p50": nearest_rank(ranked, 50),
        "p50_met": (n + 1) // 2 <= len(ok),
        "solve_s_tail": ranked[tail_rank - 1],
        "tail_pct": 100.0 * tail_rank / n,
        "tail_met": tail_rank <= len(ok),
        "solves_per_s": len(ok) / pass_s,
        "failed_frac": failed / len(outcomes),
        "wrong": sum(o["wrong"] for o in outcomes),
        "failure_types": sorted({o["failed"] for o in outcomes if o["failed"]}),
    }


def environment() -> dict:
    import platform
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": len(os.sched_getaffinity(0)),
        "hamelflow_threads": os.environ.get("HAMELFLOW_THREADS", "unset"),
        "malloc": " ".join(f"{k}={v}" for k, v in sorted(os.environ.items())
                           if k.startswith("MALLOC_")) or "glibc defaults",
    }


def measure(args, refs, design, scratch):
    t0 = time.perf_counter()
    solver = wl.Solver(args.workload, scratch)
    solver.prepare(design[0]["config"])
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return

    for entry in design[:WARMUP[args.workload]]:
        timed_attempt(solver, entry)

    if not args.trace:
        outcomes = run_passes(solver, design, planned_passes(refs, design, args.seconds))
        out = {"e2e": end_to_end(outcomes), "env": environment(),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        print(json.dumps(out))
        return

    # Traced run: untraced passes for half the time, then as many traced.
    passes = planned_passes(refs, design, args.seconds / 2)
    plain = run_passes(solver, design, passes)
    tracer = tr.Tracer()
    tracer.install()
    try:
        solver.prepare(design[0]["config"])
        traced = run_passes(solver, design, passes, tracer=tracer)
    finally:
        tracer.uninstall()
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(TRACE_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))

    same = all(a["failed"] == b["failed"] and a["x_norm"] == b["x_norm"]
               for a, b in zip(plain, traced))
    e_plain, e_traced = end_to_end(plain), end_to_end(traced)
    layers = tr.layer_metrics(tracer.spans, len(traced),
                              e_traced["window_s"] / len(traced))
    layers[("cli.artifact_bytes", "B")] = sum(o["bytes"] for o in traced) / len(traced)
    layers[("trace.overhead_frac", "frac")] = (
        e_traced["solve_s_p50"] / e_plain["solve_s_p50"] - 1.0)
    print(json.dumps({"e2e": e_traced, "faithful": same,
                      "layers": [[k[0], k[1], v] for k, v in layers.items()]}))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the import and the first grid and forcing")
    args = ap.parse_args()

    refs = wl.load_refs(args.refs)
    design = wl.run_design(refs, args.seed)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch)
    try:
        measure(args, refs, design, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
