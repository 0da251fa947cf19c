#!/usr/bin/env python3
"""Compare the answers of two hamelflow source trees on the reference configs.

    python scripts/compare_answers.py OLD_SRC NEW_SRC [--limit K]

OLD_SRC and NEW_SRC are directories that hold a `hamelflow` package (the
`src` directory of a checkout).  Each tree solves, in its own subprocess,
the first 16 `fine_grid`, the first 12 `many_modes` and all 384
`admissible_mix` reference configs of `perfbench/refs/*.json`.  Each config
is one attempt of `perfbench/workloads.py`'s `Solver`, taken from the
checkout that holds this script (read, never written), so the configs are
built exactly as the benchmark builds them: the `fine_grid` configs through
`picard_iterate` on a mode-1-rotated power forcing, the others through
`cli.run`.  A wrapper around `picard_iterate` keeps each solved field.
`--limit K` takes at most the first K configs of each workload.

The script prints:
- the outcome counts of each tree, and every config whose outcome, error
  message or Picard count differs;
- over the configs that converge on both, the largest relative change of
  the X-norm, of the iterate norms and of the difference norms (those at
  the rounding floor, below 1e-8 of the first one, reported apart), and
  whether the tail exponents are identical;
- the largest per-mode change max_r r^{rho-1}|dv_n| / max_r r^{rho-1}|v_n|
  (sup over components and nodes), over the modes above 1e-8 of their
  config's largest mode and over those above 1e-3.

It exits 1 when an outcome, a message or a Picard count differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
# workload and the number of its reference configs compared by default
WORKLOADS = (("fine_grid", 16), ("many_modes", 12), ("admissible_mix", 384))
MODE_FLOORS = (1e-8, 1e-3)   # per-mode figures: modes above this share of the largest
ROUNDING_FLOOR = 1e-8        # difference norms below this share of d0


# ---------------------------------------------------------------------------
# worker: solve every config with the hamelflow found on sys.path


def _attempt(hf, wl, solver, config):
    """One perfbench attempt; its Picard call is wrapped to keep the field."""
    seen = {}
    picard = hf.nonlinear.picard_iterate

    def keep(forcing, params, *args, **kwargs):
        seen["rho"] = params.rho
        try:
            seen["result"] = picard(forcing, params, *args, **kwargs)
        except Exception as exc:
            seen["error"] = exc
            raise
        return seen["result"]

    # fine_grid attempts call nonlinear.picard_iterate, cli.run its own import
    hf.nonlinear.picard_iterate = hf.cli.picard_iterate = keep
    err, result = io.StringIO(), {}
    try:
        with contextlib.redirect_stderr(err):
            result = solver.attempt(config)
    except (hf.errors.BoundaryError, hf.errors.ContractionError,
            hf.errors.IterationError):  # the failures cli.run reports
        pass
    finally:
        hf.nonlinear.picard_iterate = hf.cli.picard_iterate = picard
        wl.cleanup(result)
    if "result" in seen:
        return _success(hf, *seen["result"], seen["rho"]), seen["rho"]
    if "error" in seen:
        return _failure(seen["error"]), seen["rho"]
    return {"outcome": f"exit {result['exit']}", "message": err.getvalue().strip(),
            "iterations": None}, None


def _failure(exc):
    diag = getattr(exc, "diagnostics", None)
    return {"outcome": type(exc).__name__, "message": str(exc),
            "iterations": diag.iterations if diag else None}


def _success(hf, fieldv, diag, rho):
    return {"outcome": "ok", "message": "", "iterations": diag.iterations,
            "x_norm": hf.nonlinear.x_norm(fieldv, rho),
            "iterate_norms": list(diag.iterate_norms),
            "difference_norms": list(diag.difference_norms),
            "r": fieldv.grid.r_nodes, "values": fieldv.values,
            "exponents": fieldv.exponents}


def worker(src, out_path, limit):
    sys.path.insert(0, src)
    sys.path.insert(0, str(PERFBENCH_DIR))
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    import hamelflow  # noqa: F401
    import workloads as wl
    from hamelflow import cli, errors, nonlinear

    hf = argparse.Namespace(cli=cli, errors=errors, nonlinear=nonlinear)
    if not Path(hamelflow.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"imported {hamelflow.__file__}, not the tree under {src}")
    results = []
    with tempfile.TemporaryDirectory() as scratch:
        for workload, count in WORKLOADS:
            refs = json.loads((PERFBENCH_DIR / "refs" / f"{workload}.json").read_text())
            entries = refs["entries"][:min(count, limit)]
            solver = wl.Solver(workload, scratch)
            solver.prepare(entries[0]["config"])
            for i, entry in enumerate(entries):
                result, rho = _attempt(hf, wl, solver, entry["config"])
                results.append({"id": f"{workload}[{i}]", "rho": rho, **result})
    with open(out_path, "wb") as fh:
        pickle.dump(results, fh)


# ---------------------------------------------------------------------------
# comparison


def _rel(new, old):
    return abs(new - old) / abs(old) if old != 0 else abs(new - old)


def _mode_sizes(r, values, rho):
    """max over components and nodes of r^{rho-1}|v_n|, one figure per mode."""
    return np.max(np.abs(values) * r ** (rho - 1.0), axis=(1, 2))


def compare(old, new):
    """Printable report lines and whether an outcome, message or count differs."""
    lines, differs = [], False
    for name, runs in (("old", old), ("new", new)):
        counts = {}
        for run in runs:
            counts[run["outcome"]] = counts.get(run["outcome"], 0) + 1
        lines.append(f"{name} outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))

    worst = {"x_norm": (0.0, None), "iterate_norms": (0.0, None),
             "difference_norms": (0.0, None), "rounding_floor": (0.0, None)}
    worst.update({floor: (0.0, None) for floor in MODE_FLOORS})
    below = (0.0, None)   # modes at or below the largest floor
    exponents_equal, both_ok = True, 0

    def note(key, value, where):
        if value > worst[key][0]:
            worst[key] = (value, where)

    for a, b in zip(old, new, strict=True):
        if a["id"] != b["id"]:
            raise ValueError(f"config lists differ: {a['id']} against {b['id']}")
        for key in ("outcome", "message", "iterations"):
            if a[key] != b[key]:
                differs = True
                lines.append(f"DIFF {a['id']} {key}: {a[key]!r} -> {b[key]!r}")
        if a["outcome"] != "ok" or b["outcome"] != "ok":
            continue
        both_ok += 1
        note("x_norm", _rel(b["x_norm"], a["x_norm"]), a["id"])
        for k, (x, y) in enumerate(zip(a["iterate_norms"], b["iterate_norms"])):
            note("iterate_norms", _rel(y, x), f"{a['id']} step {k}")
        d0 = a["difference_norms"][0]
        for k, (x, y) in enumerate(zip(a["difference_norms"], b["difference_norms"])):
            key = "difference_norms" if x >= ROUNDING_FLOOR * d0 else "rounding_floor"
            note(key, _rel(y, x), f"{a['id']} step {k} (d/d0 {x / d0:.1e})")
        exponents_equal &= bool(np.array_equal(a["exponents"], b["exponents"]))
        sizes = _mode_sizes(a["r"], a["values"], a["rho"])
        changes = _mode_sizes(a["r"], b["values"] - a["values"], a["rho"])
        largest = sizes.max()
        for n, (size, change) in enumerate(zip(sizes, changes)):
            if size == 0.0:
                continue
            where = f"{a['id']} mode {n} (size {size / largest:.1e} of largest)"
            for floor in MODE_FLOORS:
                if size > floor * largest:
                    note(floor, change / size, where)
            if size <= MODE_FLOORS[-1] * largest and change / size > below[0]:
                below = (change / size, where)

    def show(label, item):
        value, where = item
        return f"{label}: {value:.2e}" + (f"  at {where}" if where else "")

    lines.append(f"configs converged on both: {both_ok}")
    lines.append(show("largest relative X-norm change", worst["x_norm"]))
    lines.append(show("largest relative iterate-norm change", worst["iterate_norms"]))
    lines.append(show("largest relative difference-norm change", worst["difference_norms"]))
    lines.append(show(f"  same, difference norms below {ROUNDING_FLOOR:.0e} d0",
                      worst["rounding_floor"]))
    lines.append(f"tail exponents identical: {'yes' if exponents_equal else 'NO'}")
    for floor in MODE_FLOORS:
        lines.append(show(f"largest per-mode change, modes above {floor:.0e} of largest",
                          worst[floor]))
    lines.append(show(f"  same, modes at or below {MODE_FLOORS[-1]:.0e} of largest", below))
    lines.append("outcomes, messages and Picard counts: " + ("DIFFER" if differs else "identical"))
    return lines, differs


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--worker":
        worker(argv[1], argv[2], int(argv[3]))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--limit", type=int, default=max(n for _, n in WORKLOADS),
                    help="at most this many configs of each workload")
    args = ap.parse_args(argv)

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, f"{tag}.pkl") for tag in ("old", "new")]
        procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__), "--worker",
                                   os.path.abspath(src), out, str(args.limit)], env=env)
                 for src, out in zip((args.old_src, args.new_src), outs)]
        if any([p.wait() != 0 for p in procs]):  # a list: wait for both
            print("a worker failed", file=sys.stderr)
            return 2
        old, new = (pickle.loads(Path(out).read_bytes()) for out in outs)
    lines, differs = compare(old, new)
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
