#!/usr/bin/env python3
"""Compare the answers of two hamelflow source trees on the reference configs.

    python scripts/compare_answers.py OLD_SRC NEW_SRC [--limit K]

OLD_SRC and NEW_SRC are directories that hold a `hamelflow` package (the
`src` directory of a checkout).  Each tree solves, in its own subprocess,
the first 16 `fine_grid`, the first 12 `many_modes` and all 384
`admissible_mix` reference configs of `perfbench/refs/*.json` (read, never
written), each built the way `perfbench/workloads.py` builds it: the
`fine_grid` configs through `picard_iterate` on a mode-1-rotated power
forcing, the others through `cli.run`.  `--limit K` takes at most the
first K configs of each workload.

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
import math
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REFS_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "refs"
# workload and the number of its reference configs compared by default
WORKLOADS = (("fine_grid", 16), ("many_modes", 12), ("admissible_mix", 384))
MODE_FLOORS = (1e-8, 1e-3)   # per-mode figures: modes above this share of the largest
ROUNDING_FLOOR = 1e-8        # difference norms below this share of d0


# ---------------------------------------------------------------------------
# worker: solve every config with the hamelflow found on sys.path


def _solve_fine_grid(hf, config):
    """perfbench's fine_grid attempt: a power forcing with mode 1 rotated by phi."""
    grid = hf.grid.RadialGrid.build(config["panels"], config["gauss_order"], config["r_max"])
    params = hf.background.HamelParameters(config["alpha"], config["gamma"], config["rho"])
    coeff = {0: 1.0, 1: complex(math.cos(config["phi"]), math.sin(config["phi"]))}
    forcing = hf.forcing.build_family("power", grid, params, config["epsilon"],
                                      coefficients=coeff)
    try:
        fieldv, diag = hf.nonlinear.picard_iterate(forcing, params, grid)
    except (hf.errors.BoundaryError, hf.errors.ContractionError,
            hf.errors.IterationError) as exc:  # the failures cli.run reports
        return _failure(exc), params.rho
    return _success(hf, fieldv, diag, params.rho), params.rho


def _run_config(hf, workload, config, out_dir):
    """perfbench's RunConfig of a many_modes or admissible_mix config."""
    if workload == "many_modes":
        return hf.cli.RunConfig(
            panels=config["panels"], mode_cutoff=config["mode_cutoff"],
            family="random", epsilon=config["epsilon"], seed=config["seed"],
            family_options={"n_modes": config["mode_cutoff"]}, output_dir=out_dir)
    return hf.cli.RunConfig(
        alpha=config["alpha"], gamma=config["gamma"], rho=config["rho"],
        mode_cutoff=config["mode_cutoff"], panels=config["panels"],
        r_max=config["r_max"], family=config["family"],
        epsilon=config["epsilon"], seed=config["seed"], output_dir=out_dir)


def _solve_cli(hf, workload, config, scratch):
    """One `cli.run`; its Picard call is wrapped to keep the field."""
    seen = {}
    picard = hf.cli.picard_iterate

    def keep(*args, **kwargs):
        try:
            seen["result"] = picard(*args, **kwargs)
        except Exception as exc:
            seen["error"] = exc
            raise
        return seen["result"]

    out_dir = tempfile.mkdtemp(dir=scratch)
    cfg = _run_config(hf, workload, config, out_dir)
    hf.cli.picard_iterate = keep
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = hf.cli.run(cfg)
    finally:
        hf.cli.picard_iterate = picard
        shutil.rmtree(out_dir, ignore_errors=True)
    rho = cfg.rho
    if "result" in seen:
        return _success(hf, *seen["result"], rho), rho
    if "error" in seen:
        return _failure(seen["error"]), rho
    return {"outcome": f"exit {code}", "message": err.getvalue().strip(),
            "iterations": None}, rho


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
    import hamelflow  # noqa: F401
    from hamelflow import background, cli, errors, forcing, grid, nonlinear

    hf = argparse.Namespace(background=background, cli=cli, errors=errors,
                            forcing=forcing, grid=grid, nonlinear=nonlinear)
    if not Path(hamelflow.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"imported {hamelflow.__file__}, not the tree under {src}")
    results = []
    with tempfile.TemporaryDirectory() as scratch:
        for workload, count in WORKLOADS:
            refs = json.loads((REFS_DIR / f"{workload}.json").read_text())
            for i, entry in enumerate(refs["entries"][:min(count, limit)]):
                config = entry["config"]
                if workload == "fine_grid":
                    result, rho = _solve_fine_grid(hf, config)
                else:
                    result, rho = _solve_cli(hf, workload, config, scratch)
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
