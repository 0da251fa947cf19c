#!/usr/bin/env python3
"""Kernel and solve-map timings, merged into a BENCH_<n>.json file.

Times the scaled cumulative kernels `RadialGrid.cum_left`, `cum_right`
and `node_moment` at P = 64, 128, 256, 512 panels (Gauss-8, r_max = 1e3);
one horizontal (`solve_mode`) and one vertical (`solve_vertical_mode`)
mode solve at n = 0, 1, 32, forced in divergence form by fixed power
laws; one application of the Picard map `apply_T` at mode cutoffs
N = 2, 8, 16, 24 with every mode forced; and the spectral product
`tensor_convolution(w, w)` at N = 8, 24, 32, where w is the first
Picard iterate of that forcing; and, at N = 24 on that iterate, the norms
`x_norm(w)` and `field_diff_norm(T(w), w)` and the weak residual
`weak_ns_residual` against the CLI's test suite; and a whole run,
`cli.run` beside its `picard_iterate`, on one `many_modes`-type config
(N = 24, `random` with every mode forced, seed 12345, eps = 0.05), whose
difference is the run's time outside the solve: summary, norms, decay
fit, weak residual and artifacts.  The solves, `apply_T`, the product,
the norms, the residual and the run use the default grid (64 panels,
Gauss-8, r_max = 1e3).  Each row records the median and the
minimum of k calls timed with `time.perf_counter` after one untimed
warm-up call; the minimum is the steadier figure for sub-millisecond
rows.  BLAS threads should be pinned to 1.

The results are stored under `--label`, beside the numpy version, the
core count and the commit of the hamelflow tree that was imported, so
one file can hold a before and an after run made on one machine:

    PYTHONPATH=<old tree>/src python scripts/bench.py --label parent --out BENCH_<n>.json
    PYTHONPATH=src python scripts/bench.py --label change --out BENCH_<n>.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

import hamelflow
from hamelflow import cli
from hamelflow.background import HamelParameters
from hamelflow.forcing import build_family
from hamelflow.grid import RadialGrid
from hamelflow.horizontal import solve_mode
from hamelflow.nonlinear import (VelocityField, apply_T, field_diff_norm,
                                 picard_iterate, tensor_convolution, x_norm)
from hamelflow.profiles import ModeProfile, PowerSum
from hamelflow.verification import make_test_suite, weak_ns_residual
from hamelflow.vertical import solve_vertical_mode

KERNEL_PANELS = (64, 128, 256, 512)
SOLVE_MODES = (0, 1, 32)
APPLY_T_CUTOFFS = (2, 8, 16, 24)
CONVOLUTION_CUTOFFS = (8, 24, 32)
KERNEL_EXPONENT = 3.0 + 1.0j
K_KERNEL = 7    # timed calls per kernel figure
K_SOLVE = 7     # timed calls per mode-solve figure
K_APPLY_T = 5   # timed calls per apply_T figure
K_CONV = 7      # timed calls per tensor_convolution figure
NORM_CUTOFF = 24
K_NORM = 21     # timed calls per norm and weak-residual figure
RUN_CONFIG = dict(panels=64, mode_cutoff=24, family="random", seed=12345, epsilon=0.05,
                  family_options={"n_modes": 24})
K_RUN = 7       # timed calls per whole-run figure


def timings(fn, k):
    """{"median_s", "min_s"} of k timed calls after one warm-up call."""
    fn()
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"median_s": statistics.median(times), "min_s": min(times)}


def source_commit():
    src = Path(hamelflow.__file__).resolve().parent
    try:
        out = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def kernel_rows(k):
    rows = []
    for panels in KERNEL_PANELS:
        grid = RadialGrid.build(panels, 8, 1.0e3)
        h = grid.r_nodes ** -2.5 + 0j
        calls = {
            "cum_left": lambda: grid.cum_left(KERNEL_EXPONENT, h),
            "cum_right": lambda: grid.cum_right(KERNEL_EXPONENT, h),
            "node_moment": lambda: grid.node_moment(KERNEL_EXPONENT, h),
        }
        for name, fn in calls.items():
            rows.append({"kernel": name, "panels": panels, "nodes": grid.n_nodes,
                         **timings(fn, k)})
    return rows


def solve_rows(k):
    grid = RadialGrid.build()
    params = HamelParameters(1.0, 4.0, 2.5)
    rows = []
    zero = ModeProfile.zeros(grid)
    f_a = ModeProfile.from_powersum(PowerSum.of((1.0, -3.0)), grid)
    f_b = ModeProfile.from_powersum(PowerSum.of((0.5, -3.2)), grid)
    for n in SOLVE_MODES:
        calls = {
            "solve_mode": lambda: solve_mode(n, params, grid, divergence=(zero, f_a, f_b, zero)),
            "solve_vertical_mode": lambda: solve_vertical_mode(n, params, grid,
                                                               divergence=(f_a, f_b)),
        }
        for name, fn in calls.items():
            rows.append({"kernel": name, "mode": n, "panels": grid.panels,
                         **timings(fn, k)})
    return rows


def first_iterate(grid, params, cutoff):
    """Every-mode power forcing at the cutoff and its first Picard iterate."""
    forcing = build_family("power", grid, params, 1.0e-3,
                           coefficients={n: 1.0 for n in range(cutoff + 1)},
                           cutoff=cutoff)
    return forcing, apply_T(VelocityField.zero(grid, cutoff), forcing, params, grid)


def apply_T_rows(k):
    grid = RadialGrid.build(64, 8, 1.0e3)
    params = HamelParameters(1.0, 4.0, 2.5)
    rows = []
    for cutoff in APPLY_T_CUTOFFS:
        forcing, w = first_iterate(grid, params, cutoff)
        rows.append({"kernel": "apply_T", "cutoff": cutoff, "panels": grid.panels,
                     **timings(lambda: apply_T(w, forcing, params, grid), k)})
    return rows


def convolution_rows(k):
    grid = RadialGrid.build(64, 8, 1.0e3)
    params = HamelParameters(1.0, 4.0, 2.5)
    rows = []
    for cutoff in CONVOLUTION_CUTOFFS:
        _, w = first_iterate(grid, params, cutoff)
        rows.append({"kernel": "tensor_convolution", "cutoff": cutoff,
                     "panels": grid.panels, **timings(lambda: tensor_convolution(w, w), k)})
    return rows


def norm_rows(k):
    grid = RadialGrid.build(64, 8, 1.0e3)
    params = HamelParameters(1.0, 4.0, 2.5)
    forcing, w = first_iterate(grid, params, NORM_CUTOFF)
    w2 = apply_T(w, forcing, params, grid)
    suite = make_test_suite(grid, modes=(0, 1, 2))
    calls = {
        "x_norm": lambda: x_norm(w, params.rho),
        "field_diff_norm": lambda: field_diff_norm(w2, w, params.rho),
        "weak_ns_residual": lambda: weak_ns_residual(w, forcing, params, suite),
    }
    return [{"kernel": name, "cutoff": NORM_CUTOFF, "panels": grid.panels, **timings(fn, k)}
            for name, fn in calls.items()]


def run_rows(k):
    """`cli.run`, its `picard_iterate` alone, and their difference."""
    with tempfile.TemporaryDirectory() as out_dir:
        cfg = cli.RunConfig(**RUN_CONFIG, output_dir=out_dir)
        params = cfg.validate()
        grid = RadialGrid.build(cfg.panels, cfg.gauss_order, cfg.r_max)
        forcing = build_family(cfg.family, grid, params, cfg.epsilon,
                               coefficients=cfg.coefficients, seed=cfg.seed,
                               cutoff=cfg.mode_cutoff, **cfg.family_options)
        assert cli.run(cfg) == cli.EXIT_OK  # also the warm-up call of both
        calls = {"cli.run": lambda: cli.run(cfg),
                 "picard_iterate": lambda: picard_iterate(forcing, params, grid,
                                                          max_iter=cfg.max_iter, tol=cfg.tol)}
        times = {name: [] for name in calls}
        for _ in range(k):  # alternated, so that both see the same load on the machine
            for name, fn in calls.items():
                t0 = time.perf_counter()
                fn()
                times[name].append(time.perf_counter() - t0)
    whole, solve = ({"median_s": statistics.median(t), "min_s": min(t)} for t in times.values())
    outside = {key: whole[key] - solve[key] for key in whole}
    return [{"kernel": name, "cutoff": cfg.mode_cutoff, "panels": cfg.panels, **t}
            for name, t in (("cli.run", whole), ("picard_iterate", solve),
                            ("outside_solve", outside))]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="JSON file to create or merge into")
    ap.add_argument("--label", required=True, help="key of this run, e.g. parent or change")
    args = ap.parse_args()

    run = {
        "commit": source_commit(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "k": K_KERNEL,
        "k_solve": K_SOLVE,
        "k_apply": K_APPLY_T,
        "k_conv": K_CONV,
        "k_norm": K_NORM,
        "k_run": K_RUN,
        "results": (kernel_rows(K_KERNEL) + solve_rows(K_SOLVE) + apply_T_rows(K_APPLY_T)
                    + convolution_rows(K_CONV) + norm_rows(K_NORM) + run_rows(K_RUN)),
    }
    for row in run["results"]:
        where = (f"N={row['cutoff']}" if "cutoff" in row
                 else f"n={row['mode']}" if "mode" in row else f"P={row['panels']}")
        print(f"{row['kernel']:19s} {where:6s} {1e3 * row['median_s']:10.3f} ms"
              f" (min {1e3 * row['min_s']:.3f} ms)")

    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    doc["runs"][args.label] = run
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
