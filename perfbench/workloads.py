"""Workload definitions: the input pools, one attempt, and its output check.

Every workload draws its inputs from a pool of configurations that
`make_refs.py` generated once from a fixed master seed and solved at the
commit that defined the benchmark, recording each configuration's
reference X-norm (or the failure it raised).  The pool is dealt into
blocks of equal size so that every block holds the same spread of
reference solve times and reference failures; a run's seed picks one
block and its order.  Dealing is a stratified draw: no configuration is
re-drawn or left out because it fails.

Solver calls go through module attributes (`nl.picard_iterate`, not a
name imported into this file), so the tracer's patches are seen here.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import tempfile

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

WORKLOADS = ("fine_grid", "many_modes", "admissible_mix")

# Relative tolerance on the X-norm against the recorded reference: above the
# ~1e-13 reordering changes and the ~1e-7 tail-model changes the roadmap
# allows, far below the percent-level change a wrong kernel makes.
XNORM_RTOL = 1e-6
# Acceptance criterion 7: weak residual of a converged solve.
WEAK_RESIDUAL_TOL = 1e-5

FINE_GRID = {"panels": 256, "gauss_order": 8, "r_max": 1e3, "alpha": 1.0,
             "gamma": 4.0, "epsilon": 1e-3}
MANY_MODES = {"panels": 64, "mode_cutoff": 24, "epsilon": 0.05}
# rho values of scripts/run_decay_study.py without its midpoint 2.5: two
# that take 4 Picard iterations and two that take 3, so that every block
# of two pairs one of each.
DECAY_RHOS = (2.2, 2.4, 2.6, 2.8)
MIX_PANELS = 64


# ---------------------------------------------------------------------------
# pools


def draw_pool(workload: str, size: int, master_seed: int) -> list:
    """Configurations of one workload, drawn across its stated input range."""
    rng = random.Random(master_seed)
    if workload == "fine_grid":
        # The decay study's rho sweep, each value jittered; phi rotates mode 1.
        return [{**FINE_GRID,
                 "rho": min(max(DECAY_RHOS[i % len(DECAY_RHOS)] + rng.uniform(-0.02, 0.02),
                                2.2), 2.8),
                 "phi": rng.uniform(0.0, 2.0 * math.pi)}
                for i in range(size)]
    if workload == "many_modes":
        seeds = rng.sample(range(1_000_000), size)
        return [{**MANY_MODES, "seed": s} for s in seeds]
    if workload == "admissible_mix":
        pool = []
        for _ in range(size):
            gamma = rng.uniform(2.2, 5.0)
            pool.append({
                "panels": MIX_PANELS,
                "family": rng.choice(("power", "bump", "random")),
                "mode_cutoff": rng.choice((2, 4)),
                "epsilon": math.exp(rng.uniform(math.log(1e-3), math.log(0.4))),
                "gamma": gamma,
                "rho": rng.uniform(2.1, min(2.9, gamma)),
                "alpha": rng.uniform(-2.0, 2.0),
                "r_max": rng.choice((1e2, 1e3, 1e4)),
                "seed": rng.randrange(1_000_000),
            })
        return pool
    raise ValueError(f"unknown workload {workload!r}")


def deal_blocks(entries: list, n_blocks: int) -> list:
    """Deal entries into blocks with matching outcome and cost spreads.

    Entries are ranked failures first, then by mode solves (Picard
    iterations times 2N + 1 modes), forcing family and reference time, and
    dealt in serpentine order, so each block takes one entry from every
    stretch of that ranking.  Ranking on the exact solve count keeps the
    blocks' order statistics from depending on timing noise in the
    recorded times.
    """
    def cost(entry):
        ref, config = entry["ref"], entry["config"]
        solves = ref.get("iterations", 0) * (2 * config.get("mode_cutoff", 1) + 1)
        return ref["status"] == "ok", solves, config.get("family", ""), ref["time_s"]

    order = sorted(range(len(entries)), key=lambda i: cost(entries[i]))
    blocks = [[] for _ in range(n_blocks)]
    for rank, i in enumerate(order):
        lap, pos = divmod(rank, n_blocks)
        blocks[pos if lap % 2 == 0 else n_blocks - 1 - pos].append(i)
    return blocks


def load_refs(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_design(refs: dict, seed: int) -> list:
    """The entries one run cycles through: one block, in a seeded order."""
    rng = random.Random(seed)
    block = list(refs["blocks"][rng.randrange(len(refs["blocks"]))])
    rng.shuffle(block)
    return [refs["entries"][i] for i in block]


# ---------------------------------------------------------------------------
# attempts


class Solver:
    """Runs attempts of one workload in this process."""

    def __init__(self, workload: str, scratch_dir: str):
        import hamelflow  # noqa: F401  (the whole package, as a user imports it)
        from hamelflow import background, cli, forcing, grid, nonlinear, verification
        self.workload = workload
        self.scratch_dir = scratch_dir
        self.bg, self.cli, self.fc = background, cli, forcing
        self.grid_mod, self.nl, self.vf = grid, nonlinear, verification
        self._grid = None

    def prepare(self, config: dict):
        """Build the first grid and forcing, as a user's first call would."""
        if self.workload == "fine_grid":
            self._grid = self.grid_mod.RadialGrid.build(
                config["panels"], config["gauss_order"], config["r_max"])
            self._forcing(config)
        else:
            cfg = self._run_config(config, self.scratch_dir)
            params = cfg.validate()
            g = self.grid_mod.RadialGrid.build(cfg.panels, cfg.gauss_order, cfg.r_max)
            self.fc.build_family(cfg.family, g, params, cfg.epsilon,
                                 coefficients=cfg.coefficients, seed=cfg.seed,
                                 cutoff=cfg.mode_cutoff, **cfg.family_options)

    def _forcing(self, config):
        params = self.bg.HamelParameters(config["alpha"], config["gamma"], config["rho"])
        coeff = {0: 1.0, 1: complex(math.cos(config["phi"]), math.sin(config["phi"]))}
        return params, self.fc.build_family("power", self._grid, params,
                                            config["epsilon"], coefficients=coeff)

    def _run_config(self, config, out_dir):
        if self.workload == "many_modes":
            return self.cli.RunConfig(
                panels=config["panels"], mode_cutoff=config["mode_cutoff"],
                family="random", epsilon=config["epsilon"], seed=config["seed"],
                family_options={"n_modes": config["mode_cutoff"]}, output_dir=out_dir)
        return self.cli.RunConfig(
            alpha=config["alpha"], gamma=config["gamma"], rho=config["rho"],
            mode_cutoff=config["mode_cutoff"], panels=config["panels"],
            r_max=config["r_max"], family=config["family"],
            epsilon=config["epsilon"], seed=config["seed"], output_dir=out_dir)

    def attempt(self, config: dict) -> dict:
        """One solve and the quantities its check needs; exceptions propagate."""
        if self.workload == "fine_grid":
            params, forcing = self._forcing(config)
            sol, diag = self.nl.picard_iterate(forcing, params, self._grid)
            self.vf.fit_decay(sol, (10.0, self._grid.r_max / 3.0))
            suite = self.vf.make_test_suite(self._grid, modes=(0, 1))
            residual = self.vf.weak_ns_residual(sol, forcing, params, suite)["residual"]
            return {"exit": 0, "x_norm": self.nl.x_norm(sol, params.rho),
                    "iterations": diag.iterations, "weak_residual": residual}
        out_dir = tempfile.mkdtemp(prefix="run-", dir=self.scratch_dir)
        code = self.cli.run(self._run_config(config, out_dir))
        result = {"exit": code, "out_dir": out_dir}
        if code == 0:
            with open(os.path.join(out_dir, "summary.json")) as fh:
                summary = json.load(fh)
            result.update(x_norm=summary["solution_norms"]["x_rho"],
                          iterations=summary["picard"]["iterations"],
                          weak_residual=summary["weak_residual"])
        return result


def artifact_bytes(result: dict) -> int:
    if not result.get("out_dir"):
        return 0
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(result["out_dir"]) for f in files)


def cleanup(result: dict):
    if result.get("out_dir"):
        shutil.rmtree(result["out_dir"], ignore_errors=True)


def check(result: dict, ref: dict) -> str | None:
    """None when the attempt passed, else the reason it failed.

    A reference that failed at the defining commit has no X-norm; a later
    success on it is checked by convergence and weak residual alone.
    """
    if result["exit"] != 0:
        return f"exit {result['exit']}"
    if not result["weak_residual"] <= WEAK_RESIDUAL_TOL:
        return f"weak residual {result['weak_residual']:.2e}"
    if ref.get("status") == "ok":
        rel = abs(result["x_norm"] - ref["x_norm"]) / abs(ref["x_norm"])
        if not rel <= XNORM_RTOL:
            return f"x_norm off reference by {rel:.2e}"
    return None
