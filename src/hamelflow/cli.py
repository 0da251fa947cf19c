"""Batch front end: config parsing, run orchestration, artifact emission.

Artifacts per run: per-mode radial profiles as CSV (`r, re, im`), a
machine-readable JSON summary, and plot-ready decay data for |u - V|.
Identical config and seed produce byte-identical summaries.

Exit codes: 0 success, 2 invalid configuration, 3 the fixed-point
iteration left the contraction regime or hit its step limit (diagnostics
are still written), 4 a mode solve failed its boundary or moment identity
(`BoundaryError`; the summary records the error), 1 unexpected I/O
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .background import HamelParameters
from .errors import (
    AdmissibilityError,
    BoundaryError,
    ContractionError,
    IterationError,
    TailError,
)
from .forcing import FAMILIES, build_family
from .grid import RadialGrid
from .nonlinear import compute_lambda, picard_iterate, value_norm, x_norm
from .verification import fit_decay, make_test_suite, weak_ns_residual

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONTRACTION = 3
EXIT_BOUNDARY = 4


_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral, "str": str, "dict": dict}
# flag parser of each scalar field; the dict fields are `coefficients`, which
# has its own JSON flag, and `family_options`, which only a config file sets
_FLAG_TYPES = {"float": float, "int": int, "str": str}
# fields that do not change the solve, so the summary leaves them out
_NOT_IN_SUMMARY = ("output_dir",)


@dataclass
class RunConfig:
    alpha: float = 0.0
    gamma: float = 3.0
    rho: float = 2.5
    mode_cutoff: int = 2
    panels: int = 64
    gauss_order: int = 8
    r_max: float = 1.0e3
    max_iter: int = 50
    tol: float = 1.0e-10
    family: str = field(default="power",
                        metadata={"help": f"forcing family: {', '.join(FAMILIES)}"})
    epsilon: float = 1.0e-3
    coefficients: dict = field(default_factory=lambda: {0: 1.0, 1: 1.0})
    seed: int = 0
    output_dir: str = "out"
    family_options: dict = field(default_factory=dict)

    def validate(self) -> HamelParameters:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]):
                raise AdmissibilityError(f"{f.name}={value!r} must be of type {f.type}")
        try:
            params = HamelParameters(self.alpha, self.gamma, self.rho)
        except AdmissibilityError as exc:
            raise AdmissibilityError(
                f"parameters outside Theorem hypotheses: {exc}") from exc
        if self.mode_cutoff < 0:
            raise AdmissibilityError(f"mode_cutoff={self.mode_cutoff} must be >= 0")
        if self.tol <= 0:
            raise AdmissibilityError(f"tol={self.tol} must be positive")
        if self.family not in FAMILIES:
            raise AdmissibilityError(
                f"unknown forcing family {self.family!r}; "
                f"available families: {', '.join(FAMILIES)}")
        return params


def _coerce_coefficients(raw) -> dict:
    malformed = AdmissibilityError(f"coefficients={raw!r} must map modes to numbers")
    if not isinstance(raw, dict):
        raise malformed
    try:
        coefficients = {int(k): complex(v) for k, v in raw.items()}
    except (TypeError, ValueError) as exc:
        raise malformed from exc
    return {k: v.real if v.imag == 0 else v for k, v in coefficients.items()}


def parse_config(argv=None) -> RunConfig:
    """Build a RunConfig from flags, optionally seeded by a JSON config file."""
    ap = argparse.ArgumentParser(
        prog="hamelflow",
        description="Steady exterior-cylinder flow solver: per-mode linear solves "
                    "plus fixed-point iteration around a swirling background.")
    ap.add_argument("--config", type=str, help="JSON file with RunConfig keys")
    flag_fields = [f for f in dataclasses.fields(RunConfig) if f.type in _FLAG_TYPES]
    for f in flag_fields:
        ap.add_argument(f"--{f.name.replace('_', '-')}", type=_FLAG_TYPES[f.type],
                        default=None, help=f.metadata.get("help"))
    ap.add_argument("--coefficients", type=str, default=None,
                    help='JSON map of mode to coefficient, e.g. \'{"0": 1.0, "1": 0.5}\'')
    ns = ap.parse_args(argv)

    cfg = RunConfig()
    if ns.config:
        with open(ns.config) as fh:
            data = json.load(fh)
        forcing = data.pop("forcing", {})
        for key, value in data.items():
            if not hasattr(cfg, key):
                raise AdmissibilityError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
        if forcing:
            cfg.family = forcing.pop("family", cfg.family)
            cfg.epsilon = forcing.pop("epsilon", cfg.epsilon)
            cfg.coefficients = forcing.pop("coefficients", cfg.coefficients)
            cfg.family_options = forcing
    for f in flag_fields:
        value = getattr(ns, f.name)
        if value is not None:
            setattr(cfg, f.name, value)
    if ns.coefficients:
        cfg.coefficients = json.loads(ns.coefficients)
    cfg.coefficients = _coerce_coefficients(cfg.coefficients)
    return cfg


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _write_profiles(out_dir: Path, fieldv):
    prof_dir = out_dir / "profiles"
    prof_dir.mkdir(parents=True, exist_ok=True)
    # one template per run, filled with each profile's interleaved (re, im)
    template = "r,re,im\n" + "".join(f"{x:.17g},%.17g,%.17g\n" for x in fieldv.grid.r_nodes)
    for n, triple in enumerate(fieldv.values, start=-fieldv.cutoff):
        for tag, values in zip(("vr", "vt", "v3"), triple):
            parts = tuple(np.ascontiguousarray(values).view(float).tolist())
            (prof_dir / f"mode_{n:+d}_{tag}.csv").write_text(template % parts)


def _write_decay(out_dir: Path, radii, amplitude):
    lines = ["r,amplitude"]
    for r, a in zip(radii, amplitude):
        lines.append(f"{r:.17g},{a:.17g}")
    (out_dir / "decay.csv").write_text("\n".join(lines) + "\n")


def run(config: RunConfig) -> int:
    """Execute one configured solve and write its artifacts."""
    try:
        params = config.validate()
        grid = RadialGrid.build(config.panels, config.gauss_order, config.r_max)
        # TypeError: an option the family does not take, or of the wrong type
        forcing = build_family(config.family, grid, params, config.epsilon,
                               coefficients=config.coefficients, seed=config.seed,
                               cutoff=config.mode_cutoff, **config.family_options)
        forcing.validate(params)
    except (AdmissibilityError, TailError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = {
        "config": {
            **{f.name: getattr(config, f.name) for f in dataclasses.fields(config)
               if f.name not in _NOT_IN_SUMMARY},
            "coefficients": {str(k): v for k, v in sorted(config.coefficients.items())},
        },
        "lambda_formula_c0_1": compute_lambda(params, 1.0),
    }

    try:
        fieldv, diag = picard_iterate(forcing, params, grid,
                                      max_iter=config.max_iter, tol=config.tol)
    except (ContractionError, IterationError) as exc:
        summary["picard"] = dataclasses.asdict(exc.diagnostics) if exc.diagnostics else {}
        summary["error"] = str(exc)
        _dump_summary(out_dir, summary)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONTRACTION
    except BoundaryError as exc:
        summary["error"] = str(exc)
        _dump_summary(out_dir, summary)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY

    g_norm, f_norm = forcing.norms(params.rho)
    summary["picard"] = dataclasses.asdict(diag)
    summary["forcing_norms"] = {"g_l1": g_norm, "F_l1": f_norm}
    summary["solution_norms"] = {
        "x_rho": x_norm(fieldv, params.rho),
        "value_l1": value_norm(fieldv, params.rho - 1.0),
    }

    amplitude = fieldv.theta_rms()
    _write_profiles(out_dir, fieldv)
    _write_decay(out_dir, grid.r_nodes, amplitude)

    if np.max(amplitude) > 0:
        window = (10.0, grid.r_max / 3.0)
        try:
            fit = fit_decay((grid.r_nodes, amplitude), window, grid=grid)
            summary["decay_fit"] = dataclasses.asdict(fit)
        except ValueError as exc:
            summary["decay_fit"] = {"error": str(exc)}
    else:
        summary["decay_fit"] = None

    suite_modes = tuple(sorted({min(m, config.mode_cutoff) for m in (0, 1, 2)}))
    try:
        suite = make_test_suite(grid, modes=suite_modes)
    except ValueError as exc:  # no room for the bump support on this grid
        summary["weak_residual"] = None
        summary["weak_residual_error"] = str(exc)
    else:
        summary["weak_residual"] = weak_ns_residual(fieldv, forcing, params, suite)["residual"]

    _dump_summary(out_dir, summary)
    return EXIT_OK


def _dump_summary(out_dir: Path, summary: dict):
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1, default=_json_default) + "\n")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        config = parse_config(argv)
    except (AdmissibilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
