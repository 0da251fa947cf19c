"""Batch front end: config parsing, run orchestration, artifact emission.

Artifacts per run: `profiles.npy`, the (N+1, 3, M) complex array of the
radial profiles (v_r, v_t, v_3) of the modes n = 0..N at the M grid nodes
(mode -n is the conjugate of mode n); `decay.csv`, the radii and the
theta-RMS of |u - V|; and a machine-readable JSON summary.  Identical
config and seed produce byte-identical artifacts.

Exit codes: 0 success, 2 invalid configuration (among others a
non-finite number, a boolean in a numeric field or max_iter < 1), 3 the
fixed-point iteration left the contraction regime or hit its step limit
(diagnostics are still written), 4 a mode solve failed its boundary or
moment identity (`BoundaryError`; the summary records the error), 1 I/O
failure (a config file that cannot be read, an output directory that
cannot be created or an artifact that cannot be written exits 1 with a
one-line message).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
EXIT_IO = 1
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
            # a JSON true or false is a Python int, so it is rejected apart
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise AdmissibilityError(f"{f.name}={value!r} must be of type {f.type}")
            if f.type != "float":
                continue
            try:  # the converted value is not stored: summaries keep an integer's bytes
                finite = np.isfinite(float(value))
            except OverflowError as exc:
                raise AdmissibilityError(f"{f.name} is too large for a float") from exc
            if not finite:
                raise AdmissibilityError(f"{f.name}={value!r} must be finite")
        for key, value in self.family_options.items():  # every family option is numeric
            if isinstance(value, bool):
                raise AdmissibilityError(f"{key}={value!r} must be a number")
        try:
            params = HamelParameters(self.alpha, self.gamma, self.rho)
        except AdmissibilityError as exc:
            raise AdmissibilityError(
                f"parameters outside Theorem hypotheses: {exc}") from exc
        if self.mode_cutoff < 0:
            raise AdmissibilityError(f"mode_cutoff={self.mode_cutoff} must be >= 0")
        if self.max_iter < 1:
            raise AdmissibilityError(f"max_iter={self.max_iter} must be >= 1")
        if self.tol <= 0:
            raise AdmissibilityError(f"tol={self.tol} must be positive")
        if self.family not in FAMILIES:
            raise AdmissibilityError(
                f"unknown forcing family {self.family!r}; "
                f"available families: {', '.join(FAMILIES)}")
        return params


def _coerce_coefficients(raw) -> dict:
    malformed = AdmissibilityError(f"coefficients={raw!r} must map modes to numbers")
    if not isinstance(raw, dict) or any(isinstance(v, bool) for v in raw.values()):
        raise malformed
    try:
        coefficients = {int(k): complex(v) for k, v in raw.items()}
    except (TypeError, ValueError) as exc:
        raise malformed from exc
    if not all(np.isfinite(v) for v in coefficients.values()):
        raise AdmissibilityError(f"coefficients={raw!r} must be finite")
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
        if not isinstance(data, dict):
            raise AdmissibilityError(f"config file {ns.config} must hold a JSON object")
        forcing = data.pop("forcing", {})
        if not isinstance(forcing, dict):
            raise AdmissibilityError(f"forcing={forcing!r} must be a JSON object")
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


def _write_arrays(out_dir: Path, fieldv, amplitude):
    """`profiles.npy` holds `fieldv.values`; `decay.csv` the radii and amplitude."""
    np.save(out_dir / "profiles.npy", fieldv.values)
    np.savetxt(out_dir / "decay.csv", np.column_stack((fieldv.grid.r_nodes, amplitude)),
               fmt="%.17g", delimiter=",", header="r,amplitude", comments="")


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
    try:
        return _solve_and_write(config, params, grid, forcing, Path(config.output_dir))
    except OSError as exc:  # the output dir or an artifact cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def _solve_and_write(config: RunConfig, params, grid, forcing, out_dir: Path) -> int:
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
    _write_arrays(out_dir, fieldv, amplitude)

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
    try:
        config = parse_config(argv)
    except (AdmissibilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
