"""Steady Navier-Stokes flows exterior to an infinite cylinder.

Per-mode Green's-function solves of the linearized exterior problem
around a swirling sink background, assembled into the full nonlinear
solution by fixed-point iteration, with decay-rate and weak-residual
verification tooling.  The verification oracles, the forcing families
and the command line live in the submodules `verification`, `forcing`
and `cli`.
"""

from .background import HamelParameters, velocity
from .errors import (AdmissibilityError, BoundaryError, ContractionError, IterationError,
                     TailError)
from .grid import RadialGrid
from .horizontal import biot_savart, compute_vorticity_mode, solve_mode
from .nonlinear import (FlowAccessor, ForcingSpec, PicardDiagnostics, VelocityField, apply_T,
                        compute_lambda, field_diff_norm, picard_iterate, tensor_convolution,
                        value_norm, with_background, x_norm)
from .profiles import ModeProfile, PowerSum
from .spectral import SpectralCoefficients, compute_coefficients
from .vertical import solve_vertical_mode

# grouped by module, in import order
__all__ = [
    "HamelParameters", "velocity",
    "AdmissibilityError", "BoundaryError", "ContractionError", "IterationError", "TailError",
    "RadialGrid",
    "biot_savart", "compute_vorticity_mode", "solve_mode",
    "FlowAccessor", "ForcingSpec", "PicardDiagnostics", "VelocityField", "apply_T",
    "compute_lambda", "field_diff_norm", "picard_iterate", "tensor_convolution",
    "value_norm", "with_background", "x_norm",
    "ModeProfile", "PowerSum",
    "SpectralCoefficients", "compute_coefficients",
    "solve_vertical_mode",
]
__version__ = "0.1.0"
