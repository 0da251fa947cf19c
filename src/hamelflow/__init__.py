"""Steady Navier-Stokes flows exterior to an infinite cylinder.

Per-mode Green's-function solves of the linearized exterior problem
around a swirling sink background, assembled into the full nonlinear
solution by fixed-point iteration, with decay-rate and weak-residual
verification tooling.
"""

from .background import HamelParameters, boundary_data, pressure, velocity
from .errors import (
    AdmissibilityError,
    BoundaryError,
    ContractionError,
    IterationError,
    TailError,
)
from .grid import RadialGrid
from .horizontal import biot_savart, compute_vorticity_mode, solve_mode
from .nonlinear import (
    FlowAccessor,
    ForcingSpec,
    PicardDiagnostics,
    VelocityField,
    apply_T,
    compute_lambda,
    field_diff_norm,
    picard_iterate,
    tensor_convolution,
    value_norm,
    with_background,
    x_norm,
)
from .profiles import (
    EnvelopeTail,
    ModeProfile,
    PowerSum,
    integrate_weighted,
)
from .spectral import SpectralCoefficients, compute_coefficients
from .vertical import solve_vertical_mode

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
