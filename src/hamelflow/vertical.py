"""Per-mode solver for the vertical velocity component.

The vertical component is a scalar advected by the background; mode n
solves

    -v'' - (1+gamma)/r v' + (n^2 + i alpha n)/r^2 v = f_n,   v(1) = 0,

with decay at infinity.  The homogeneous exponents are -gamma/2 +- zeta_n,
so every mode is one `profiles.dirichlet_solve` with branches
r^{-(zeta_n + gamma/2)} and r^{zeta_n - gamma/2}, called as
`solve_vertical_mode(n, params, grid, pointwise=f_3)` or with
`divergence=(f_r3, f_t3)`.  Mode 0 is the case
zeta_0 = gamma/2, set exactly: its branches are r^{-gamma} and 1.  Without
the background transport the constant branch would degenerate into
logarithmic growth, which is why gamma > 2 is enforced at parameter
construction and never relaxed here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .background import HamelParameters
from .grid import RadialGrid
from .profiles import ModeProfile, dirichlet_solve, envelope_tail, one_block
from .spectral import compute_coefficients


@dataclass
class VerticalSolutionMode:
    v_3: ModeProfile
    dv_3: ModeProfile


def solve_vertical_mode(n: int, params: HamelParameters, grid: RadialGrid, *,
                        pointwise=None, divergence=None) -> VerticalSolutionMode:
    """Dirichlet solve of mode n, forced by exactly one block: the scalar
    profile `pointwise` (f_3) or the pair `divergence` (f_r3, f_t3).  A call
    with neither or both raises ValueError.  n = 0 is the zeta_0 = gamma/2
    case."""
    one_block(pointwise, divergence)
    hg = params.half_gamma
    zeta = compute_coefficients(n, params.alpha, params.gamma).zeta if n else hg
    beta, delta = zeta + hg, zeta - hg

    if pointwise is not None:
        v, dv, env = dirichlet_solve(grid, -beta, delta, 1, pointwise, pointwise)
    else:
        f_r3, f_t3 = divergence
        h_left, h_right = f_r3.scaled(-beta), f_r3.scaled(delta)
        if n:  # the angular slot drops out at mode 0
            angular = f_t3.scaled(1j * n)
            h_left, h_right = h_left + angular, h_right + angular
        v, dv, env = dirichlet_solve(grid, -beta, delta, 0, h_left, h_right)

    return VerticalSolutionMode(
        v_3=ModeProfile(v, grid, envelope_tail(grid, env, v)),
        dv_3=ModeProfile(dv, grid, envelope_tail(grid, env - 1.0, dv)),
    )
