"""Per-mode solver for the vertical velocity component.

The vertical component is a scalar advected by the background; mode n
solves

    -v'' - (1+gamma)/r v' + (n^2 + i alpha n)/r^2 v = f_n,   v(1) = 0,

with decay at infinity.  The homogeneous exponents are -gamma/2 +- zeta_n,
so every mode is one `profiles.dirichlet_solve` with branches
r^{-(zeta_n + gamma/2)} and r^{zeta_n - gamma/2}, called as
`solve_vertical_mode(n, params, grid, pointwise=f_3)` or with
`divergence=(f_r3, f_t3)`.  Mode 0 is the case zeta_0 = gamma/2, set
exactly: its branches are r^{-gamma} and 1, and its divergence data has
no right-kernel part.  Without the background transport the constant
branch would degenerate into logarithmic growth, which is why gamma > 2
is enforced at parameter construction and never relaxed here.
"""

from __future__ import annotations

from .background import HamelParameters
from .grid import RadialGrid
from .profiles import dirichlet_solve, one_block
from .spectral import compute_coefficients


def solve_vertical_mode(n: int, params: HamelParameters, grid: RadialGrid, *,
                        pointwise=None, divergence=None):
    """Dirichlet solve of mode n, forced by exactly one block: the scalar
    profile `pointwise` (f_3) or the pair `divergence` (f_r3, f_t3).  A call
    with neither or both raises ValueError.  n = 0 is the zeta_0 = gamma/2
    case.  Returns `dirichlet_solve`'s (v_3, dv_3, tail exponent of v_3)."""
    one_block(pointwise, divergence)
    hg = params.half_gamma
    zeta = compute_coefficients(n, params.alpha, params.gamma).zeta if n else hg
    beta, delta = zeta + hg, zeta - hg

    if pointwise is not None:
        return dirichlet_solve(grid, -beta, delta, 1, pointwise, pointwise)
    f_r3, f_t3 = divergence
    if not n:  # delta = 0 and the angular slot drops out: no right data
        return dirichlet_solve(grid, -beta, delta, 0, f_r3.scaled(-beta), None)
    angular = f_t3.scaled(1j * n)
    return dirichlet_solve(grid, -beta, delta, 0, f_r3.scaled(-beta) + angular,
                           f_r3.scaled(delta) + angular)
