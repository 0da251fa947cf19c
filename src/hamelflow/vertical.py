"""Per-mode solver for the vertical velocity component.

The vertical component is a scalar advected by the background; mode n
solves

    -v'' - (1+gamma)/r v' + (n^2 + i alpha n)/r^2 v = f_n,   v(1) = 0,

with decay at infinity.  For n = 0 the homogeneous solutions are r^{-gamma}
and 1 (Wronskian gamma r^{-gamma-1}); without the background transport the
constant branch would degenerate into logarithmic growth, which is why
gamma > 2 is enforced at parameter construction and never relaxed here.
For n != 0 the homogeneous exponents are -gamma/2 +- zeta_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .background import HamelParameters
from .grid import RadialGrid
from .profiles import ModeProfile, cum_right_full, envelope_tail, full_moment
from .spectral import compute_coefficients


@dataclass
class VerticalForcingMode:
    """Forcing of one vertical mode: scalar pointwise profile or (f_r3, f_t3)."""

    mode: int
    pointwise: ModeProfile | None = None
    divergence: tuple | None = None

    def __post_init__(self):
        if (self.pointwise is None) == (self.divergence is None):
            raise ValueError("exactly one of pointwise/divergence must be populated")

    @property
    def profiles(self):
        if self.pointwise is not None:
            return (self.pointwise,)
        return self.divergence

    def envelope_exponent(self) -> float:
        return max(p.tail.slowest_exponent() for p in self.profiles)


@dataclass
class VerticalSolutionMode:
    mode: int
    v_3: ModeProfile
    dv_3: ModeProfile
    checks: dict = field(default_factory=dict)


def solve_vertical_axisymmetric(forcing: VerticalForcingMode, params: HamelParameters,
                                grid: RadialGrid) -> VerticalSolutionMode:
    if forcing.mode != 0:
        raise ValueError("solve_vertical_axisymmetric expects mode 0 forcing")
    g = params.gamma
    r = grid.r_nodes

    if forcing.pointwise is not None:
        f = forcing.pointwise
        a_mom = full_moment(grid, 1.0, f.values, f.tail)
        cl = grid.cum_left(g + 1.0, f.values)
        cr = cum_right_full(grid, -1.0, f.values, f.tail)
        v = (-a_mom * r ** (-g) + r * cl + r * cr) / g
        dv = a_mom * r ** (-g - 1.0) - cl
        env = max(f.tail.slowest_exponent() + 2.0, -g)
    else:
        f_r3, _ = forcing.divergence  # the angular block drops out at mode 0
        cl = grid.cum_left(g, f_r3.values)
        v = -cl
        dv = (g / r) * cl - f_r3.values
        env = max(f_r3.tail.slowest_exponent() + 1.0, -g)

    sol = VerticalSolutionMode(
        mode=0,
        v_3=ModeProfile(v, 0, "3", grid, envelope_tail(grid, env, v)),
        dv_3=ModeProfile(dv, 0, "3", grid, envelope_tail(grid, env - 1.0, dv)),
    )
    sol.checks = structural_checks(sol)
    return sol


def solve_vertical_mode(forcing: VerticalForcingMode, params: HamelParameters,
                        grid: RadialGrid) -> VerticalSolutionMode:
    """Dispatch on the angular mode of the forcing."""
    n = forcing.mode
    if n == 0:
        return solve_vertical_axisymmetric(forcing, params, grid)
    sc = compute_coefficients(n, params.alpha, params.gamma)
    zeta, hg = sc.zeta, params.half_gamma
    beta, delta = zeta + hg, zeta - hg
    r, log_r = grid.r_nodes, grid.log_r
    two_zeta = 2.0 * zeta

    if forcing.pointwise is not None:
        f = forcing.pointwise
        d_mom = full_moment(grid, -zeta + hg + 1.0, f.values, f.tail)
        cl = grid.cum_left(beta + 1.0, f.values)
        cr = cum_right_full(grid, delta - 1.0, f.values, f.tail)
        v = (-d_mom * np.exp(-beta * log_r) + r * cl + r * cr) / two_zeta
        dv = (beta * d_mom * np.exp((-beta - 1.0) * log_r)
              - beta * cl + delta * cr) / two_zeta
        env = max(f.tail.slowest_exponent() + 2.0, -(sc.xi + hg))
    else:
        f_r3, f_t3 = forcing.divergence
        k_in = f_r3.scaled(-beta) + f_t3.scaled(1j * n)
        k_out = f_r3.scaled(delta) + f_t3.scaled(1j * n)
        d_mom = full_moment(grid, -zeta + hg, k_out.values, k_out.tail)
        cl = grid.cum_left(beta, k_in.values)
        cr = cum_right_full(grid, delta, k_out.values, k_out.tail)
        v = (-d_mom * np.exp(-beta * log_r) + cl + cr) / two_zeta
        dv = (beta * d_mom * np.exp((-beta - 1.0) * log_r)
              - beta * cl / r + delta * cr / r) / two_zeta - f_r3.values
        env = max(forcing.envelope_exponent() + 1.0, -(sc.xi + hg))

    sol = VerticalSolutionMode(
        mode=n,
        v_3=ModeProfile(v, n, "3", grid, envelope_tail(grid, env, v)),
        dv_3=ModeProfile(dv, n, "3", grid, envelope_tail(grid, env - 1.0, dv)),
    )
    sol.checks = structural_checks(sol)
    return sol


def structural_checks(sol: VerticalSolutionMode) -> dict:
    scale = sol.v_3.max_abs()
    if scale == 0.0:
        return {"scale": 0.0, "boundary_rel": 0.0}
    return {"scale": scale, "boundary_rel": abs(sol.v_3.values[0]) / scale}

