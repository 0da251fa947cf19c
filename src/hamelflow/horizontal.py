"""Per-mode solver for the horizontal velocity components.

`solve_mode(n, params, grid, pointwise=..., divergence=...)` solves one
mode forced by one block of data and branches on n itself.

Axisymmetric part: the angular profile solves a second-order ODE whose
homogeneous solutions are r^{-1} and r^{1-gamma}; the shared Dirichlet
solve `profiles.dirichlet_solve`, keeping the branch r^{1-gamma}, gives
the unique finite-energy solution vanishing on the unit circle (the
r^{-1} branch is excluded by the energy class, which is how the
construction sidesteps the Stokes paradox).

Non-axisymmetric part: solve for the scalar vorticity mode

    omega_n = Phi_n + c_n r^{-zeta_n - gamma/2},

where Phi_n is a particular decaying solution of the transported
vorticity ODE and the constant c_n enforces the moment identity
int_1^inf s^{1-|n|} omega_n ds = 0; the velocity mode is then recovered
by the radial Biot-Savart integrals, and the moment identity is exactly
the statement that it vanishes on the unit circle.

All radial derivatives are Leibniz derivatives of the representation
formulas (power prefactor times integral), never finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import HamelParameters
from .errors import BoundaryError
from .grid import RadialGrid
from .profiles import (
    ModeProfile,
    PowerSum,
    cum_right_full,
    dirichlet_solve,
    envelope_tail,
    full_moment,
    one_block,
)
from .spectral import compute_coefficients

MOMENT_TOL = 1e-8
_DEGENERATE = 1e-10


@dataclass
class HorizontalSolutionMode:
    v_r: ModeProfile
    v_t: ModeProfile
    dv_r: ModeProfile
    dv_t: ModeProfile
    omega: ModeProfile | None = None
    c_n: complex | None = None


# -- exact tails of the kernel integrals for power-law data ----------------

def _left_kernel_tail(grid, c, values, tail):
    """Tail of s^{-c} int_1^s u^c h(u) du when h has an exact tail."""
    if not isinstance(tail, PowerSum):
        return None
    terms = [(grid.node_moment(c, values), -c)]
    for coef, expo in tail.terms:
        p = c + expo + 1.0
        if abs(p) < _DEGENERATE:
            return None
        terms.append((coef / p, expo + 1.0))
        terms.append((-coef * grid.r_max ** p / p, -c))
    return PowerSum(terms)


def _right_kernel_tail(c, tail):
    """Tail of s^{c} int_s^inf u^{-c} h(u) du when h has an exact tail."""
    if not isinstance(tail, PowerSum):
        return None
    terms = []
    for coef, expo in tail.terms:
        d = c - expo - 1.0
        if d.real <= 0.0:
            return None
        terms.append((coef / d, expo + 1.0))
    return PowerSum(terms)


# -- non-axisymmetric part ---------------------------------------------------

def compute_vorticity_mode(n: int, params: HamelParameters, grid: RadialGrid, *,
                           pointwise=None, divergence=None):
    """Vorticity profile omega_n, its moment constant c_n and its envelope
    exponent for mode n != 0, forced by exactly one block (`solve_mode`)."""
    one_block(pointwise, divergence)
    if n == 0:
        raise ValueError("axisymmetric mode has no zeta")
    sc = compute_coefficients(n, params.alpha, params.gamma)
    zeta, hg = sc.zeta, params.half_gamma
    beta = zeta + hg
    delta = zeta - hg
    r = grid.r_nodes

    # envelope of omega: the data's, one power slower for pointwise data
    env = max(p.tail.slowest_exponent() for p in pointwise or divergence)
    env = max(env if pointwise is None else env + 1.0, -(sc.xi + hg))
    if divergence is not None:
        f_rr, f_rt, f_tr, f_tt = divergence
        two_zeta = 2.0 * zeta
        g1 = (f_rr.scaled(1j * n * (beta - 1.0) / two_zeta)
              + f_rt.scaled(beta * (beta - 1.0) / two_zeta)
              + f_tr.scaled(-(beta - n * n) / two_zeta)
              + f_tt.scaled(-1j * n * (beta - 1.0) / two_zeta))
        g2 = (f_rr.scaled(-1j * n * (delta + 1.0) / two_zeta)
              + f_rt.scaled(delta * (delta + 1.0) / two_zeta)
              + f_tr.scaled((delta + n * n) / two_zeta)
              + f_tt.scaled(1j * n * (delta + 1.0) / two_zeta))
        phi = (-f_rt.values
               + grid.cum_left(beta - 1.0, g1.values) / r
               + cum_right_full(grid, delta + 1.0, g2.values, g2.tail) / r)
        lt = _left_kernel_tail(grid, beta - 1.0, g1.values, g1.tail)
        rt = _right_kernel_tail(delta + 1.0, g2.tail)
        if lt is not None and rt is not None:
            phi_tail = (f_rt.tail.scaled(-1.0)
                        + lt.times_power(-1.0) + rt.times_power(-1.0))
        else:
            phi_tail = envelope_tail(grid, env, phi)
    else:
        f_r, f_t = pointwise
        hl = f_r.scaled(1j * n) + f_t.scaled(beta)
        hr = f_r.scaled(-1j * n) + f_t.scaled(delta)
        phi = (-grid.cum_left(beta, hl.values)
               + cum_right_full(grid, delta, hr.values, hr.tail)) / (2.0 * zeta)
        lt = _left_kernel_tail(grid, beta, hl.values, hl.tail)
        rt = _right_kernel_tail(delta, hr.tail)
        if lt is not None and rt is not None:
            phi_tail = (lt.scaled(-1.0) + rt).scaled(1.0 / (2.0 * zeta))
        else:
            phi_tail = envelope_tail(grid, env, phi)

    a_n = float(abs(n))
    c_n = -(zeta + a_n + hg - 2.0) * full_moment(grid, 1.0 - a_n, phi, phi_tail)
    omega_vals = phi + c_n * np.exp(-(zeta + hg) * grid.log_r)
    omega_tail = phi_tail + PowerSum.of((c_n, -(zeta + hg)))
    return ModeProfile(omega_vals, grid, omega_tail), complex(c_n), env


def biot_savart(n: int, omega: ModeProfile, envelope_hint: float | None = None):
    """Velocity mode recovered from its vorticity profile.

    Requires the |n|-th inverse moment of omega to cancel; otherwise the
    reconstructed field cannot satisfy the no-slip condition and the
    call fails.
    """
    if n == 0:
        raise ValueError("axisymmetric mode has no zeta")
    grid = omega.grid
    a_n = float(abs(n))
    moment = full_moment(grid, 1.0 - a_n, omega.values, omega.tail)
    scale = _abs_moment(grid, 1.0 - a_n, omega)
    if scale > 0 and abs(moment) > MOMENT_TOL * scale:
        raise BoundaryError(
            f"boundary condition violated: moment residual {abs(moment) / scale:.3e} "
            f"exceeds {MOMENT_TOL:.1e} for mode {n}"
        )

    cl = grid.cum_left(a_n + 1.0, omega.values)
    cr = cum_right_full(grid, a_n - 1.0, omega.values, omega.tail)
    r = grid.r_nodes
    pref = 1j * n / (2.0 * a_n)
    v_r = pref * (cl + cr)
    v_t = 0.5 * (cl - cr)
    dv_r = pref * (-(a_n + 1.0) * cl + (a_n - 1.0) * cr) / r
    dv_t = omega.values - 0.5 * ((a_n + 1.0) * cl + (a_n - 1.0) * cr) / r

    env_omega = omega.tail.slowest_exponent()
    if envelope_hint is not None:
        env_omega = max(env_omega, envelope_hint)
    env = max(env_omega + 1.0, -(a_n + 1.0))
    mk = lambda vals, e: ModeProfile(vals, grid, envelope_tail(grid, e, vals))
    return mk(v_r, env), mk(v_t, env), mk(dv_r, env - 1.0), mk(dv_t, env - 1.0)


def _abs_moment(grid, a, profile):
    base = float(np.real(grid.node_moment(a, np.abs(profile.values))))
    tail = profile.tail
    extra = 0.0
    if isinstance(tail, PowerSum):
        for coef, expo in tail.terms:
            p = a + expo.real
            if p < -1.0:
                extra += abs(coef) * grid.r_max ** (p + 1) / (-p - 1)
    else:  # EnvelopeTail
        p = a + tail.exponent
        if p < -1.0:
            extra += abs(tail.anchor) * grid.r_max ** (a + 1.0) / (-p - 1)
    return base + extra


# -- the mode solve -----------------------------------------------------------

def solve_mode(n: int, params: HamelParameters, grid: RadialGrid, *,
               pointwise=None, divergence=None) -> HorizontalSolutionMode:
    """Horizontal solve of mode n, forced by exactly one block: `pointwise`
    (f_r, f_t) or `divergence` (f_rr, f_rt, f_tr, f_tt), where `rt` is the
    (e_r, e_theta) tensor slot.  A call with neither or both raises
    ValueError.

    Mode 0 is the Dirichlet solve of the angular profile (the radial
    profile is identically zero); any other mode is vorticity plus
    Biot-Savart.
    """
    one_block(pointwise, divergence)
    if n == 0:
        la = 1.0 - params.gamma
        if pointwise is not None:
            _, f_t = pointwise
            v, dv, env = dirichlet_solve(grid, la, -1.0, 1, f_t, f_t)
        else:
            _, f_rt, f_tr, _ = divergence
            v, dv, env = dirichlet_solve(grid, la, -1.0, 0, f_rt.scaled(la) + f_tr,
                                         f_tr + f_rt.scaled(-1.0))
        return HorizontalSolutionMode(
            v_r=ModeProfile.zeros(grid),
            v_t=ModeProfile(v, grid, envelope_tail(grid, env, v)),
            dv_r=ModeProfile.zeros(grid),
            dv_t=ModeProfile(dv, grid, envelope_tail(grid, env - 1.0, dv)),
        )

    omega, c_n, omega_env = compute_vorticity_mode(
        n, params, grid, pointwise=pointwise, divergence=divergence)
    v_r, v_t, dv_r, dv_t = biot_savart(n, omega, envelope_hint=omega_env)
    return HorizontalSolutionMode(v_r, v_t, dv_r, dv_t, omega, c_n)
