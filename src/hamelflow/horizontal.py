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
the statement that it vanishes on the unit circle.  Phi_n takes
`dirichlet_solve`'s form, with branches r^{-(zeta_n + gamma/2)} and
r^{zeta_n - gamma/2}; only the correction c_n differs from that solve.

All radial derivatives are Leibniz derivatives of the representation
formulas (power prefactor times integral), never finite differences.
"""

from __future__ import annotations

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

    # pointwise data has order p = 0; divergence data p = -1 and the local
    # term -f_rt left over from integrating by parts
    if pointwise is not None:
        f_r, f_t = pointwise
        p, local = 0, ModeProfile.zeros(grid)
        radial = f_r.scaled(-1j * n)
        h_left, h_right = radial + f_t.scaled(-beta), radial + f_t.scaled(delta)
    else:
        f_rr, f_rt, f_tr, f_tt = divergence
        p, local = -1, f_rt.scaled(-1.0)
        h_left = (f_rr.scaled(1j * n * (beta - 1.0)) + f_rt.scaled(beta * (beta - 1.0))
                  + f_tr.scaled(n * n - beta) + f_tt.scaled(-1j * n * (beta - 1.0)))
        h_right = (f_rr.scaled(-1j * n * (delta + 1.0)) + f_rt.scaled(delta * (delta + 1.0))
                   + f_tr.scaled(delta + n * n) + f_tt.scaled(1j * n * (delta + 1.0)))
    two_zeta = 2.0 * zeta
    phi = local.values + grid.r_nodes ** p * (
        grid.cum_left(beta + p, h_left.values)
        + cum_right_full(grid, delta - p, h_right.values, h_right.tail)) / two_zeta

    # envelope of omega: the data's, one power slower for pointwise data
    env = max(prof.tail.slowest_exponent() for prof in pointwise or divergence)
    env = max(env + (p + 1), -(sc.xi + hg))
    lt = _left_kernel_tail(grid, beta + p, h_left.values, h_left.tail)
    rt = _right_kernel_tail(delta - p, h_right.tail)
    if lt is not None and rt is not None:
        phi_tail = local.tail + (lt + rt).times_power(p).scaled(1.0 / two_zeta)
    else:
        phi_tail = envelope_tail(grid, env, phi)

    a_n = float(abs(n))
    c_n = -(zeta + a_n + hg - 2.0) * full_moment(grid, 1.0 - a_n, phi, phi_tail)
    omega_vals = phi + c_n * np.exp(-(zeta + hg) * grid.log_r)
    omega_tail = phi_tail + PowerSum.of((c_n, -(zeta + hg)))
    return ModeProfile(omega_vals, grid, omega_tail), complex(c_n), env


def biot_savart(n: int, omega: ModeProfile, envelope_hint: float | None = None):
    """Velocity mode recovered from its vorticity profile: (v, dv, env) with
    v and dv the (2, M) arrays of (v_r, v_t) and their radial derivatives,
    env the (2,) tail exponents of v.

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
    v = np.stack((pref * (cl + cr), 0.5 * (cl - cr)))
    dv = np.stack((pref * (-(a_n + 1.0) * cl + (a_n - 1.0) * cr) / r,
                   omega.values - 0.5 * ((a_n + 1.0) * cl + (a_n - 1.0) * cr) / r))

    env_omega = omega.tail.slowest_exponent()
    if envelope_hint is not None:
        env_omega = max(env_omega, envelope_hint)
    return v, dv, np.full(2, max(env_omega + 1.0, -(a_n + 1.0)))


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
               pointwise=None, divergence=None):
    """Horizontal solve of mode n, forced by exactly one block: `pointwise`
    (f_r, f_t) or `divergence` (f_rr, f_rt, f_tr, f_tt), where `rt` is the
    (e_r, e_theta) tensor slot.  A call with neither or both raises
    ValueError.

    Returns (v, dv, env): the (2, M) arrays of (v_r, v_t) and their radial
    derivatives, and the (2,) tail exponents of v.  Mode 0 is the Dirichlet
    solve of the angular profile (the radial profile is identically zero,
    exponent -inf); any other mode is vorticity plus Biot-Savart.
    """
    one_block(pointwise, divergence)
    if n == 0:
        la = 1.0 - params.gamma
        if pointwise is not None:
            _, f_t = pointwise
            v_t, dv_t, env = dirichlet_solve(grid, la, -1.0, 1, f_t, f_t)
        else:
            _, f_rt, f_tr, _ = divergence
            v_t, dv_t, env = dirichlet_solve(grid, la, -1.0, 0, f_rt.scaled(la) + f_tr,
                                             f_tr + f_rt.scaled(-1.0))
        zero = np.zeros_like(v_t)
        return np.stack((zero, v_t)), np.stack((zero, dv_t)), np.array([-np.inf, env])

    omega, _, omega_env = compute_vorticity_mode(
        n, params, grid, pointwise=pointwise, divergence=divergence)
    return biot_savart(n, omega, envelope_hint=omega_env)
