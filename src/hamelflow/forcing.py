"""Built-in forcing families.

Three families cover the test surface: exact power-law envelopes that sit
on the admissible decay boundary, a compactly supported polynomial bump
that exercises the fast-decay branches, and seeded randomized
coefficients for property tests.  Coefficients are given for n >= 0, and
each family fills the rows of modes 0..N of a `ForcingSpec`: power-law
slots with their exponent, bump slots with no tail.  Mode -n is the
conjugate of mode n, so the physical-space force is real.  Modes beyond
the cutoff are dropped; a cutoff that drops every nonzero coefficient is
an `AdmissibilityError`, not a silent zero forcing.
"""

from __future__ import annotations

import numpy as np

from .background import HamelParameters
from .errors import AdmissibilityError
from .grid import RadialGrid
from .nonlinear import ForcingSpec
from .profiles import PowerSum

FAMILIES = ("power", "bump", "random")


def _half_spectrum(coefficients):
    """The coefficients of modes n >= 0 as complex numbers, checked for a
    real force: no negative mode and a real mode 0."""
    out = {}
    for n, c in coefficients.items():
        n = int(n)
        if n < 0:
            raise ValueError("family coefficients are given for n >= 0; "
                             "mode -n is the conjugate of mode n")
        out[n] = complex(c)
    if 0 in out and abs(out[0].imag) > 0:
        raise ValueError("mode-0 coefficient must be real for a real force")
    return out


def _truncate(coefficients: dict, cutoff: int) -> dict:
    """The nonzero coefficients with n <= cutoff; the cutoff must keep one."""
    nonzero = {n: c for n, c in coefficients.items() if c != 0}
    kept = {n: c for n, c in nonzero.items() if n <= cutoff}
    if nonzero and not kept:
        raise AdmissibilityError(
            f"mode cutoff {cutoff} drops every nonzero forcing coefficient "
            f"(modes {sorted(nonzero)})")
    return kept


def _put_power(spec: ForcingSpec, n: int, gp: PowerSum, fp: PowerSum):
    """Fill every g slot of mode n with gp and every F slot with fp."""
    r = spec.grid.r_nodes
    spec.g[n], spec.g_exponents[n] = gp(r), gp.slowest_exponent()
    spec.F[n], spec.F_exponents[n] = fp(r), fp.slowest_exponent()


def power_envelope_forcing(grid: RadialGrid, params: HamelParameters, epsilon: float,
                           coefficients: dict, cutoff: int | None = None,
                           g_exponent: float | None = None,
                           f_exponent: float | None = None) -> ForcingSpec:
    """g components c_n eps r^{-(2 rho - 1)}, F components c_n eps r^{-2(rho-1)}.

    The exponent overrides exist for diagnostics; defaults saturate the
    admissible envelopes.
    """
    coeff = _half_spectrum(coefficients)
    cutoff = max(coeff) if cutoff is None else cutoff
    ge = -(2.0 * params.rho - 1.0) if g_exponent is None else g_exponent
    fe = -2.0 * (params.rho - 1.0) if f_exponent is None else f_exponent
    spec = ForcingSpec.zero(grid, cutoff)
    for n, c in _truncate(coeff, cutoff).items():
        _put_power(spec, n, PowerSum.of((c * epsilon, ge)), PowerSum.of((c * epsilon, fe)))
    return spec


def bump_profile(grid: RadialGrid, support=(2.0, 4.0)):
    """Polynomial bump ((r-a)(b-r))^4 on [a, b], normalized to peak 1.

    The support is moved to the nearest panel edges, so the integrand is
    polynomial on every panel it touches.  Returns (fn, dfn, d2fn, (a, b)):
    the bump, its closed-form first and second derivatives (the bump has
    degree 8, one above the panel interpolant) and the snapped support.
    """
    a, b = (float(grid.edges[np.argmin(np.abs(grid.edges - x))]) for x in support)
    if b <= a:
        raise ValueError("bump support collapsed after snapping to panel edges")
    if not (1.0 < a < b < grid.r_max):
        raise ValueError("bump support must sit strictly inside (1, r_max)")
    peak = ((b - a) / 2.0) ** 8

    def _uw(r):
        r = np.asarray(r, dtype=float)
        inside = (r >= a) & (r <= b)
        u = np.where(inside, (r - a) * (b - r), 0.0)
        w = a + b - 2.0 * r
        return u, w, inside

    def fn(r):
        u, _, _ = _uw(r)
        return u ** 4 / peak

    def dfn(r):
        u, w, inside = _uw(r)
        return np.where(inside, 4.0 * u ** 3 * w, 0.0) / peak

    def d2fn(r):
        u, w, inside = _uw(r)
        return np.where(inside, 12.0 * u ** 2 * w ** 2 - 8.0 * u ** 3, 0.0) / peak

    return fn, dfn, d2fn, (a, b)


def bump_forcing(grid: RadialGrid, params: HamelParameters, epsilon: float,
                 coefficients: dict, cutoff: int | None = None,
                 support=(2.0, 4.0)) -> ForcingSpec:
    coeff = _half_spectrum(coefficients)
    cutoff = max(coeff) if cutoff is None else cutoff
    fn, *_ = bump_profile(grid, support)
    base = fn(grid.r_nodes).astype(complex)
    spec = ForcingSpec.zero(grid, cutoff)
    for n, c in _truncate(coeff, cutoff).items():
        spec.g[n] = spec.F[n] = c * epsilon * base
    return spec


def random_forcing(grid: RadialGrid, params: HamelParameters, epsilon: float,
                   seed: int, n_modes: int = 2, cutoff: int | None = None) -> ForcingSpec:
    """Seeded random complex coefficients on the power-envelope shapes."""
    if n_modes < 0:
        raise AdmissibilityError(f"n_modes={n_modes} must be >= 0")
    rng = np.random.default_rng(seed)
    cutoff = n_modes if cutoff is None else cutoff
    ge = -(2.0 * params.rho - 1.0)
    fe = -2.0 * (params.rho - 1.0)
    spec = ForcingSpec.zero(grid, cutoff)
    for n in range(0, min(n_modes, cutoff) + 1):
        c = rng.normal() + (1j * rng.normal() if n > 0 else 0.0)
        _put_power(spec, n, PowerSum.of((c * epsilon, ge)),
                   PowerSum.of((c * epsilon, fe + rng.uniform(-0.5, 0.0))))
    return spec


def build_family(name: str, grid: RadialGrid, params: HamelParameters,
                 epsilon: float, coefficients: dict | None = None,
                 seed: int = 0, cutoff: int | None = None, **kwargs) -> ForcingSpec:
    coefficients = {0: 1.0, 1: 1.0} if coefficients is None else coefficients
    if name == "power":
        return power_envelope_forcing(grid, params, epsilon, coefficients,
                                      cutoff=cutoff, **kwargs)
    if name == "bump":
        return bump_forcing(grid, params, epsilon, coefficients,
                            cutoff=cutoff, **kwargs)
    if name == "random":
        return random_forcing(grid, params, epsilon, seed=seed,
                              cutoff=cutoff, **kwargs)
    raise ValueError(
        f"unknown forcing family {name!r}; available families: {', '.join(FAMILIES)}")
