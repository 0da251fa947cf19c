"""The swirling sink background flow and its admissible parameter range.

The background is the scale-invariant pair

    V(x) = alpha * x_perp/|x|^2 - gamma * x/|x|^2   (lifted to 3D, V_3 = 0)
    Q(x) = -|V(x)|^2 / 2

so in polar components V_r = -gamma/r, V_theta = alpha/r.  Its transport
is what lifts the exterior problem past the Stokes paradox, which is why
gamma > 2 is a hard gate for every solve in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError


@dataclass(frozen=True)
class HamelParameters:
    """Rotation strength alpha, flux parameter gamma, decay index rho."""

    alpha: float
    gamma: float
    rho: float

    def __post_init__(self):
        if not self.gamma > 2.0:
            raise AdmissibilityError(
                f"gamma={self.gamma} violates gamma > 2 (Hamel flux too weak)"
            )
        if not 2.0 < self.rho < 3.0:
            raise AdmissibilityError(
                f"rho={self.rho} violates 2 < rho < 3"
            )
        if not self.rho <= self.gamma:
            raise AdmissibilityError(
                f"rho={self.rho} exceeds gamma={self.gamma}; rho <= gamma required"
            )

    @property
    def half_gamma(self) -> float:
        return 0.5 * self.gamma


def _check_domain(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0 - 1e-14):
        raise ValueError(f"radius {r} below 1 lies outside the exterior domain")
    return r


def velocity(params: HamelParameters, r):
    """Polar components (V_r, V_theta, V_3) of the background at radius r."""
    r = _check_domain(r)
    return -params.gamma / r, params.alpha / r, np.zeros_like(r)


def velocity_derivative(params: HamelParameters, r):
    """Radial derivatives (dV_r, dV_theta, dV_3)."""
    r = _check_domain(r)
    return params.gamma / r ** 2, -params.alpha / r ** 2, np.zeros_like(r)


def pressure(params: HamelParameters, r):
    """Background pressure -(alpha^2 + gamma^2) / (2 r^2)."""
    r = _check_domain(r)
    return -(params.alpha ** 2 + params.gamma ** 2) / (2.0 * r ** 2)


def boundary_data(params: HamelParameters):
    """Polar components of the prescribed velocity on the unit circle."""
    return (-params.gamma, params.alpha, 0.0)


def flux(params: HamelParameters, r):
    """Line integral of V . e_r over the circle of radius r; radius-independent."""
    _check_domain(r)
    return -2.0 * np.pi * params.gamma
