"""Radial mode profiles and their power-law tails.

A profile stores complex values at the grid nodes together with a tail
model describing it beyond r_max; its mode and component are given by
the slot that holds it (a solver argument or a field row).  A tail is
either exact or an envelope.  Exact tails are `PowerSum`s: the one-term power law of a
forcing slot (rebuilt from its r_max value and exponent by
`ForcingSpec.profile`), the kernel tails of such data, and the empty sum
`ZERO_TAIL` of compactly supported data.  Data known only at the nodes
carries an `EnvelopeTail` anchored at the r_max value (built by
`envelope_tail` from a node array and an exponent): a product row that
joins the divergence forcing, a vorticity particular solution whose kernel
tails are not exact, and a field component evaluated beyond r_max.
Adding an exact tail to an envelope folds it into the envelope.  Both
kinds evaluate by call and share `scaled`, `+`, `moment`,
`right_integral_scaled` and `slowest_exponent`.

Profiles are solver inputs; the solvers return plain node arrays and a
tail exponent per component, which `apply_T` adds into the rows of modes
0..N of the `VelocityField` arrays (mode -n of a real solution is the
conjugate of mode n and is not stored).  The weighted sup norms, l1 over
modes, live on the field and forcing arrays (`nonlinear`); the
independent weighted-moment quadrature of a profile is an oracle
(`verification.integrate_weighted`).

The tail-aware kernel wrappers at the end serve the per-mode solvers;
`one_block` is their check that a solve gets exactly one block of data
(pointwise or divergence), and `dirichlet_solve` is the one
Green's-function solve of an Euler-type radial block with v(1) = 0,
shared by the vertical solve of every mode and the axisymmetric
horizontal solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TailError
from .grid import RadialGrid

_MERGE_TOL = 1e-12


class PowerSum:
    """Finite sum of complex power laws sum_t coef_t r^{expo_t} on [1, inf).

    The one exact tail model: closed-form forcing data, the kernel tails of
    such data, and the empty sum `ZERO_TAIL` of compactly supported data.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged = {}
        for coef, expo in terms:
            key = complex(expo)
            hit = next((k for k in merged if abs(k - key) < _MERGE_TOL), None)
            if hit is None:
                merged[key] = complex(coef)
            else:
                merged[hit] += complex(coef)
        # c != 0 keeps a NaN coefficient, so non-finite data is not a silent zero
        self.terms = tuple((c, e) for e, c in merged.items() if c != 0)

    @staticmethod
    def of(*terms):
        return PowerSum(terms)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape, dtype=complex)
        for coef, expo in self.terms:
            out = out + coef * np.exp(expo * np.log(r))
        return out

    def derivative(self):
        return PowerSum([(coef * expo, expo - 1) for coef, expo in self.terms])

    def times_power(self, p):
        return PowerSum([(coef, expo + p) for coef, expo in self.terms])

    def scaled(self, k):
        return PowerSum([(coef * k, expo) for coef, expo in self.terms])

    def __add__(self, other):
        if not isinstance(other, PowerSum):
            return NotImplemented
        return PowerSum(self.terms + other.terms)

    def slowest_exponent(self):
        if not self.terms:
            return -np.inf
        return max(e.real for _, e in self.terms)

    def moment(self, a, r_max):
        """int_{r_max}^inf s^a * sum(s) ds, exact."""
        total = 0.0 + 0.0j
        for coef, expo in self.terms:
            p = expo + a + 1.0
            if abs(p) < _MERGE_TOL or p.real >= 0.0:
                raise TailError(
                    f"non-integrable tail: exponent {expo + a} with Re >= -1")
            total += -coef * r_max ** p / p
        return total

    def right_integral_scaled(self, c, log_r, r_max):
        """r^c int_{r_max}^inf s^{-c} sum(s) ds at radii exp(log_r)."""
        c = complex(c)
        out = np.zeros_like(np.asarray(log_r, dtype=complex))
        lmax = np.log(r_max)
        for coef, expo in self.terms:
            d = c - expo - 1.0
            if d.real <= 0.0:
                raise TailError(
                    f"non-integrable tail: exponent {expo - c} beyond r_max has Re >= -1"
                )
            out = out + coef * r_max ** (expo + 1) / d * np.exp(c * (log_r - lmax))
        return out


ZERO_TAIL = PowerSum(())


@dataclass(frozen=True)
class EnvelopeTail:
    """Model tail anchor * (s/r_ref)^{exponent}, anchored at the value at r_ref."""

    exponent: float
    anchor: complex
    r_ref: float

    def _as_power(self):
        return PowerSum.of((self.anchor * self.r_ref ** (-self.exponent), self.exponent))

    def __call__(self, s):
        return self.anchor * (np.asarray(s, dtype=complex) / self.r_ref) ** self.exponent

    def scaled(self, k):
        return EnvelopeTail(self.exponent, self.anchor * k, self.r_ref)

    def __add__(self, other):
        if isinstance(other, EnvelopeTail):
            if other.r_ref != self.r_ref:
                raise ValueError("envelope tails anchored at different radii")
            return EnvelopeTail(max(self.exponent, other.exponent),
                                self.anchor + other.anchor, self.r_ref)
        if isinstance(other, PowerSum):
            return EnvelopeTail(
                max(self.exponent, other.slowest_exponent()),
                self.anchor + complex(other(self.r_ref)),
                self.r_ref,
            )
        return NotImplemented

    __radd__ = __add__

    def moment(self, a, r_max):
        return self._as_power().moment(a, r_max)

    def right_integral_scaled(self, c, log_r, r_max):
        return self._as_power().right_integral_scaled(c, log_r, r_max)

    def slowest_exponent(self):
        return self.exponent


def envelope_tail(grid: RadialGrid, exponent: float, values) -> EnvelopeTail:
    """Envelope tail of node data: the given exponent, anchored at the r_max value."""
    return EnvelopeTail(exponent, complex(values[-1]), grid.r_max)


@dataclass
class ModeProfile:
    """Complex radial profile of one cylindrical component at one angular mode."""

    values: np.ndarray
    grid: RadialGrid
    tail: object = field(default_factory=lambda: ZERO_TAIL)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError("profile values not aligned with grid nodes")

    @staticmethod
    def from_powersum(ps: PowerSum, grid: RadialGrid):
        return ModeProfile(ps(grid.r_nodes), grid, ps)

    @staticmethod
    def zeros(grid: RadialGrid):
        return ModeProfile(np.zeros(grid.n_nodes, dtype=complex), grid, ZERO_TAIL)

    def at(self, r):
        """Point evaluation: panel interpolation inside, tail model beyond r_max."""
        r_arr = np.asarray(r, dtype=float)
        scalar = r_arr.ndim == 0
        rq = np.atleast_1d(r_arr)
        out = np.empty(rq.shape, dtype=complex)
        inside = rq <= self.grid.r_max
        if np.any(inside):
            out[inside] = self.grid.interpolate(self.values, rq[inside])
        if np.any(~inside):
            out[~inside] = self.tail(rq[~inside])
        return out[0] if scalar else out

    def scaled(self, k):
        return ModeProfile(self.values * k, self.grid, self.tail.scaled(k))

    def __add__(self, other):
        if other.grid is not self.grid:
            raise ValueError("profiles live on different grids")
        return ModeProfile(self.values + other.values, self.grid, self.tail + other.tail)


# -- tail-aware kernel wrappers used by the per-mode solvers ---------------

def cum_right_full(grid: RadialGrid, c, values, tail) -> np.ndarray:
    """r^c int_r^inf s^{-c} h ds at every node, tail included."""
    out = grid.cum_right(c, values)
    return out + tail.right_integral_scaled(c, grid.log_r, grid.r_max)


def full_moment(grid: RadialGrid, a, values, tail) -> complex:
    """int_1^inf s^a h ds, tail included."""
    return complex(grid.node_moment(a, values) + tail.moment(a, grid.r_max))


def one_block(pointwise, divergence):
    """Check that a mode solve is forced by exactly one block of data."""
    if (pointwise is None) == (divergence is None):
        raise ValueError("exactly one of pointwise/divergence must be given")


def dirichlet_solve(grid: RadialGrid, la, lb, p, h_left: ModeProfile,
                    h_right: ModeProfile | None):
    """Green's-function solve of an Euler-type radial block with v(1) = 0.

    The block has homogeneous solutions r^la and r^lb.  p = 1 takes
    pointwise data f, passed as both h_left and h_right.  p = 0 takes
    divergence-form data: after integrating by parts, the left and right
    kernels see two different combinations h_left and h_right of its
    slots.  h_right = None stands for identically zero right data (mode-0
    vertical divergence data, where lb = 0), whose kernels are skipped.
    Variation of parameters gives

        v = [r^la int_1^r s^{p-la} h_left + r^lb int_r^inf s^{p-lb} h_right
             - r^la int_1^inf s^{p-lb} h_right] / (lb - la),

    the decaying solution that keeps the branch r^la, and dv is its
    Leibniz derivative.  Returns (v, dv, envelope exponent of v).
    """
    r = grid.r_nodes
    cl = grid.cum_left(p - la, h_left.values)
    cr = branch = right = 0.0
    slowest = h_left.tail.slowest_exponent()
    if h_right is not None:
        cr = cum_right_full(grid, lb - p, h_right.values, h_right.tail)
        branch = full_moment(grid, p - lb, h_right.values, h_right.tail) * np.exp(la * grid.log_r)
        right = h_right.values
        slowest = max(slowest, h_right.tail.slowest_exponent())
    rp = r ** p
    v = (rp * (cl + cr) - branch) / (lb - la)
    dv = ((rp * (la * cl + lb * cr) - la * branch) / r
          + rp * (h_left.values - right)) / (lb - la)
    return v, dv, max(slowest + p + 1.0, float(np.real(la)))
