"""The nonlinear solve: spectral convolution, the linearized solve map, and
the fixed-point iteration.

One application of the map T solves the linearized system with forcing
g + div(-w (x) w + F).  Force and iterate are real, v_{-n} = conj(v_n),
and the mode -n operator is the conjugate of the mode n one, so T solves
n = 0..N and sets mode -n to the conjugate of mode n.  The product is
pseudo-spectral (Orszag 1971) on L >= 3N + 1 angles: sample mode n
collects modes n +- L, which lie beyond the product's |n| <= 2N for
|n| <= N, so the modes kept are exact.  L is 5-smooth (75 at N = 24;
numpy's FFT is ~5x slower at the prime 73).  Because the data is
independent of the axial variable, the third row of the tensor w (x) w
never enters any divergence and is not formed.  The iteration v <- T(v)
is monitored empirically: three consecutive non-contracting steps abort
the run, which is the checkable shadow of the smallness hypothesis of
the underlying theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import horizontal as hz
from . import vertical as vt
from .background import HamelParameters, velocity, velocity_derivative
from .errors import AdmissibilityError, ContractionError, IterationError
from .grid import RadialGrid
from .profiles import (
    ModeProfile,
    PowerSum,
    ZERO_TAIL,
    envelope_tail,
    l1_weighted_norm,
)

TENSOR_KEYS = ("rr", "rt", "r3", "tr", "tt", "t3")
_COMP = {"r": 0, "t": 1, "3": 2}


# ---------------------------------------------------------------------------
# fields


@dataclass
class VelocityField:
    """Mode-indexed velocity triple with radial-derivative data.

    Components are stored in the (e_r, e_theta, e_3) basis; a real field
    in physical space satisfies v_{a,-n} = conj(v_{a,n}).
    """

    grid: RadialGrid
    cutoff: int
    modes: dict = field(default_factory=dict)   # n -> (v_r, v_t, v_3)
    dmodes: dict = field(default_factory=dict)  # n -> (dv_r, dv_t, dv_3)

    @staticmethod
    def zero(grid: RadialGrid, cutoff: int) -> "VelocityField":
        return VelocityField(grid, cutoff, {}, {})

    def mode_values(self, n):
        """Component value arrays of mode n, zeros if absent."""
        if n in self.modes:
            return tuple(p.values for p in self.modes[n])
        z = np.zeros(self.grid.n_nodes, dtype=complex)
        return (z, z, z)

    def mode_tail_exponent(self, n) -> float:
        if n not in self.modes:
            return -np.inf
        return max(p.tail.slowest_exponent() for p in self.modes[n])

    def gradient_values(self, n):
        """The six horizontal-gradient components of mode n.

        Order: (d_r v_r, d_r v_t, d_r v_3, (in v_r - v_t)/r,
        (in v_t + v_r)/r, in v_3 / r).
        """
        r = self.grid.r_nodes
        v_r, v_t, v_3 = self.mode_values(n)
        if n in self.dmodes:
            d_r, d_t, d_3 = (p.values for p in self.dmodes[n])
        else:
            z = np.zeros_like(v_r)
            d_r, d_t, d_3 = z, z, z
        i_n = 1j * n
        return (d_r, d_t, d_3,
                (i_n * v_r - v_t) / r, (i_n * v_t + v_r) / r, i_n * v_3 / r)

    def scale(self) -> float:
        if not self.modes:
            return 0.0
        return max(max(p.max_abs() for p in triple) for triple in self.modes.values())

    def reality_defect(self) -> float:
        """Max deviation from v_{a,-n} = conj(v_{a,n}), relative to field scale."""
        s = self.scale()
        if s == 0.0:
            return 0.0
        worst = 0.0
        for n in range(0, self.cutoff + 1):
            plus = self.mode_values(n)
            minus = self.mode_values(-n)
            for a in range(3):
                worst = max(worst, float(np.max(np.abs(minus[a] - np.conj(plus[a])))))
        return worst / s


def x_norm(fieldv: VelocityField, rho: float):
    """Discrete solution-space norm: l1-over-modes weighted sups of the field
    (weight rho-1) plus its horizontal gradient (weight rho)."""
    r = fieldv.grid.r_nodes
    w_lo = r ** (rho - 1.0)
    w_hi = r ** rho
    val = 0.0
    grad = 0.0
    for n in sorted(fieldv.modes):
        triple = fieldv.mode_values(n)
        val += max(float(np.max(w_lo * np.abs(v))) for v in triple)
        grads = fieldv.gradient_values(n)
        grad += max(float(np.max(w_hi * np.abs(gv))) for gv in grads)
    return val + grad


def field_diff_norm(a: VelocityField, b: VelocityField, rho: float) -> float:
    """x_norm of (a - b) without materializing the difference field."""
    r = a.grid.r_nodes
    w_lo = r ** (rho - 1.0)
    w_hi = r ** rho
    total = 0.0
    for n in sorted(set(a.modes) | set(b.modes)):
        va, vb = a.mode_values(n), b.mode_values(n)
        total += max(float(np.max(w_lo * np.abs(x - y))) for x, y in zip(va, vb))
        ga, gb = a.gradient_values(n), b.gradient_values(n)
        total += max(float(np.max(w_hi * np.abs(x - y))) for x, y in zip(ga, gb))
    return total


# ---------------------------------------------------------------------------
# forcing data


@dataclass
class ForcingSpec:
    """External force f = g + div F by angular mode.

    g_modes maps n to the pointwise triple (f_r, f_t, f_3); F_modes maps
    n to a dict over TENSOR_KEYS.  Missing modes and missing tensor slots
    mean zero.
    """

    grid: RadialGrid
    cutoff: int
    g_modes: dict = field(default_factory=dict)
    F_modes: dict = field(default_factory=dict)

    def norms(self, rho: float):
        """(l1 norm of g at weight 2 rho - 1, l1 norm of F at weight 2(rho-1))."""
        g_norm = l1_weighted_norm({n: trip for n, trip in self.g_modes.items()},
                                  2.0 * rho - 1.0) if self.g_modes else 0.0
        f_norm = l1_weighted_norm({n: tuple(d.values()) for n, d in self.F_modes.items()},
                                  2.0 * (rho - 1.0)) if self.F_modes else 0.0
        return g_norm, f_norm

    def validate(self, params: HamelParameters):
        """Envelope-class and reality checks for the fixed-point pipeline."""
        g_bound = -(2.0 * params.rho - 1.0)
        f_bound = -2.0 * (params.rho - 1.0)
        for n, trip in self.g_modes.items():
            for p in trip:
                e = p.tail.slowest_exponent()
                if p.max_abs() > 0 and e > g_bound + 1e-9:
                    raise AdmissibilityError(
                        f"pointwise forcing envelope exponent {e} at mode {n} "
                        f"must be <= -(2*rho-1) = {g_bound}")
        for n, comp in self.F_modes.items():
            for key, p in comp.items():
                e = p.tail.slowest_exponent()
                if p.max_abs() > 0 and e > f_bound + 1e-9:
                    raise AdmissibilityError(
                        f"divergence forcing envelope exponent {e} at mode {n} ({key}) "
                        f"must be <= -2*(rho-1) = {f_bound}")
        defect = self.reality_defect()
        if defect > 1e-10:
            raise AdmissibilityError(
                f"forcing violates the reality condition by {defect:.2e}")

    def reality_defect(self) -> float:
        worst = 0.0
        scale = 0.0
        for n, trip in self.g_modes.items():
            scale = max(scale, *(p.max_abs() for p in trip))
        for n, comp in self.F_modes.items():
            scale = max(scale, *(p.max_abs() for p in comp.values()))
        if scale == 0.0:
            return 0.0
        for n in range(0, self.cutoff + 1):
            gp = self.g_modes.get(n)
            gm = self.g_modes.get(-n)
            for a in range(3):
                vp = gp[a].values if gp else 0.0
                vm = gm[a].values if gm else 0.0
                worst = max(worst, float(np.max(np.abs(vm - np.conj(vp)))))
            fp = self.F_modes.get(n, {})
            fm = self.F_modes.get(-n, {})
            for key in TENSOR_KEYS:
                vp = fp[key].values if key in fp else 0.0
                vm = fm[key].values if key in fm else 0.0
                worst = max(worst, float(np.max(np.abs(vm - np.conj(vp)))))
        return worst / scale


# ---------------------------------------------------------------------------
# spectral convolution


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n."""
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return n if m == 1 else _fft_length(n + 1)


def tensor_convolution(v: VelocityField, w: VelocityField) -> dict:
    """Mode family of the tensor product (v (x) w), truncated to the cutoff.

    Returns {n: {key: ModeProfile}} over the six tensor slots that can
    enter a divergence of z-independent data; the (3r, 3t, 33) row is not
    formed.  The fields need not be real.  Product modes that no pair of
    nonzero operand components reaches are exactly zero, with `ZERO_TAIL`.
    """
    if v.cutoff != w.cutoff:
        raise ValueError("cutoff mismatch between convolution operands")
    if v.grid is not w.grid:
        raise ValueError("convolution operands live on different grids")
    grid = v.grid
    N = v.cutoff
    L = _fft_length(3 * N + 1)
    span = np.arange(-N, N + 1)

    def samples(f):
        # mode n in column n % L, transformed in place to theta samples
        buf = np.zeros((3, grid.n_nodes, L), dtype=complex)
        for n, trip in f.modes.items():
            if abs(n) <= N:
                for a in range(3):
                    buf[a, :, n % L] = trip[a].values
        nonzero = np.any(buf != 0, axis=1)[:, span % L]
        np.fft.ifft(buf, axis=-1, norm="forward", out=buf)
        return buf, nonzero, np.array([f.mode_tail_exponent(n) for n in span])

    bv, nz_v, ev = samples(v)
    bw, nz_w, ew = (bv, nz_v, ev) if w is v else samples(w)
    exps = np.full(4 * N + 1, -np.inf)  # max-plus convolution, index n + 2N
    np.maximum.at(exps, np.add.outer(span, span) + 2 * N, np.add.outer(ev, ew))

    prod = np.empty((grid.n_nodes, L), dtype=complex)
    out = {n: {} for n in span.tolist()}
    for key in TENSOR_KEYS:
        a, b = _COMP[key[0]], _COMP[key[1]]
        reached = np.convolve(nz_v[a], nz_w[b])[N:3 * N + 1] > 0
        np.multiply(bv[a], bw[b], out=prod)
        np.fft.fft(prod, axis=-1, norm="forward", out=prod)
        vals = prod.T[span % L]
        vals[~reached] = 0.0
        for n, row, e in zip(out, vals, exps[N:3 * N + 1]):
            tail = envelope_tail(grid, e, row) if np.isfinite(e) and np.any(row) else ZERO_TAIL
            out[n][key] = ModeProfile(row, n, key, grid, tail)
    return out


def convolution_physical_oracle(v: VelocityField, w: VelocityField, n: int, key: str):
    """Independent check: multiply on a theta sample and re-project mode n."""
    N = v.cutoff
    M = 4 * N + 1
    theta = 2.0 * np.pi * np.arange(M) / M
    a = _COMP[key[0]]
    b = _COMP[key[1]]
    va = np.zeros((M, v.grid.n_nodes), dtype=complex)
    wb = np.zeros((M, v.grid.n_nodes), dtype=complex)
    for m in range(-N, N + 1):
        if m in v.modes:
            va += np.exp(1j * m * theta)[:, None] * v.mode_values(m)[a][None, :]
        if m in w.modes:
            wb += np.exp(1j * m * theta)[:, None] * w.mode_values(m)[b][None, :]
    prod = va * wb
    return np.sum(prod * np.exp(-1j * n * theta)[:, None], axis=0) / M


# ---------------------------------------------------------------------------
# the solve map T


def _nonzero(*profiles) -> bool:
    return any(p.max_abs() > 0.0 for p in profiles)


def _solve_one_mode(n, forcing: ForcingSpec, quad_modes, params, grid):
    """Solve the horizontal and vertical problems of a single mode."""
    g_mode = forcing.g_modes.get(n)
    F_mode = dict(forcing.F_modes.get(n, {}))

    if quad_modes is not None and n in quad_modes:
        qm = quad_modes[n]
        for key in TENSOR_KEYS:
            extra = qm[key].scaled(-1.0)
            F_mode[key] = (F_mode[key] + extra) if key in F_mode else extra

    parts_h = []
    parts_v = []
    if g_mode is not None:
        f_r, f_t, f_3 = g_mode
        if _nonzero(f_r, f_t):
            parts_h.append(hz.solve_mode(
                hz.HorizontalForcingMode(n, pointwise=(f_r, f_t)), params, grid))
        if _nonzero(f_3):
            parts_v.append(vt.solve_vertical_mode(
                vt.VerticalForcingMode(n, pointwise=f_3), params, grid))
    if F_mode:
        zeros = ModeProfile.zeros(grid, n, "0")
        blk = [F_mode.get(k, zeros) for k in ("rr", "rt", "tr", "tt")]
        if _nonzero(*blk):
            parts_h.append(hz.solve_mode(
                hz.HorizontalForcingMode(n, divergence=tuple(blk)), params, grid))
        vert = [F_mode.get(k, zeros) for k in ("r3", "t3")]
        if _nonzero(*vert):
            parts_v.append(vt.solve_vertical_mode(
                vt.VerticalForcingMode(n, divergence=tuple(vert)), params, grid))

    sol_h = parts_h[0] if parts_h else hz.zero_solution(n, grid)
    for extra in parts_h[1:]:
        sol_h = sol_h.add(extra)
    sol_v = parts_v[0] if parts_v else vt.zero_solution(n, grid)
    for extra in parts_v[1:]:
        sol_v = sol_v.add(extra)
    return sol_h, sol_v


def apply_T(w: VelocityField, forcing: ForcingSpec, params: HamelParameters,
            grid: RadialGrid) -> VelocityField:
    """One linearized solve with forcing g + div(-w (x) w + F).

    The forcing and w must be real: modes 0..N are solved and mode -n is
    the conjugate of mode n.  A w that is not real raises ValueError; the
    forcing is validated once, in `picard_iterate`.
    """
    defect = w.reality_defect()
    if defect > 1e-10:
        raise ValueError(f"iterate violates the reality condition by {defect:.2e}")
    N = forcing.cutoff
    quad = tensor_convolution(w, w) if w.modes else None

    result = VelocityField(grid, N, {}, {})
    for n in range(N + 1):
        sol_h, sol_v = _solve_one_mode(n, forcing, quad, params, grid)
        result.modes[n] = (sol_h.v_r, sol_h.v_t, sol_v.v_3)
        result.dmodes[n] = (sol_h.dv_r, sol_h.dv_t, sol_v.dv_3)
    for n in range(1, N + 1):
        result.modes[-n] = tuple(p.conjugate() for p in result.modes[n])
        result.dmodes[-n] = tuple(p.conjugate() for p in result.dmodes[n])
    return result


# ---------------------------------------------------------------------------
# fixed-point iteration


@dataclass
class PicardDiagnostics:
    iterate_norms: list = field(default_factory=list)
    contraction_factors: list = field(default_factory=list)
    converged: bool = False
    lambda_empirical: float = 0.0
    iterations: int = 0
    forcing_norm: float = 0.0
    difference_norms: list = field(default_factory=list)

    def as_dict(self):
        return {
            "iterate_norms": list(self.iterate_norms),
            "contraction_factors": list(self.contraction_factors),
            "difference_norms": list(self.difference_norms),
            "converged": self.converged,
            "lambda_empirical": self.lambda_empirical,
            "iterations": self.iterations,
            "forcing_norm": self.forcing_norm,
        }


def picard_iterate(forcing: ForcingSpec, params: HamelParameters, grid: RadialGrid,
                   max_iter: int = 50, tol: float = 1e-10):
    """Iterate v <- T(v) from zero until the X-norm difference drops below
    tol relative to the first iterate.

    Raises ContractionError after three consecutive non-contracting steps
    and IterationError when max_iter is exhausted; both carry diagnostics.
    """
    forcing.validate(params)
    g_norm, f_norm = forcing.norms(params.rho)
    diag = PicardDiagnostics(forcing_norm=g_norm + f_norm)

    current = VelocityField.zero(grid, forcing.cutoff)
    first = apply_T(current, forcing, params, grid)
    d0 = field_diff_norm(first, current, params.rho)
    diag.iterate_norms.append(x_norm(first, params.rho))
    diag.difference_norms.append(d0)
    diag.iterations = 1
    if diag.forcing_norm > 0:
        diag.lambda_empirical = d0 / diag.forcing_norm
    if d0 == 0.0:
        diag.converged = True
        return first, diag

    current = first
    d_prev = d0
    bad_streak = 0
    for k in range(1, max_iter):
        nxt = apply_T(current, forcing, params, grid)
        d = field_diff_norm(nxt, current, params.rho)
        q = d / d_prev if d_prev > 0 else 0.0
        diag.iterations = k + 1
        diag.iterate_norms.append(x_norm(nxt, params.rho))
        diag.difference_norms.append(d)
        diag.contraction_factors.append(q)
        current = nxt

        if not np.isfinite(q) or q >= 1.0:
            bad_streak += 1
            if bad_streak >= 3:
                raise ContractionError(
                    "outside contraction regime (data too large): "
                    f"contraction factors {diag.contraction_factors[-3:]}",
                    diagnostics=diag)
        else:
            bad_streak = 0

        if d <= tol * d0:
            diag.converged = True
            return current, diag
        d_prev = d

    raise IterationError(
        f"fixed-point iteration did not reach tol {tol:.1e} in {max_iter} steps",
        diagnostics=diag)


def compute_lambda(params: HamelParameters, c0: float) -> float:
    """Reported linear-gain constant c0 gamma^2 (sqrt|alpha| + gamma)^2 /
    ((rho-2)^2 (3-rho)); c0 is not determined by the theory."""
    a, g, rho = abs(params.alpha), params.gamma, params.rho
    return c0 * g ** 2 * (np.sqrt(a) + g) ** 2 / ((rho - 2.0) ** 2 * (3.0 - rho))


# ---------------------------------------------------------------------------
# assembled flow


def with_background(fieldv: VelocityField, params: HamelParameters) -> VelocityField:
    """Field of the full flow u = V + v in modal form (background enters mode 0)."""
    grid = fieldv.grid
    r = grid.r_nodes
    v_r, v_t, v_3 = velocity(params, r)
    dv_r, dv_t, dv_3 = velocity_derivative(params, r)
    mk = lambda vals, tag, terms: ModeProfile(vals, 0, tag, grid, PowerSum(terms))
    bg = (mk(v_r.astype(complex), "r", [(-params.gamma, -1.0)]),
          mk(v_t.astype(complex), "t", [(params.alpha, -1.0)]),
          mk(v_3.astype(complex), "3", []))
    dbg = (mk(dv_r.astype(complex), "r", [(params.gamma, -2.0)]),
           mk(dv_t.astype(complex), "t", [(-params.alpha, -2.0)]),
           mk(dv_3.astype(complex), "3", []))
    out = VelocityField(grid, fieldv.cutoff, dict(fieldv.modes), dict(fieldv.dmodes))
    if 0 in out.modes:
        out.modes[0] = tuple(a + b for a, b in zip(bg, out.modes[0]))
        out.dmodes[0] = tuple(a + b for a, b in zip(dbg, out.dmodes[0]))
    else:
        out.modes[0] = bg
        out.dmodes[0] = dbg
    return out


class FlowAccessor:
    """Point evaluation of u = V + v and of the remainder u - V."""

    def __init__(self, fieldv: VelocityField, params: HamelParameters):
        self.field = fieldv
        self.params = params
        self.grid = fieldv.grid

    def perturbation(self, r, theta):
        """Polar components (v_r, v_t, v_3) of u - V at (r, theta), complex sum."""
        out = np.zeros(3, dtype=complex)
        for n, triple in self.field.modes.items():
            phase = np.exp(1j * n * theta)
            for a in range(3):
                out[a] += triple[a].at(r) * phase
        return out

    def velocity(self, r, theta):
        """Real 3-vector of the full flow in polar components."""
        base = np.array(velocity(self.params, float(r)), dtype=float)
        pert = self.perturbation(r, theta)
        return base + np.real(pert)

    def max_imag(self, radii, n_theta: int = 17) -> float:
        """Largest imaginary part over physical samples, for reality checks."""
        worst = 0.0
        for r in radii:
            for theta in np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False):
                worst = max(worst, float(np.max(np.abs(np.imag(self.perturbation(r, theta))))))
        return worst

    def remainder_rms_nodes(self) -> np.ndarray:
        """sqrt of the theta-mean square of |u - V| at every grid node."""
        total = np.zeros(self.grid.n_nodes)
        for n, triple in self.field.modes.items():
            for p in triple:
                total += np.abs(p.values) ** 2
        return np.sqrt(total)


def reconstruct_u(fieldv: VelocityField, params: HamelParameters) -> FlowAccessor:
    return FlowAccessor(fieldv, params)
