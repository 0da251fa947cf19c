"""Independent verification oracles.

Everything here deliberately avoids the Green's-function solve paths:
manufactured forcings come from symbolic application of the mode ODEs to
power-law targets, decay rates from a log-log fit, equation residuals
from per-panel spectral differentiation, and the weak-form residual from
direct quadrature against compactly supported test functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import HamelParameters
from .forcing import bump_profile
from .grid import RadialGrid
from .nonlinear import ForcingSpec, VelocityField, tensor_convolution, with_background
from .profiles import ModeProfile, PowerSum, weighted_sup_norm
from .spectral import compute_coefficients

_BC_TOL = 1e-10


# ---------------------------------------------------------------------------
# manufactured solutions


def vertical_operator(v: PowerSum, n: int, params: HamelParameters) -> PowerSum:
    """Symbolic -v'' - (1+gamma) v'/r + (n^2 + i alpha n) v / r^2."""
    mu = n * n + 1j * params.alpha * n
    terms = []
    for c, e in v.terms:
        terms.append((c * (-e * (e - 1.0) - (1.0 + params.gamma) * e + mu), e - 2.0))
    return PowerSum(terms)


def horizontal_axisymmetric_operator(v: PowerSum, params: HamelParameters) -> PowerSum:
    """Symbolic -v'' - (1+gamma) v'/r + (1-gamma) v / r^2 for the angular profile."""
    terms = []
    for c, e in v.terms:
        terms.append((c * (-e * (e - 1.0) - (1.0 + params.gamma) * e + 1.0 - params.gamma),
                      e - 2.0))
    return PowerSum(terms)


def stream_velocity(mu: PowerSum, n: int):
    """Divergence-free mode pair generated by the streamfunction mu e^{in theta}."""
    v_r = PowerSum([(-1j * n * c, e - 1.0) for c, e in mu.terms])
    v_t = mu.derivative()
    return v_r, v_t


def manufacture_vertical(v_target: PowerSum, n: int, params: HamelParameters):
    """Pointwise forcing whose mode-n vertical solve must return v_target."""
    if abs(v_target(1.0)) > _BC_TOL:
        raise ValueError(f"target violates v(1) = 0: got {v_target(1.0)}")
    return vertical_operator(v_target, n, params)


def manufacture_horizontal_axisymmetric(v_theta: PowerSum, params: HamelParameters):
    """Pointwise angular forcing whose mode-0 horizontal solve returns v_theta."""
    if abs(v_theta(1.0)) > _BC_TOL:
        raise ValueError(f"target violates v(1) = 0: got {v_theta(1.0)}")
    return horizontal_axisymmetric_operator(v_theta, params)


def manufacture_horizontal_stream(mu: PowerSum, n: int, params: HamelParameters):
    """Pointwise forcing (0, f_t) for the divergence-free target of a
    streamfunction; returns (f_t, v_r, v_t).

    The angular forcing is chosen so its mode rotation matches the
    transported vorticity ODE applied to rot of the target; the radial
    forcing component is taken as zero (it only shifts the pressure).
    """
    if n == 0:
        raise ValueError("streamfunction targets are for n != 0; use the axisymmetric form")
    if abs(mu(1.0)) > _BC_TOL or abs(mu.derivative()(1.0)) > _BC_TOL:
        raise ValueError("target violates v(1) = 0: streamfunction needs mu(1) = mu'(1) = 0")
    v_r, v_t = stream_velocity(mu, n)
    # omega = mu'' + mu'/r - n^2 mu / r^2
    omega = PowerSum([(c * (e * (e - 1.0) + e - n * n), e - 2.0) for c, e in mu.terms])
    rot_f = vertical_operator(omega, n, params)  # same radial operator as the vertical mode
    # f_t with (1/r)(r f_t)' = rot_f and no r^{-1} homogeneous admixture
    f_t_terms = []
    for c, e in rot_f.terms:
        if abs(e + 2.0) < 1e-10:
            raise ValueError("degenerate exponent in manufactured forcing; perturb the target")
        f_t_terms.append((c / (e + 2.0), e + 1.0))
    return PowerSum(f_t_terms), v_r, v_t


def manufacture_forcing(targets: dict, params: HamelParameters, grid: RadialGrid):
    """Invert the mode operators on power-law targets.

    `targets` maps ("horizontal"|"vertical", n) to a PowerSum: the
    angular profile for horizontal n = 0, a streamfunction for
    horizontal n != 0, and the scalar profile for vertical modes.
    Returns (forcing_modes, expected) where forcing_modes maps the same
    keys to the pointwise data of the solve, (f_r, f_t) for horizontal
    modes and f_3 for vertical ones, and expected maps them to tuples of
    exact PowerSum profiles.
    """
    forcing_modes = {}
    expected = {}
    for (kind, n), target in targets.items():
        if kind == "vertical":
            f = manufacture_vertical(target, n, params)
            forcing_modes[(kind, n)] = ModeProfile.from_powersum(f, grid)
            expected[(kind, n)] = (target,)
        elif kind == "horizontal" and n == 0:
            f = manufacture_horizontal_axisymmetric(target, params)
            forcing_modes[(kind, n)] = (ModeProfile.zeros(grid),
                                        ModeProfile.from_powersum(f, grid))
            expected[(kind, n)] = (PowerSum.zero(), target)
        elif kind == "horizontal":
            f_t, v_r, v_t = manufacture_horizontal_stream(target, n, params)
            forcing_modes[(kind, n)] = (ModeProfile.zeros(grid),
                                        ModeProfile.from_powersum(f_t, grid))
            expected[(kind, n)] = (v_r, v_t)
        else:
            raise ValueError(f"unknown target kind {kind!r}")
    return forcing_modes, expected


# ---------------------------------------------------------------------------
# decay fitting


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    fit_window: tuple
    rms_residual: float


def fit_decay(target, fit_window, grid: RadialGrid | None = None) -> DecayFit:
    """Least-squares line through (log r, log |target|) on the window.

    `target` is a ModeProfile, a VelocityField (theta-RMS amplitude), or
    a pair (radii, magnitudes).  Windows start no earlier than r = 10 and
    end no later than r_max / 2 to dodge near-field and truncation-tail
    contamination.
    """
    r_lo, r_hi = fit_window
    if isinstance(target, ModeProfile):
        grid = target.grid
        radii = grid.r_nodes
        mags = np.abs(target.values)
    elif isinstance(target, VelocityField):
        grid = target.grid
        radii = grid.r_nodes
        mags = target.theta_rms()
    else:
        radii, mags = target
        radii = np.asarray(radii, dtype=float)
        raw = np.asarray(mags)
        if np.isrealobj(raw) and np.any(raw < 0):
            raise ValueError("mixed-sign data cannot be fitted on log axes")
        mags = np.abs(raw)

    if grid is not None:
        if r_lo < 10.0 - 1e-12:
            raise ValueError("fit window must start at r >= 10")
        if r_hi > grid.r_max / 2.0 + 1e-9:
            raise ValueError("fit window must end by r_max / 2")
    sel = (radii >= r_lo) & (radii <= r_hi)
    if not np.any(sel):
        raise ValueError("fit window contains no grid nodes")
    if np.any(mags[sel] <= 0.0):
        raise ValueError("zero magnitudes in fit window")
    x = np.log(radii[sel])
    y = np.log(mags[sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return DecayFit(float(slope), float(intercept), (float(r_lo), float(r_hi)),
                    float(np.sqrt(np.mean(resid ** 2))))


# ---------------------------------------------------------------------------
# equation residuals by spectral differentiation


def vorticity_residual(omega: ModeProfile, rot_f_values, n: int,
                       params: HamelParameters) -> float:
    """Relative residual of the transported vorticity ODE for mode n.

    Both derivatives are spectral-per-panel, so the result is
    differentiation-limited (around 1e-5 at the default grid) rather
    than solver-limited.
    """
    grid = omega.grid
    r = grid.r_nodes
    d1 = grid.derivative(omega.values)
    d2 = grid.derivative(d1)
    mu = n * n + 1j * params.alpha * n
    res = -d2 - (1.0 + params.gamma) * d1 / r + mu * omega.values / r ** 2 - rot_f_values
    scale = np.max(np.abs(rot_f_values))
    return float(np.max(np.abs(res)) / scale) if scale > 0 else float(np.max(np.abs(res)))


def vertical_residual(sol, f_values, n: int, params: HamelParameters) -> float:
    """Relative residual of the vertical mode ODE, using the analytic
    first derivative so only one numeric differentiation enters."""
    grid = sol.v_3.grid
    r = grid.r_nodes
    d1 = sol.dv_3.values
    d2 = grid.derivative(d1)
    mu = n * n + 1j * params.alpha * n
    res = -d2 - (1.0 + params.gamma) * d1 / r + mu * sol.v_3.values / r ** 2 - f_values
    scale = np.max(np.abs(f_values))
    return float(np.max(np.abs(res)) / scale) if scale > 0 else float(np.max(np.abs(res)))


def angular_residual(sol, f_values, params: HamelParameters) -> float:
    """Relative residual of the axisymmetric angular ODE."""
    grid = sol.v_t.grid
    r = grid.r_nodes
    d1 = sol.dv_t.values
    d2 = grid.derivative(d1)
    res = (-d2 - (1.0 + params.gamma) * d1 / r
           + (1.0 - params.gamma) * sol.v_t.values / r ** 2 - f_values)
    scale = np.max(np.abs(f_values))
    return float(np.max(np.abs(res)) / scale) if scale > 0 else float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# weak residual of the full system


@dataclass
class TestFunction:
    """Compactly supported test function with a single angular mode.

    kind "stream": horizontal pair from the perpendicular gradient of a
    bump streamfunction (exactly divergence-free); kind "vertical": a free
    scalar bump in the third component.
    """

    kind: str
    m: int
    support: tuple
    b: np.ndarray      # bump values at nodes
    db: np.ndarray
    d2b: np.ndarray

    def gradient_rows(self, grid: RadialGrid):
        """(phi_r, phi_t, phi_3) and the six gradient slots, mode-m arrays."""
        r = grid.r_nodes
        im = 1j * self.m
        if self.kind == "stream":
            phi_r = -im * self.b / r
            phi_t = self.db
            phi_3 = np.zeros_like(self.b, dtype=complex)
            g_rr = -im * (self.db / r - self.b / r ** 2)
            g_rt = self.d2b
            g_r3 = phi_3
            g_tr = (im * phi_r - phi_t) / r
            g_tt = (im * phi_t + phi_r) / r
            g_t3 = phi_3
        elif self.kind == "vertical":
            zero = np.zeros_like(self.b, dtype=complex)
            phi_r, phi_t = zero, zero
            phi_3 = self.b.astype(complex)
            g_rr = g_rt = g_tr = g_tt = zero
            g_r3 = self.db.astype(complex)
            g_t3 = im * self.b / r
        else:
            raise ValueError(f"unknown test function kind {self.kind!r}")
        return (phi_r, phi_t, phi_3), (g_rr, g_rt, g_r3, g_tr, g_tt, g_t3)


def make_test_suite(grid: RadialGrid, modes=(0, 1, 2), support=(2.0, 4.0)):
    """Stream and vertical bump test functions on a panel-snapped support."""
    fn, dfn, d2fn, (a, b) = bump_profile(grid, support, derivatives=True)
    if not (1.0 < a and b < grid.r_max):
        raise ValueError("test function support leaving the domain")
    vals = fn(grid.r_nodes)
    db = dfn(grid.r_nodes)
    d2b = d2fn(grid.r_nodes)
    suite = []
    for m in modes:
        suite.append(TestFunction("stream", m, (a, b), vals, db, d2b))
        suite.append(TestFunction("vertical", m, (a, b), vals, db, d2b))
    return suite


def weak_ns_residual(fieldv: VelocityField, forcing: ForcingSpec,
                     params: HamelParameters, suite=None) -> dict:
    """Normalized weak-form mismatch of u = V + v against the test suite.

    Returns {"residual": max normalized residual, "per_test": [...]}.
    """
    grid = fieldv.grid
    Nf = forcing.cutoff
    if Nf != fieldv.cutoff:
        raise ValueError("cutoff mismatch between field and forcing")
    if suite is None:
        suite = make_test_suite(grid)
    for tf in suite:
        if tf.m > fieldv.cutoff:
            raise ValueError("test function mode exceeds the field cutoff")
        if not (1.0 < tf.support[0] and tf.support[1] < grid.r_max):
            raise ValueError("test function support leaving the domain")

    u = with_background(fieldv, params)
    uu, _ = tensor_convolution(u, u)
    N = u.cutoff
    r = grid.r_nodes

    def rint(values):
        return grid.integrate(values * r)

    rows = []
    for tf in suite:
        (phi_r, phi_t, phi_3), gphi = tf.gradient_rows(grid)
        m = tf.m
        t1 = sum(rint(gu * gp) for gu, gp in zip(u.gradients(N - m), gphi))
        t2 = sum(rint(prod * gp) for prod, gp in zip(uu[N - m], gphi))

        t3 = sum(rint(f * phi) for f, phi in zip(forcing.g[Nf - m], (phi_r, phi_t, phi_3)))
        t4 = sum(rint(f * gp) for f, gp in zip(forcing.F[Nf - m], gphi))
        energy = sum(rint(np.abs(gphi[i]) ** 2) for i in range(6)).real
        mismatch = abs(t1 - t2 - t3 + t4)
        rows.append({"kind": tf.kind, "m": m,
                     "residual": mismatch / energy, "energy": energy})
    return {"residual": max(row["residual"] for row in rows), "per_test": rows}


# ---------------------------------------------------------------------------
# proposition-shaped gain sweeps


def proposition_shape(branch: str, n: int, params: HamelParameters) -> float:
    """Right-hand-side structure of the per-mode estimates, with C = 1."""
    g, rho = params.gamma, params.rho
    if n == 0:
        if branch == "horizontal":
            return (g - 1.0) / ((g - 2.0) * (rho - 2.0))
        if branch == "vertical_pointwise":
            return 1.0 / (g * (rho - 2.0))
        if branch == "vertical_divergence":
            return 1.0 / (rho - 2.0)
        raise ValueError(f"unknown branch {branch!r}")
    sc = compute_coefficients(n, params.alpha, params.gamma)
    margin = sc.xi - g / 2.0
    if branch == "horizontal":
        return sc.xi ** 2 / (margin * abs(n) * (abs(n) - rho + 2.0))
    if branch == "vertical_pointwise":
        return 1.0 / (sc.xi * margin)
    if branch == "vertical_divergence":
        return 1.0 / margin
    raise ValueError(f"unknown branch {branch!r}")


def measured_gain(branch: str, sol, n: int, params: HamelParameters) -> float:
    """Weighted solution norm plus normalized gradient norm, per proposition."""
    rho, g = params.rho, params.gamma
    if branch == "horizontal":
        vals = max(weighted_sup_norm(sol.v_r, rho - 1.0).sup_norm_weighted,
                   weighted_sup_norm(sol.v_t, rho - 1.0).sup_norm_weighted)
        grads = max(weighted_sup_norm(sol.dv_r, rho).sup_norm_weighted,
                    weighted_sup_norm(sol.dv_t, rho).sup_norm_weighted)
        norm_factor = (g - 1.0) if n == 0 else float(abs(n))
        return vals + grads / norm_factor
    vals = weighted_sup_norm(sol.v_3, rho - 1.0).sup_norm_weighted
    grads = weighted_sup_norm(sol.dv_3, rho).sup_norm_weighted
    if n == 0:
        return vals + grads / g
    sc = compute_coefficients(n, params.alpha, params.gamma)
    return vals + grads / sc.xi


def proposition_sweep(params_list, n_values, grid: RadialGrid, branches=None):
    """Measure per-mode gains against the proposition shapes.

    For each parameter set and mode, solves the branch with a unit
    power-envelope forcing and reports gain / shape.  Zero-forcing rows
    never arise here since the probe forcing is nonzero by construction.
    """
    from . import horizontal as hz
    from . import vertical as vt

    branches = branches or ("horizontal", "vertical_pointwise", "vertical_divergence")
    rows = []
    for params in params_list:
        f_unit = ModeProfile.from_powersum(PowerSum.of((1.0, -2.0 * (params.rho - 1.0))), grid)
        g_unit = ModeProfile.from_powersum(PowerSum.of((1.0, -(2.0 * params.rho - 1.0))), grid)
        for n in n_values:
            for branch in branches:
                if branch == "horizontal":
                    sol = hz.solve_mode(n, params, grid, divergence=(f_unit,) * 4)
                elif branch == "vertical_pointwise":
                    sol = vt.solve_vertical_mode(n, params, grid, pointwise=g_unit)
                else:
                    sol = vt.solve_vertical_mode(n, params, grid, divergence=(f_unit,) * 2)
                gain = measured_gain(branch, sol, n, params)
                shape = proposition_shape(branch, n, params)
                rows.append({
                    "alpha": params.alpha, "gamma": params.gamma, "rho": params.rho,
                    "n": n, "branch": branch, "gain": gain, "shape": shape,
                    "normalized": gain / shape,
                })
    return rows
