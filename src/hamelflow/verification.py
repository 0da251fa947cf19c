"""Independent verification oracles.

Everything here deliberately avoids the Green's-function solve paths:
manufactured forcings come from symbolic application of the mode ODEs to
power-law targets, decay rates from a log-log fit, equation residuals
from per-panel spectral differentiation, the no-slip and divergence
identities from a field's value and derivative arrays, weighted moments
from Gauss quadrature of the panel interpolant, the spectral product from
physical-space multiplication, and the weak-form residual from direct
quadrature against compactly supported test functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .background import HamelParameters
from .errors import TailError
from .forcing import bump_profile
from .grid import RadialGrid
from .nonlinear import ForcingSpec, VelocityField, tensor_convolution, with_background
from .profiles import ZERO_TAIL, ModeProfile, PowerSum
from .spectral import compute_coefficients

_BC_TOL = 1e-10


# ---------------------------------------------------------------------------
# manufactured solutions


def euler_operator(v: PowerSum, mu, gamma: float) -> PowerSum:
    """Symbolic -v'' - (1+gamma) v'/r + mu v / r^2, the radial operator of every
    Euler-type mode equation: mu = n^2 + i alpha n for the vertical and
    vorticity modes, mu = 1 - gamma for the axisymmetric angular profile."""
    return PowerSum([(c * (-e * (e - 1.0) - (1.0 + gamma) * e + mu), e - 2.0)
                     for c, e in v.terms])


def _mode_mu(n: int, params: HamelParameters):
    return n * n + 1j * params.alpha * n


def stream_velocity(mu: PowerSum, n: int):
    """Divergence-free mode pair generated by the streamfunction mu e^{in theta}."""
    v_r = PowerSum([(-1j * n * c, e - 1.0) for c, e in mu.terms])
    v_t = mu.derivative()
    return v_r, v_t


def manufacture_euler(target: PowerSum, mu, params: HamelParameters) -> PowerSum:
    """Pointwise forcing whose Euler-type Dirichlet solve with coefficient mu
    must return `target`."""
    if abs(target(1.0)) > _BC_TOL:
        raise ValueError(f"target violates v(1) = 0: got {target(1.0)}")
    return euler_operator(target, mu, params.gamma)


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
    rot_f = euler_operator(omega, _mode_mu(n, params), params.gamma)
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
            f = manufacture_euler(target, _mode_mu(n, params), params)
            forcing_modes[(kind, n)] = ModeProfile.from_powersum(f, grid)
            expected[(kind, n)] = (target,)
        elif kind == "horizontal" and n == 0:
            f = manufacture_euler(target, 1.0 - params.gamma, params)
            forcing_modes[(kind, n)] = (ModeProfile.zeros(grid),
                                        ModeProfile.from_powersum(f, grid))
            expected[(kind, n)] = (ZERO_TAIL, target)
        elif kind == "horizontal":
            f_t, v_r, v_t = manufacture_horizontal_stream(target, n, params)
            forcing_modes[(kind, n)] = (ModeProfile.zeros(grid),
                                        ModeProfile.from_powersum(f_t, grid))
            expected[(kind, n)] = (v_r, v_t)
        else:
            raise ValueError(f"unknown target kind {kind!r}")
    return forcing_modes, expected


# ---------------------------------------------------------------------------
# quadrature and product oracles


def integrate_weighted(p: ModeProfile, exponent: float, r_lo: float = 1.0,
                       r_hi: float = np.inf) -> complex:
    """int_{r_lo}^{r_hi} s^exponent p(s) ds, the part beyond r_max from the
    tail in closed form.

    Inside [1, r_max] the panel interpolant of p is integrated by the
    G-point Gauss rule mapped onto each panel clipped to the interval, so
    power-law integrands keep the full order of the rule; none of the
    solvers' cumulative kernels enters.
    """
    grid = p.grid
    if np.isinf(r_hi):
        env = p.tail.slowest_exponent()
        if exponent + env >= -1.0:
            raise TailError(
                f"non-integrable tail: exponent {exponent} + envelope {env} >= -1")
        return (integrate_weighted(p, exponent, r_lo, grid.r_max)
                + complex(p.tail.moment(exponent, grid.r_max)))
    if not (1.0 <= r_lo <= r_hi <= grid.r_max):
        raise ValueError("interval outside [1, r_max]")
    x, w = leggauss(grid.gauss_order)
    xi, wq = 0.5 * (x + 1.0), 0.5 * w
    total = 0.0 + 0.0j
    for a, b in zip(grid.edges[:-1], grid.edges[1:]):
        a, b = max(a, r_lo), min(b, r_hi)
        if b > a:
            s = a + (b - a) * xi
            total += (b - a) * np.sum(wq * (grid.interpolate(p.values, s) * s ** exponent))
    return complex(total)


def convolution_physical_oracle(v: VelocityField, w: VelocityField, n: int, key: str):
    """Mode n of the `key` slot of v (x) w: both fields synthesized from all
    modes -N..N on 4N+1 angle samples, multiplied, and mode n re-projected."""
    N = v.cutoff
    M = 4 * N + 1
    theta = 2.0 * np.pi * np.arange(M) / M
    synth = np.exp(1j * np.outer(theta, np.arange(-N, N + 1)))

    def physical(f, a):
        x = f.values[:, "rt3".index(a)]
        return synth @ np.concatenate((np.conj(x[:0:-1]), x))

    prod = physical(v, key[0]) * physical(w, key[1])
    return np.sum(prod * np.exp(-1j * n * theta)[:, None], axis=0) / M


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

    `target` is a VelocityField (theta-RMS amplitude) or a pair (radii,
    magnitudes).  Windows start no earlier than r = 10 and end no later
    than r_max / 2 to dodge near-field and truncation-tail contamination.
    """
    r_lo, r_hi = fit_window
    if isinstance(target, VelocityField):
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
    if np.count_nonzero(sel) < 2:  # a line through one point is not a fit
        raise ValueError("fit window contains fewer than two grid nodes")
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


def euler_residual(grid: RadialGrid, v, f, mu, gamma: float, dv=None) -> float:
    """Relative residual of -v'' - (1+gamma) v'/r + mu v / r^2 = f at the nodes.

    `v`, `f` and `dv` are node values.  With `dv` (the solver's analytic
    first derivative) only one numeric differentiation enters; without it
    both derivatives are spectral-per-panel, so the result is
    differentiation-limited (around 1e-5 at the default grid) rather
    than solver-limited.
    """
    r = grid.r_nodes
    d1 = grid.derivative(v) if dv is None else dv
    d2 = grid.derivative(d1)
    res = -d2 - (1.0 + gamma) * d1 / r + mu * v / r ** 2 - f
    scale = np.max(np.abs(f))
    return float(np.max(np.abs(res)) / scale) if scale > 0 else float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# structural identities


def structural_residuals(fieldv: VelocityField) -> dict:
    """Per-mode no-slip and divergence identities of a field.

    Returns {"boundary_rel", "divergence_rel"}, (N+1,) arrays indexed by
    the mode n = 0..N: the boundary residual sum_a |v_a(1)| over the mode's
    largest |v_a|, and the divergence residual max |v_r + r v_r' + i n v_t|
    over max(|v_r| + |r v_r'| + n |v_t|).  A zero mode reads 0.  For n != 0
    the no-slip condition of (v_r, v_t) is the moment identity
    int_1^inf s^{1-n} omega_n ds = 0.  A standalone mode-n solve is checked
    in row |n| of `VelocityField.zero(grid, |n|)`, as its conjugate if
    n < 0 (both identities of mode -n are the conjugates of mode n's).
    """
    n = np.arange(fieldv.cutoff + 1)[:, None]
    mags = np.abs(fieldv.values)
    r_dv_r = fieldv.grid.r_nodes * fieldv.dvalues[:, 0]
    div = np.abs(fieldv.values[:, 0] + r_dv_r + 1j * n * fieldv.values[:, 1])
    div_scale = mags[:, 0] + np.abs(r_dv_r) + n * mags[:, 1]
    return {"boundary_rel": _relative(np.sum(mags[:, :, 0], axis=1), np.max(mags, axis=(1, 2))),
            "divergence_rel": _relative(np.max(div, axis=1), np.max(div_scale, axis=1))}


def _relative(x, scale):
    return np.divide(x, scale, out=np.zeros_like(x), where=scale > 0)


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
    fn, dfn, d2fn, (a, b) = bump_profile(grid, support)
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

    A test function of mode m pairs with mode -m of the flow and the force,
    the conjugate of their stored mode m.  Returns {"residual": max
    normalized residual, "per_test": [...]}.
    """
    grid = fieldv.grid
    if forcing.cutoff != fieldv.cutoff:
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
    r = grid.r_nodes

    def rint(values):
        return grid.integrate(values * r)

    rows = []
    for tf in suite:
        (phi_r, phi_t, phi_3), gphi = tf.gradient_rows(grid)
        m = tf.m
        t1 = sum(rint(np.conj(gu) * gp) for gu, gp in zip(u.gradients(m), gphi))
        t2 = sum(rint(np.conj(prod) * gp) for prod, gp in zip(uu[m], gphi))

        t3 = sum(rint(np.conj(f) * phi) for f, phi in zip(forcing.g[m], (phi_r, phi_t, phi_3)))
        t4 = sum(rint(np.conj(f) * gp) for f, gp in zip(forcing.F[m], gphi))
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


def measured_gain(branch: str, sol, n: int, params: HamelParameters,
                  grid: RadialGrid) -> float:
    """Weighted solution norm plus normalized gradient norm, per proposition,
    of a mode solve's (v, dv, env) arrays."""
    rho, g = params.rho, params.gamma
    v, dv, _ = sol
    r = grid.r_nodes
    vals = float(np.max(r ** (rho - 1.0) * np.abs(v)))
    grads = float(np.max(r ** rho * np.abs(dv)))
    if branch == "horizontal":
        norm_factor = (g - 1.0) if n == 0 else float(abs(n))
    elif n == 0:
        norm_factor = g
    else:
        norm_factor = compute_coefficients(n, params.alpha, params.gamma).xi
    return vals + grads / norm_factor


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
                gain = measured_gain(branch, sol, n, params, grid)
                shape = proposition_shape(branch, n, params)
                rows.append({
                    "alpha": params.alpha, "gamma": params.gamma, "rho": params.rho,
                    "n": n, "branch": branch, "gain": gain, "shape": shape,
                    "normalized": gain / shape,
                })
    return rows
