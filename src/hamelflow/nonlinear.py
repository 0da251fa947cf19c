"""The nonlinear solve: spectral convolution, the linearized solve map, and
the fixed-point iteration.

Force and solution are real fields, so their angular modes satisfy
v_{-n} = conj(v_n) and modes 0..N determine everything, as in a real-input
FFT.  A `VelocityField` is three arrays: values and radial derivatives of
the modes 0..N, shape (N+1, 3, M) with mode n at index n, and an (N+1, 3)
array of tail exponents; mode -n is the conjugate of mode n and is never
stored.  A `ForcingSpec` holds the force in the same layout: (N+1, 3, M)
pointwise and (N+1, 6, M) tensor rows, each slot with the exponent of its
one-term power tail.  A sum over the modes -N..N is a sum over 0..N with
weight 1 at n = 0 and 2 at n >= 1 (`_mode_weights`).  Norms, the product
and the CLI writers work on these arrays; `ModeProfile`s appear only at
the edges: the inputs of the per-mode solves, which take a mode number and
one block of forcing slots that `ForcingSpec.profile` wraps with their
exact `PowerSum` tails, and point evaluation (`VelocityField.profile`).  A
solve returns node arrays of values and derivatives and the tail exponent
of each component it writes.

One application of the map T solves the linearized system with forcing
g + div(-w (x) w + F).  The mode -n operator is the conjugate of the mode
n one, so T solves n = 0..N and adds every solve of a mode (one per
nonzero pointwise or divergence block) into the mode's result rows.  The
one reality condition these rows can break is a mode-0 row with an
imaginary part; the iterate and the forcing are checked for it.  The
product is pseudo-spectral (Orszag 1971) on L >= 3N + 1 real angle
samples (`irfft`, real products, `rfft`): sample mode n collects modes
n +- L, which lie beyond the product's |n| <= 2N for |n| <= N, so the
modes kept are exact.  L is 5-smooth (75 at N = 24; numpy's FFT is ~5x
slower at the prime 73).  Because the data is independent of the axial
variable, the third row of the tensor w (x) w never enters any divergence
and is not formed.  The iteration v <- T(v) is monitored empirically:
three consecutive non-contracting steps abort the run, which is the
checkable shadow of the smallness hypothesis of the underlying theory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import horizontal as hz
from . import vertical as vt
from .background import HamelParameters, velocity, velocity_derivative
from .errors import AdmissibilityError, ContractionError, IterationError
from .grid import RadialGrid
from .profiles import ModeProfile, PowerSum, ZERO_TAIL, envelope_tail

TENSOR_KEYS = ("rr", "rt", "r3", "tr", "tt", "t3")
_COMP = {"r": 0, "t": 1, "3": 2}
# the field components a horizontal and a vertical mode solve write
_HORIZONTAL, _VERTICAL = slice(0, 2), slice(2, 3)


# ---------------------------------------------------------------------------
# fields


@dataclass
class VelocityField:
    """Velocity triples of the modes 0..N of a real field with their radial
    derivatives; mode -n is the conjugate of mode n.

    `values` and `dvalues` are complex arrays of shape (N+1, 3, M): mode n
    sits at index n, components in the (e_r, e_theta, e_3) basis, M grid
    nodes.  `exponents` (N+1, 3) holds each component's tail exponent
    beyond r_max, -inf for no tail; with the r_max value it is the whole
    tail (`profile`).
    """

    grid: RadialGrid
    values: np.ndarray
    dvalues: np.ndarray
    exponents: np.ndarray

    @property
    def cutoff(self) -> int:
        return len(self.values) - 1

    @staticmethod
    def zero(grid: RadialGrid, cutoff: int) -> "VelocityField":
        shape = (cutoff + 1, 3, grid.n_nodes)
        return VelocityField(grid, np.zeros(shape, dtype=complex),
                             np.zeros(shape, dtype=complex), np.full(shape[:2], -np.inf))

    def profile(self, n: int, a: int) -> ModeProfile:
        """Component a of mode n >= 0 with its envelope tail, for point
        evaluation."""
        vals = self.values[n, a]
        e = self.exponents[n, a]
        tail = envelope_tail(self.grid, e, vals) if np.isfinite(e) else ZERO_TAIL
        return ModeProfile(vals, self.grid, tail)

    def gradients(self, rows=slice(None)):
        """The six horizontal-gradient components of the modes at `rows`.

        Order: (d_r v_r, d_r v_t, d_r v_3, (in v_r - v_t)/r,
        (in v_t + v_r)/r, in v_3 / r), one at a time: (N+1, M) arrays by
        default, (M,) arrays for the single mode n = `rows`.  The gradient
        of mode -n is the conjugate of mode n's.
        """
        r = self.grid.r_nodes
        i_n = 1j * np.arange(self.cutoff + 1)[rows, None]
        v_r, v_t, v_3 = np.moveaxis(self.values[rows], -2, 0)
        yield from np.moveaxis(self.dvalues[rows], -2, 0)
        yield (i_n * v_r - v_t) / r
        yield (i_n * v_t + v_r) / r
        yield i_n * v_3 / r

    def theta_rms(self) -> np.ndarray:
        """sqrt of the theta-mean square of |v| at every grid node."""
        weights = _mode_weights(self.cutoff + 1)
        return np.sqrt(weights @ np.sum(np.abs(self.values) ** 2, axis=1))


def _mode_weights(count: int) -> np.ndarray:
    """Weights that turn a sum over the stored modes 0..N into the sum over
    -N..N: 1 for n = 0, 2 for n >= 1 (mode -n is the conjugate)."""
    weights = np.full(count, 2.0)
    weights[0] = 1.0
    return weights


def _mode0_imag(*arrays) -> float:
    """Largest imaginary part of the mode-0 rows of (N+1, K, M) mode arrays,
    relative to their largest entry: the one reality condition that modes
    0..N can break."""
    scale = max(float(np.max(np.abs(x))) for x in arrays)
    if scale == 0.0:
        return 0.0
    return max(float(np.max(np.abs(x[0].imag))) for x in arrays) / scale


def _mode_sup(slots, weight) -> np.ndarray:
    """Per-mode max of weight * |slot| over (N+1, M) slots."""
    return functools.reduce(np.maximum, (np.max(weight * np.abs(s), axis=-1) for s in slots))


def _l1(sups) -> float:
    """Sum over the modes -N..N of per-mode sups given for 0..N."""
    return float(_mode_weights(len(sups)) @ sups)


def value_norm(fieldv: VelocityField, s: float) -> float:
    """Sum over modes of the component-wise max of r^s |v_n|; at s = rho - 1
    it is the value half of `x_norm`."""
    return _l1(_mode_sup(fieldv.values.transpose(1, 0, 2), fieldv.grid.r_nodes ** s))


def x_norm(fieldv: VelocityField, rho: float):
    """Discrete solution-space norm: l1-over-modes weighted sups of the field
    (weight rho-1) plus its horizontal gradient (weight rho)."""
    grad = _mode_sup(fieldv.gradients(), fieldv.grid.r_nodes ** rho)
    return value_norm(fieldv, rho - 1.0) + _l1(grad)


def field_diff_norm(a: VelocityField, b: VelocityField, rho: float) -> float:
    """x_norm of (a - b), one (N+1, M) slot of the difference at a time."""
    r = a.grid.r_nodes
    vals = _mode_sup(map(np.subtract, a.values.transpose(1, 0, 2), b.values.transpose(1, 0, 2)),
                     r ** (rho - 1.0))
    grads = _mode_sup(map(np.subtract, a.gradients(), b.gradients()), r ** rho)
    return _l1(vals) + _l1(grads)


# ---------------------------------------------------------------------------
# forcing data


@dataclass
class ForcingSpec:
    """External force f = g + div F by angular mode, in the field layout.

    `g` (N+1, 3, M) holds the pointwise triples (f_r, f_t, f_3) and `F`
    (N+1, 6, M) the tensor slots in `TENSOR_KEYS` order, mode n at index n;
    mode -n is the conjugate of mode n.  `g_exponents` (N+1, 3) and
    `F_exponents` (N+1, 6) hold each slot's one-term power tail exponent,
    -inf for no tail; with the r_max value it is the slot's exact tail
    (`profile`).
    """

    grid: RadialGrid
    g: np.ndarray
    F: np.ndarray
    g_exponents: np.ndarray
    F_exponents: np.ndarray

    @property
    def cutoff(self) -> int:
        return len(self.g) - 1

    @staticmethod
    def zero(grid: RadialGrid, cutoff: int) -> "ForcingSpec":
        m, k = cutoff + 1, len(TENSOR_KEYS)
        return ForcingSpec(grid, np.zeros((m, 3, grid.n_nodes), dtype=complex),
                           np.zeros((m, k, grid.n_nodes), dtype=complex),
                           np.full((m, 3), -np.inf), np.full((m, k), -np.inf))

    def profile(self, n: int, key: str) -> ModeProfile:
        """Slot `key` of mode n >= 0 ("r", "t", "3" of g or a tensor key of
        F) with its exact tail, as the mode solvers take it."""
        if key in _COMP:
            vals, e = self.g[n, _COMP[key]], self.g_exponents[n, _COMP[key]]
        else:
            j = TENSOR_KEYS.index(key)
            vals, e = self.F[n, j], self.F_exponents[n, j]
        tail = PowerSum.of((vals[-1] * self.grid.r_max ** -e, e)) if np.isfinite(e) else ZERO_TAIL
        return ModeProfile(vals, self.grid, tail)

    def norms(self, rho: float):
        """(l1 norm of g at weight 2 rho - 1, l1 norm of F at weight 2(rho-1))."""
        r = self.grid.r_nodes
        return (_l1(_mode_sup(self.g.transpose(1, 0, 2), r ** (2.0 * rho - 1.0))),
                _l1(_mode_sup(self.F.transpose(1, 0, 2), r ** (2.0 * (rho - 1.0)))))

    def validate(self, params: HamelParameters):
        """Finiteness, envelope-class and mode-0 reality checks for the
        fixed-point pipeline."""
        for kind, rows, exps, keys, bound, label in (
                ("pointwise", self.g, self.g_exponents, "rt3",
                 -(2.0 * params.rho - 1.0), "-(2*rho-1)"),
                ("divergence", self.F, self.F_exponents, TENSOR_KEYS,
                 -2.0 * (params.rho - 1.0), "-2*(rho-1)")):
            bad = np.argwhere(~np.all(np.isfinite(rows), axis=-1))
            if len(bad):
                i, a = bad[0]
                raise AdmissibilityError(
                    f"{kind} forcing has a non-finite value at mode {i} ({keys[a]})")
            # a slot whose r_max value is zero has no tail (`profile`)
            bad = np.argwhere((rows[..., -1] != 0) & (exps > bound + 1e-9))
            if len(bad):
                i, a = bad[0]
                raise AdmissibilityError(
                    f"{kind} forcing envelope exponent {exps[i, a]} at mode "
                    f"{i} ({keys[a]}) must be <= {label} = {bound}")
        defect = _mode0_imag(self.g, self.F)
        if defect > 1e-10:
            raise AdmissibilityError(
                f"forcing violates the reality condition: mode 0 has a relative "
                f"imaginary part {defect:.2e}")


# ---------------------------------------------------------------------------
# spectral convolution


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n."""
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return n if m == 1 else _fft_length(n + 1)


def _both_signs(x):
    """Rows of the modes -N..N from rows 0..N of a quantity that is the same
    for modes n and -n (an exponent, a nonzero mask)."""
    return np.concatenate((x[:0:-1], x))


def tensor_convolution(v: VelocityField, w: VelocityField):
    """Mode family of the tensor product v (x) w, truncated to the cutoff.

    Returns the (N+1, 6, M) product rows of modes 0..N, their slots in
    `TENSOR_KEYS` order (the (3r, 3t, 33) row never enters a divergence of
    z-independent data and is not formed), and the (N+1,) max-plus
    convolution of the operands' mode tail exponents over the modes -N..N.
    Slots that no pair of nonzero operand components reaches are exactly
    zero.  The operands are real fields: the imaginary part of a mode-0 row
    does not enter.
    """
    if v.cutoff != w.cutoff:
        raise ValueError("cutoff mismatch between convolution operands")
    if v.grid is not w.grid:
        raise ValueError("convolution operands live on different grids")
    N = v.cutoff
    L = _fft_length(3 * N + 1)
    span = np.arange(-N, N + 1)

    def samples(f):
        # (3, M, L) real theta samples, and the nonzero masks and exponents of -N..N
        return (np.fft.irfft(f.values.transpose(1, 2, 0), n=L, axis=-1, norm="forward"),
                _both_signs(np.any(f.values != 0, axis=-1)).T,
                _both_signs(np.max(f.exponents, axis=1)))

    bv, nz_v, ev = samples(v)
    bw, nz_w, ew = (bv, nz_v, ev) if w is v else samples(w)
    exps = np.full(4 * N + 1, -np.inf)  # max-plus convolution, index n + 2N
    np.maximum.at(exps, np.add.outer(span, span) + 2 * N, np.add.outer(ev, ew))

    a = [_COMP[key[0]] for key in TENSOR_KEYS]
    b = [_COMP[key[1]] for key in TENSOR_KEYS]
    out = np.fft.rfft(bv[a] * bw[b], axis=-1, norm="forward")[..., :N + 1].transpose(2, 0, 1)
    reached = np.array([np.convolve(nz_v[i], nz_w[j])[2 * N:3 * N + 1] for i, j in zip(a, b)])
    out[~(reached.T > 0)] = 0.0
    return out, exps[2 * N:3 * N + 1]


# ---------------------------------------------------------------------------
# the solve map T


def _mode_solves(n, forcing: ForcingSpec, quad, params, grid):
    """Yield (component slice, values, derivatives, tail exponents) of every
    solve of mode n: one per nonzero pointwise or divergence block of its
    forcing.

    `quad` is None or the `tensor_convolution` (product, exponents) pair
    of the iterate; its mode n row joins the divergence forcing.
    """
    F = {key: forcing.profile(n, key) for key in TENSOR_KEYS}
    if quad is not None:
        prod, exps = quad
        e = exps[n]
        for key, row in zip(TENSOR_KEYS, prod[n]):
            tail = envelope_tail(grid, e, row) if np.isfinite(e) and np.any(row) else ZERO_TAIL
            F[key] = F[key] + ModeProfile(row, grid, tail).scaled(-1.0)

    if np.any(forcing.g[n, :2]):
        yield (_HORIZONTAL, *hz.solve_mode(n, params, grid, pointwise=(
            forcing.profile(n, "r"), forcing.profile(n, "t"))))
    if np.any(forcing.g[n, 2]):
        yield (_VERTICAL, *vt.solve_vertical_mode(n, params, grid,
                                                  pointwise=forcing.profile(n, "3")))
    blk = tuple(F[key] for key in ("rr", "rt", "tr", "tt"))
    if any(np.any(p.values) for p in blk):
        yield (_HORIZONTAL, *hz.solve_mode(n, params, grid, divergence=blk))
    vert = (F["r3"], F["t3"])
    if any(np.any(p.values) for p in vert):
        yield (_VERTICAL, *vt.solve_vertical_mode(n, params, grid, divergence=vert))


def apply_T(w: VelocityField, forcing: ForcingSpec, params: HamelParameters,
            grid: RadialGrid) -> VelocityField:
    """One linearized solve with forcing g + div(-w (x) w + F).

    Modes 0..N are solved; mode -n is the conjugate of mode n.  A w whose
    mode-0 row is not real raises ValueError; the forcing is validated once,
    in `picard_iterate`.
    """
    defect = _mode0_imag(w.values)
    if defect > 1e-10:
        raise ValueError(f"iterate violates the reality condition: mode 0 has a "
                         f"relative imaginary part {defect:.2e}")
    N = forcing.cutoff
    if w.cutoff != N:
        raise ValueError("cutoff mismatch between iterate and forcing")
    quad = tensor_convolution(w, w) if w.values.any() else None

    result = VelocityField.zero(grid, N)
    for n in range(N + 1):
        for a, v, dv, env in _mode_solves(n, forcing, quad, params, grid):
            result.values[n, a] += v
            result.dvalues[n, a] += dv
            np.maximum(result.exponents[n, a], env, out=result.exponents[n, a])
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
    bad_streak = 0
    for k in range(max_iter):
        nxt = apply_T(current, forcing, params, grid)
        d = field_diff_norm(nxt, current, params.rho)
        diag.iterations = k + 1
        diag.iterate_norms.append(x_norm(nxt, params.rho))
        diag.difference_norms.append(d)
        current = nxt

        if k == 0:  # T(0) sets the scale d0 and converges only if it is zero
            d0 = d
            if diag.forcing_norm > 0:
                diag.lambda_empirical = d0 / diag.forcing_norm
        else:
            q = d / d_prev if d_prev > 0 else 0.0
            diag.contraction_factors.append(q)
            bad_streak = bad_streak + 1 if not np.isfinite(q) or q >= 1.0 else 0
            if bad_streak >= 3:
                raise ContractionError(
                    "outside contraction regime (data too large): "
                    f"contraction factors {diag.contraction_factors[-3:]}",
                    diagnostics=diag)

        if d <= (tol * d0 if k else 0.0):
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
    r = fieldv.grid.r_nodes
    bg = np.array(velocity(params, r))
    out = VelocityField(fieldv.grid, fieldv.values.copy(), fieldv.dvalues.copy(),
                        fieldv.exponents.copy())
    out.values[0] += bg
    out.dvalues[0] += np.array(velocity_derivative(params, r))
    # V_r = -gamma / r and V_theta = alpha / r decay like r^-1
    out.exponents[0] = np.maximum(out.exponents[0], np.where(bg[:, -1] != 0, -1.0, -np.inf))
    return out


class FlowAccessor:
    """Point evaluation of u = V + v and of the remainder u - V."""

    def __init__(self, fieldv: VelocityField, params: HamelParameters):
        self.field = fieldv
        self.params = params

    def perturbation(self, r, theta):
        """Polar components (v_r, v_t, v_3) of u - V at (r, theta):
        v_0 + 2 Re sum_{n>=1} v_n e^{in theta}."""
        modes = range(self.field.cutoff + 1)
        vals = np.array([[self.field.profile(n, a).at(r) for a in range(3)] for n in modes])
        phases = _mode_weights(len(vals)) * np.exp(1j * theta * np.array(modes))
        return np.real(phases @ vals)

    def velocity(self, r, theta):
        """Real 3-vector of the full flow in polar components."""
        return np.array(velocity(self.params, float(r)), dtype=float) + self.perturbation(r, theta)
