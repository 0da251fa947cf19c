from types import SimpleNamespace

import numpy as np
import pytest

from hamelflow import horizontal as hz
from hamelflow import nonlinear as nl
from hamelflow import verification as vf
from hamelflow import vertical as vt
from hamelflow.background import HamelParameters
from hamelflow.errors import AdmissibilityError, ContractionError, IterationError
from hamelflow.forcing import bump_forcing, power_envelope_forcing, random_forcing
from hamelflow.profiles import ModeProfile, PowerSum

PARAMS = HamelParameters(alpha=1.0, gamma=4.0, rho=2.5)


def put_power(f, n, a, ps):
    """Set component a of mode n of f to the power sum ps, with its derivative
    and tail exponent."""
    r = f.grid.r_nodes
    f.values[n, a] = ps(r)
    f.dvalues[n, a] = ps.derivative()(r)
    f.exponents[n, a] = ps.slowest_exponent()


def random_field(grid, seed, cutoff=3, decay=-2.0):
    """A real field: random complex power laws for n >= 1, real ones for n = 0."""
    rng = np.random.default_rng(seed)
    f = nl.VelocityField.zero(grid, cutoff)
    for n in range(cutoff + 1):
        for a in range(3):
            c = rng.normal() + (1j * rng.normal() if n > 0 else 0.0)
            put_power(f, n, a, PowerSum.of((c, decay - rng.uniform(0, 1))))
    return f


def both_signs(rows):
    """Rows of the modes -N..N (index n + N) from rows 0..N of a real field."""
    return np.concatenate((np.conj(rows[:0:-1]), rows))


def full_spectrum(f):
    """The field f with every mode -N..N stored, mode n at index n + N: the
    layout the full-spectrum oracles below read."""
    return SimpleNamespace(grid=f.grid, cutoff=f.cutoff, values=both_signs(f.values),
                           dvalues=both_signs(f.dvalues),
                           exponents=np.concatenate((f.exponents[:0:-1], f.exponents)))


def conj_profile(p):
    """Mode -n of a real forcing slot from its mode n profile."""
    tail = PowerSum([(np.conj(c), np.conj(e)) for c, e in p.tail.terms])
    return ModeProfile(np.conj(p.values), p.grid, tail)


def signed_profile(forcing, n, key):
    """Slot `key` of mode n of the forcing, n of either sign."""
    p = forcing.profile(abs(n), key)
    return p if n >= 0 else conj_profile(p)


def direct_convolution(v, w):
    """The O(N^2 M) direct sum over mode pairs of full-spectrum fields: oracle
    for the FFT product."""
    N = v.cutoff
    acc = np.zeros((2 * N + 1, len(nl.TENSOR_KEYS), v.grid.n_nodes), dtype=complex)
    exps = np.full(2 * N + 1, -np.inf)
    ev, ew = v.exponents.max(axis=1), w.exponents.max(axis=1)
    for n in range(-N, N + 1):
        for m in range(-N, N + 1):
            k = n - m
            if abs(k) > N:
                continue
            for i, key in enumerate(nl.TENSOR_KEYS):
                acc[n + N, i] += (v.values[m + N, nl._COMP[key[0]]]
                                  * w.values[k + N, nl._COMP[key[1]]])
            exps[n + N] = max(exps[n + N], ev[m + N] + ew[k + N])
    return acc, exps


def gradient_values(f, n):
    """The six horizontal-gradient components of mode n of a full-spectrum
    field, formed per mode."""
    r = f.grid.r_nodes
    v_r, v_t, v_3 = f.values[n + f.cutoff]
    i_n = 1j * n
    return (*f.dvalues[n + f.cutoff],
            (i_n * v_r - v_t) / r, (i_n * v_t + v_r) / r, i_n * v_3 / r)


def x_norm_loop(f, rho):
    """The per-mode loop over -N..N that x_norm replaced: oracle for the
    array norm of a full-spectrum field."""
    r = f.grid.r_nodes
    w_lo = r ** (rho - 1.0)
    w_hi = r ** rho
    val = 0.0
    grad = 0.0
    for n in range(-f.cutoff, f.cutoff + 1):
        val += max(float(np.max(w_lo * np.abs(v))) for v in f.values[n + f.cutoff])
        grad += max(float(np.max(w_hi * np.abs(gv))) for gv in gradient_values(f, n))
    return val + grad


def field_diff_norm_loop(a, b, rho):
    """The per-mode loop over -N..N that field_diff_norm replaced: oracle for
    the array norm of full-spectrum fields."""
    r = a.grid.r_nodes
    w_lo = r ** (rho - 1.0)
    w_hi = r ** rho
    total = 0.0
    for n in range(-a.cutoff, a.cutoff + 1):
        va, vb = a.values[n + a.cutoff], b.values[n + b.cutoff]
        total += max(float(np.max(w_lo * np.abs(x - y))) for x, y in zip(va, vb))
        ga, gb = gradient_values(a, n), gradient_values(b, n)
        total += max(float(np.max(w_hi * np.abs(x - y))) for x, y in zip(ga, gb))
    return total


def direct_mode_solve(forcing, n, params, grid):
    """Solve mode n (of either sign) from the forcing's pieces, without
    apply_T: per component, the summed values of the pointwise and
    divergence solves and the larger tail exponent."""
    F = {k: signed_profile(forcing, n, k) for k in ("r", "t", "3", *nl.TENSOR_KEYS)}
    h_pw, _, h_pw_exp = hz.solve_mode(n, params, grid, pointwise=(F["r"], F["t"]))
    h_div, _, h_div_exp = hz.solve_mode(
        n, params, grid, divergence=(F["rr"], F["rt"], F["tr"], F["tt"]))
    v_pw, _, v_pw_exp = vt.solve_vertical_mode(n, params, grid, pointwise=F["3"])
    v_div, _, v_div_exp = vt.solve_vertical_mode(n, params, grid, divergence=(F["r3"], F["t3"]))
    horizontal = [(h_pw[a] + h_div[a], max(h_pw_exp[a], h_div_exp[a])) for a in (0, 1)]
    return horizontal + [(v_pw + v_div, max(v_pw_exp, v_div_exp))]


def forcing_dicts(spec):
    """The per-mode dicts of the modes -N..N that ForcingSpec held before its
    arrays: n -> (f_r, f_t, f_3) profiles and n -> {tensor key: profile}."""
    modes = range(-spec.cutoff, spec.cutoff + 1)
    return ({n: tuple(signed_profile(spec, n, a) for a in "rt3") for n in modes},
            {n: {k: signed_profile(spec, n, k) for k in nl.TENSOR_KEYS} for n in modes})


def l1_norm_loop(mode_family, s):
    """The deleted profiles.l1_weighted_norm: sum over modes of the
    component-wise max weighted sup norm."""
    return sum(max(float(np.max(p.grid.r_nodes ** s * np.abs(p.values))) for p in comps)
               for comps in mode_family.values())


def forcing_norms_loop(spec, rho):
    g_modes, F_modes = forcing_dicts(spec)
    return (l1_norm_loop(g_modes, 2.0 * rho - 1.0),
            l1_norm_loop({n: tuple(d.values()) for n, d in F_modes.items()}, 2.0 * (rho - 1.0)))


def forcing_verdict_loop(spec, params):
    """Which check of a dict-based ForcingSpec.validate fails: "envelope",
    "reality" (a mode-0 slot with an imaginary part) or None."""
    g_modes, F_modes = forcing_dicts(spec)
    for bound, comps in ((-(2.0 * params.rho - 1.0), g_modes.values()),
                         (-2.0 * (params.rho - 1.0), (d.values() for d in F_modes.values()))):
        for p in (p for trip in comps for p in trip):
            if np.any(p.values) and p.tail.slowest_exponent() > bound + 1e-9:
                return "envelope"
    mode_0 = (*g_modes[0], *F_modes[0].values())
    slots = [p for trip in g_modes.values() for p in trip]
    slots += [p for d in F_modes.values() for p in d.values()]
    scale = max(np.max(np.abs(p.values)) for p in slots)
    imag = max(float(np.max(np.abs(p.values.imag))) for p in mode_0)
    return "reality" if imag > 1e-10 * scale else None


# -- convolution ---------------------------------------------------------------

def test_convolution_zero_operand(grid):
    v = random_field(grid, 3)
    z = nl.VelocityField.zero(grid, 3)
    prod, _ = nl.tensor_convolution(v, z)
    assert np.max(np.abs(prod)) == 0.0


def test_convolution_single_term(grid):
    a = nl.VelocityField.zero(grid, 2)
    b = nl.VelocityField.zero(grid, 2)
    for c in range(3):
        put_power(a, 0, c, PowerSum.of((1.0, -2.0)))
        put_power(b, 1, c, PowerSum.of((2.0, -3.0)))
    prod, _ = nl.tensor_convolution(a, b)
    populated = [n for n in range(3) if np.max(np.abs(prod[n])) > 0]
    assert populated == [1]
    rt = nl.TENSOR_KEYS.index("rt")
    assert np.max(np.abs(prod[1, rt] - 2.0 * grid.r_nodes ** -5.0)) < 1e-14


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_convolution_against_physical_multiplication(grid, seed):
    v = random_field(grid, seed)
    w = random_field(grid, seed + 100)
    prod, _ = nl.tensor_convolution(v, w)
    for n in (0, 2, 3):
        for key in ("rr", "t3", "tr"):
            oracle = vf.convolution_physical_oracle(v, w, n, key)
            assert np.max(np.abs(prod[n, nl.TENSOR_KEYS.index(key)] - oracle)) < 1e-10


@pytest.mark.parametrize("cutoff", [0, 1, 2, 5, 24, 32])
def test_fft_convolution_matches_direct_sum(grid, cutoff):
    v = random_field(grid, 40 + cutoff, cutoff=cutoff)
    w = random_field(grid, 80 + cutoff, cutoff=cutoff)
    # the half-spectrum product against the full-spectrum direct sum
    for a, b in ((v, w), (v, v)):
        fast, fast_exps = nl.tensor_convolution(a, b)
        slow, slow_exps = direct_convolution(full_spectrum(a), full_spectrum(b))
        slow, slow_exps = slow[cutoff:], slow_exps[cutoff:]
        scale = np.max(np.abs(a.values)) * np.max(np.abs(b.values))
        assert fast.shape == slow.shape == (cutoff + 1, 6, grid.n_nodes)
        assert np.max(np.abs(fast - slow)) < 1e-14 * scale
        assert np.array_equal(fast_exps, slow_exps)
        assert np.array_equal(np.any(fast, axis=-1), np.any(slow, axis=-1))


def test_fft_convolution_exact_zeros(grid):
    # the second Picard step of the power family at cutoff 4: modes 2..4 of
    # the first iterate are zero solutions, so product modes 3 and 4 are
    # reached by no pair of nonzero components
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0}, cutoff=4)
    first = nl.apply_T(nl.VelocityField.zero(grid, 4), forcing, PARAMS, grid)
    assert all(np.max(np.abs(first.values[n, 0])) == 0.0 for n in (2, 3, 4))
    fast, fast_exps = nl.tensor_convolution(first, first)
    slow, slow_exps = direct_convolution(full_spectrum(first), full_spectrum(first))
    slow, slow_exps = slow[4:], slow_exps[4:]
    assert np.array_equal(fast_exps, slow_exps)
    zero = ~np.any(slow, axis=-1)
    assert not np.any(fast[zero])
    assert np.max(np.abs(fast - slow)) < 1e-14 * np.max(np.abs(first.values)) ** 2
    assert np.count_nonzero(zero) >= 2 * len(nl.TENSOR_KEYS)


def test_convolution_cutoff_mismatch(grid):
    with pytest.raises(ValueError, match="cutoff mismatch"):
        nl.tensor_convolution(random_field(grid, 1, cutoff=2),
                              random_field(grid, 2, cutoff=3))


# -- the map T -----------------------------------------------------------------

def test_T_zero_data(grid):
    out = nl.apply_T(nl.VelocityField.zero(grid, 2), nl.ForcingSpec.zero(grid, 2),
                     PARAMS, grid)
    assert np.max(np.abs(out.values)) == 0.0


def test_T_at_zero_equals_direct_linear_solves(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 0.5})
    out = nl.apply_T(nl.VelocityField.zero(grid, 1), forcing, PARAMS, grid)
    for n in (-1, 0, 1):
        # row |n| holds mode n, or the conjugate of mode n < 0
        rows = out.values[abs(n)] if n >= 0 else np.conj(out.values[-n])
        for got, (want, _) in zip(rows, direct_mode_solve(forcing, n, PARAMS, grid)):
            assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("alpha", [-3.0, 1.7])
def test_T_mirrored_modes_equal_direct_solves(grid, alpha):
    # apply_T solves n >= 0 and stores no mode -n; solve mode 0 and the
    # negative modes directly from the conjugated forcing slots, and check
    # that they are the conjugates of rows |n|.  Mode 0's radial profile is
    # exactly zero with exponent -inf, so there the bound reads got == want.
    params = HamelParameters(alpha=alpha, gamma=4.0, rho=2.5)
    forcing = random_forcing(grid, params, 1e-3, seed=5, n_modes=24)
    out = nl.apply_T(nl.VelocityField.zero(grid, 24), forcing, params, grid)
    for n in (0, -1, -7, -24):
        for a, (want, want_exp) in enumerate(direct_mode_solve(forcing, n, params, grid)):
            got = out.profile(-n, a)
            assert np.max(np.abs(np.conj(got.values) - want)) <= 1e-14 * np.max(np.abs(want))
            assert got.tail.slowest_exponent() == want_exp
    assert out.exponents[0, 0] == -np.inf


def test_T_rejects_non_real_iterate(grid):
    # the one reality condition of modes 0..N: a real mode-0 row, to 1e-10
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 0.5})
    w = random_field(grid, 4, cutoff=1)
    scale = np.max(np.abs(w.values))
    w.values[0, 1, 7] += 1e-11j * scale
    nl.apply_T(w, forcing, PARAMS, grid)
    w.values[0, 1, 7] += 1e-9j * scale
    with pytest.raises(ValueError, match="reality condition"):
        nl.apply_T(w, forcing, PARAMS, grid)


def test_T_rejects_cutoff_mismatch(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 0.5}, cutoff=2)
    with pytest.raises(ValueError, match="cutoff mismatch"):
        nl.apply_T(random_field(grid, 4, cutoff=1), forcing, PARAMS, grid)


def test_T_quadratic_response(grid):
    # ||T(eps w) - T(0)|| scales like eps^2 with a stable constant
    forcing = nl.ForcingSpec.zero(grid, 2)
    base = random_field(grid, 9, cutoff=2, decay=-1.8)
    ratios = []
    for eps in (1e-2, 1e-3):
        scaled = nl.VelocityField(grid, base.values * eps, base.dvalues * eps,
                                  base.exponents)
        out = nl.apply_T(scaled, forcing, PARAMS, grid)
        ratios.append(nl.x_norm(out, PARAMS.rho) / eps ** 2)
    assert abs(ratios[0] / ratios[1] - 1.0) < 0.02


# -- fixed-point iteration -------------------------------------------------------

def test_picard_zero_forcing(grid):
    sol, diag = nl.picard_iterate(nl.ForcingSpec.zero(grid, 1), PARAMS, grid)
    assert diag.converged and diag.iterations == 1
    assert np.max(np.abs(sol.values)) == 0.0
    assert diag.iterate_norms == [0.0]


@pytest.mark.parametrize("epsilon,coefficients", [
    (float("nan"), {0: 1, 1: 1}),
    (1e-3, {0: 1.0, 1: float("inf")}),
])
def test_picard_rejects_non_finite_forcing(grid, epsilon, coefficients):
    # a NaN coefficient is kept, not dropped into a zero forcing that "converges"
    forcing = power_envelope_forcing(grid, PARAMS, epsilon, coefficients)
    with pytest.raises(AdmissibilityError, match="non-finite value"):
        nl.picard_iterate(forcing, PARAMS, grid)


def test_picard_small_data(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
    sol, diag = nl.picard_iterate(forcing, PARAMS, grid)
    assert diag.converged
    # fixed-point residual measured by one extra application
    resid = nl.field_diff_norm(nl.apply_T(sol, forcing, PARAMS, grid), sol, PARAMS.rho)
    assert resid <= 1e-10 * diag.difference_norms[0]
    # a-posteriori ball: every iterate stays within twice the first one
    assert all(nrm <= 2.0 * diag.iterate_norms[0] for nrm in diag.iterate_norms)
    # reality is preserved from data to solution: mode 0 stays real
    assert np.max(np.abs(sol.values[0].imag)) <= 1e-10 * np.max(np.abs(sol.values))


def test_picard_epsilon_halving(grid):
    coeffs = {0: 1.0, 1: 1.0}
    sol_a, _ = nl.picard_iterate(power_envelope_forcing(grid, PARAMS, 1e-3, coeffs),
                                 PARAMS, grid)
    sol_b, _ = nl.picard_iterate(power_envelope_forcing(grid, PARAMS, 5e-4, coeffs),
                                 PARAMS, grid)
    ratio = nl.x_norm(sol_b, PARAMS.rho) / nl.x_norm(sol_a, PARAMS.rho)
    assert 0.48 <= ratio <= 0.52


def test_picard_non_contraction(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1000.0, {0: 1.0, 1: 1.0})
    with pytest.raises(ContractionError, match="outside contraction regime"):
        nl.picard_iterate(forcing, PARAMS, grid, max_iter=20)
    try:
        nl.picard_iterate(forcing, PARAMS, grid, max_iter=20)
    except ContractionError as exc:
        assert exc.diagnostics is not None
        assert len(exc.diagnostics.contraction_factors) >= 3


def test_picard_iteration_limit(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
    with pytest.raises(IterationError):
        nl.picard_iterate(forcing, PARAMS, grid, max_iter=2, tol=1e-14)


def test_picard_first_step_sets_the_scale(grid):
    # step 0 only sets d0: one step never converges on nonzero data, and
    # even tol >= 1 is tested first at step 1
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
    with pytest.raises(IterationError) as info:
        nl.picard_iterate(forcing, PARAMS, grid, max_iter=1)
    diag = info.value.diagnostics
    assert diag.iterations == 1 and diag.contraction_factors == []
    assert diag.lambda_empirical == diag.difference_norms[0] / diag.forcing_norm
    _, diag = nl.picard_iterate(forcing, PARAMS, grid, tol=2.0)
    assert diag.converged and diag.iterations == 2 and len(diag.contraction_factors) == 1


def test_bilinear_identity(grid):
    # div(w (x) w) must equal w . grad w in physical space when div w = 0;
    # use solver output as w so the per-mode divergence identity holds.
    # The product carries modes up to 2N, so the field is re-declared at
    # the doubled cutoff before convolving.
    forcing = power_envelope_forcing(grid, PARAMS, 1.0, {0: 1.0, 1: 1.0, 2: 0.5})
    half = nl.apply_T(nl.VelocityField.zero(grid, 2), forcing, PARAMS, grid)
    N = half.cutoff
    pad = ((0, N), (0, 0), (0, 0))
    wide = nl.VelocityField(grid, np.pad(half.values, pad), np.pad(half.dvalues, pad),
                            np.pad(half.exponents, pad[:2], constant_values=-np.inf))
    prods = both_signs(nl.tensor_convolution(wide, wide)[0])
    w = full_spectrum(half)
    r = grid.r_nodes

    # modal derivative of the products via the solution derivative data
    def dprod(n, a, b):
        out = np.zeros(grid.n_nodes, dtype=complex)
        for m in range(-N, N + 1):
            k = n - m
            if abs(k) > N:
                continue
            va = w.values[m + N, a]
            vb = w.values[k + N, b]
            da = w.dvalues[m + N, a]
            db = w.dvalues[k + N, b]
            out += da * vb + va * db
        return out

    theta = 1.234
    side_a = np.zeros((3, grid.n_nodes), dtype=complex)
    for n in range(-2 * N, 2 * N + 1):
        ph = np.exp(1j * n * theta)
        rr, rt, r3, tr, tt, t3 = prods[n + 2 * N]
        side_a[0] += ph * (dprod(n, 0, 0) + rr / r + (1j * n * tr - tt) / r)
        side_a[1] += ph * (dprod(n, 0, 1) + rt / r + (1j * n * tt + tr) / r)
        side_a[2] += ph * (dprod(n, 0, 2) + r3 / r + 1j * n * t3 / r)

    # physical-space w . grad w with the polar curvature terms
    vals = np.zeros((3, grid.n_nodes), dtype=complex)
    dvals = np.zeros((3, grid.n_nodes), dtype=complex)
    tvals = np.zeros((3, grid.n_nodes), dtype=complex)
    for n in range(-N, N + 1):
        ph = np.exp(1j * n * theta)
        for a in range(3):
            vals[a] += ph * w.values[n + N, a]
            dvals[a] += ph * w.dvalues[n + N, a]
            tvals[a] += ph * 1j * n * w.values[n + N, a]
    side_b = np.zeros((3, grid.n_nodes), dtype=complex)
    side_b[0] = vals[0] * dvals[0] + vals[1] * tvals[0] / r - vals[1] ** 2 / r
    side_b[1] = vals[0] * dvals[1] + vals[1] * tvals[1] / r + vals[0] * vals[1] / r
    side_b[2] = vals[0] * dvals[2] + vals[1] * tvals[2] / r

    scale = np.max(np.abs(side_b))
    assert np.max(np.abs(side_a - side_b)) < 1e-8 * scale


# -- reporting helpers ------------------------------------------------------------

def test_compute_lambda_values():
    assert abs(nl.compute_lambda(HamelParameters(0.0, 3.0, 2.5), 1.0) - 648.0) < 1e-10
    assert nl.compute_lambda(PARAMS, 0.0) == 0.0
    lo = nl.compute_lambda(HamelParameters(0.0, 3.0, 2.9), 1.0)
    hi = nl.compute_lambda(HamelParameters(0.0, 3.0, 2.99), 1.0)
    assert np.isfinite(hi)
    assert abs(hi / lo - (0.9 ** 2 * 0.1) / (0.99 ** 2 * 0.01)) < 1e-10


def test_reconstruct_u_background_only(grid):
    acc = nl.FlowAccessor(nl.VelocityField.zero(grid, 1), PARAMS)
    u = acc.velocity(2.0, 0.7)
    assert np.allclose(u, (-PARAMS.gamma / 2.0, PARAMS.alpha / 2.0, 0.0))


def test_reconstruct_u_boundary_matches_data(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
    sol, _ = nl.picard_iterate(forcing, PARAMS, grid)
    acc = nl.FlowAccessor(sol, PARAMS)
    for theta in (0.0, 1.1, 4.4):
        u = acc.velocity(1.0, theta)
        assert np.allclose(u, (-PARAMS.gamma, PARAMS.alpha, 0.0), atol=1e-8)


def test_perturbation_is_the_full_spectrum_sum(grid):
    # v_0 + 2 Re sum_{n>=1} v_n e^{in theta} against the complex sum over -N..N
    f = random_field(grid, 12, cutoff=3)
    acc = nl.FlowAccessor(f, PARAMS)
    for r in (1.5, 40.0, 3.0 * grid.r_max):
        for theta in (0.0, 0.9, 4.0):
            modes = [np.array([f.profile(abs(n), a).at(r) for a in range(3)])
                     for n in range(-3, 4)]
            full = sum((v if n >= 0 else np.conj(v)) * np.exp(1j * n * theta)
                       for n, v in zip(range(-3, 4), modes))
            got = acc.perturbation(r, theta)
            assert got.dtype == float
            assert np.max(np.abs(full.imag)) <= 1e-15 * np.max(np.abs(full))
            assert np.max(np.abs(got - full.real)) <= 1e-14 * np.max(np.abs(full))


@pytest.mark.parametrize("cutoff", [0, 1, 5, 24])
def test_norms_match_per_mode_loops(grid, cutoff):
    # the half-spectrum norms against loops over the full spectrum -N..N
    r = grid.r_nodes
    pairs = ((random_field(grid, 10 + cutoff, cutoff), random_field(grid, 20 + cutoff, cutoff)),
             (random_field(grid, 30 + cutoff, cutoff), random_field(grid, 40 + cutoff, cutoff)))
    for a, b in pairs:
        assert np.any(a.dvalues)
        for f in (a, b):
            full = full_spectrum(f)
            want = x_norm_loop(full, PARAMS.rho)
            assert abs(nl.x_norm(f, PARAMS.rho) - want) <= 1e-14 * want
            s = PARAMS.rho - 1.0
            want = sum(float(np.max(r ** s * np.abs(v))) for v in full.values)
            assert abs(nl.value_norm(f, s) - want) <= 1e-14 * want
            want = np.sqrt(np.sum(np.abs(full.values) ** 2, axis=(0, 1)))
            assert np.max(np.abs(f.theta_rms() - want) / want) <= 1e-14
        want = field_diff_norm_loop(full_spectrum(a), full_spectrum(b), PARAMS.rho)
        assert abs(nl.field_diff_norm(a, b, PARAMS.rho) - want) <= 1e-14 * want


FAMILY_BUILDERS = {
    "power": lambda grid, N: power_envelope_forcing(
        grid, PARAMS, 1e-3, {n: 1.0 / (1 + n * n) for n in range(N + 1)}, cutoff=N),
    "bump": lambda grid, N: bump_forcing(
        grid, PARAMS, 1e-3, {n: 1.0 / (1 + n * n) for n in range(N + 1)}, cutoff=N),
    "random": lambda grid, N: random_forcing(grid, PARAMS, 1e-3, seed=7 + N, n_modes=N),
}


@pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
@pytest.mark.parametrize("cutoff", [0, 2, 24])
def test_forcing_checks_match_dict_loops(grid, family, cutoff):
    # the family as built, a mode-0 tail past the envelope bound, a mode-0
    # row with an imaginary part; the norms against the full-spectrum loop
    specs = [FAMILY_BUILDERS[family](grid, cutoff) for _ in range(3)]
    specs[1].F[0, 2, -1] += 1e-3
    specs[1].F_exponents[0, 2] = -1.2
    specs[2].g[0] *= 1.0 + 1e-9j
    verdicts = []
    for spec in specs:
        for got, want in zip(spec.norms(PARAMS.rho), forcing_norms_loop(spec, PARAMS.rho)):
            assert want > 0 and abs(got - want) <= 1e-14 * want
        try:
            spec.validate(PARAMS)
            verdict = None
        except AdmissibilityError as exc:
            verdict = ("envelope" if "envelope" in str(exc)
                       else "reality" if "reality condition" in str(exc) else str(exc))
        assert verdict == forcing_verdict_loop(spec, PARAMS)
        verdicts.append(verdict)
    assert verdicts == [None, "envelope", "reality"]


def test_forcing_profile_rebuilds_exact_tail(grid):
    # the r_max value and the exponent give back the family's power law
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 0.5 + 0.25j})
    s = np.array([grid.r_max, 3.0 * grid.r_max, 1e2 * grid.r_max])
    for n, c in ((0, 1.0), (1, 0.5 + 0.25j)):
        for key, e in (("t", -(2.0 * PARAMS.rho - 1.0)), ("rt", -2.0 * (PARAMS.rho - 1.0))):
            p = forcing.profile(n, key)
            want = 1e-3 * c * s ** e
            assert np.all(np.abs(p.tail(s) - want) <= 1e-14 * np.abs(want))
    assert bump_forcing(grid, PARAMS, 1e-3, {0: 1.0}).profile(0, "rr").tail.terms == ()


def test_x_norm_weighted_decay_finite(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
    sol, _ = nl.picard_iterate(forcing, PARAMS, grid)
    assert 0.0 < nl.x_norm(sol, PARAMS.rho) < np.inf
