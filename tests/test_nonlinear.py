import numpy as np
import pytest

from hamelflow import horizontal as hz
from hamelflow import nonlinear as nl
from hamelflow import vertical as vt
from hamelflow.background import HamelParameters
from hamelflow.errors import ContractionError, IterationError
from hamelflow.forcing import power_envelope_forcing, random_forcing
from hamelflow.profiles import ZERO_TAIL, ModeProfile, PowerSum, envelope_tail

PARAMS = HamelParameters(alpha=1.0, gamma=4.0, rho=2.5)


def random_field(grid, seed, cutoff=3, decay=-2.0):
    rng = np.random.default_rng(seed)
    f = nl.VelocityField(grid, cutoff, {}, {})
    for n in range(-cutoff, cutoff + 1):
        trip = []
        for tag in "rt3":
            c = rng.normal() + 1j * rng.normal()
            trip.append(ModeProfile.from_powersum(
                PowerSum.of((c, decay - rng.uniform(0, 1))), grid, n, tag))
        f.modes[n] = tuple(trip)
    return f


def real_field(grid, seed, cutoff=3, decay=-2.0):
    """Like random_field, but the n >= 0 draws are mirrored to n < 0."""
    rng = np.random.default_rng(seed)
    f = nl.VelocityField(grid, cutoff, {}, {})
    for n in range(0, cutoff + 1):
        trip = []
        for tag in "rt3":
            c = rng.normal() + (1j * rng.normal() if n > 0 else 0.0)
            trip.append(ModeProfile.from_powersum(
                PowerSum.of((c, decay - rng.uniform(0, 1))), grid, n, tag))
        f.modes[n] = tuple(trip)
        if n > 0:
            f.modes[-n] = tuple(p.conjugate() for p in trip)
    return f


def direct_convolution(v, w):
    """The O(N^2 M) direct sum over mode pairs: oracle for the FFT product."""
    grid = v.grid
    N = v.cutoff
    out = {}
    for n in range(-N, N + 1):
        acc = {key: np.zeros(grid.n_nodes, dtype=complex) for key in nl.TENSOR_KEYS}
        exps = {key: -np.inf for key in nl.TENSOR_KEYS}
        for m in range(-N, N + 1):
            k = n - m
            if abs(k) > N or m not in v.modes or k not in w.modes:
                continue
            vm = v.mode_values(m)
            wk = w.mode_values(k)
            ev = v.mode_tail_exponent(m)
            ew = w.mode_tail_exponent(k)
            for key in nl.TENSOR_KEYS:
                acc[key] += vm[nl._COMP[key[0]]] * wk[nl._COMP[key[1]]]
                exps[key] = max(exps[key], ev + ew)
        prof = {}
        for key in nl.TENSOR_KEYS:
            if np.isfinite(exps[key]) and np.any(acc[key]):
                tail = envelope_tail(grid, exps[key], acc[key])
            else:
                tail = ZERO_TAIL
            prof[key] = ModeProfile(acc[key], n, key, grid, tail)
        out[n] = prof
    return out


def direct_mode_solve(forcing, n, params, grid):
    """Solve mode n from the forcing's pieces, without apply_T."""
    g_r, g_t, g_3 = forcing.g_modes[n]
    F = forcing.F_modes[n]
    sol_h = hz.solve_mode(hz.HorizontalForcingMode(n, pointwise=(g_r, g_t)), params, grid)
    sol_h = sol_h.add(hz.solve_mode(hz.HorizontalForcingMode(
        n, divergence=(F["rr"], F["rt"], F["tr"], F["tt"])), params, grid))
    sol_v = vt.solve_vertical_mode(vt.VerticalForcingMode(n, pointwise=g_3), params, grid)
    sol_v = sol_v.add(vt.solve_vertical_mode(vt.VerticalForcingMode(
        n, divergence=(F["r3"], F["t3"])), params, grid))
    return sol_h.v_r, sol_h.v_t, sol_v.v_3


# -- convolution ---------------------------------------------------------------

def test_convolution_zero_operand(grid):
    v = random_field(grid, 3)
    z = nl.VelocityField.zero(grid, 3)
    out = nl.tensor_convolution(v, z)
    assert all(out[n][k].max_abs() == 0.0 for n in out for k in nl.TENSOR_KEYS)


def test_convolution_single_term(grid):
    a = nl.VelocityField(grid, 2, {0: tuple(
        ModeProfile.from_powersum(PowerSum.of((1.0, -2.0)), grid, 0, t) for t in "rt3")}, {})
    b = nl.VelocityField(grid, 2, {1: tuple(
        ModeProfile.from_powersum(PowerSum.of((2.0, -3.0)), grid, 1, t) for t in "rt3")}, {})
    out = nl.tensor_convolution(a, b)
    populated = [n for n in out if any(out[n][k].max_abs() > 0 for k in nl.TENSOR_KEYS)]
    assert populated == [1]
    assert np.max(np.abs(out[1]["rt"].values - 2.0 * grid.r_nodes ** -5.0)) < 1e-14


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_convolution_against_physical_multiplication(grid, seed):
    v = random_field(grid, seed)
    w = random_field(grid, seed + 100)
    out = nl.tensor_convolution(v, w)
    for n in (-3, 0, 2):
        for key in ("rr", "t3", "tr"):
            oracle = nl.convolution_physical_oracle(v, w, n, key)
            assert np.max(np.abs(out[n][key].values - oracle)) < 1e-10


@pytest.mark.parametrize("cutoff", [0, 1, 2, 5, 24, 32])
def test_fft_convolution_matches_direct_sum(grid, cutoff):
    v = random_field(grid, 40 + cutoff, cutoff=cutoff)
    w = random_field(grid, 80 + cutoff, cutoff=cutoff)
    for a, b in ((v, w), (v, v)):
        fast = nl.tensor_convolution(a, b)
        slow = direct_convolution(a, b)
        scale = a.scale() * b.scale()
        assert sorted(fast) == sorted(slow) == list(range(-cutoff, cutoff + 1))
        for n in slow:
            for key in nl.TENSOR_KEYS:
                f, s = fast[n][key], slow[n][key]
                assert np.max(np.abs(f.values - s.values)) < 1e-14 * scale
                assert f.tail.slowest_exponent() == s.tail.slowest_exponent()
                assert (f.mode, f.component_tag) == (n, key)


def test_fft_convolution_exact_zeros(grid):
    # the second Picard step of the power family at cutoff 4: modes 2..4 of
    # the first iterate are zero solutions, so product modes 3 and 4 are
    # reached by no pair of nonzero components
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0}, cutoff=4)
    first = nl.apply_T(nl.VelocityField.zero(grid, 4), forcing, PARAMS, grid)
    assert all(first.modes[n][0].max_abs() == 0.0 for n in (2, 3, 4))
    fast = nl.tensor_convolution(first, first)
    slow = direct_convolution(first, first)
    zeros = 0
    for n in slow:
        for key in nl.TENSOR_KEYS:
            f, s = fast[n][key], slow[n][key]
            if not np.any(s.values):
                zeros += 1
                assert not np.any(f.values)
                assert f.tail is ZERO_TAIL
            else:
                assert np.max(np.abs(f.values - s.values)) < 1e-14 * first.scale() ** 2
                assert f.tail.slowest_exponent() == s.tail.slowest_exponent()
    assert zeros >= 2 * 2 * len(nl.TENSOR_KEYS)


def test_convolution_cutoff_mismatch(grid):
    with pytest.raises(ValueError, match="cutoff mismatch"):
        nl.tensor_convolution(random_field(grid, 1, cutoff=2),
                              random_field(grid, 2, cutoff=3))


# -- the map T -----------------------------------------------------------------

def test_T_zero_data(grid):
    out = nl.apply_T(nl.VelocityField.zero(grid, 2), nl.ForcingSpec(grid, 2),
                     PARAMS, grid)
    assert out.scale() == 0.0


def test_T_at_zero_equals_direct_linear_solves(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 0.5})
    out = nl.apply_T(nl.VelocityField.zero(grid, 1), forcing, PARAMS, grid)
    for n in (-1, 0, 1):
        for got, want in zip(out.modes[n], direct_mode_solve(forcing, n, PARAMS, grid)):
            assert np.max(np.abs(got.values - want.values)) < 1e-14


@pytest.mark.parametrize("alpha", [-3.0, 1.7])
def test_T_mirrored_modes_equal_direct_solves(grid, alpha):
    # apply_T solves n >= 0 and conjugates; solve the negative modes directly
    params = HamelParameters(alpha=alpha, gamma=4.0, rho=2.5)
    forcing = random_forcing(grid, params, 1e-3, seed=5, n_modes=24)
    out = nl.apply_T(nl.VelocityField.zero(grid, 24), forcing, params, grid)
    for n in (-1, -7, -24):
        for got, want in zip(out.modes[n], direct_mode_solve(forcing, n, params, grid)):
            assert (got.mode, got.component_tag) == (want.mode, want.component_tag)
            assert np.max(np.abs(got.values - want.values)) < 1e-14 * want.max_abs()
            assert got.tail.slowest_exponent() == want.tail.slowest_exponent()


def test_T_rejects_non_real_iterate(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 0.5})
    with pytest.raises(ValueError, match="reality condition"):
        nl.apply_T(random_field(grid, 4, cutoff=1), forcing, PARAMS, grid)


def test_T_quadratic_response(grid):
    # ||T(eps w) - T(0)|| scales like eps^2 with a stable constant
    forcing = nl.ForcingSpec(grid, 2)
    base = real_field(grid, 9, cutoff=2, decay=-1.8)
    ratios = []
    for eps in (1e-2, 1e-3):
        scaled = nl.VelocityField(grid, 2,
                                  {n: tuple(p.scaled(eps) for p in trip)
                                   for n, trip in base.modes.items()}, {})
        out = nl.apply_T(scaled, forcing, PARAMS, grid)
        ratios.append(nl.x_norm(out, PARAMS.rho) / eps ** 2)
    assert abs(ratios[0] / ratios[1] - 1.0) < 0.02


# -- fixed-point iteration -------------------------------------------------------

def test_picard_zero_forcing(grid):
    sol, diag = nl.picard_iterate(nl.ForcingSpec(grid, 1), PARAMS, grid)
    assert diag.converged and diag.iterations == 1
    assert sol.scale() == 0.0
    assert diag.iterate_norms == [0.0]


def test_picard_small_data(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
    sol, diag = nl.picard_iterate(forcing, PARAMS, grid)
    assert diag.converged
    # fixed-point residual measured by one extra application
    resid = nl.field_diff_norm(nl.apply_T(sol, forcing, PARAMS, grid), sol, PARAMS.rho)
    assert resid <= 1e-10 * diag.difference_norms[0]
    # a-posteriori ball: every iterate stays within twice the first one
    assert all(nrm <= 2.0 * diag.iterate_norms[0] for nrm in diag.iterate_norms)
    # reality is preserved from data to solution
    assert sol.reality_defect() < 1e-10
    acc = nl.reconstruct_u(sol, PARAMS)
    assert acc.max_imag([1.0, 2.5, 30.0]) < 1e-10 * sol.scale()


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


def test_bilinear_identity(grid):
    # div(w (x) w) must equal w . grad w in physical space when div w = 0;
    # use solver output as w so the per-mode divergence identity holds.
    # The product carries modes up to 2N, so the field is re-declared at
    # the doubled cutoff before convolving.
    forcing = power_envelope_forcing(grid, PARAMS, 1.0, {0: 1.0, 1: 1.0, 2: 0.5})
    w = nl.apply_T(nl.VelocityField.zero(grid, 2), forcing, PARAMS, grid)
    N = w.cutoff
    wide = nl.VelocityField(grid, 2 * N, dict(w.modes), dict(w.dmodes))
    prods = nl.tensor_convolution(wide, wide)
    r = grid.r_nodes

    # modal derivative of the products via the solution derivative data
    def dprod(n, a, b):
        out = np.zeros(grid.n_nodes, dtype=complex)
        for m in range(-N, N + 1):
            k = n - m
            if abs(k) > N:
                continue
            va = w.mode_values(m)[a]
            vb = w.mode_values(k)[b]
            da = w.dmodes[m][a].values
            db = w.dmodes[k][b].values
            out += da * vb + va * db
        return out

    theta = 1.234
    side_a = np.zeros((3, grid.n_nodes), dtype=complex)
    for n in range(-2 * N, 2 * N + 1):
        ph = np.exp(1j * n * theta)
        rr, rt, r3 = (prods[n][k].values for k in ("rr", "rt", "r3"))
        tr, tt, t3 = (prods[n][k].values for k in ("tr", "tt", "t3"))
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
            vals[a] += ph * w.mode_values(n)[a]
            dvals[a] += ph * w.dmodes[n][a].values
            tvals[a] += ph * 1j * n * w.mode_values(n)[a]
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
    acc = nl.reconstruct_u(nl.VelocityField.zero(grid, 1), PARAMS)
    u = acc.velocity(2.0, 0.7)
    assert np.allclose(u, (-PARAMS.gamma / 2.0, PARAMS.alpha / 2.0, 0.0))


def test_reconstruct_u_boundary_matches_data(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
    sol, _ = nl.picard_iterate(forcing, PARAMS, grid)
    acc = nl.reconstruct_u(sol, PARAMS)
    for theta in (0.0, 1.1, 4.4):
        u = acc.velocity(1.0, theta)
        assert np.allclose(u, (-PARAMS.gamma, PARAMS.alpha, 0.0), atol=1e-8)


def test_x_norm_weighted_decay_finite(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
    sol, _ = nl.picard_iterate(forcing, PARAMS, grid)
    assert 0.0 < nl.x_norm(sol, PARAMS.rho) < np.inf
