import numpy as np
import pytest

from hamelflow import vertical as vt
from hamelflow.background import HamelParameters
from hamelflow.errors import AdmissibilityError
from hamelflow.forcing import bump_profile
from hamelflow.grid import RadialGrid
from hamelflow.nonlinear import VelocityField
from hamelflow.profiles import ModeProfile, PowerSum, dirichlet_solve, envelope_tail
from hamelflow.spectral import compute_coefficients
from hamelflow.verification import (
    euler_residual,
    fit_decay,
    manufacture_euler,
    structural_residuals,
)

PARAMS = HamelParameters(alpha=0.0, gamma=4.0, rho=2.5)


def power_profile(grid, coef, expo):
    return ModeProfile.from_powersum(PowerSum.of((coef, expo)), grid)


def test_zero_forcing(grid):
    v, _, _ = vt.solve_vertical_mode(0, PARAMS, grid, pointwise=ModeProfile.zeros(grid))
    assert np.max(np.abs(v)) == 0.0


def test_axisymmetric_pointwise_closed_form(grid):
    # f = r^{-4} at gamma 4: v = (r^{-2} - r^{-4}) / 4
    v, dv, _ = vt.solve_vertical_mode(0, PARAMS, grid, pointwise=power_profile(grid, 1.0, -4.0))
    exact = (grid.r_nodes ** -2.0 - grid.r_nodes ** -4.0) / 4.0
    assert np.max(np.abs(v - exact)) < 5e-13
    assert abs(grid.interpolate(v, 2.0) - 3.0 / 64.0) < 1e-10
    assert abs(grid.interpolate(v, 10.0) - 0.002475) < 1e-10
    d_exact = (-2.0 * grid.r_nodes ** -3.0 + 4.0 * grid.r_nodes ** -5.0) / 4.0
    assert np.max(np.abs(dv - d_exact)) < 5e-13


def test_axisymmetric_divergence_closed_form(grid):
    # F_r3 = r^{-3}: v = -r^{-4} (r^2 - 1)/2, the angular slot cannot enter
    f_r3 = power_profile(grid, 1.0, -3.0)
    f_t3 = power_profile(grid, 7.0, -3.0)  # must drop out at mode 0
    v, _, _ = vt.solve_vertical_mode(0, PARAMS, grid, divergence=(f_r3, f_t3))
    exact = -grid.r_nodes ** -4.0 * (grid.r_nodes ** 2 - 1.0) / 2.0
    assert np.max(np.abs(v - exact)) < 5e-13


def test_axisymmetric_divergence_ignores_angular_envelope(grid):
    # an envelope tail keeps its exponent when scaled by i n = 0, so the
    # angular slot must not enter the mode-0 solve at all
    f_r3 = power_profile(grid, 1.0, -3.0)
    vals = 7.0 * grid.r_nodes ** -1.5
    f_t3 = ModeProfile(vals, grid, envelope_tail(grid, -1.5, vals))
    _, _, env = vt.solve_vertical_mode(0, PARAMS, grid, divergence=(f_r3, f_t3))
    assert env == -2.0


def test_axisymmetric_divergence_history_only_support(grid):
    # compactly supported F_r3: the solution vanishes identically below the support
    fn, _, _, (a, b) = bump_profile(grid, (2.0, 4.0))
    f_r3 = ModeProfile(fn(grid.r_nodes), grid)
    v, _, _ = vt.solve_vertical_mode(0, PARAMS, grid, divergence=(f_r3, ModeProfile.zeros(grid)))
    below = grid.r_nodes < a
    assert np.max(np.abs(v[below])) == 0.0
    beyond = grid.r_nodes > b
    assert np.max(np.abs(v[beyond])) > 0.0


def test_nonaxisymmetric_pointwise_closed_form(grid):
    # n = 1, alpha = 0, gamma = 4, f = r^{-4}: v = (r^{-2} - r^{-zeta-2})/5
    v, _, _ = vt.solve_vertical_mode(1, PARAMS, grid, pointwise=power_profile(grid, 1.0, -4.0))
    s5 = np.sqrt(5.0)
    exact = (grid.r_nodes ** -2.0 - grid.r_nodes ** (-s5 - 2.0)) / 5.0
    assert np.max(np.abs(v - exact)) < 5e-13
    assert abs(grid.interpolate(v, 3.0) - (3.0 ** -2.0 - 3.0 ** (-s5 - 2.0)) / 5.0) < 1e-10


@pytest.mark.parametrize("n,alpha", [(0, 0.0), (1, 0.0), (2, 1.3), (5, 1.3)])
def test_manufactured_roundtrip(grid, n, alpha):
    params = HamelParameters(alpha, 4.0, 2.5)
    if n == 0:
        target = PowerSum.of((1.0, 1.0 - params.rho), (-1.0, -params.gamma))
    else:
        zeta = compute_coefficients(n, alpha, params.gamma).zeta
        target = PowerSum.of((1.0, 1.0 - params.rho),
                             (-1.0, -(zeta + params.gamma / 2.0)))
    f = manufacture_euler(target, n * n + 1j * alpha * n, params)
    v, dv, _ = vt.solve_vertical_mode(n, params, grid,
                                      pointwise=ModeProfile.from_powersum(f, grid))
    exact = target(grid.r_nodes)
    rel = np.max(np.abs(v - exact)) / np.max(np.abs(exact))
    assert rel < 1e-10
    fieldv = VelocityField.zero(grid, n)
    fieldv.values[n, 2] = v
    fieldv.dvalues[n, 2] = dv
    assert structural_residuals(fieldv)["boundary_rel"][n] < 1e-12


def test_axisymmetric_divergence_skips_zero_right_branch(grid, monkeypatch):
    # delta = 0 at mode 0, so the right data delta * f_r3 is identically zero:
    # the solve runs no right kernel and no moment, and matches the solve
    # that passes those zeros explicitly
    calls = []

    def counted(name):
        kernel = getattr(RadialGrid, name)

        def wrapper(self, *args):
            calls.append(name)
            return kernel(self, *args)
        return wrapper

    for name in ("cum_right", "node_moment"):
        monkeypatch.setattr(RadialGrid, name, counted(name))
    r = grid.r_nodes
    f_r3 = ModeProfile.from_powersum(PowerSum.of((1.0, -3.5)), grid)
    f_t3 = ModeProfile(np.exp(-r), grid)
    v, dv, env = vt.solve_vertical_mode(0, PARAMS, grid, divergence=(f_r3, f_t3))
    assert calls == []
    beta = PARAMS.gamma  # zeta_0 + gamma/2
    v0, dv0, env0 = dirichlet_solve(grid, -beta, 0.0, 0, f_r3.scaled(-beta), f_r3.scaled(0.0))
    assert np.array_equal(v, v0) and np.array_equal(dv, dv0) and env == env0


def test_divergence_vs_pointwise_consistency(grid):
    # for smooth compact F the two forcing forms must give one solution
    n = 2
    params = HamelParameters(1.0, 4.0, 2.5)
    fn, dfn, _, (a, b) = bump_profile(grid, (2.0, 4.0))
    f_r3 = ModeProfile(fn(grid.r_nodes), grid)
    f_t3 = ModeProfile(0.5 * fn(grid.r_nodes), grid)
    v_div, _, _ = vt.solve_vertical_mode(n, params, grid, divergence=(f_r3, f_t3))
    r = grid.r_nodes
    pw = fn(r) / r + dfn(r) + 1j * n * 0.5 * fn(r) / r
    v_pw, _, _ = vt.solve_vertical_mode(n, params, grid,
                                        pointwise=ModeProfile(pw.astype(complex), grid))
    scale = np.max(np.abs(v_div))
    assert np.max(np.abs(v_div - v_pw)) < 1e-6 * scale


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_divergence_vs_pointwise_power_data(grid, n):
    # (F_r3, F_t3) = (r^{-3}, 0.5 r^{-3}) has divergence f_3 = (-2 + 0.5 i n) r^{-4};
    # at n = 0 the angular slot drops out of both forms
    params = HamelParameters(1.0, 4.0, 2.5)
    sol_div = vt.solve_vertical_mode(n, params, grid, divergence=(
        power_profile(grid, 1.0, -3.0), power_profile(grid, 0.5, -3.0)))
    sol_pw = vt.solve_vertical_mode(n, params, grid,
                                    pointwise=power_profile(grid, -2.0 + 0.5j * n, -4.0))
    for div, pw in zip(sol_div[:2], sol_pw[:2]):
        assert np.max(np.abs(div - pw)) < 1e-11 * np.max(np.abs(pw))


def test_ode_residual(grid):
    f = power_profile(grid, 1.0, -4.2)
    params = HamelParameters(2.0, 4.0, 2.5)
    v, dv, _ = vt.solve_vertical_mode(1, params, grid, pointwise=f)
    assert euler_residual(grid, v, f.values, 1.0 + 2.0j, params.gamma, dv=dv) < 1e-6


def test_conjugation_symmetry(grid):
    params = HamelParameters(1.7, 4.0, 2.5)
    c = 0.8 + 0.3j
    v_p, _, _ = vt.solve_vertical_mode(2, params, grid, pointwise=power_profile(grid, c, -4.0))
    v_m, _, _ = vt.solve_vertical_mode(-2, params, grid,
                                       pointwise=power_profile(grid, np.conj(c), -4.0))
    assert np.max(np.abs(v_m - np.conj(v_p))) < 1e-14


def test_decay_rate_pointwise_power_forcing(grid):
    # the history integral sets the rate r^{3 - 2 rho}, far from the
    # homogeneous branch r^{-gamma}
    params = HamelParameters(0.0, 4.0, 2.3)
    ge = -(2.0 * params.rho - 1.0)
    for n in (0, 1):
        v, _, _ = vt.solve_vertical_mode(n, params, grid, pointwise=power_profile(grid, 1.0, ge))
        fit = fit_decay((grid.r_nodes, v), (10.0, grid.r_max / 3.0), grid=grid)
        assert abs(fit.slope - (3.0 - 2.0 * params.rho)) < 0.05


@pytest.mark.parametrize("n", [0, 1])
def test_exactly_one_forcing_block(grid, n):
    f = power_profile(grid, 1.0, -4.0)
    for blocks in ({}, {"pointwise": f, "divergence": (f, f)}):
        with pytest.raises(ValueError, match="exactly one of pointwise/divergence"):
            vt.solve_vertical_mode(n, PARAMS, grid, **blocks)


def test_gamma_gate_is_hard():
    # the axisymmetric kernel would degenerate into logarithmic growth as
    # gamma -> 0; the parameter object refuses anything at or below 2
    with pytest.raises(AdmissibilityError, match="Hamel flux too weak"):
        HamelParameters(0.0, 0.0, 2.5)
    with pytest.raises(AdmissibilityError, match="Hamel flux too weak"):
        HamelParameters(0.0, 2.0, 2.5)
