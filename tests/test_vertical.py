import numpy as np
import pytest

from hamelflow import vertical as vt
from hamelflow.background import HamelParameters
from hamelflow.errors import AdmissibilityError
from hamelflow.forcing import bump_profile
from hamelflow.profiles import ModeProfile, PowerSum, envelope_tail
from hamelflow.spectral import compute_coefficients
from hamelflow.verification import (
    fit_decay,
    manufacture_vertical,
    vertical_residual,
)

PARAMS = HamelParameters(alpha=0.0, gamma=4.0, rho=2.5)


def power_profile(grid, coef, expo):
    return ModeProfile.from_powersum(PowerSum.of((coef, expo)), grid)


def test_zero_forcing(grid):
    sol = vt.solve_vertical_mode(0, PARAMS, grid, pointwise=ModeProfile.zeros(grid))
    assert sol.v_3.max_abs() == 0.0


def test_axisymmetric_pointwise_closed_form(grid):
    # f = r^{-4} at gamma 4: v = (r^{-2} - r^{-4}) / 4
    sol = vt.solve_vertical_mode(0, PARAMS, grid, pointwise=power_profile(grid, 1.0, -4.0))
    exact = (grid.r_nodes ** -2.0 - grid.r_nodes ** -4.0) / 4.0
    assert np.max(np.abs(sol.v_3.values - exact)) < 5e-13
    assert abs(sol.v_3.at(2.0) - 3.0 / 64.0) < 1e-10
    assert abs(sol.v_3.at(10.0) - 0.002475) < 1e-10
    d_exact = (-2.0 * grid.r_nodes ** -3.0 + 4.0 * grid.r_nodes ** -5.0) / 4.0
    assert np.max(np.abs(sol.dv_3.values - d_exact)) < 5e-13


def test_axisymmetric_divergence_closed_form(grid):
    # F_r3 = r^{-3}: v = -r^{-4} (r^2 - 1)/2, the angular slot cannot enter
    f_r3 = power_profile(grid, 1.0, -3.0)
    f_t3 = power_profile(grid, 7.0, -3.0)  # must drop out at mode 0
    sol = vt.solve_vertical_mode(0, PARAMS, grid, divergence=(f_r3, f_t3))
    exact = -grid.r_nodes ** -4.0 * (grid.r_nodes ** 2 - 1.0) / 2.0
    assert np.max(np.abs(sol.v_3.values - exact)) < 5e-13


def test_axisymmetric_divergence_ignores_angular_envelope(grid):
    # an envelope tail keeps its exponent when scaled by i n = 0, so the
    # angular slot must not enter the mode-0 solve at all
    f_r3 = power_profile(grid, 1.0, -3.0)
    vals = 7.0 * grid.r_nodes ** -1.5
    f_t3 = ModeProfile(vals, grid, envelope_tail(grid, -1.5, vals))
    sol = vt.solve_vertical_mode(0, PARAMS, grid, divergence=(f_r3, f_t3))
    assert sol.v_3.tail.slowest_exponent() == -2.0


def test_axisymmetric_divergence_history_only_support(grid):
    # compactly supported F_r3: the solution vanishes identically below the support
    fn, (a, b) = bump_profile(grid, (2.0, 4.0))
    f_r3 = ModeProfile.from_callable(fn, grid)
    sol = vt.solve_vertical_mode(0, PARAMS, grid, divergence=(f_r3, ModeProfile.zeros(grid)))
    below = grid.r_nodes < a
    assert np.max(np.abs(sol.v_3.values[below])) == 0.0
    beyond = grid.r_nodes > b
    assert np.max(np.abs(sol.v_3.values[beyond])) > 0.0


def test_nonaxisymmetric_pointwise_closed_form(grid):
    # n = 1, alpha = 0, gamma = 4, f = r^{-4}: v = (r^{-2} - r^{-zeta-2})/5
    sol = vt.solve_vertical_mode(1, PARAMS, grid, pointwise=power_profile(grid, 1.0, -4.0))
    s5 = np.sqrt(5.0)
    exact = (grid.r_nodes ** -2.0 - grid.r_nodes ** (-s5 - 2.0)) / 5.0
    assert np.max(np.abs(sol.v_3.values - exact)) < 5e-13
    assert abs(sol.v_3.at(3.0) - (3.0 ** -2.0 - 3.0 ** (-s5 - 2.0)) / 5.0) < 1e-10


@pytest.mark.parametrize("n,alpha", [(0, 0.0), (1, 0.0), (2, 1.3), (5, 1.3)])
def test_manufactured_roundtrip(grid, n, alpha):
    params = HamelParameters(alpha, 4.0, 2.5)
    if n == 0:
        target = PowerSum.of((1.0, 1.0 - params.rho), (-1.0, -params.gamma))
    else:
        zeta = compute_coefficients(n, alpha, params.gamma).zeta
        target = PowerSum.of((1.0, 1.0 - params.rho),
                             (-1.0, -(zeta + params.gamma / 2.0)))
    f = manufacture_vertical(target, n, params)
    sol = vt.solve_vertical_mode(n, params, grid, pointwise=ModeProfile.from_powersum(f, grid))
    exact = target(grid.r_nodes)
    rel = np.max(np.abs(sol.v_3.values - exact)) / np.max(np.abs(exact))
    assert rel < 1e-10
    assert sol.checks["boundary_rel"] < 1e-12


def test_divergence_vs_pointwise_consistency(grid):
    # for smooth compact F the two forcing forms must give one solution
    n = 2
    params = HamelParameters(1.0, 4.0, 2.5)
    fn, dfn, _, (a, b) = bump_profile(grid, (2.0, 4.0), derivatives=True)
    f_r3 = ModeProfile.from_callable(fn, grid)
    f_t3 = ModeProfile.from_callable(lambda r: 0.5 * fn(r), grid)
    sol_div = vt.solve_vertical_mode(n, params, grid, divergence=(f_r3, f_t3))
    r = grid.r_nodes
    pw = fn(r) / r + dfn(r) + 1j * n * 0.5 * fn(r) / r
    sol_pw = vt.solve_vertical_mode(n, params, grid,
                                    pointwise=ModeProfile(pw.astype(complex), grid))
    scale = sol_div.v_3.max_abs()
    assert np.max(np.abs(sol_div.v_3.values - sol_pw.v_3.values)) < 1e-6 * scale


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_divergence_vs_pointwise_power_data(grid, n):
    # (F_r3, F_t3) = (r^{-3}, 0.5 r^{-3}) has divergence f_3 = (-2 + 0.5 i n) r^{-4};
    # at n = 0 the angular slot drops out of both forms
    params = HamelParameters(1.0, 4.0, 2.5)
    sol_div = vt.solve_vertical_mode(n, params, grid, divergence=(
        power_profile(grid, 1.0, -3.0), power_profile(grid, 0.5, -3.0)))
    sol_pw = vt.solve_vertical_mode(n, params, grid,
                                    pointwise=power_profile(grid, -2.0 + 0.5j * n, -4.0))
    for div, pw in ((sol_div.v_3, sol_pw.v_3), (sol_div.dv_3, sol_pw.dv_3)):
        assert np.max(np.abs(div.values - pw.values)) < 1e-11 * pw.max_abs()


def test_ode_residual(grid):
    f = power_profile(grid, 1.0, -4.2)
    params = HamelParameters(2.0, 4.0, 2.5)
    sol = vt.solve_vertical_mode(1, params, grid, pointwise=f)
    assert vertical_residual(sol, f.values, 1, params) < 1e-6


def test_conjugation_symmetry(grid):
    params = HamelParameters(1.7, 4.0, 2.5)
    c = 0.8 + 0.3j
    sol_p = vt.solve_vertical_mode(2, params, grid, pointwise=power_profile(grid, c, -4.0))
    sol_m = vt.solve_vertical_mode(-2, params, grid,
                                   pointwise=power_profile(grid, np.conj(c), -4.0))
    assert np.max(np.abs(sol_m.v_3.values - np.conj(sol_p.v_3.values))) < 1e-14


def test_decay_rate_pointwise_power_forcing(grid):
    # the history integral sets the rate r^{3 - 2 rho}, far from the
    # homogeneous branch r^{-gamma}
    params = HamelParameters(0.0, 4.0, 2.3)
    ge = -(2.0 * params.rho - 1.0)
    for n in (0, 1):
        sol = vt.solve_vertical_mode(n, params, grid, pointwise=power_profile(grid, 1.0, ge))
        fit = fit_decay(sol.v_3, (10.0, grid.r_max / 3.0))
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
