import numpy as np
import pytest

from hamelflow import horizontal as hz
from hamelflow.background import HamelParameters
from hamelflow.errors import BoundaryError
from hamelflow.grid import RadialGrid
from hamelflow.nonlinear import VelocityField
from hamelflow.profiles import ModeProfile, PowerSum, full_moment
from hamelflow.verification import (
    euler_residual,
    fit_decay,
    manufacture_horizontal_stream,
    structural_residuals,
)

PARAMS = HamelParameters(alpha=0.0, gamma=4.0, rho=2.5)


def zeros(grid):
    return ModeProfile.zeros(grid)


def power_profile(grid, coef, expo):
    return ModeProfile.from_powersum(PowerSum.of((coef, expo)), grid)


# -- axisymmetric part -------------------------------------------------------

def test_zero_forcing_gives_zero(grid):
    sol = hz.solve_mode(0, PARAMS, grid, pointwise=(zeros(grid), zeros(grid)))
    assert sol.v_t.max_abs() == 0.0
    assert sol.v_r.max_abs() == 0.0


def test_axisymmetric_divergence_closed_form(grid):
    # F_rt = r^{-3} at gamma 4: angular profile is 2 r^{-3} - 2 r^{-2}
    sol = hz.solve_mode(0, PARAMS, grid, divergence=(
        zeros(grid), power_profile(grid, 1.0, -3.0), zeros(grid), zeros(grid)))
    exact = 2.0 * grid.r_nodes ** -3.0 - 2.0 * grid.r_nodes ** -2.0
    assert np.max(np.abs(sol.v_t.values - exact)) < 1e-11
    assert abs(sol.v_t.at(2.0) - (-0.25)) < 1e-11
    d_exact = -6.0 * grid.r_nodes ** -4.0 + 4.0 * grid.r_nodes ** -3.0
    assert np.max(np.abs(sol.dv_t.values - d_exact)) < 1e-11
    assert sol.v_r.max_abs() == 0.0


@pytest.mark.parametrize("c", [0.0, 0.5, -1.3])
def test_axisymmetric_divergence_vs_pointwise_power_data(grid, c):
    # (F_rt, F_tr) = (r^{-3}, c r^{-3}) drives the angular profile like f_t = (c - 2) r^{-4}
    sol_div = hz.solve_mode(0, PARAMS, grid, divergence=(
        zeros(grid), power_profile(grid, 1.0, -3.0), power_profile(grid, c, -3.0), zeros(grid)))
    sol_pw = hz.solve_mode(0, PARAMS, grid,
                           pointwise=(zeros(grid), power_profile(grid, c - 2.0, -4.0)))
    for div, pw in ((sol_div.v_t, sol_pw.v_t), (sol_div.dv_t, sol_pw.dv_t)):
        assert np.max(np.abs(div.values - pw.values)) < 1e-11 * pw.max_abs()


def test_axisymmetric_manufactured_roundtrip(grid):
    rho, gamma = PARAMS.rho, PARAMS.gamma
    target = PowerSum.of((1.0, 1.0 - rho), (-1.0, 1.0 - gamma))
    f_t = power_profile(grid, (rho - 2.0) * (gamma - rho), -1.0 - rho)
    sol = hz.solve_mode(0, PARAMS, grid, pointwise=(zeros(grid), f_t))
    exact = target(grid.r_nodes)
    rel = np.max(np.abs(sol.v_t.values - exact)) / np.max(np.abs(exact))
    assert rel < 1e-10
    assert abs(sol.v_t.values[0]) < 1e-12


def test_axisymmetric_ode_residual(grid):
    f_t = power_profile(grid, 1.0, -4.0)
    sol = hz.solve_mode(0, PARAMS, grid, pointwise=(zeros(grid), f_t))
    la = 1.0 - PARAMS.gamma
    assert euler_residual(grid, sol.v_t.values, f_t.values, la, PARAMS.gamma,
                          dv=sol.dv_t.values) < 1e-6


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("solver", [hz.solve_mode, hz.compute_vorticity_mode])
def test_exactly_one_forcing_block(grid, solver, n):
    f = power_profile(grid, 1.0, -4.0)
    for blocks in ({}, {"pointwise": (f, f), "divergence": (f, f, f, f)}):
        with pytest.raises(ValueError, match="exactly one of pointwise/divergence"):
            solver(n, PARAMS, grid, **blocks)


# -- vorticity construction --------------------------------------------------

def test_vorticity_closed_form(grid):
    # single F_tr = r^{-3} slot at n = 1, real exponents
    omega, c_1, _ = hz.compute_vorticity_mode(1, PARAMS, grid, divergence=(
        zeros(grid), zeros(grid), power_profile(grid, 1.0, -3.0), zeros(grid)))
    s5 = np.sqrt(5.0)
    assert abs(c_1 - 1.0 / (2.0 * s5)) < 1e-13
    kappa = (3.0 * s5 + 5.0) / 20.0 + 1.0 / (2.0 * s5)
    exact = -0.5 * grid.r_nodes ** -3.0 + kappa * grid.r_nodes ** (-s5 - 2.0)
    assert np.max(np.abs(omega.values - exact)) < 1e-12


def test_vorticity_zero_forcing(grid):
    omega, c_n, _ = hz.compute_vorticity_mode(
        2, PARAMS, grid, divergence=tuple(zeros(grid) for _ in range(4)))
    assert omega.max_abs() == 0.0
    assert c_n == 0.0


@pytest.mark.parametrize("n,alpha", [(1, 0.0), (3, 2.0), (-2, 1.0)])
def test_moment_cancellation_random_forcing(grid, n, alpha):
    # the moment identity must close for arbitrary admissible forcing
    params = HamelParameters(alpha, 4.0, 2.5)
    rng = np.random.default_rng(abs(n) * 11 + 3)
    comps = []
    for _ in range(4):  # rr, rt, tr, tt
        c = rng.normal() + 1j * rng.normal()
        comps.append(power_profile(grid, c, -3.0 - rng.uniform(0, 1)))
    omega, _, _ = hz.compute_vorticity_mode(n, params, grid, divergence=tuple(comps))
    moment = full_moment(grid, 1.0 - abs(n), omega.values, omega.tail)
    scale = hz._abs_moment(grid, 1.0 - abs(n), omega)
    assert abs(moment) <= 1e-8 * scale


def test_vorticity_ode_residual(grid):
    # divergence forcing with smooth power profiles; the rotated force is
    # assembled symbolically and compared by spectral differentiation
    n = 2
    params = HamelParameters(1.0, 4.0, 2.5)
    frt = PowerSum.of((1.0, -3.2))
    ftr = PowerSum.of((0.7, -3.6))
    omega, _, _ = hz.compute_vorticity_mode(n, params, grid, divergence=(
        zeros(grid), ModeProfile.from_powersum(frt, grid),
        ModeProfile.from_powersum(ftr, grid), zeros(grid)))
    # f_r = (in/r) F_tr, f_t = (1/r)(r F_rt)' + F_tr / r for this slot pair
    f_r = PowerSum([(1j * n * c, e - 1.0) for c, e in ftr.terms])
    f_t = (PowerSum([(c * (e + 1.0), e - 1.0) for c, e in frt.terms])
           + PowerSum([(c, e - 1.0) for c, e in ftr.terms]))
    # rot f = (1/r)(r f_t)' - (in/r) f_r
    rot_f = (PowerSum([(c * (e + 1.0), e - 1.0) for c, e in f_t.terms])
             + PowerSum([(-1j * n * c, e - 1.0) for c, e in f_r.terms]))
    res = euler_residual(grid, omega.values, rot_f(grid.r_nodes),
                         n * n + 1j * params.alpha * n, params.gamma)
    assert res < 1e-4


# -- Biot-Savart reconstruction ----------------------------------------------

def test_biot_savart_closed_form(grid):
    s5 = np.sqrt(5.0)
    a = s5 + 2.0
    kappa = 3.0 / (a - 1.0)
    omega = ModeProfile.from_powersum(PowerSum.of((1.0, -a), (-kappa, -4.0)), grid)
    v_r, v_t, dv_r, dv_t = hz.biot_savart(1, omega)
    r = grid.r_nodes
    acc = (1.0 - r ** (3.0 - a)) / (a - 3.0) - kappa * (1.0 - 1.0 / r)
    out = r ** (1.0 - a) / (a - 1.0) - kappa * r ** -3.0 / 3.0
    assert np.max(np.abs(v_r.values - 0.5j * (r ** -2.0 * acc + out))) < 1e-12
    assert np.max(np.abs(v_t.values - 0.5 * (r ** -2.0 * acc - out))) < 1e-12
    moment = full_moment(grid, 0.0, omega.values, omega.tail)
    assert abs(moment) < 1e-12 * hz._abs_moment(grid, 0.0, omega)


def test_biot_savart_zero(grid):
    v_r, v_t, _, _ = hz.biot_savart(2, ModeProfile.zeros(grid))
    assert v_r.max_abs() == 0.0 and v_t.max_abs() == 0.0


def test_biot_savart_rejects_bad_moment(grid):
    omega = ModeProfile.from_powersum(PowerSum.of((1.0, -4.0)), grid)
    with pytest.raises(BoundaryError, match="boundary condition violated"):
        hz.biot_savart(1, omega)


def test_reconstruction_satisfies_curl_and_divergence(grid):
    # rot of the reconstructed pair returns omega; divergence vanishes
    n = 2
    sol = hz.solve_mode(n, PARAMS, grid, divergence=(
        zeros(grid), power_profile(grid, 1.0, -3.0), power_profile(grid, 0.5, -3.0), zeros(grid)))
    r = grid.r_nodes
    curl = (sol.v_t.values + r * sol.dv_t.values - 1j * n * sol.v_r.values) / r
    assert np.max(np.abs(curl - sol.omega.values)) < 1e-9 * sol.omega.max_abs()
    fieldv = VelocityField.zero(grid, n)
    fieldv.values[2 * n, :2] = sol.v_r.values, sol.v_t.values
    fieldv.dvalues[2 * n, :2] = sol.dv_r.values, sol.dv_t.values
    res = structural_residuals(fieldv)
    assert res["divergence_rel"][2 * n] < 1e-10
    assert res["boundary_rel"][2 * n] < 1e-10
    moment = full_moment(grid, 1.0 - n, sol.omega.values, sol.omega.tail)
    assert abs(moment) < 1e-10 * hz._abs_moment(grid, 1.0 - n, sol.omega)


# -- full-mode round trips -----------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5])
def test_stream_manufactured_roundtrip(grid, n):
    params = HamelParameters(1.3, 4.0, 2.5)
    mu = _stream_mu()
    f_t, v_r_ps, v_t_ps = manufacture_horizontal_stream(mu, n, params)
    sol = hz.solve_mode(n, params, grid,
                        pointwise=(zeros(grid), ModeProfile.from_powersum(f_t, grid)))
    vr_ex, vt_ex = v_r_ps(grid.r_nodes), v_t_ps(grid.r_nodes)
    scale = max(np.max(np.abs(vr_ex)), np.max(np.abs(vt_ex)))
    err = max(np.max(np.abs(sol.v_r.values - vr_ex)),
              np.max(np.abs(sol.v_t.values - vt_ex))) / scale
    assert err < 1e-8


def _stream_mu():
    p1, p2, p3 = 2.2, 3.7, 5.1
    a1 = 1.0
    a2 = a1 * (p1 - p3) / (p3 - p2)
    a3 = -a1 - a2
    return PowerSum.of((a1, -p1), (a2, -p2), (a3, -p3))


def test_conjugation_symmetry(grid):
    n = 2
    params = HamelParameters(1.3, 4.0, 2.5)
    f_t, _, _ = manufacture_horizontal_stream(_stream_mu(), n, params)
    sol_p = hz.solve_mode(n, params, grid,
                          pointwise=(zeros(grid), ModeProfile.from_powersum(f_t, grid)))
    sol_m = hz.solve_mode(-n, params, grid, pointwise=(
        zeros(grid), ModeProfile.from_powersum(f_t.conjugate(), grid)))
    assert np.max(np.abs(sol_m.v_r.values - np.conj(sol_p.v_r.values))) < 1e-14
    assert np.max(np.abs(sol_m.v_t.values - np.conj(sol_p.v_t.values))) < 1e-14
    assert abs(sol_m.c_n - np.conj(sol_p.c_n)) < 1e-14


def test_decay_rate_of_power_envelope_solve(grid):
    # mode 2 at rho = 2.3: the kernel branch r^{3 - 2 rho} dominates the
    # window, well separated from the moment branch r^{-3}
    params = HamelParameters(0.0, 4.0, 2.3)
    fe = -2.0 * (params.rho - 1.0)
    comps = (power_profile(grid, 1.0, fe),) * 4
    sol = hz.solve_mode(2, params, grid, divergence=comps)
    amp = np.sqrt(np.abs(sol.v_r.values) ** 2 + np.abs(sol.v_t.values) ** 2)
    fit = fit_decay((grid.r_nodes, amp), (10.0, grid.r_max / 3.0), grid=grid)
    assert abs(fit.slope - (3.0 - 2.0 * params.rho)) < 0.05


def test_mode_gain_bounded_over_modes(grid_fine):
    # the weighted gain against the forcing class stays bounded in n
    params = HamelParameters(1.0, 4.0, 2.5)
    fe = -2.0 * (params.rho - 1.0)
    gains = []
    for n in (1, 2, 4, 8, 16, 32, 64):
        comps = (power_profile(grid_fine, 1.0, fe),) * 4
        sol = hz.solve_mode(n, params, grid_fine, divergence=comps)
        from hamelflow.profiles import weighted_sup_norm
        gains.append(max(weighted_sup_norm(sol.v_r, params.rho - 1.0).sup_norm_weighted,
                         weighted_sup_norm(sol.v_t, params.rho - 1.0).sup_norm_weighted))
    assert max(gains) < 10.0
    assert gains == sorted(gains, reverse=True)
