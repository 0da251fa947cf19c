import dataclasses

import numpy as np
import pytest

from hamelflow import nonlinear as nl
from hamelflow import verification as vf
from hamelflow.background import HamelParameters
from hamelflow.forcing import build_family, bump_forcing, power_envelope_forcing
from hamelflow.grid import RadialGrid
from hamelflow.profiles import PowerSum

PARAMS = HamelParameters(alpha=1.0, gamma=4.0, rho=2.5)


# -- decay fitting ---------------------------------------------------------------

def test_fit_exact_power_law(grid):
    radii = grid.r_nodes
    fit = vf.fit_decay((radii, radii ** -2.0), (10.0, 100.0), grid=grid)
    assert abs(fit.slope + 2.0) < 1e-10
    assert fit.rms_residual < 1e-12


def test_fit_dominated_tail(grid):
    radii = grid.r_nodes
    fit = vf.fit_decay((radii, radii ** -2.0 + radii ** -4.0), (10.0, 100.0), grid=grid)
    assert -2.02 < fit.slope < -2.0


def test_fit_mixed_sign_rejected(grid):
    radii = grid.r_nodes
    data = np.where(radii < 50, 1.0, -1.0) * radii ** -2.0
    with pytest.raises(ValueError, match="mixed-sign"):
        vf.fit_decay((radii, data), (10.0, 100.0), grid=grid)


def test_fit_window_validation(grid):
    radii = grid.r_nodes
    with pytest.raises(ValueError, match="r >= 10"):
        vf.fit_decay((radii, radii ** -2.0), (5.0, 100.0), grid=grid)
    with pytest.raises(ValueError, match="r_max / 2"):
        vf.fit_decay((radii, radii ** -2.0), (10.0, 900.0), grid=grid)


def test_fit_zero_magnitude_rejected(grid):
    radii = grid.r_nodes
    data = np.where(radii < 50, radii ** -2.0, 0.0)
    with pytest.raises(ValueError, match="zero magnitudes"):
        vf.fit_decay((radii, data), (10.0, 100.0), grid=grid)


# -- manufactured forcing ---------------------------------------------------------

def test_manufacture_zero_target():
    f = vf.manufacture_euler(PowerSum.zero(), 1.0 + 1.0j, PARAMS)
    assert f.terms == ()


def test_manufacture_symbolic_value():
    # v = r^{1-rho} - r^{-gamma}: the operator leaves (rho-1)(gamma+1-rho) r^{-1-rho}
    rho, gamma = PARAMS.rho, PARAMS.gamma
    target = PowerSum.of((1.0, 1.0 - rho), (-1.0, -gamma))
    f = vf.manufacture_euler(target, 0.0, PARAMS)
    assert len(f.terms) == 1
    coef, expo = f.terms[0]
    assert abs(expo - (-1.0 - rho)) < 1e-14
    assert abs(coef - (rho - 1.0) * (gamma + 1.0 - rho)) < 1e-12


def test_manufacture_rejects_boundary_violation():
    with pytest.raises(ValueError, match="v\\(1\\) = 0"):
        vf.manufacture_euler(PowerSum.of((1.0, -2.0)), 0.0, PARAMS)
    with pytest.raises(ValueError, match="v\\(1\\) = 0"):
        vf.manufacture_horizontal_stream(PowerSum.of((1.0, -2.0)), 1, PARAMS)


def test_manufacture_forcing_dispatch(grid):
    rho, gamma = PARAMS.rho, PARAMS.gamma
    targets = {
        ("vertical", 0): PowerSum.of((1.0, 1.0 - rho), (-1.0, -gamma)),
        ("horizontal", 0): PowerSum.of((1.0, 1.0 - rho), (-1.0, 1.0 - gamma)),
    }
    modes, expected = vf.manufacture_forcing(targets, PARAMS, grid)
    assert set(modes) == set(expected) == set(targets)


# -- structural identities ----------------------------------------------------------

def _first_iterate(grid, family, cutoff=2):
    """T applied to zero: the sum of every mode's linear solves."""
    forcing = build_family(family, grid, PARAMS, 1e-3, cutoff=cutoff)
    return nl.apply_T(nl.VelocityField.zero(grid, cutoff), forcing, PARAMS, grid)


@pytest.mark.parametrize("family", ["power", "bump", "random"])
def test_structural_residuals_of_first_iterate(grid, family):
    res = vf.structural_residuals(_first_iterate(grid, family))
    assert set(res) == {"boundary_rel", "divergence_rel"}
    for rel in res.values():
        assert rel.shape == (5,)
        assert np.all(rel <= 1e-8)


def test_boundary_residual_sees_a_boundary_defect(grid):
    fieldv = _first_iterate(grid, "power")
    N = fieldv.cutoff
    before = vf.structural_residuals(fieldv)["boundary_rel"]
    fieldv.values[N + 1, 0, 0] += 1e-6 * np.max(np.abs(fieldv.values[N + 1]))
    after = vf.structural_residuals(fieldv)["boundary_rel"]
    assert abs(after[N + 1] - 1e-6) < 1e-12
    others = np.arange(2 * N + 1) != N + 1
    assert np.array_equal(after[others], before[others])


def test_divergence_residual_sees_a_derivative_defect(grid):
    fieldv = _first_iterate(grid, "power")
    N = fieldv.cutoff
    before = vf.structural_residuals(fieldv)["divergence_rel"]
    fieldv.dvalues[N + 1, 0] *= 1.0 + 1e-6
    after = vf.structural_residuals(fieldv)["divergence_rel"]
    assert before[N + 1] < 1e-12
    assert after[N + 1] > 1e-8
    others = np.arange(2 * N + 1) != N + 1
    assert np.array_equal(after[others], before[others])


def test_structural_residuals_of_zero_modes_read_zero(grid):
    for rel in vf.structural_residuals(nl.VelocityField.zero(grid, 2)).values():
        assert np.all(rel == 0.0)
    fieldv = _first_iterate(grid, "power")  # the forcing reaches modes -1..1 only
    assert not fieldv.values[[0, 4]].any()
    for rel in vf.structural_residuals(fieldv).values():
        assert rel[0] == rel[4] == 0.0


# -- weak residual -----------------------------------------------------------------

def test_weak_residual_pure_background(grid):
    res = vf.weak_ns_residual(nl.VelocityField.zero(grid, 2),
                              nl.ForcingSpec.zero(grid, 2), PARAMS)
    assert res["residual"] < 1e-12


def test_weak_residual_converged_solution(grid):
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
    sol, _ = nl.picard_iterate(forcing, PARAMS, grid)
    res = vf.weak_ns_residual(sol, forcing, PARAMS, vf.make_test_suite(grid, modes=(0, 1)))
    assert res["residual"] < 1e-5


def test_weak_residual_forcing_sensitivity(grid):
    # scaling g without re-solving breaks the identity proportionally
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
    sol, _ = nl.picard_iterate(forcing, PARAMS, grid)
    suite = vf.make_test_suite(grid, modes=(0, 1))
    base = vf.weak_ns_residual(sol, forcing, PARAMS, suite)["residual"]

    def perturbed(factor):
        spec = dataclasses.replace(forcing, g=forcing.g * factor)
        return vf.weak_ns_residual(sol, spec, PARAMS, suite)["residual"]

    r10 = perturbed(1.1)
    r20 = perturbed(1.2)
    assert r10 > 100.0 * base
    assert abs(r20 / r10 - 2.0) < 0.2


def test_weak_residual_rejects_cutoff_mismatch(grid):
    # forcing rows are indexed by the forcing's own cutoff: a mismatch would
    # read the wrong mode (or wrap a negative index) instead of failing
    forcing = power_envelope_forcing(grid, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
    with pytest.raises(ValueError, match="cutoff mismatch"):
        vf.weak_ns_residual(nl.VelocityField.zero(grid, 2), forcing, PARAMS,
                            vf.make_test_suite(grid, modes=(0, 1)))


def test_weak_residual_refinement(grid):
    coarse = RadialGrid.build(16, 8, 1e3)
    fine = RadialGrid.build(32, 8, 1e3)
    residuals = []
    for g in (coarse, fine):
        forcing = bump_forcing(g, PARAMS, 1e-3, {0: 1.0, 1: 1.0})
        sol, _ = nl.picard_iterate(forcing, PARAMS, g)
        res = vf.weak_ns_residual(sol, forcing, PARAMS,
                                  vf.make_test_suite(g, modes=(0, 1)))
        residuals.append(res["residual"])
    assert residuals[1] < residuals[0]


def test_test_function_support_validation(grid):
    with pytest.raises(ValueError, match="strictly inside"):
        vf.make_test_suite(grid, support=(0.5, 4.0))


def test_test_function_mode_beyond_cutoff(grid):
    suite = vf.make_test_suite(grid, modes=(0, 1, 2))
    with pytest.raises(ValueError, match="cutoff"):
        vf.weak_ns_residual(nl.VelocityField.zero(grid, 1),
                            nl.ForcingSpec.zero(grid, 1), PARAMS, suite)


# -- proposition sweep ---------------------------------------------------------------

def test_proposition_shapes_axisymmetric():
    p = HamelParameters(0.0, 4.0, 2.5)
    assert abs(vf.proposition_shape("horizontal", 0, p) - 3.0 / (2.0 * 0.5)) < 1e-14
    assert abs(vf.proposition_shape("vertical_pointwise", 0, p) - 1.0 / (4.0 * 0.5)) < 1e-14
    assert abs(vf.proposition_shape("vertical_divergence", 0, p) - 1.0 / 0.5) < 1e-14


def test_sweep_rows_are_positive_and_bounded(grid):
    p = HamelParameters(2.0, 3.0, 2.4)
    rows = vf.proposition_sweep([p], [0, 1, 2, 4, 8], grid)
    assert all(row["gain"] > 0 for row in rows)
    for branch in ("horizontal", "vertical_pointwise", "vertical_divergence"):
        norm = [row["normalized"] for row in rows if row["branch"] == branch]
        assert max(norm) / min(norm) < 50.0


def test_sweep_vertical_gain_decays_like_inverse_square(grid_fine):
    # pointwise vertical gains fall like (xi (xi - gamma/2))^{-1} ~ n^{-2}
    p = HamelParameters(1.0, 4.0, 2.5)
    rows = vf.proposition_sweep([p], [4, 8, 16, 32, 64], grid_fine,
                                branches=("vertical_pointwise",))
    gains = [row["gain"] for row in rows]
    slopes = np.diff(np.log(gains)) / np.log(2.0)
    assert np.all(slopes < -1.6)
    assert np.all(slopes > -2.4)
