import numpy as np
import pytest

from hamelflow import background as bg
from hamelflow.background import HamelParameters
from hamelflow.errors import AdmissibilityError


def test_velocity_at_boundary():
    p = HamelParameters(0.0, 3.0, 2.5)
    v_r, v_t, v_3 = bg.velocity(p, 1.0)
    assert (v_r, v_t, v_3) == (-3.0, 0.0, 0.0)


def test_velocity_direct_substitution():
    p = HamelParameters(2.0, 3.0, 2.5)
    v_r, v_t, v_3 = bg.velocity(p, 2.0)
    assert np.allclose((v_r, v_t, v_3), (-1.5, 1.0, 0.0))


def test_scale_invariance(grid):
    # r * V_r is constant: the background decays exactly like 1/r
    p = HamelParameters(1.0, 2.7, 2.4)
    v_r, v_t, _ = bg.velocity(p, grid.r_nodes)
    assert np.allclose(grid.r_nodes * v_r, -p.gamma, rtol=1e-14)
    assert np.allclose(grid.r_nodes * v_t, p.alpha, rtol=1e-14)


@pytest.mark.parametrize("alpha,gamma,r,expected", [
    (0.0, 2.5, 1.0, -3.125),
    (1.0, 3.0, 10.0, -0.05),
])
def test_pressure_values(alpha, gamma, r, expected):
    p = HamelParameters(alpha, gamma, 2.3)
    assert abs(bg.pressure(p, r) - expected) < 1e-14


def test_pressure_vanishes_at_infinity():
    p = HamelParameters(1.0, 3.0, 2.5)
    assert abs(bg.pressure(p, 1e9)) < 1e-17


def test_irrotational(grid):
    # numeric curl of the angular part: (1/r) d(r V_theta)/dr
    p = HamelParameters(2.0, 3.0, 2.5)
    _, v_t, _ = bg.velocity(p, grid.r_nodes)
    curl = grid.derivative(grid.r_nodes * v_t) / grid.r_nodes
    assert np.max(np.abs(curl)) < 1e-12


def test_flux_radius_independent():
    p = HamelParameters(1.0, 2.6, 2.3)
    for r in (1.0, 3.0, 100.0):
        # line integral of V . e_r over the circle of radius r
        assert abs(2 * np.pi * r * bg.velocity(p, r)[0] - bg.flux(p, r)) < 1e-12
    assert abs(bg.flux(p, 5.0) + 2 * np.pi * p.gamma) < 1e-14


def test_boundary_data_matches_velocity_at_one():
    p = HamelParameters(1.5, 3.5, 2.5)
    b = bg.boundary_data(p)
    v = bg.velocity(p, 1.0)
    assert np.allclose(b, v)
    assert b == (-3.5, 1.5, 0.0)


def test_domain_error_below_one():
    p = HamelParameters(0.0, 3.0, 2.5)
    with pytest.raises(ValueError, match="exterior domain"):
        bg.velocity(p, 0.9)
    with pytest.raises(ValueError, match="exterior domain"):
        bg.pressure(p, 0.5)


@pytest.mark.parametrize("alpha,gamma,rho,fragment", [
    (0.0, 1.5, 2.5, "Hamel flux too weak"),
    (0.0, 2.0, 2.5, "Hamel flux too weak"),
    (0.0, 4.0, 3.0, "2 < rho < 3"),
    (0.0, 4.0, 2.0, "2 < rho < 3"),
    (0.0, 2.4, 2.7, "rho <= gamma"),
])
def test_admissibility_gates(alpha, gamma, rho, fragment):
    with pytest.raises(AdmissibilityError, match=fragment):
        HamelParameters(alpha, gamma, rho)
