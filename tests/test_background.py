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


def test_irrotational(grid):
    # numeric curl of the angular part: (1/r) d(r V_theta)/dr
    p = HamelParameters(2.0, 3.0, 2.5)
    _, v_t, _ = bg.velocity(p, grid.r_nodes)
    curl = grid.derivative(grid.r_nodes * v_t) / grid.r_nodes
    assert np.max(np.abs(curl)) < 1e-12


def test_domain_error_below_one():
    p = HamelParameters(0.0, 3.0, 2.5)
    with pytest.raises(ValueError, match="exterior domain"):
        bg.velocity(p, 0.9)
    with pytest.raises(ValueError, match="exterior domain"):
        bg.velocity_derivative(p, 0.5)


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
