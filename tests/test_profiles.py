import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamelflow.errors import TailError
from hamelflow.nonlinear import ForcingSpec
from hamelflow.profiles import ZERO_TAIL, EnvelopeTail, ModeProfile, PowerSum, envelope_tail
from hamelflow.verification import integrate_weighted


def profile_from_power(grid, expo, coef=1.0):
    return ModeProfile.from_powersum(PowerSum.of((coef, expo)), grid)


def l1_norm(grid, fam, s):
    """ForcingSpec.norms of a forcing whose every g and F slot of mode n >= 0
    holds fam[n] (and mode -n its conjugate), checked equal between the two
    weights and returned at weight s."""
    spec = ForcingSpec.zero(grid, max(fam))
    for n, p in fam.items():
        spec.g[n] = spec.F[n] = p.values
    g_norm, _ = spec.norms((s + 1.0) / 2.0)   # weight 2 rho - 1
    _, f_norm = spec.norms(s / 2.0 + 1.0)     # weight 2 (rho - 1)
    assert abs(g_norm - f_norm) <= 1e-14 * g_norm
    return g_norm


def test_l1_norm_single_mode(grid):
    fam = {0: profile_from_power(grid, -2.0)}
    assert abs(l1_norm(grid, fam, 2.0) - 1.0) < 1e-14


def test_l1_norm_additivity(grid):
    # modes 0 and +-1: 0.5 + 2 * 0.25
    fam = {0: profile_from_power(grid, -2.0, 0.5),
           1: profile_from_power(grid, -2.0, 0.25)}
    assert abs(l1_norm(grid, fam, 2.0) - 1.0) < 1e-14


def test_l1_norm_lorentzian_coefficients(grid):
    # sum_{n=-2..2} c/(1+n^2) with c = 1: 1 + 2/2 + 2/5
    fam = {n: profile_from_power(grid, -2.0, 1.0 / (1 + n * n))
           for n in range(3)}
    assert abs(l1_norm(grid, fam, 2.0) - 2.4) < 1e-14


@settings(max_examples=25, deadline=None)
@given(e1=st.floats(min_value=-4, max_value=-2), e2=st.floats(min_value=-4, max_value=-2),
       c1=st.floats(min_value=-3, max_value=3), c2=st.floats(min_value=-3, max_value=3))
def test_l1_norm_triangle_inequality(grid, e1, e2, c1, c2):
    a = profile_from_power(grid, e1, c1)
    b = profile_from_power(grid, e2, c2)
    s = 1.4
    assert (l1_norm(grid, {0: a + b}, s)
            <= l1_norm(grid, {0: a}, s) + l1_norm(grid, {0: b}, s) + 1e-12)


def test_integrate_weighted_textbook(grid):
    p = profile_from_power(grid, -4.0)
    assert abs(integrate_weighted(p, 2.0) - 1.0) < 1e-13


def test_integrate_weighted_partial_tail(grid):
    # int_r^inf s * s^{-2 rho + 1} ds at rho = 2.5 equals r^{-2}/2
    p = profile_from_power(grid, -4.0)
    assert abs(integrate_weighted(p, 1.0, r_lo=2.0) - 2.0 ** -2 / 2.0) < 5e-13


def test_integrate_weighted_zero(grid):
    assert integrate_weighted(ModeProfile.zeros(grid), 3.0) == 0.0


def test_integrate_weighted_divergent_tail(grid):
    p = profile_from_power(grid, -2.0)
    with pytest.raises(TailError, match="non-integrable tail"):
        integrate_weighted(p, 1.0)


def test_integrate_weighted_finite_interval(grid):
    val = integrate_weighted(profile_from_power(grid, -3.0), 1.0, r_lo=2.0, r_hi=8.0)
    assert abs(val - (1.0 / 2.0 - 1.0 / 8.0)) < 1e-12


def test_powersum_closed_form_integral():
    ps = PowerSum.of((2.0, -3.0), (1.0, -5.0))
    assert abs(ps.moment(0.0, 1.0) - (1.0 + 0.25)) < 1e-14   # int_1^inf
    # the tail integrals beyond R = 50 of 2 s^-3 + i s^e
    R, e = 50.0, -4.0 + 0.5j
    ps = PowerSum.of((2.0, -3.0), (1j, e))
    moment = 2.0 / R - 1j * R ** (e + 2.0) / (e + 2.0)            # weight s
    assert abs(ps.moment(1.0, R) - moment) < 1e-14 * abs(moment)
    r = np.array([1.0, 7.0, R])
    right = r ** 2 * (R ** -4.0 / 2.0 + 1j * R ** (e - 1.0) / (1.0 - e))  # c = 2
    out = ps.right_integral_scaled(2.0, np.log(r), R)
    assert np.max(np.abs(out - right)) < 1e-14 * np.max(np.abs(right))


@pytest.mark.parametrize("call", [
    lambda: PowerSum.of((1.0, -0.5)).moment(0.0, 1.0),
    lambda: PowerSum.of((1.0, -2.5)).moment(2.0, 10.0),       # s^{-1/2}
    lambda: PowerSum.of((1.0, -2.5)).moment(1.5, 10.0),       # s^{-1}, the log case
    lambda: PowerSum.of((1.0, -2.5)).right_integral_scaled(-2.0, np.zeros(2), 10.0),
])
def test_powersum_rejects_nonintegrable_tail(call):
    with pytest.raises(TailError, match="non-integrable tail"):
        call()


def test_empty_powersum_is_the_zero_tail(grid):
    assert ModeProfile.zeros(grid).tail.terms == ZERO_TAIL.terms == ()
    assert ZERO_TAIL.slowest_exponent() == -np.inf
    assert ZERO_TAIL.scaled(3.0).terms == ()
    assert ZERO_TAIL.moment(-5.0, grid.r_max) == 0.0
    assert np.array_equal(ZERO_TAIL.right_integral_scaled(-5.0, np.zeros(3), grid.r_max),
                          np.zeros(3, dtype=complex))
    power = PowerSum.of((2.0, -3.0))
    env = EnvelopeTail(-2.0, 1.0 + 0.5j, grid.r_max)
    assert (ZERO_TAIL + power).terms == (power + ZERO_TAIL).terms == power.terms
    assert ZERO_TAIL + env == env + ZERO_TAIL == env


def test_tail_composition(grid):
    power = PowerSum.of((2.0, -3.0))
    env = EnvelopeTail(-2.0, 1.0 + 0.0j, grid.r_max)
    combo = env + power
    assert combo == power + env
    assert combo.exponent == -2.0
    assert abs(combo.anchor - (1.0 + 2.0 * grid.r_max ** -3.0)) < 1e-15
    values = np.zeros(grid.n_nodes, dtype=complex)
    values[-1] = 1.0
    assert envelope_tail(grid, -2.0, values) == env


def test_profile_point_evaluation_beyond_rmax(grid):
    p = profile_from_power(grid, -2.0)
    assert abs(p.at(2.0 * grid.r_max) - (2.0 * grid.r_max) ** -2.0) < 1e-15
