import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from hamelflow.grid import RadialGrid, _barycentric_weights, _lagrange_matrix
from hamelflow.profiles import ModeProfile
from hamelflow.verification import integrate_weighted


def test_node_layout(grid):
    r = grid.r_nodes
    assert r[0] == 1.0
    assert r[-1] == grid.r_max
    assert np.all(np.diff(r) > 0)
    assert grid.n_nodes == grid.panels * grid.gauss_order + 2


def test_weights_positive_and_sum_to_panel_length(grid):
    assert np.all(grid.weights_gauss > 0)
    widths = np.diff(grid.edges)
    assert np.allclose(grid.weights_gauss.sum(axis=1), widths, rtol=1e-14)


@pytest.mark.parametrize("expo", [-2.0, -3.5, -1.2])
def test_integral_against_antiderivative(grid, expo):
    vals = grid.r_nodes ** expo
    exact = (grid.r_max ** (expo + 1) - 1.0) / (expo + 1)
    assert abs(grid.integrate(vals) - exact) < 1e-13 * abs(exact) + 1e-15


def test_quadrature_convergence_order():
    # halving the per-panel log width must cut the error by far more than 2
    expo = -1.5
    exact = (1e3 ** (expo + 1) - 1.0) / (expo + 1)
    errs = []
    for panels in (2, 4):
        g = RadialGrid.build(panels, 8, 1e3)
        errs.append(abs(g.integrate(g.r_nodes ** expo) - exact))
    assert errs[1] < errs[0] / 2
    order = np.log2(errs[0] / errs[1])
    assert order > 8.0


def test_cum_left_closed_form(grid):
    # r^-3 int_1^r s^3 s^-4 ds = r^-3 log r
    out = grid.cum_left(3.0, grid.r_nodes ** -4.0)
    exact = grid.r_nodes ** -3.0 * np.log(grid.r_nodes)
    assert np.max(np.abs(out - exact)) < 1e-12


def test_cum_left_complex_exponent(grid):
    c = 66.0 + 3.0j
    out = grid.cum_left(c, grid.r_nodes ** -3.0)
    lr = np.log(grid.r_nodes)
    exact = (np.exp(-2.0 * lr) - np.exp(-c * lr)) / (c - 2.0)
    assert np.max(np.abs(out - exact)) < 1e-12


def test_cum_right_closed_form(grid):
    # r^2 int_r^rmax s^-2 s^-3 ds
    out = grid.cum_right(2.0, grid.r_nodes ** -3.0)
    exact = grid.r_nodes ** 2 * (grid.r_nodes ** -4.0 - grid.r_max ** -4.0) / 4.0
    assert np.max(np.abs(out - exact)) < 5e-13


@pytest.mark.parametrize("c", [-1.0, -2.0])
def test_cum_right_negative_exponent_closed_form(grid, c):
    # the scan's carry factor exp(-c D) exceeds 1 here
    a = -3.5
    r = grid.r_nodes
    out = grid.cum_right(c, r ** a)
    exact = r ** c * (grid.r_max ** (a - c + 1) - r ** (a - c + 1)) / (a - c + 1)
    assert np.max(np.abs(out - exact)) < 1e-12 * np.max(np.abs(exact))


# An 8-point rule resolves (s/r)^c across a panel of log width D only while
# |c| D is moderate: here |c| D = 20 and 54, and the measured relative errors
# are 1.0e-4 and 5.5e-2.
@pytest.mark.parametrize("c,rtol", [(110.0, 3e-4), (300.0 + 4.0j, 0.1)])
def test_cum_kernels_large_exponent_finite(c, rtol):
    g = RadialGrid.build(64, 8, 1e5)
    a = -3.0
    lr = np.log(g.r_nodes)
    with np.errstate(over="raise", invalid="raise"):
        left = g.cum_left(c, g.r_nodes ** a)
        right = g.cum_right(c, g.r_nodes ** a)
    exact_left = (np.exp((a + 1) * lr) - np.exp(-c * lr)) / (c + a + 1)
    log_rmax = np.log(g.r_max)
    exact_right = (np.exp((a + 1) * lr)
                   - np.exp(c * (lr - log_rmax) + (a + 1) * log_rmax)) / (c - a - 1)
    for out, exact in ((left, exact_left), (right, exact_right)):
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out - exact) <= rtol * np.abs(exact))


def dense_tables(grid):
    """Per-node partial-panel rules, built from the grid's edges and nodes.

    Every node's partial panel uses the degree-(G-1) interpolant of its own
    panel at the G-point sub-rule on [edge, node] (left) or [node, edge]
    (right).  The endpoint rows carry zero weights; their log nodes are the
    row's own log r, so every phase there is exactly 1.
    """
    P, G = grid.panels, grid.gauss_order
    M = grid.n_nodes
    x, w = leggauss(G)
    xi, wq = 0.5 * (x + 1.0), 0.5 * w
    bw = _barycentric_weights(xi)
    subl_nodes = xi[:, None] * xi[None, :]
    subr_nodes = xi[:, None] + (1 - xi[:, None]) * xi[None, :]
    SL = np.stack([_lagrange_matrix(xi, bw, subl_nodes[i]) for i in range(G)])
    SR = np.stack([_lagrange_matrix(xi, bw, subr_nodes[i]) for i in range(G)])

    widths = np.diff(grid.edges)
    interior = slice(1, M - 1)
    pm = np.arange(M - 2) // G  # panel of each interior node
    sl = np.arange(M - 2) % G   # its slot in the panel
    log_r = np.log(grid.r_nodes)
    t = {"log_r": log_r, "log_edges": np.log(grid.edges), "log_nodes": np.log(grid.nodes_gauss),
         "panel_of_node": np.concatenate(([0], pm, [P - 1]))}
    for side, sub_nodes, sub_w, S in (("l", subl_nodes, xi[:, None] * wq, SL),
                                      ("r", subr_nodes, (1 - xi[:, None]) * wq, SR)):
        t[f"part_{side}_w"] = np.zeros((M, G))
        t[f"part_{side}_S"] = np.zeros((M, G, G))
        t[f"log_part_{side}"] = np.repeat(log_r[:, None], G, axis=1)
        t[f"part_{side}_w"][interior] = widths[pm, None] * sub_w[sl]
        t[f"part_{side}_S"][interior] = S[sl]
        t[f"log_part_{side}"][interior] = np.log(grid.edges[pm, None]
                                                 + widths[pm, None] * sub_nodes[sl])
    return t


def dense_cum(grid, c, values, left):
    """The direct M x P sum over full panels plus the node's partial panel."""
    t = dense_tables(grid)
    h = grid.gauss_values(np.asarray(values, dtype=complex))
    lr = t["log_r"][:, None]
    sgn = 1.0 if left else -1.0
    edge = t["log_edges"][1:] if left else t["log_edges"][:-1]
    panel = np.sum(grid.weights_gauss * np.exp(sgn * c * (t["log_nodes"] - edge[:, None])) * h,
                   axis=1)
    r, e = grid.r_nodes[:, None], grid.edges[None, :]
    full = e[:, 1:] <= r if left else e[:, :-1] >= r
    E = np.exp(np.where(full, sgn * c * (edge[None, :] - lr), -np.inf))
    side = "l" if left else "r"
    hy = np.einsum("mkj,mj->mk", t[f"part_{side}_S"], h[t["panel_of_node"]])
    phase = np.exp(sgn * c * (t[f"log_part_{side}"] - lr))
    return E @ panel + np.sum(t[f"part_{side}_w"] * phase * hy, axis=1)


def random_data(grid, seed):
    rng = np.random.default_rng(seed)
    return ((rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes))
            * grid.r_nodes ** -2.3)


CUM_CASES = ([(c, left) for c in (0.0, 1.0, 2.5 + 0.3j, 66.0 + 3.0j) for left in (True, False)]
             + [(-1.0, False), (-2.0, False)])


def assert_cum_matches_dense(g, h):
    for c, left in CUM_CASES:
        ref = dense_cum(g, complex(c), h, left)
        out = g.cum_left(c, h) if left else g.cum_right(c, h)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref)), (c, left)


@pytest.mark.parametrize("panels", [1, 2, 8, 64])
@pytest.mark.parametrize("r_max", [1e2, 1e3, 1e5])
def test_cum_scan_matches_dense(panels, r_max):
    g = RadialGrid.build(panels, 8, r_max)
    assert_cum_matches_dense(g, random_data(g, panels))


# The kernels read per-exponent reference tables that hold on every panel
# because the edges are geometric; fine grids put many panels on one table.
@pytest.mark.parametrize("panels", [256, 512])
@pytest.mark.parametrize("r_max", [1e2, 1e5])
def test_self_similar_kernels_match_dense(panels, r_max):
    g = RadialGrid.build(panels, 8, r_max)
    h = random_data(g, panels)
    assert_cum_matches_dense(g, h)
    s = g.nodes_gauss
    for a in (-2.0, 2.0, 3.0 + 1.0j, -0.5 + 2.0j):
        ref = np.sum(g.weights_gauss * s ** a * g.gauss_values(h))
        assert abs(g.node_moment(a, h) - ref) <= 1e-13 * abs(ref), a


def test_integrate_clipped_polynomial_exact(grid):
    # the moment oracle clips the panels to [2, 5] and keeps the rule's order
    p = ModeProfile(grid.r_nodes ** 3, grid)
    val = integrate_weighted(p, 0.0, r_lo=2.0, r_hi=5.0)
    assert abs(val - (5.0 ** 4 - 2.0 ** 4) / 4.0) < 1e-11


def test_interpolate_matches_function(grid):
    vals = grid.r_nodes ** -2.5
    for r in (1.0, 1.7, 7.3, 456.0, 1e3):
        assert abs(grid.interpolate(vals, r) - r ** -2.5) < 1e-9 * r ** -2.5 + 1e-11


def test_derivative_accuracy(grid):
    d = grid.derivative(grid.r_nodes ** -3.0)
    exact = -3.0 * grid.r_nodes ** -4.0
    assert np.max(np.abs(d - exact) / np.abs(exact)) < 1e-7


def test_interpolate_rejects_outside(grid):
    with pytest.raises(ValueError):
        grid.interpolate(grid.r_nodes ** -2.0, 0.5)


@pytest.mark.parametrize("r_max", [np.inf, np.nan])
def test_build_rejects_non_finite_r_max(r_max):
    # a ValueError before the geometric-edge invariant is checked
    with pytest.raises(ValueError, match="must be finite"):
        RadialGrid.build(8, 4, r_max)
