"""Logarithmic panel grid on [1, r_max] with Gauss-Legendre quadrature.

The radial kernels of the exterior problem are power laws, so panel
endpoints are spaced geometrically: every panel has the same width in
log(r) and the quadrature error is equidistributed in relative terms.

Data layout: profile values live at the Gauss nodes of each panel plus
the two interval endpoints.  Full-interval integrals therefore never
interpolate.  Cumulative integrals up to an interior node reuse the
degree-(G-1) interpolant of that node's own panel, with the power-law
weight s^c evaluated exactly at the sub-rule points; this keeps the
scheme stable for the large complex exponents of high angular modes.

All cumulative kernels are returned in prefactor-scaled form,

    cum_left(c, h)[j]  = r_j^{-c} * int_1^{r_j}     s^c  h(s) ds
    cum_right(c, h)[j] = r_j^{+c} * int_{r_j}^{rmax} s^{-c} h(s) ds

Each kernel is one prefix scan over the panels, the recursive
exponential-kernel summation of Greengard & Rokhlin (CPAM 44, 1991): the
full panels on the integration side of a node are carried from edge to
edge by S_k = exp(-c * D) * S_{k-1} + p_k, with p_k panel k's own scaled
integral, and every node adds the partial integral over its own panel.

Self-similar tables.  The edges are geometric, edges[k] = r_max^{k/P}, so
every panel has the log width D = log(r_max) / P and is its left edge a_k
times one reference panel: width a_k * (e^D - 1), nodes a_k * rho_j.  Each
ratio s/r that a kernel raises to the power c (node to panel edge,
sub-rule point to node) thus depends on the slot and the sub-rule point,
never on the panel.  Per exponent, a kernel forms one G-vector for the
full panels and one G x G matrix A_c that folds each slot's sub-rule, its
weights (s/r)^c and the Lagrange map of the panel interpolant together;
the partial integrals of panel k are a_k * (h_k @ A_c^T).  A call costs
O(G^3 + P G^2) arithmetic and O(P + G^2) exponentials (G^2 + G + 1 in
cum_left and cum_right, P + G in node_moment), and the tables hold
O(G^3) numbers whatever P is.  RadialGrid.build asserts the invariant
they rest on: consecutive edge ratios equal e^D to 1e-13 relative.

Exponent range.  Every factor formed has the shape (s/r)^{+-c} with s on
the integration side of r.  For Re c >= 0, which cum_left expects, each
has modulus <= 1, so nothing overflows at any Re c and whatever
underflows is negligible.  For Re c < 0, as in cum_right at c = -1, -2
(the axisymmetric and vertical solves), the carry factor exceeds 1 but
grows no faster than the scaled integral itself; rounding errors grow at
most like P ulps, the bound of the direct sum, and values are finite
while r_max^{-Re c} times the data is.  Accuracy is a separate limit:
the G-point rule resolves (s/r)^c across a panel only while |c| * D is
moderate.  On RadialGrid.build(64, 8, 1e5) (D = 0.18) the closed-form
error is 5e-7 at c = 62, 1e-4 at c = 110 and 6e-2 at c = 300 + 4i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss


def _barycentric_weights(x):
    w = np.ones_like(x)
    for j in range(len(x)):
        w[j] = 1.0 / np.prod(x[j] - np.delete(x, j))
    return w


def _lagrange_matrix(x_nodes, bary_w, x_eval):
    """Matrix L with L[k, j] = ell_j(x_eval[k]) for the basis over x_nodes."""
    L = np.zeros((len(x_eval), len(x_nodes)))
    for k, t in enumerate(x_eval):
        d = t - x_nodes
        hit = np.where(np.abs(d) < 1e-15)[0]
        if hit.size:
            L[k, hit[0]] = 1.0
            continue
        terms = bary_w / d
        L[k, :] = terms / terms.sum()
    return L


def _diff_matrix(x_nodes, bary_w):
    """Differentiation matrix of the Lagrange interpolant at its own nodes."""
    n = len(x_nodes)
    D = np.zeros((n, n))
    for k in range(n):
        for j in range(n):
            if j != k:
                D[k, j] = (bary_w[j] / bary_w[k]) / (x_nodes[k] - x_nodes[j])
        D[k, k] = -D[k, :].sum()
    return D


def _scan(decay, terms):
    """Prefix recurrence s_k = decay * s_{k-1} + terms_k from s_{-1} = 0.

    Returns [0, s_0, ..., s_{P-1}], so entry k holds the terms before k.
    """
    out = np.empty(len(terms) + 1, dtype=complex)
    s = out[0] = 0j
    for k, p in enumerate(terms.tolist(), start=1):
        s = out[k] = decay * s + p
    return out


@dataclass(frozen=True)
class RadialGrid:
    """Immutable radial discretization; safe for concurrent read access."""

    panels: int
    gauss_order: int
    r_max: float
    edges: np.ndarray          # (P+1,) geometric panel endpoints, edges[0] = 1
    nodes_gauss: np.ndarray    # (P, G) Gauss nodes per panel
    weights_gauss: np.ndarray  # (P, G) matching weights (sum = panel width)
    r_nodes: np.ndarray        # (M,) = [1, all Gauss nodes, r_max]
    log_r: np.ndarray          # (M,) log of r_nodes
    # internal precomputed tables
    _tables: dict = field(repr=False, compare=False, default_factory=dict)

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(panels: int = 64, gauss_order: int = 8, r_max: float = 1.0e3) -> "RadialGrid":
        if panels < 1 or gauss_order < 2:
            raise ValueError("need at least one panel and two Gauss nodes")
        if not np.isfinite(r_max):
            raise ValueError(f"r_max={r_max} must be finite")
        if r_max <= 1.0:
            raise ValueError("r_max must exceed 1")
        edges = r_max ** (np.arange(panels + 1) / panels)
        edges[0], edges[-1] = 1.0, float(r_max)
        # the kernels' reference tables hold for every panel only if the
        # panels are one log width D apart
        log_step = np.log(r_max) / panels
        ratio = edges[1:] / edges[:-1]
        assert np.all(np.abs(ratio / np.exp(log_step) - 1.0) <= 1e-13), "edges not geometric"

        x, w = leggauss(gauss_order)
        xi = 0.5 * (x + 1.0)          # reference nodes on [0, 1]
        wq = 0.5 * w

        widths = np.diff(edges)
        nodes = edges[:-1, None] + widths[:, None] * xi[None, :]
        weights = widths[:, None] * wq[None, :]

        r_nodes = np.concatenate(([1.0], nodes.ravel(), [float(r_max)]))

        grid = RadialGrid(
            panels=panels,
            gauss_order=gauss_order,
            r_max=float(r_max),
            edges=edges,
            nodes_gauss=nodes,
            weights_gauss=weights,
            r_nodes=r_nodes,
            log_r=np.log(r_nodes),
        )
        grid._tables.update(grid._precompute(xi, wq, log_step))
        return grid

    def _precompute(self, xi, wq, log_step):
        G = self.gauss_order
        bw = _barycentric_weights(xi)
        # a panel with left edge a has width a * grow and nodes a * rho
        grow = np.expm1(log_step)
        log_rho = np.log1p(grow * xi)

        # sub-rules on [0, xi_i] and [xi_i, 1] of the reference panel
        subl_nodes = xi[:, None] * xi[None, :]               # (G, G)
        subl_w = xi[:, None] * wq[None, :]
        subr_nodes = xi[:, None] + (1 - xi[:, None]) * xi[None, :]
        subr_w = (1 - xi[:, None]) * wq[None, :]
        SL = np.stack([_lagrange_matrix(xi, bw, subl_nodes[i]) for i in range(G)])
        SR = np.stack([_lagrange_matrix(xi, bw, subr_nodes[i]) for i in range(G)])

        return {
            "xi": xi, "bary": bw,
            "log_step": log_step,
            "log_edges": np.log(self.edges),
            # per slot: log(node / left edge) and weight / left edge
            "log_rho": log_rho,
            "quad_w": grow * wq,
            # partial panel of slot i: log of each sub-point's ratio to the node,
            # s/r on the left and r/s on the right (both <= 1), and the
            # weighted sub-rule times its Lagrange map
            "log_sub_l": np.log1p(grow * subl_nodes) - log_rho[:, None],
            "log_sub_r": log_rho[:, None] - np.log1p(grow * subr_nodes),
            "sub_l": grow * subl_w[:, :, None] * SL,             # (G, G, G)
            "sub_r": grow * subr_w[:, :, None] * SR,
            "diff_ref": _diff_matrix(xi, bw),
        }

    # -- helpers -----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.r_nodes)

    def gauss_values(self, values) -> np.ndarray:
        """View of node data restricted to the Gauss nodes, shape (P, G)."""
        v = np.asarray(values)
        if v.shape[-1] != self.n_nodes:
            raise ValueError("values not aligned with grid nodes")
        return v[..., 1:-1].reshape(v.shape[:-1] + (self.panels, self.gauss_order))

    # -- plain quadrature ----------------------------------------------------

    def integrate(self, values) -> complex:
        """Integral over [1, r_max] of node data."""
        h = self.gauss_values(values)
        return complex(np.sum(self.weights_gauss * h))

    # -- scaled cumulative kernels -----------------------------------------

    def cum_left(self, c, values) -> np.ndarray:
        """r^{-c} * int_1^r s^c h(s) ds at every node (Re c >= 0 expected)."""
        c = complex(c)
        t = self._tables
        h = self.gauss_values(np.asarray(values, dtype=complex))
        a = self.edges[:-1]
        D, log_rho = t["log_step"], t["log_rho"]

        # S[k] = edges[k]^{-c} * int_1^{edges[k]} s^c h(s) ds
        panel = a * (h @ (t["quad_w"] * np.exp(c * (log_rho - D))))
        S = _scan(np.exp(-c * D), panel)
        part = np.einsum("iq,iqj->ij", np.exp(c * t["log_sub_l"]), t["sub_l"])

        out = np.empty(self.n_nodes, dtype=complex)
        out[0] = 0.0
        out[1:-1] = (np.exp(-c * log_rho) * S[:-1, None] + a[:, None] * (h @ part.T)).ravel()
        out[-1] = S[-1]
        return out

    def cum_right(self, c, values) -> np.ndarray:
        """r^{c} * int_r^{r_max} s^{-c} h(s) ds at every node (no tail)."""
        c = complex(c)
        t = self._tables
        h = self.gauss_values(np.asarray(values, dtype=complex))
        a = self.edges[:-1]
        D, log_rho = t["log_step"], t["log_rho"]

        # R[k] = edges[k]^{c} * int_{edges[k]}^{r_max} s^{-c} h(s) ds
        panel = a * (h @ (t["quad_w"] * np.exp(-c * log_rho)))
        R = _scan(np.exp(-c * D), panel[::-1])[::-1]
        part = np.einsum("iq,iqj->ij", np.exp(c * t["log_sub_r"]), t["sub_r"])

        out = np.empty(self.n_nodes, dtype=complex)
        out[0] = R[0]
        out[1:-1] = (np.exp(c * (log_rho - D)) * R[1:, None] + a[:, None] * (h @ part.T)).ravel()
        out[-1] = 0.0
        return out

    def node_moment(self, a, values) -> complex:
        """int_1^{r_max} s^a h(s) ds for node data (tail handled by caller)."""
        a = complex(a)
        t = self._tables
        h = self.gauss_values(np.asarray(values, dtype=complex))
        w = t["quad_w"] * np.exp(a * t["log_rho"])
        return complex(np.exp((a + 1.0) * t["log_edges"][:-1]) @ (h @ w))

    # -- interpolation and differentiation ----------------------------------

    def _panel_index(self, r):
        idx = np.searchsorted(self.edges, r, side="right") - 1
        return np.clip(idx, 0, self.panels - 1)

    def interpolate(self, values, r):
        """Per-panel polynomial interpolation of node data at radii r <= r_max."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        rq = np.atleast_1d(r)
        if np.any(rq < 1.0) or np.any(rq > self.r_max * (1 + 1e-12)):
            raise ValueError("query radius outside [1, r_max]")
        h = self.gauss_values(np.asarray(values, dtype=complex))
        xi, bw = self._tables["xi"], self._tables["bary"]
        out = np.empty(rq.shape, dtype=complex)
        pidx = self._panel_index(rq)
        for k in np.unique(pidx):
            sel = pidx == k
            a, b = self.edges[k], self.edges[k + 1]
            tloc = (rq[sel] - a) / (b - a)
            L = _lagrange_matrix(xi, bw, tloc)
            out[sel] = L @ h[k]
        return out[0] if scalar else out

    def derivative(self, values) -> np.ndarray:
        """Radial derivative of node data via per-panel spectral differentiation."""
        t = self._tables
        h = self.gauss_values(np.asarray(values, dtype=complex))
        widths = np.diff(self.edges)
        dh = (h @ t["diff_ref"].T) / widths[:, None]
        out = np.empty(self.n_nodes, dtype=complex)
        out[1:-1] = dh.ravel()
        # endpoints from the interpolant of the adjacent panel
        xi, bw = t["xi"], t["bary"]
        out[0] = (_lagrange_matrix(xi, bw, np.array([0.0])) @ dh[0])[0]
        out[-1] = (_lagrange_matrix(xi, bw, np.array([1.0])) @ dh[-1])[0]
        return out
