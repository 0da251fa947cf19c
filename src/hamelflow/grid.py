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
edge by S_k = exp(-c * D_k) * S_{k-1} + p_k, with D_k the log width of
panel k and p_k its own scaled integral, and every node adds the partial
integral over its own panel.  A kernel therefore costs O(M) for M nodes.

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
    """Prefix recurrence s_k = decay_k * s_{k-1} + terms_k from s_{-1} = 0.

    Returns [0, s_0, ..., s_{P-1}], so entry k holds the terms before k.
    """
    out = np.empty(len(terms) + 1, dtype=complex)
    s = out[0] = 0j
    for k, (q, p) in enumerate(zip(decay.tolist(), terms.tolist()), start=1):
        s = out[k] = q * s + p
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
    # internal precomputed tables
    _tables: dict = field(repr=False, compare=False, default_factory=dict)

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(panels: int = 64, gauss_order: int = 8, r_max: float = 1.0e3) -> "RadialGrid":
        if panels < 1 or gauss_order < 2:
            raise ValueError("need at least one panel and two Gauss nodes")
        if r_max <= 1.0:
            raise ValueError("r_max must exceed 1")
        edges = r_max ** (np.arange(panels + 1) / panels)
        edges[0], edges[-1] = 1.0, float(r_max)

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
        )
        grid._tables.update(grid._precompute(xi, wq))
        return grid

    def refined(self, factor: int = 2) -> "RadialGrid":
        """Same interval and rule order, `factor` times as many panels."""
        return RadialGrid.build(self.panels * factor, self.gauss_order, self.r_max)

    def _precompute(self, xi, wq):
        P, G = self.panels, self.gauss_order
        M = len(self.r_nodes)
        bw = _barycentric_weights(xi)

        # panel index of every node; endpoints use sentinels -1 / P
        node_panel = np.concatenate(([-1], np.arange(M - 2) // G, [P]))

        # sub-rules on [0, xi_i] and [xi_i, 1] of the reference panel
        subl_nodes = xi[:, None] * xi[None, :]               # (G, G)
        subl_w = xi[:, None] * wq[None, :]
        subr_nodes = xi[:, None] + (1 - xi[:, None]) * xi[None, :]
        subr_w = (1 - xi[:, None]) * wq[None, :]
        SL = np.stack([_lagrange_matrix(xi, bw, subl_nodes[i]) for i in range(G)])
        SR = np.stack([_lagrange_matrix(xi, bw, subr_nodes[i]) for i in range(G)])

        widths = np.diff(self.edges)
        # gathered per-node partial-rule tables; endpoint rows stay zero
        part_l_w = np.zeros((M, G))
        part_r_w = np.zeros((M, G))
        part_l_S = np.zeros((M, G, G))
        part_r_S = np.zeros((M, G, G))
        interior = slice(1, M - 1)
        pm = node_panel[interior]
        sl = np.arange(M - 2) % G  # slot of each interior node in its panel
        part_l_w[interior] = widths[pm, None] * subl_w[sl]
        part_r_w[interior] = widths[pm, None] * subr_w[sl]
        part_l_S[interior] = SL[sl]
        part_r_S[interior] = SR[sl]

        # the endpoint rows carry zero weights; their log nodes are the
        # row's own log r, so every phase there is exactly 1
        log_r = np.log(self.r_nodes)
        log_part_l = np.repeat(log_r[:, None], G, axis=1)
        log_part_r = log_part_l.copy()
        log_part_l[interior] = np.log(self.edges[pm, None] + widths[pm, None] * subl_nodes[sl])
        log_part_r[interior] = np.log(self.edges[pm, None] + widths[pm, None] * subr_nodes[sl])

        panel_of_node = np.clip(node_panel, 0, P - 1)

        return {
            "xi": xi, "wq": wq, "bary": bw,
            "panel_of_node": panel_of_node,
            # edge closing the full panels left of a node / opening those right of it
            "left_edge": np.clip(node_panel, 0, P),
            "right_edge": np.clip(node_panel + 1, 0, P),
            "log_edges": np.log(self.edges),
            "log_widths": np.diff(np.log(self.edges)),
            "log_nodes": np.log(self.nodes_gauss),
            "log_r": log_r,
            "part_l_w": part_l_w, "part_l_S": part_l_S,
            "part_r_w": part_r_w, "part_r_S": part_r_S,
            "log_part_l": log_part_l, "log_part_r": log_part_r,
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

    def integrate_clipped(self, fn, r_lo: float, r_hi: float) -> complex:
        """Integrate a callable over [r_lo, r_hi] subset of [1, r_max].

        Panels are clipped to the interval and the same Gauss rule is
        mapped onto each clipped piece, so power-law integrands keep the
        full order of the rule.
        """
        if not (1.0 <= r_lo <= r_hi <= self.r_max):
            raise ValueError("interval outside [1, r_max]")
        xi, wq = self._tables["xi"], self._tables["wq"]
        total = 0.0 + 0.0j
        for k in range(self.panels):
            a = max(self.edges[k], r_lo)
            b = min(self.edges[k + 1], r_hi)
            if b <= a:
                continue
            pts = a + (b - a) * xi
            total += (b - a) * np.sum(wq * np.asarray(fn(pts)))
        return complex(total)

    # -- scaled cumulative kernels -----------------------------------------

    def cum_left(self, c, values) -> np.ndarray:
        """r^{-c} * int_1^r s^c h(s) ds at every node (Re c >= 0 expected)."""
        c = complex(c)
        t = self._tables
        h = self.gauss_values(np.asarray(values, dtype=complex))

        lb = t["log_edges"][1:]
        panel_scaled = np.sum(
            self.weights_gauss * np.exp(c * (t["log_nodes"] - lb[:, None])) * h, axis=1
        )
        # S[k] = edges[k]^{-c} * int_1^{edges[k]} s^c h(s) ds
        S = _scan(np.exp(-c * t["log_widths"]), panel_scaled)
        e = t["left_edge"]
        out = np.exp(c * (t["log_edges"][e] - t["log_r"])) * S[e]

        hy = np.einsum("mkj,mj->mk", t["part_l_S"], h[t["panel_of_node"]])
        phase = np.exp(c * (t["log_part_l"] - t["log_r"][:, None]))
        out = out + np.sum(t["part_l_w"] * phase * hy, axis=1)
        return out

    def cum_right(self, c, values) -> np.ndarray:
        """r^{c} * int_r^{r_max} s^{-c} h(s) ds at every node (no tail)."""
        c = complex(c)
        t = self._tables
        h = self.gauss_values(np.asarray(values, dtype=complex))

        la = t["log_edges"][:-1]
        panel_scaled = np.sum(
            self.weights_gauss * np.exp(c * (la[:, None] - t["log_nodes"])) * h, axis=1
        )
        # R[k] = edges[k]^{c} * int_{edges[k]}^{r_max} s^{-c} h(s) ds
        R = _scan(np.exp(-c * t["log_widths"][::-1]), panel_scaled[::-1])[::-1]
        e = t["right_edge"]
        out = np.exp(c * (t["log_r"] - t["log_edges"][e])) * R[e]

        hy = np.einsum("mkj,mj->mk", t["part_r_S"], h[t["panel_of_node"]])
        phase = np.exp(c * (t["log_r"][:, None] - t["log_part_r"]))
        out = out + np.sum(t["part_r_w"] * phase * hy, axis=1)
        return out

    def node_moment(self, a, values) -> complex:
        """int_1^{r_max} s^a h(s) ds for node data (tail handled by caller)."""
        a = complex(a)
        h = self.gauss_values(np.asarray(values, dtype=complex))
        return complex(np.sum(self.weights_gauss * np.exp(a * self._tables["log_nodes"]) * h))

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
