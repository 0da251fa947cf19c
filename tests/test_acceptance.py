"""Acceptance gate: every criterion at its stated tolerance.

Each criterion is a function returning (passed, detail); the pytest
wrappers print one pass/fail line per criterion and assert.  Running the
module directly (python tests/test_acceptance.py) prints the same lines
and exits nonzero on any failure.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from hamelflow import cli
from hamelflow import horizontal as hz
from hamelflow import nonlinear as nl
from hamelflow import verification as vf
from hamelflow import vertical as vt
from hamelflow.background import HamelParameters
from hamelflow.errors import ContractionError, TailError
from hamelflow.forcing import bump_forcing, power_envelope_forcing, random_forcing
from hamelflow.grid import RadialGrid
from hamelflow.profiles import ModeProfile, PowerSum, integrate_weighted
from hamelflow.spectral import compute_coefficients

GRID64 = RadialGrid.build(64, 8, 1.0e3)
GRID128 = RadialGrid.build(128, 8, 1.0e3)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


# -- criterion 1: spectral coefficients ----------------------------------------

def criterion_1():
    worst = 0.0
    for gamma in (2.1, 3.0, 5.0, 8.0):
        for alpha in (-10.0, -1.0, 0.0, 1.0, 10.0):
            for n in range(1, 129):
                sc = compute_coefficients(n, alpha, gamma)
                mod = abs(sc.zeta)
                worst = max(worst, sc.xi / mod - 1.0)
                worst = max(worst, mod / (np.sqrt(2.0) * sc.xi) - 1.0)
                worst = max(worst, (sc.n_gamma - sc.xi) / sc.n_gamma)
                worst = max(worst, (gamma / 2.0 - sc.n_gamma) / sc.n_gamma)
                target = complex(sc.n_gamma ** 2, alpha * n)
                worst = max(worst, abs(sc.zeta ** 2 - target) / abs(target))
                mirror = compute_coefficients(-n, alpha, gamma)
                worst = max(worst, abs(mirror.zeta - np.conj(sc.zeta)) / mod)
    ok = worst <= 1e-12
    return ok, f"spectral-coefficient identities, worst relative defect {worst:.2e}"


# -- criterion 2: manufactured round trips ---------------------------------------

def _stream_mu():
    p1, p2, p3 = 2.2, 3.7, 5.1
    a1 = 1.0
    a2 = a1 * (p1 - p3) / (p3 - p2)
    return PowerSum.of((a1, -p1), (a2, -p2), (-a1 - a2, -p3))


def _manufactured_cases(params):
    rho, gamma = params.rho, params.gamma
    cases = {
        ("horizontal", 0): PowerSum.of((1.0, 1.0 - rho), (-1.0, 1.0 - gamma)),
        ("vertical", 0): PowerSum.of((1.0, 1.0 - rho), (-1.0, -gamma)),
    }
    for n in (1, 2, 5):
        cases[("horizontal", n)] = _stream_mu()
        zeta = compute_coefficients(n, params.alpha, gamma).zeta
        cases[("vertical", n)] = PowerSum.of((1.0, 1.0 - rho),
                                             (-1.0, -(zeta + gamma / 2.0)))
    return cases


def _roundtrip_errors(grid, params, collect=None):
    forcing_modes, expected = vf.manufacture_forcing(
        _manufactured_cases(params), params, grid)
    errors = {}
    for key, forcing in forcing_modes.items():
        kind, n = key
        if kind == "horizontal":
            sol = hz.solve_mode(n, params, grid, pointwise=forcing)
            got = (sol.v_r.values, sol.v_t.values)
        else:
            sol = vt.solve_vertical_mode(n, params, grid, pointwise=forcing)
            got = (sol.v_3.values,)
        exact = [ps(grid.r_nodes) for ps in expected[key]]
        scale = max(np.max(np.abs(e)) for e in exact)
        errors[key] = max(np.max(np.abs(g - e)) for g, e in zip(got, exact)) / scale
        if collect is not None:
            collect.append((key, sol))
    return errors


def criterion_2(collect=None):
    params = HamelParameters(1.3, 4.0, 2.5)
    coarse = _roundtrip_errors(GRID64, params, collect)
    fine = _roundtrip_errors(GRID128, params)
    worst_c = max(coarse.values())
    worst_f = max(fine.values())
    ok = worst_c <= 1e-6 and worst_f <= 1e-8
    return ok, (f"manufactured round trips: default-grid worst {worst_c:.2e} "
                f"(<= 1e-6), doubled-panel worst {worst_f:.2e} (<= 1e-8)")


# -- criterion 3: structural identities ------------------------------------------

def criterion_3():
    params = HamelParameters(1.3, 4.0, 2.5)
    solves = []
    _roundtrip_errors(GRID64, params, collect=solves)

    # add power-envelope, bump, and random solves through the full map
    for spec in (power_envelope_forcing(GRID64, params, 1e-3, {0: 1.0, 1: 1.0, 2: 0.5}),
                 bump_forcing(GRID64, params, 1e-3, {0: 1.0, 1: 1.0}),
                 random_forcing(GRID64, params, 1e-3, seed=5, n_modes=2)):
        for n in range(-spec.cutoff, spec.cutoff + 1):
            p = {k: spec.profile(n, k) for k in ("r", "t", "3", *nl.TENSOR_KEYS)}
            solves.append((("horizontal", n), hz.solve_mode(
                n, params, GRID64, pointwise=(p["r"], p["t"]))))
            solves.append((("vertical", n), vt.solve_vertical_mode(
                n, params, GRID64, pointwise=p["3"])))
            solves.append((("horizontal", n), hz.solve_mode(
                n, params, GRID64, divergence=(p["rr"], p["rt"], p["tr"], p["tt"]))))
            solves.append((("vertical", n), vt.solve_vertical_mode(
                n, params, GRID64, divergence=(p["r3"], p["t3"]))))

    worst = {"boundary_rel": 0.0, "divergence_rel": 0.0, "moment": 0.0}
    for (kind, n), sol in solves:
        # each solve in its row of a zero field; the moment by interpolation
        i = abs(n) + n
        fieldv = nl.VelocityField.zero(GRID64, abs(n))
        if kind == "horizontal":
            fieldv.values[i, :2] = sol.v_r.values, sol.v_t.values
            fieldv.dvalues[i, :2] = sol.dv_r.values, sol.dv_t.values
        else:
            fieldv.values[i, 2], fieldv.dvalues[i, 2] = sol.v_3.values, sol.dv_3.values
        for key, rel in vf.structural_residuals(fieldv).items():
            worst[key] = max(worst[key], float(rel[i]))
        if kind == "horizontal" and n != 0:
            a = 1.0 - abs(n)
            scale = hz._abs_moment(GRID64, a, sol.omega)
            if scale > 0:
                moment = abs(integrate_weighted(sol.omega, a)) / scale
                worst["moment"] = max(worst["moment"], moment)
    ok = all(v <= 1e-8 for v in worst.values())
    return ok, (f"structural identities over {len(solves)} solves: "
                f"boundary {worst['boundary_rel']:.2e}, divergence "
                f"{worst['divergence_rel']:.2e}, moment {worst['moment']:.2e} "
                f"(all <= 1e-8)")


# -- criterion 4: decay reproduction ----------------------------------------------
#
# The guaranteed rate -(rho - 1) bounds the decay of u - V from above.  For
# the power-envelope family {0: 1, 1: 1} the representation formulas give
# the faster realized rate max(3 - 2 rho, -2): the kernel branches decay
# like r^{3 - 2 rho} (mode-0 data exponent + 2, mode-1 vorticity exponent
# + 1), the |n| = 1 Biot-Savart branch like r^{-2}, and the two cross, with
# a log r factor, at rho = 2.5.  The homogeneous branches r^{1 - gamma} and
# r^{-gamma} decay faster unless gamma = rho, where r^{1 - gamma} of the
# axisymmetric angular profile realizes the guaranteed rate itself.

DECAY_TOL = 0.05
# GRID64's log-panel width out to r_max = 1e5, so a window of
# [r_max / 100, r_max / 3] lies past the subleading terms.
FAR_GRID = RadialGrid.build(107, 8, 1.0e5)
FAR_WINDOW = (FAR_GRID.r_max / 100.0, FAR_GRID.r_max / 3.0)


def guaranteed_rate(rho):
    return -(rho - 1.0)


def realized_rate(rho):
    return max(3.0 - 2.0 * rho, -2.0)


def _power_envelope_solution(grid, gamma, rho):
    params = HamelParameters(1.0, gamma, rho)
    forcing = power_envelope_forcing(grid, params, 1e-3, {0: 1.0, 1: 1.0})
    sol, _ = nl.picard_iterate(forcing, params, grid)
    return sol


def criterion_4():
    ok = True
    bound, realized, sharp = [], [], []

    # 1. the guaranteed rate as a bound, on the default grid at gamma = 4
    for rho in (2.2, 2.5, 2.8):
        sol = _power_envelope_solution(GRID64, 4.0, rho)
        slope = vf.fit_decay(sol, (10.0, GRID64.r_max / 3.0)).slope
        lo, hi = realized_rate(rho) - DECAY_TOL, guaranteed_rate(rho) + DECAY_TOL
        ok = ok and lo <= slope <= hi
        bound.append(f"rho={rho} {slope:+.4f} in [{lo:+.2f}, {hi:+.2f}]")

    # 2. the realized rate at gamma = 4, away from the crossing at rho = 2.5
    for rho in (2.2, 2.8):
        sol = _power_envelope_solution(FAR_GRID, 4.0, rho)
        slope = vf.fit_decay(sol, FAR_WINDOW).slope
        ok = ok and abs(slope - realized_rate(rho)) <= DECAY_TOL
        realized.append(f"rho={rho} {slope:+.4f} vs {realized_rate(rho):+.2f}")

    # 3. the sharp rate at gamma = rho, on the axisymmetric angular profile;
    # the theta-RMS stays dominated by the |n| = 1 r^{-2} term, so it is
    # held to the bound only
    rho = 2.8
    sol = _power_envelope_solution(FAR_GRID, rho, rho)
    v_t0 = np.abs(sol.values[sol.cutoff, 1])
    slope = vf.fit_decay((FAR_GRID.r_nodes, v_t0), FAR_WINDOW, FAR_GRID).slope
    ok = ok and abs(slope - guaranteed_rate(rho)) <= DECAY_TOL
    sharp.append(f"mode-0 v_t {slope:+.4f} vs {guaranteed_rate(rho):+.2f}")
    slope = vf.fit_decay(sol, FAR_WINDOW).slope
    hi = guaranteed_rate(rho) + DECAY_TOL
    ok = ok and slope <= hi
    sharp.append(f"|u - V| {slope:+.4f} <= {hi:+.2f}")

    return ok, ("decay of u - V for power-envelope forcing {0: 1, 1: 1} "
                f"(tolerance {DECAY_TOL}): "
                "bound max(3-2rho,-2) <= slope <= -(rho-1), gamma=4, "
                f"r in [10, {GRID64.r_max / 3.0:.0f}]: " + "; ".join(bound)
                + " | realized max(3-2rho,-2), gamma=4, "
                f"r in [{FAR_WINDOW[0]:.0f}, {FAR_WINDOW[1]:.0f}]: " + "; ".join(realized)
                + f" | sharp -(rho-1), gamma=rho={rho}: " + "; ".join(sharp))


# -- criterion 5: contraction regime -----------------------------------------------

def criterion_5():
    params = HamelParameters(1.0, 4.0, 2.5)
    coeffs = {0: 1.0, 1: 1.0}
    eps = 0.4
    forcing = power_envelope_forcing(GRID64, params, eps, coeffs)
    sol, diag = nl.picard_iterate(forcing, params, GRID64)
    q = diag.contraction_factors
    d = diag.difference_norms
    checks = []
    checks.append(("q1 < 0.5", q[0] < 0.5))
    checks.append(("differences decrease geometrically",
                   all(d[k + 1] < d[k] for k in range(len(d) - 1))))
    checks.append(("q_k within 0.1 of q1 for k >= 2",
                   all(abs(qk - q[0]) <= 0.1 for qk in q[1:])))
    resid = nl.field_diff_norm(nl.apply_T(sol, forcing, params, GRID64), sol, params.rho)
    checks.append(("residual <= 1e-10 ||v1||", resid <= 1e-10 * d[0]))
    half, _ = nl.picard_iterate(power_envelope_forcing(GRID64, params, eps / 2, coeffs),
                                params, GRID64)
    ratio = nl.x_norm(half, params.rho) / nl.x_norm(sol, params.rho)
    checks.append(("halving epsilon halves the norm", 0.45 <= ratio <= 0.55))
    ok = all(flag for _, flag in checks)
    failed = [name for name, flag in checks if not flag]
    return ok, (f"contraction: q1={q[0]:.2e}, {diag.iterations} iterations, "
                f"residual/||v1||={resid / d[0]:.2e}, eps-halving ratio {ratio:.4f}"
                + (f"; FAILED: {failed}" if failed else ""))


# -- criterion 6: mode-gain summability ---------------------------------------------

def criterion_6():
    params = HamelParameters(2.0, 3.0, 2.4)
    modes = list(range(-64, 65))
    rows = vf.proposition_sweep([params], modes, GRID128)
    detail = []
    ok = True
    for branch in ("horizontal", "vertical_pointwise", "vertical_divergence"):
        norm = [r["normalized"] for r in rows if r["branch"] == branch]
        spread = max(norm) / min(norm)
        total = sum(r["gain"] for r in rows if r["branch"] == branch)
        ok = ok and spread < 50.0 and np.isfinite(total)
        detail.append(f"{branch}: spread {spread:.1f} (< 50), l1 gain {total:.3f}")
    return ok, "normalized mode gains, |n| <= 64: " + "; ".join(detail)


# -- criterion 7: weak residual ------------------------------------------------------

def criterion_7():
    params = HamelParameters(1.0, 4.0, 2.5)
    background = vf.weak_ns_residual(nl.VelocityField.zero(GRID64, 2),
                                     nl.ForcingSpec.zero(GRID64, 2), params)["residual"]

    forcing = power_envelope_forcing(GRID64, params, 1e-3, {0: 1.0, 1: 1.0})
    sol, _ = nl.picard_iterate(forcing, params, GRID64)
    power_res = vf.weak_ns_residual(sol, forcing, params,
                                    vf.make_test_suite(GRID64, modes=(0, 1)))["residual"]

    ladder = []
    for panels in (16, 32):
        g = RadialGrid.build(panels, 8, 1.0e3)
        spec = bump_forcing(g, params, 1e-3, {0: 1.0, 1: 1.0})
        s, _ = nl.picard_iterate(spec, params, g)
        ladder.append(vf.weak_ns_residual(s, spec, params,
                                          vf.make_test_suite(g, modes=(0, 1)))["residual"])

    ok = (background <= 1e-12 and power_res <= 1e-5
          and ladder[0] <= 1e-5 and ladder[1] < ladder[0])
    return ok, (f"weak residual: background {background:.2e} (<= 1e-12), converged "
                f"{power_res:.2e} (<= 1e-5), refinement {ladder[0]:.2e} -> "
                f"{ladder[1]:.2e} (decreasing)")


# -- criterion 8: convolution oracle --------------------------------------------------

def criterion_8():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fields = []
        for shift in (0, 1):
            f = nl.VelocityField.zero(GRID64, 3)
            for n in range(-3, 4):
                for a in range(3):
                    c = rng.normal() + 1j * rng.normal()
                    ps = PowerSum.of((c, -2.0 - rng.uniform(0, 1)))
                    f.values[n + 3, a] = ps(GRID64.r_nodes)
                    f.exponents[n + 3, a] = ps.slowest_exponent()
            fields.append(f)
        out, _ = nl.tensor_convolution(fields[0], fields[1])
        for n in range(-3, 4):
            for i, key in enumerate(nl.TENSOR_KEYS):
                oracle = nl.convolution_physical_oracle(fields[0], fields[1], n, key)
                worst = max(worst, float(np.max(np.abs(out[n + 3, i] - oracle))))
    ok = worst <= 1e-10
    return ok, f"spectral vs physical-space convolution, 20 seeded trials: worst {worst:.2e}"


# -- criterion 9: admissibility gates ---------------------------------------------------

def criterion_9():
    failures = []
    with tempfile.TemporaryDirectory() as td:
        def cfg(**kw):
            base = dict(alpha=1.0, gamma=4.0, rho=2.5, mode_cutoff=1, panels=16,
                        epsilon=1e-3, output_dir=str(Path(td) / "out"))
            base.update(kw)
            return cli.RunConfig(**base)

        if cli.run(cfg(gamma=1.5)) != cli.EXIT_CONFIG:
            failures.append("gamma <= 2 accepted")
        if cli.run(cfg(rho=3.0)) != cli.EXIT_CONFIG:
            failures.append("rho >= 3 accepted")
        if cli.run(cfg(rho=2.9, gamma=2.5)) != cli.EXIT_CONFIG:
            failures.append("rho > gamma accepted")
        if cli.run(cfg(family_options={"f_exponent": -1.2})) != cli.EXIT_CONFIG:
            failures.append("inadmissible envelope accepted")

        try:
            integrate_weighted(
                ModeProfile.from_powersum(PowerSum.of((1.0, -2.0)), GRID64), 1.5)
            failures.append("divergent tail integrated")
        except TailError as exc:
            if "non-integrable tail" not in str(exc):
                failures.append("divergent tail lacks named message")

        out = Path(td) / "big"
        code = cli.run(cfg(epsilon=1000.0, max_iter=20, output_dir=str(out)))
        if code != cli.EXIT_NO_CONTRACTION:
            failures.append(f"large amplitude exit code {code}")
        else:
            summary = json.loads((out / "summary.json").read_text())
            if "outside contraction regime" not in summary.get("error", ""):
                failures.append("missing contraction diagnostics")
            if len(summary["picard"].get("contraction_factors", [])) < 3:
                failures.append("missing q trace")
    ok = not failures
    return ok, ("admissibility and non-contraction gates"
                + (f"; FAILED: {failures}" if failures else " all reject as required"))


# -- pytest wrappers -----------------------------------------------------------------


def test_criterion_1_spectral_coefficients():
    ok, detail = criterion_1()
    assert report(1, ok, detail)


def test_criterion_2_manufactured_roundtrips():
    ok, detail = criterion_2()
    assert report(2, ok, detail)


def test_criterion_3_structural_identities():
    ok, detail = criterion_3()
    assert report(3, ok, detail)


def test_criterion_4_decay_reproduction():
    ok, detail = criterion_4()
    assert report(4, ok, detail)


def test_criterion_5_contraction_regime():
    ok, detail = criterion_5()
    assert report(5, ok, detail)


def test_criterion_6_mode_gain_summability():
    ok, detail = criterion_6()
    assert report(6, ok, detail)


def test_criterion_7_weak_residual():
    ok, detail = criterion_7()
    assert report(7, ok, detail)


def test_criterion_8_convolution_oracle():
    ok, detail = criterion_8()
    assert report(8, ok, detail)


def test_criterion_9_admissibility_gates():
    ok, detail = criterion_9()
    assert report(9, ok, detail)


if __name__ == "__main__":
    outcomes = []
    for num in range(1, 10):
        ok, detail = globals()[f"criterion_{num}"]()
        outcomes.append(report(num, ok, detail))
    sys.exit(0 if all(outcomes) else 1)
