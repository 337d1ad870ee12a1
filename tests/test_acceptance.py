"""Acceptance gate: every criterion prints one pass/fail line and asserts its
stated tolerance."""

import math
import time

import numpy as np

from thinspec import bessel
from thinspec.asymptotics import (
    compute_lambda1,
    compute_lambda2,
    evaluate_expansion,
    layer_profiles,
)
from thinspec.fem import mass_norm
from thinspec.geometry import Circle, LayerConfig
from thinspec.report import estimate_thickness, run_sweep
from thinspec.transmission import eigenfunction_error_rate
from thinspec.asymptotics import compute_coefficients


def _report(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_disk_expansion_convergence():
    start = time.perf_counter()
    report = run_sweep(Circle(1.0), [0.04, 0.02, 0.01, 0.005], 1.0, 0.48,
                       solver="bessel")
    elapsed = time.perf_counter() - start
    s0 = report.fits[0].slope
    s1 = report.fits[1].slope
    s2 = report.fits[2].slope
    ok = s0 >= 0.9 and s1 >= 1.9 and s2 >= 2.7 and elapsed <= 30.0
    _report(1, ok, f"slopes {s0:.2f}/{s1:.2f}/{s2:.2f}, {elapsed:.1f}s")


def test_criterion_2_sandwich_bounds(disk_sweep_report, ellipse_sweep_report):
    ellipse_report, _ = ellipse_sweep_report
    disk_bad = disk_sweep_report.sandwich_violations()
    ellipse_bad = ellipse_report.sandwich_violations()
    ok = not disk_bad and not ellipse_bad
    _report(2, ok, f"violations: disk {len(disk_bad)}, ellipse {len(ellipse_bad)}")


def test_criterion_3_fem_vs_analytic_coefficients(disk_coeffs_h02, goldens):
    coeffs, _ = disk_coeffs_h02
    lam0_exact = goldens["j01"] ** 2
    e0 = abs(coeffs.lambda0 - lam0_exact) / lam0_exact
    e1 = abs(coeffs.lambda1 - 2.0 * lam0_exact) / (2.0 * lam0_exact)
    e2 = abs(coeffs.lambda2 - goldens["lambda2"]) / goldens["lambda2"]
    errs = []
    for h in (0.08, 0.04, 0.02):
        co = compute_coefficients(Circle(1.0), LayerConfig(0.01, 1.0, 0.48), h)
        errs.append(abs(co.lambda0 - lam0_exact))
    order = 0.5 * (math.log(errs[0] / errs[1], 2.0) + math.log(errs[1] / errs[2], 2.0))
    ok = e0 <= 0.005 and e1 <= 0.01 and e2 <= 0.02 and abs(order - 2.0) <= 0.3
    _report(3, ok, f"lam0 {e0:.2e}, lam1 {e1:.2e}, lam2 {e2:.2e}, order {order:.2f}")


def test_criterion_4_general_geometry_consistency(ellipse_sweep_report):
    report, elapsed = ellipse_sweep_report
    guard_rows = [r for r in report.rows if r.mesh_guard_ok]
    fit = report.fits[1]
    ok = (fit is not None and fit.slope >= 1.7 and len(guard_rows) >= 3
          and elapsed <= 600.0)
    slope = "none" if fit is None else f"{fit.slope:.2f}"
    _report(4, ok, f"err1 slope {slope} on {len(guard_rows)} guarded rows, "
                   f"{elapsed:.0f}s")


def test_criterion_5_eigenfunction_rate():
    deltas, errors, _, slope = eigenfunction_error_rate(
        Circle(1.0), [0.04, 0.02, 0.01], 0.05, 0.48
    )
    ok = slope >= 0.8
    _report(5, ok, f"H1 rate {slope:.2f} over deltas {list(deltas)}")


def test_criterion_6_special_functions(goldens):
    gap01 = abs(bessel.bessel_j_zero(0, 1, "series")
                - bessel.bessel_j_zero(0, 1, "recurrence"))
    gap11 = abs(bessel.bessel_j_zero(1, 1, "series")
                - bessel.bessel_j_zero(1, 1, "recurrence"))
    worst = 0.0
    for x in np.logspace(math.log10(0.1), 2.0, 100):
        for m in range(7):
            worst = max(worst, bessel.wronskian_defect(m, float(x)))
    ok = gap01 <= 1e-12 and gap11 <= 1e-12 and worst <= 1e-10
    _report(6, ok, f"zero gaps {gap01:.1e}/{gap11:.1e}, wronskian {worst:.1e}")


def test_criterion_7_structural_invariants(disk_coeffs_h02, tmp_path):
    coeffs, layer = disk_coeffs_h02
    mesh = coeffs.mesh
    checks = {}

    # ground-mode normalization and sign rule
    checks["v0_norm"] = abs(mass_norm(coeffs.M, coeffs.v0.values) - 1.0) <= 1e-8
    free = np.setdiff1d(np.arange(mesh.n_vertices), mesh.outer)
    cen = mesh.centroid()
    anchor = free[np.argmin(((mesh.vertices[free] - cen) ** 2).sum(axis=1))]
    checks["v0_sign"] = coeffs.v0.values[anchor] > 0.0

    # corrector orthogonality and solvability defect
    inner = float(coeffs.v0.values @ (coeffs.M.tocsr() @ coeffs.v1.values))
    checks["v1_orthogonal"] = abs(inner) <= 1e-8
    checks["fredholm"] = abs(coeffs.multiplier) <= 1e-6 * coeffs.lambda1

    # coating profiles satisfy their edge conditions algebraically
    prof = layer_profiles(coeffs, layer)
    s = np.linspace(0.0, mesh.curve.s0, 64)
    g = layer.g_at(s)
    checks["profile_w1_inner"] = np.max(np.abs(prof.w1(s, g))) == 0.0
    checks["profile_w2_inner"] = np.max(np.abs(prof.w2(s, g))) <= 1e-14
    checks["profile_w1_outer"] = np.max(
        np.abs(prof.w1(s, 0.0) + g * prof.flux0_of(s))) <= 1e-12
    checks["profile_w2_slope"] = np.max(
        np.abs(prof.w2_xi(s, 0.0) - prof.flux1_of(s))) == 0.0

    # a vanishing profile collapses the expansion to the leading eigenvalue
    zero_layer = LayerConfig(0.01, 0.0, 0.48)
    lam1 = compute_lambda1(mesh, coeffs.flux0, zero_layer)
    lam2 = compute_lambda2(mesh, coeffs.flux0, coeffs.flux1, zero_layer)
    collapsed = evaluate_expansion((coeffs.lambda0, lam1, lam2), 0.01, 2)
    checks["degenerate_collapse"] = collapsed == coeffs.lambda0

    # deterministic emission
    a = run_sweep(Circle(1.0), [0.02, 0.01], 1.0, 0.48, solver="bessel").to_csv()
    b = run_sweep(Circle(1.0), [0.02, 0.01], 1.0, 0.48, solver="bessel").to_csv()
    checks["csv_deterministic"] = a == b

    bad = [k for k, v in checks.items() if not v]
    _report(7, not bad, "all structural checks" if not bad else f"failed: {bad}")


def test_criterion_8_thickness_recovery(disk_oracle):
    lam = bessel.disk_first_te(bessel.DiskProblem(1.0, 0.01, 0.48))
    est = estimate_thickness(lam, disk_oracle)
    e1 = abs(est.first_order - 0.01) / 0.01
    e2 = abs(est.quadratic - 0.01) / 0.01
    ok = e1 <= 0.15 and est.quadratic is not None and e2 <= 0.05
    _report(8, ok, f"first-order {e1 * 100:.1f}%, quadratic {e2 * 100:.2f}%")
