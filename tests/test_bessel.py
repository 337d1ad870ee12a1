import itertools
import math
import os
import subprocess
import sys
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jn_zeros, jv, jvp, yv, yvp

import thinspec
from thinspec import bessel
from thinspec.asymptotics import evaluate_expansion
from thinspec.errors import DomainError, MagnitudeWarning, NoRootInBracket


def test_j_at_zero():
    val, der = bessel.bessel_j(0, 0.0)
    assert val == 1.0
    assert der == 0.0
    val, _ = bessel.bessel_j(1, 0.0)
    assert val == 0.0


def test_j_rejects_bad_arguments():
    with pytest.raises(DomainError):
        bessel.bessel_j(0, -1.0)
    with pytest.raises(DomainError):
        bessel.bessel_j(25, 1.0)
    with pytest.raises(DomainError):
        bessel.bessel_j(0, 2e4)


def test_first_zero_annihilates_j0(goldens):
    val, _ = bessel.bessel_j(0, goldens["j01"])
    assert abs(val) <= 1e-12


def test_zero_methods_agree(goldens):
    for m, key in ((0, "j01"), (1, "j11")):
        z_series = bessel.bessel_j_zero(m, 1, method="series")
        z_recur = bessel.bessel_j_zero(m, 1, method="recurrence")
        assert abs(z_series - z_recur) <= 1e-12
        assert abs(z_series - goldens[key]) <= 1e-12


@pytest.mark.parametrize("m, k", itertools.product(range(21), range(1, 6)))
def test_zeros_match_scipy(m, k):
    # past the first few zeros the scan window must not miss the zero, and
    # arguments past the series cutoff must not be summed by the series
    ref = jn_zeros(m, k)[-1]
    # the default route sums the series only where it does not cancel, so
    # below the series cutoff its zeros are as accurate as scipy's
    rel = 1e-15 if ref < 12.0 else 1e-13
    assert bessel.bessel_j_zero(m, k) == pytest.approx(ref, rel=rel, abs=0)
    assert bessel.bessel_j_zero(m, k, "recurrence") == pytest.approx(ref, rel=1e-13, abs=0)


def test_zero_series_route_stops_at_cutoff():
    assert bessel.bessel_j_zero(2, 3, "series") == pytest.approx(jn_zeros(2, 3)[-1], rel=1e-13)
    for m, k in ((0, 5), (12, 5), (15, 1)):
        with pytest.raises(DomainError, match="cutoff"):
            bessel.bessel_j_zero(m, k, "series")
    with pytest.raises(ValueError):
        bessel.bessel_j_zero(0, 1, "asymptotic")


def test_series_and_recurrence_evaluators_agree():
    # two independent routes, compared where the ascending series is still
    # well conditioned (cancellation disqualifies it beyond the cutoff)
    for m in (0, 1, 3, 6):
        for x in (0.5, 2.0, 5.0, 9.0, 11.5):
            a = bessel.bessel_j_series(m, x)
            b = bessel.bessel_j_recurrence(m, x)
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


X_GRID = np.linspace(0.0, 11.9, 500)


def test_j_series_array_matches_scalar():
    for m in range(8):
        vals = bessel.bessel_j_series(m, X_GRID)
        for x, v in zip(X_GRID, vals):
            ref = bessel.bessel_j_series(m, float(x))
            assert type(ref) is float
            assert v == ref, (m, x)
    with pytest.raises(DomainError):
        bessel.bessel_j_series(0, np.array([1.0, -1.0]))


def test_j_table_matches_per_order_series():
    # one term loop for all orders gives the per-order series bit for bit
    for M in (0, 1, 7):
        ref = np.stack([bessel.bessel_j_series(m, X_GRID) for m in range(M + 1)])
        assert np.array_equal(bessel._j_values(M, X_GRID), ref)


def test_y01_series_array_matches_scalar():
    x = X_GRID[1:]
    y0, y1 = bessel._y01_series(x)
    for xi, a0, a1 in zip(x, y0, y1):
        r0, r1 = bessel._y01_series(float(xi))
        assert type(r0) is float and type(r1) is float
        assert (a0, a1) == (r0, r1), xi


def test_scalar_tables_are_floats():
    # one float argument is served in plain floats on both sides of the cutoff
    for x in (2.0, 15.0):
        assert all(type(v) is float for v in bessel._j_values(4, x))
        assert all(type(v) is float for v in bessel._y_values(4, x))
        assert all(type(v) is float for v in bessel.bessel_j(3, x) + bessel.bessel_y(3, x))
    prob = bessel.DiskProblem(1.0, 0.02, 0.48, 2)
    assert type(bessel.transmission_determinant(prob, 2.4)) is float


def test_wronskian_array_tables():
    x = X_GRID[1:]
    jv, jd = bessel._with_slopes(bessel._j_values(7, x))
    yv, yd = bessel._with_slopes(bessel._y_values(7, x))
    exact = 2.0 / (math.pi * x)
    defect = np.abs(jv * yd - jd * yv - exact) / exact
    assert defect.max() <= 1e-10


def test_y_domain_and_warning():
    with pytest.raises(DomainError):
        bessel.bessel_y(0, 0.0)
    with pytest.raises(DomainError):
        bessel.bessel_y(0, -2.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val, _ = bessel.bessel_y(0, 1e-9)
    assert any(issubclass(w.category, MagnitudeWarning) for w in caught)
    assert math.isfinite(val)


def test_wronskian_at_one():
    assert bessel.wronskian_defect(0, 1.0) <= 1e-10


def test_wronskian_log_grid():
    worst = 0.0
    for x in np.logspace(math.log10(0.1), 2.0, 100):
        for m in range(7):
            worst = max(worst, bessel.wronskian_defect(m, float(x)))
    assert worst <= 1e-10


def test_y0_first_zero():
    # bracketed bisection on our own Y0 evaluator
    f = lambda x: bessel.bessel_y(0, x)[0]
    a, b = 0.5, 1.5
    fa = f(a)
    assert fa * f(b) < 0
    while b - a > 1e-14:
        mid = 0.5 * (a + b)
        if fa * f(mid) < 0:
            b = mid
        else:
            a = mid
            fa = f(a)
    root = 0.5 * (a + b)
    assert abs(root - 0.8935769662791675) <= 1e-10
    assert abs(f(root)) <= 1e-10


def test_disk_dirichlet_eigen(goldens):
    lam = bessel.disk_dirichlet_eigen(1.0, 0, 1)
    assert lam == pytest.approx(goldens["j01"] ** 2, rel=1e-13)
    assert bessel.disk_dirichlet_eigen(2.0, 0, 1) == pytest.approx(lam / 4.0, rel=1e-13)
    lam11 = bessel.disk_dirichlet_eigen(1.0, 1, 1)
    assert lam11 == pytest.approx(goldens["j11"] ** 2, rel=1e-13)


def test_import_does_not_load_scipy_optimize():
    """`brentq` is imported on first use and no graph routine is needed, so
    importing the package stays cheap."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(thinspec.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import thinspec, sys; "
            "assert not {'scipy.optimize', 'scipy.sparse.csgraph'} & set(sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=path))


def test_disk_problem_validation():
    with pytest.raises(DomainError):
        bessel.DiskProblem(1.0, 1.5, 0.48)
    with pytest.raises(DomainError):
        bessel.DiskProblem(1.0, 0.01, 1.2)
    with pytest.raises(DomainError):
        bessel.DiskProblem(1.0, 0.01, 0.48, m=-1)


def test_determinant_vanishing_layer(goldens):
    # as the coating vanishes the first root approaches the Dirichlet value
    lam = bessel.disk_first_te(bessel.DiskProblem(1.0, 1e-6, 0.48))
    assert abs(math.sqrt(lam) - goldens["j01"]) <= 1e-4


def _det_reference(k, m, R, delta, n):
    """Cauchy-data matching determinant of mode m from scipy.special alone,
    independent of the package's Bessel routes; works on arrays of k."""
    kn = k * math.sqrt(n)
    a, b = kn * R, kn * (R - delta)
    w_val = jv(m, a) * yv(m, b) - yv(m, a) * jv(m, b)
    w_der = kn * (jvp(m, a) * yv(m, b) - yvp(m, a) * jv(m, b))
    return jv(m, k * R) * w_der - k * jvp(m, k * R) * w_val


def _mode_roots_reference(m, R, delta, n, k_lo, k_hi, step):
    """Every sign change of mode m's determinant on a uniform k grid, refined
    by brentq."""
    ks = np.append(np.arange(k_lo, k_hi, step), k_hi)
    vals = _det_reference(ks, m, R, delta, n)
    flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    return [brentq(_det_reference, ks[i], ks[i + 1], args=(m, R, delta, n), xtol=1e-15)
            for i in flips] + list(ks[vals == 0.0])


# corners and centre of the benchmark's seed box, one larger disk, and the
# corridor's extremes: index near 0 and near 1, coatings of 0.2 R and 0.6 R
@pytest.mark.parametrize("R, n, delta", [
    (1.0, n, delta) for n in (0.16, 0.48, 0.84) for delta in (0.0045, 0.01, 0.044)
] + [(2.0, 0.48, 0.02)] + [
    (R, n, ratio * R) for R in (0.5, 2.0) for n in (0.02, 0.98) for ratio in (0.2, 0.6)])
def test_first_te_matches_scalar_scan(R, n, delta):
    j01 = float(jn_zeros(0, 1)[0])
    floors = [float(jn_zeros(m, 1)[0]) / R for m in range(7)]
    # every mode's reference window reaches past its floor
    mode_roots = [_mode_roots_reference(m, R, delta, n, 0.05 / R, 1.1 * floors[6], 0.01 / R)
                  for m in range(7)]
    # no determinant root of mode m lies below its Max-Min floor j_{m,1}/R,
    # which for mode 0 is lambda0 = (j01/R)^2, and the first root lies in the
    # corridor the solver scans
    for m, roots in enumerate(mode_roots):
        assert not [k for k in roots if k < floors[m]], m
    roots = [k for ks in mode_roots for k in ks]
    lo, hi = bessel.corridor((j01 / R) ** 2, (j01 / (R - delta)) ** 2)
    assert lo <= min(roots) ** 2 <= hi
    lam = bessel.disk_first_te(bessel.DiskProblem(R, delta, n))
    assert lam == pytest.approx(min(roots) ** 2, rel=1e-14, abs=0)


def test_first_te_scans_only_the_corridor(monkeypatch):
    scanned = []
    det_scan = bessel._det_scan

    def recording(R, deltas, n, ks, mode_max):
        scanned.append((list(deltas), np.array(ks), mode_max))
        return det_scan(R, deltas, n, ks, mode_max)

    monkeypatch.setattr(bessel, "_det_scan", recording)
    j01 = bessel.bessel_j_zero(0, 1)
    for n in (0.2, 0.48, 0.8):
        for delta in (0.04, 0.02, 0.01, 0.005):
            bessel.disk_first_te(bessel.DiskProblem(1.0, delta, n))
    assert len(scanned) == 12
    for (delta,), ks, mode_max in scanned:
        lo, hi = bessel.corridor(j01**2, (j01 / (1.0 - delta)) ** 2)
        assert math.sqrt(lo) <= ks.min() and ks.max() <= math.sqrt(hi)
        assert mode_max == 0
    # the benchmark's disk sweeps (thicknesses up to 0.044) scan mode 0 alone
    scanned.clear()
    for n in (0.16, 0.84):
        bessel.disk_first_tes(1.0, [0.044, 0.022, 0.011, 0.0055], n)
    assert [mode_max for *_, mode_max in scanned] == [0, 0]
    # a coating of 0.6 R scans exactly the modes whose floor j_{m,1}/R the
    # corridor reaches
    for R in (0.5, 2.0):
        for n in (0.02, 0.98):
            scanned.clear()
            bessel.disk_first_te(bessel.DiskProblem(R, 0.6 * R, n))
            (_, ks, mode_max), = scanned
            reached = [m for m in range(7) if jn_zeros(m, 1)[0] <= ks.max() * R]
            assert reached == list(range(mode_max + 1)) and mode_max >= 1, (R, n)


def test_first_te_without_sign_change_raises(monkeypatch):
    monkeypatch.setattr(bessel, "_det_scan",
                        lambda R, deltas, n, ks, mode_max: np.ones((mode_max + 1, *ks.shape)))
    with pytest.raises(NoRootInBracket, match="corridor"):
        bessel.disk_first_te(bessel.DiskProblem(1.0, 0.01, 0.48))
    with pytest.raises(NoRootInBracket, match="corridor .* of delta = 0.02"):
        bessel.disk_first_tes(1.0, [0.02, 0.01], 0.48)


def test_determinant_evaluates_each_series_once(monkeypatch):
    calls = []
    series = bessel.bessel_j_series

    def recording(m, x):
        calls.append((m, float(x)))
        return series(m, x)

    monkeypatch.setattr(bessel, "bessel_j_series", recording)
    for m in (0, 1, 4):
        for k in (0.5, 2.4, 5.0, 11.0):
            calls.clear()
            bessel.transmission_determinant(bessel.DiskProblem(1.0, 0.02, 0.48, m), k)
            assert calls
            assert len(calls) == len(set(calls)), (m, k)


def test_determinant_sums_only_the_orders_it_reads(monkeypatch):
    # J_0, J_1 and m-1..m+1 at k*sqrt(n)*R; J_0, J_1 and m at
    # k*sqrt(n)*(R - delta); m-1..m+1 at k*R
    calls = []
    series = bessel.bessel_j_series

    def recording(m, x):
        calls.append(m)
        return series(m, x)

    monkeypatch.setattr(bessel, "bessel_j_series", recording)
    bessel.transmission_determinant(bessel.DiskProblem(1.0, 0.05, 0.48, 6), 2.43)
    assert sorted(calls) == [0, 0, 1, 1, 5, 5, 6, 6, 6, 7, 7]
    # mode 0 reads Y_0 alone at k*sqrt(n)*(R - delta): J_0 there, no J_1,
    # and no order-one Y series
    calls.clear()
    y_tops = []
    y_series = bessel._y01_series
    monkeypatch.setattr(bessel, "_y01_series",
                        lambda x, jtab=None, top=1: y_tops.append(top) or y_series(x, jtab, top))
    bessel.transmission_determinant(bessel.DiskProblem(1.0, 0.05, 0.48, 0), 2.43)
    assert sorted(calls) == [0, 0, 0, 1, 1]
    assert y_tops == [1, 0]


def test_det_scan_matches_scalar_determinant():
    deltas = [0.02, 0.3]
    ks = np.array([np.linspace(0.05, 7.2, 40), np.linspace(0.1, 9.0, 40)])
    # mode_max = 0 is a single-mode scan
    for mode_max in (6, 0):
        table = bessel._det_scan(1.0, deltas, 0.48, ks, mode_max)
        assert table.shape == (mode_max + 1, len(deltas), ks.shape[1])
        for m in range(mode_max + 1):
            for d, delta in enumerate(deltas):
                prob_m = bessel.DiskProblem(1.0, delta, 0.48, m)
                ref = np.array([bessel.transmission_determinant(prob_m, float(k))
                                for k in ks[d]])
                assert np.array_equal(table[m, d], ref), (m, delta)


def _det_scan_three_tables(prob, ks, mode_max):
    """_det_scan built as before its single pass: one J table per argument
    and one Y table for each of the two coating arguments."""
    sn = math.sqrt(prob.n)
    a, b = ks * sn * prob.R, ks * sn * (prob.R - prob.delta)
    ja_table = bessel._j_values(mode_max + 1, a)
    jb_table = bessel._j_values(mode_max + 1, b)
    ja, jda = bessel._with_slopes(ja_table)
    ya, yda = bessel._with_slopes(bessel._y_values(mode_max + 1, a, ja_table))
    jb, yb = jb_table[:-1], bessel._y_values(mode_max, b, jb_table)
    w_val = ja * yb - ya * jb
    w_der = (ks * sn) * (jda * yb - yda * jb)
    v_val, v_der = bessel._with_slopes(bessel._j_values(mode_max + 1, ks * prob.R))
    return v_val * w_der - (v_der * ks) * w_val


# R x n x delta/R: radii, indices near 0 and 1, thin to thick coatings
CORRIDOR_GRID = list(itertools.product((0.5, 1.0, 2.0), (0.02, 0.2, 0.48, 0.8, 0.98),
                                       (0.001, 0.005, 0.02, 0.04, 0.2, 0.6)))


def _corridor_ks(R, delta):
    j01 = bessel.bessel_j_zero(0, 1)
    lo, hi = bessel.corridor((j01 / R) ** 2, (j01 / (R - delta)) ** 2)
    return np.linspace(math.sqrt(lo), math.sqrt(hi), 17)


def test_det_scan_equals_three_table_construction():
    # one scan per (R, n) over all its thicknesses, each row against the
    # per-thickness construction
    for (R, n), cases in itertools.groupby(CORRIDOR_GRID, key=lambda c: c[:2]):
        deltas = [ratio * R for _, _, ratio in cases]
        ks = np.array([_corridor_ks(R, delta) for delta in deltas])
        table = bessel._det_scan(R, deltas, n, ks, 6)
        for d, delta in enumerate(deltas):
            prob = bessel.DiskProblem(R, delta, n)
            assert np.array_equal(table[:, d], _det_scan_three_tables(prob, ks[d], 6)), \
                (R, n, delta)
    ks = np.linspace(0.05, 7.2, 40)
    for mode_max in (6, 0):
        prob = bessel.DiskProblem(1.0, 0.02, 0.48)
        assert np.array_equal(bessel._det_scan(1.0, [0.02], 0.48, ks[None], mode_max)[:, 0],
                              _det_scan_three_tables(prob, ks, mode_max))


def test_first_tes_equal_per_thickness_solves():
    for (R, n), cases in itertools.groupby(CORRIDOR_GRID, key=lambda c: c[:2]):
        deltas = [ratio * R for _, _, ratio in cases]
        lams = bessel.disk_first_tes(R, deltas, n)
        singles = [bessel.disk_first_te(bessel.DiskProblem(R, delta, n)) for delta in deltas]
        assert [lam.hex() for lam in lams] == [lam.hex() for lam in singles], (R, n)


def test_first_tes_of_no_thickness():
    assert bessel.disk_first_tes(1.0, [], 0.48) == []
    # a bad thickness or index raises as a single solve does
    with pytest.raises(DomainError):
        bessel.disk_first_tes(1.0, [0.01, 1.5], 0.48)
    with pytest.raises(DomainError):
        bessel.disk_first_tes(1.0, [0.01], 1.2)


def test_root_in_reads_bracket_ends_from_the_scan():
    f = partial(bessel.bessel_j_series, 0)
    xs = np.linspace(2.0, 3.0, 5)
    fs = f(xs)
    i = bessel._sign_changes(fs)[0]
    calls = []

    def recording(x):
        calls.append(x)
        return f(x)

    root = bessel._root_in(recording, xs, fs, i, 1e-14)
    assert calls
    assert xs[i] not in calls and xs[i + 1] not in calls
    assert root == brentq(f, xs[i], xs[i + 1], xtol=1e-14)
    calls.clear()
    assert bessel._root_in(recording, xs, np.zeros(5), 1, 1e-14) == xs[1]
    assert not calls


def test_first_te_determinant_calls_on_bench_grid(monkeypatch):
    calls = []
    det = bessel.transmission_determinant

    def counting(prob, k):
        calls.append(k)
        return det(prob, k)

    monkeypatch.setattr(bessel, "transmission_determinant", counting)
    for n in (0.2, 0.48, 0.8):
        for delta in (0.04, 0.02, 0.01, 0.005):
            bessel.disk_first_te(bessel.DiskProblem(1.0, delta, n))
    # 12 solves; re-evaluating both bracket ends would make it 68
    assert len(calls) == 44


def test_determinant_nonmatching_cauchy_data():
    # pick k where the coating solution vanishes on the outer rim too: the
    # interior field cannot match it, so the determinant stays away from zero
    prob = bessel.DiskProblem(1.0, 0.3, 0.48, m=0)

    def w_outer(k):
        a = k * math.sqrt(prob.n)
        b = a * (prob.R - prob.delta)
        return (bessel.bessel_j(0, a)[0] * bessel.bessel_y(0, b)[0]
                - bessel.bessel_y(0, a)[0] * bessel.bessel_j(0, b)[0])

    ks = np.linspace(8.0, 25.0, 600)
    vals = [w_outer(float(k)) for k in ks]
    k_root = None
    for i in range(len(ks) - 1):
        if vals[i] * vals[i + 1] < 0:
            a, b = float(ks[i]), float(ks[i + 1])
            fa = w_outer(a)
            while b - a > 1e-12:
                mid = 0.5 * (a + b)
                if fa * w_outer(mid) < 0:
                    b = mid
                else:
                    a, fa = mid, w_outer(mid)
            k_root = 0.5 * (a + b)
            if abs(bessel.bessel_j(0, k_root)[0]) > 1e-2:
                break
    assert k_root is not None
    assert abs(bessel.transmission_determinant(prob, k_root)) > 1e-8


def test_determinant_rejects_nonpositive_wavenumber():
    prob = bessel.DiskProblem(1.0, 0.01, 0.48)
    with pytest.raises(DomainError):
        bessel.transmission_determinant(prob, -1.0)


def test_first_te_sandwich(goldens):
    lam = bessel.disk_first_te(bessel.DiskProblem(1.0, 0.005, 0.48))
    lam0 = goldens["j01"] ** 2
    upper = (goldens["j01"] / 0.995) ** 2
    assert lam0 <= lam <= upper


def test_first_te_above_lambda0(goldens):
    lam0 = goldens["j01"] ** 2
    for delta in (0.04, 0.02, 0.01):
        lam = bessel.disk_first_te(bessel.DiskProblem(1.0, delta, 0.48))
        assert lam >= lam0


def test_radial_corrector_closed_form(disk_oracle):
    """Independent check of the corrector field v1 of the unit disk, by
    4th-order differences and Simpson's rule on a uniform grid of [0, 1]."""
    co = disk_oracle
    N = 400
    r = np.linspace(0.0, 1.0, N + 1)
    h = r[1]
    u, v0 = co.v1(r), co.v0(r)
    # u'' + u'/r + lambda0 u + lambda1 v0 = 0 on the interior nodes 2..N-2
    d2 = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
    d1 = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * h)
    resid = d2 + d1 / r[2:-2] + co.lambda0 * u[2:-2] + co.lambda1 * v0[2:-2]
    assert np.max(np.abs(resid)) <= 1e-8
    # orthogonal to the ground mode: 2 pi int v1 v0 r dr = 0
    w = np.ones(N + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= h / 3.0
    assert abs(2.0 * math.pi * np.sum(w * u * v0 * r)) <= 1e-10
    # boundary value -flux0, and inward-normal slope flux1 = flux0/R
    assert abs(co.v1(1.0) + co.flux0) <= 1e-14 * co.flux0
    slope = (25 * u[N] - 48 * u[N - 1] + 36 * u[N - 2] - 16 * u[N - 3] + 3 * u[N - 4]) / (12 * h)
    assert abs(-slope - co.flux1) <= 1e-8


def test_disk_coefficients(goldens, disk_oracle):
    assert disk_oracle.lambda0 == pytest.approx(goldens["lambda0"], rel=1e-13)
    assert disk_oracle.lambda1 == pytest.approx(2.0 * disk_oracle.lambda0, rel=1e-13)
    assert disk_oracle.lambda1 == pytest.approx(11.56637192589357, rel=1e-12)
    assert disk_oracle.lambda2 == pytest.approx(goldens["lambda2"], rel=1e-13)
    assert disk_oracle.flux0 == pytest.approx(goldens["flux0"], rel=1e-12)
    assert disk_oracle.flux1 == pytest.approx(goldens["flux1"], rel=1e-13)


def test_goldens_are_closed_forms(goldens):
    """Each unit-disk golden is its closed form rounded to 15 digits."""
    j01 = bessel.bessel_j_zero(0, 1)
    closed = {
        "j01": j01,
        "j11": bessel.bessel_j_zero(1, 1),
        "lambda0": j01**2,
        "lambda1": 2.0 * j01**2,
        "lambda2": 3.0 * j01**2,
        "flux0": j01 / math.sqrt(math.pi),
        "flux1": j01 / math.sqrt(math.pi),
    }
    assert set(goldens) == set(closed)
    for key, value in closed.items():
        assert goldens[key] == float(f"{value:.15g}"), key


def test_disk_coefficients_index_independent(disk_oracle):
    again = bessel.disk_asymptotic_coeffs(1.0, n=0.3)
    assert again.lambda0 == disk_oracle.lambda0
    assert again.lambda1 == disk_oracle.lambda1
    assert again.lambda2 == disk_oracle.lambda2


def test_lambda3_needs_the_index(disk_oracle):
    """lambda3 is None without an index, so the disk sweep's coefficients
    are unchanged, and its closed form with one."""
    assert disk_oracle.lambda3 is None
    for R, n in ((1.0, 0.48), (2.0, 0.2), (0.5, 1.0)):
        co = bessel.disk_asymptotic_coeffs(R, n=n)
        lam0 = co.lambda0
        assert co.lambda3 == 4.0 * lam0 / R**3 - (2.0 / 3.0) * (1.0 - n) * lam0**2 / R
    # at n = 1 it is the delta^3 coefficient of (j01/(R - delta))^2
    assert bessel.disk_asymptotic_coeffs(2.0, n=1.0).lambda3 == pytest.approx(
        4.0 * bessel.disk_asymptotic_coeffs(2.0).lambda0 / 8.0, rel=1e-15)


@pytest.mark.parametrize("n", [0.2, 0.48, 0.8])
def test_third_order_expansion_error_is_fourth_order(n):
    """The paper's expansion to order three leaves an O(delta^4) error
    against the disk's transmission eigenvalue: slopes 4.05, 4.06 and 3.93
    for n = 0.2, 0.48 and 0.8 over delta = 0.04 ... 0.005."""
    deltas = [0.04, 0.02, 0.01, 0.005]
    co = bessel.disk_asymptotic_coeffs(1.0, n=n)
    lams = bessel.disk_first_tes(1.0, deltas, n)
    lambdas = (co.lambda0, co.lambda1, co.lambda2, co.lambda3)
    errs = [abs(lam - evaluate_expansion(lambdas, d, 3)) for lam, d in zip(lams, deltas)]
    slope = float(np.polyfit(np.log(deltas), np.log(errs), 1)[0])
    assert slope >= 3.7, (n, errs)


def test_coefficient_scaling(disk_oracle):
    """Each coefficient carries length^-(j+2): doubling the radius divides
    lambda_j and flux_j by 2^(j+2)."""
    big = bessel.disk_asymptotic_coeffs(2.0)
    assert big.lambda0 == pytest.approx(disk_oracle.lambda0 / 4.0, rel=1e-15)
    assert big.lambda1 == pytest.approx(disk_oracle.lambda1 / 8.0, rel=1e-15)
    assert big.lambda2 == pytest.approx(disk_oracle.lambda2 / 16.0, rel=1e-15)
    assert big.flux0 == pytest.approx(disk_oracle.flux0 / 4.0, rel=1e-15)
    assert big.flux1 == pytest.approx(disk_oracle.flux1 / 8.0, rel=1e-15)
