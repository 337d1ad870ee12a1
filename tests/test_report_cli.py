import dataclasses
import json
import math
from decimal import Decimal, localcontext
from types import SimpleNamespace
import multiprocessing
import os
import signal

import numpy as np
import pytest

from thinspec import bessel, cli, fem, report, transmission
from thinspec.cli import _IDENTITY_TOL, main
from thinspec.asymptotics import compute_coefficients, evaluate_expansion
from thinspec.errors import BelowLambda0, ConfigError, InsufficientData, NoRootFound
from thinspec.geometry import Circle, Ellipse, LayerConfig
from thinspec.report import (
    estimate_thickness,
    fit_order,
    richardson,
    run_sweep,
    sweep_svg,
)
from thinspec.transmission import first_te, rayleigh_identity_residual


# ---------------------------------------------------------------------------
# order fitting
# ---------------------------------------------------------------------------

def test_fit_order_exact_cubic():
    deltas = np.array([0.04, 0.02, 0.01, 0.005])
    fit = fit_order(deltas, 7.0 * deltas**3)
    assert abs(fit.slope - 3.0) <= 1e-10
    assert abs(fit.intercept - math.log(7.0)) <= 1e-9
    assert fit.r2 >= 1.0 - 1e-12


def test_fit_order_dominant_term():
    deltas = np.array([0.04, 0.02, 0.01, 0.005])
    fit = fit_order(deltas, 2.0 * deltas + 5.0 * deltas**2)
    assert 0.95 <= fit.slope <= 1.05


def test_fit_order_drops_zero_rows():
    fit = fit_order([0.04, 0.02, 0.01, 0.005], [1.6e-3, 4e-4, 0.0, 2.5e-5])
    assert fit.n_used == 3
    assert "dropped 1" in fit.note


def test_fit_order_insufficient():
    with pytest.raises(InsufficientData):
        fit_order([0.04, 0.02], [1.0, 0.5])
    with pytest.raises(InsufficientData, match="distinct"):
        fit_order([0.02, 0.02, 0.02], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        fit_order([0.04, 0.02, 0.01, 0.005], [1.0, 0.5, 0.25])


def _polyfit_reference(deltas, errors):
    """(slope, intercept, r2) of the log-log line by numpy's polyfit."""
    keep = np.asarray(errors) > 0.0
    x, y = np.log(np.asarray(deltas)[keep]), np.log(np.asarray(errors)[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return slope, intercept, 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)


def test_fit_order_matches_polyfit():
    deltas = np.array([0.04, 0.02, 0.01, 0.005])
    cases = [(deltas, 7.0 * deltas**3), (deltas, 2.0 * deltas + 5.0 * deltas**2),
             (deltas, [1.6e-3, 4e-4, 0.0, 2.5e-5])]
    # the benchmark's three disk sweeps, every order
    for n in (0.2, 0.48, 0.8):
        rows = run_sweep(Circle(1.0), list(deltas), 1.0, n, solver="bessel").rows
        cases += [([r.delta for r in rows], [getattr(r, f"err{order}") for r in rows])
                  for order in (0, 1, 2)]
    # the dropped-row case is exactly delta^2, whose intercept 0 polyfit
    # reads as 6e-15: the absolute floor covers it
    for ds, errs in cases:
        fit = fit_order(ds, errs)
        ref = _polyfit_reference(ds, errs)
        assert (fit.slope, fit.intercept, fit.r2) == pytest.approx(ref, rel=1e-12, abs=1e-13)


def test_richardson_second_order():
    # v(h) = 3 + 4 h^2 is reproduced exactly
    extrap, est = richardson(3.0 + 4.0 * 0.04**2, 3.0 + 4.0 * 0.02**2, 2.0)
    assert abs(extrap - 3.0) <= 1e-14
    assert est == pytest.approx(4.0 * 0.02**2, rel=1e-10)


def test_fem_sweep_extrapolates_over_ring_spacing():
    # h = 0.09 and 0.06 build 13 and 20 rings on this ellipse: the spacings
    # differ by 20/13, not by the nominal 1.5
    curve, layer, h_list = Ellipse(1.3, 1.0), LayerConfig(0.03, 1.0, 0.48), [0.09, 0.06]
    sweep = run_sweep(curve, [0.03], 1.0, 0.48, h_list=h_list, solver="fem")
    coarse, fine = (compute_coefficients(curve, layer, h) for h in h_list)
    te_coarse, te_fine = (first_te(curve, layer, h) for h in h_list)
    assert (coarse.mesh.n_rings, fine.mesh.n_rings) == (13, 20)
    assert (te_coarse.mesh.n_rings, te_fine.mesh.n_rings) == (13, 20)
    assert (sweep.lambda0, sweep.est0) == richardson(coarse.lambda0, fine.lambda0, 20 / 13)
    assert sweep.lambda1 == richardson(coarse.lambda1, fine.lambda1, 20 / 13)[0]
    assert sweep.rows[0].lambda_direct == richardson(te_coarse.lam, te_fine.lam, 20 / 13)[0]
    assert sweep.max_residual == max(te_coarse.residual, te_fine.residual)


@pytest.mark.parametrize("fixture", ["disk_sweep_report", "ellipse_sweep_report"])
def test_sweep_predictions_come_from_evaluate_expansion(request, fixture):
    # both sweep legs predict with the report's coefficients through the one
    # evaluator, bit for bit
    rep = request.getfixturevalue(fixture)
    rep = rep[0] if isinstance(rep, tuple) else rep
    lambdas = (rep.lambda0, rep.lambda1, rep.lambda2)
    for row in rep.rows:
        assert (row.pred0, row.pred1, row.pred2) == tuple(
            evaluate_expansion(lambdas, row.delta, order) for order in (0, 1, 2))


# ---------------------------------------------------------------------------
# thickness recovery
# ---------------------------------------------------------------------------

def test_thickness_round_trip(disk_oracle):
    lam = bessel.disk_first_te(bessel.DiskProblem(1.0, 0.01, 0.48))
    est = estimate_thickness(lam, disk_oracle)
    assert abs(est.first_order - 0.01) / 0.01 <= 0.15
    assert est.quadratic is not None
    assert abs(est.quadratic - 0.01) / 0.01 <= 0.05


def test_thickness_zero_gap(disk_oracle):
    est = estimate_thickness(disk_oracle.lambda0, disk_oracle)
    assert est.first_order == 0.0


def _smaller_root(lambda1, lambda2, gap):
    """Smaller positive root of lambda2*d^2 + lambda1*d = gap in 50-digit
    decimal arithmetic, from the binary values of the inputs."""
    with localcontext() as ctx:
        ctx.prec = 50
        l1, l2, g = Decimal(lambda1), Decimal(lambda2), Decimal(gap)
        roots = [(-l1 + sign * (l1 * l1 + 4 * l2 * g).sqrt()) / (2 * l2) for sign in (1, -1)]
        return float(min(r for r in roots if r > 0))


@pytest.mark.parametrize("lambda2, gap", [(1.0, 1e-10), (-1.0, 0.1)])
def test_thickness_quadratic_is_the_smaller_root_to_rounding(lambda2, gap):
    # at lambda2 = 1 and gap 1e-10, -lambda1 + sqrt(disc) cancels 7 digits;
    # at lambda2 = -1 and gap 0.1 both roots are positive, 0.1127 and 0.8873
    est = estimate_thickness(gap, SimpleNamespace(lambda0=0.0, lambda1=1.0, lambda2=lambda2))
    exact = _smaller_root(1.0, lambda2, gap)
    assert abs(est.quadratic - exact) <= 1e-15 * exact


@pytest.mark.parametrize("lambda1, gap", [(1.0, 0.1), (11.566, 0.0433), (3.0, 1e-10)])
def test_thickness_quadratic_without_lambda2_is_first_order(lambda1, gap):
    est = estimate_thickness(5.0 + gap, SimpleNamespace(lambda0=5.0, lambda1=lambda1, lambda2=0.0))
    assert est.quadratic == est.first_order


def test_thickness_below_lambda0(disk_oracle):
    with pytest.raises(BelowLambda0):
        estimate_thickness(disk_oracle.lambda0 - 0.1, disk_oracle)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_disk_sweep_rows(disk_sweep_report):
    rep = disk_sweep_report
    assert [r.delta for r in rep.rows] == [0.04, 0.02, 0.01, 0.005]
    assert all(r.sandwich_ok for r in rep.rows)
    assert all(r.mesh_guard_ok for r in rep.rows)
    assert rep.fits[1].slope >= 1.9
    assert rep.fits[2].slope >= 2.7


def test_sweep_csv_layout(disk_sweep_report):
    text = disk_sweep_report.to_csv()
    lines = text.splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == ("delta,lambda_direct,lambda_dirichlet_eroded,pred0,pred1,"
                      "pred2,err0,err1,err2,sandwich_ok,mesh_guard_ok")
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 4
    assert all(ln.endswith(",1,1") for ln in data)


def test_disk_sweep_scans_once(monkeypatch):
    scans = []
    det_scan = bessel._det_scan

    def recording(R, deltas, n, ks, mode_max):
        scans.append(list(deltas))
        return det_scan(R, deltas, n, ks, mode_max)

    monkeypatch.setattr(bessel, "_det_scan", recording)
    deltas = [0.04, 0.02, 0.01, 0.005]
    rep = run_sweep(Circle(1.0), deltas, 1.0, 0.48, solver="bessel")
    assert scans == [deltas]
    j01 = bessel.bessel_j_zero(0, 1)
    for row in rep.rows:
        lo, hi = bessel.corridor(j01**2, (j01 / (1.0 - row.delta)) ** 2)
        assert lo <= row.lambda_direct <= hi


def test_disk_sweep_of_no_thickness():
    assert run_sweep(Circle(1.0), [], 1.0, 0.48, solver="bessel").rows == []


def test_sweep_determinism():
    a = run_sweep(Circle(1.0), [0.02, 0.01], 1.0, 0.48, solver="bessel")
    b = run_sweep(Circle(1.0), [0.02, 0.01], 1.0, 0.48, solver="bessel")
    assert a.to_csv() == b.to_csv()


def test_sweep_svg(disk_sweep_report, tmp_path):
    path = tmp_path / "sweep.svg"
    text = sweep_svg(disk_sweep_report, path=str(path))
    assert text.startswith("<svg")
    assert "order 1 error" in text
    assert path.read_text() == text


def test_bessel_sweep_rejects_ellipse():
    from thinspec.geometry import Ellipse

    with pytest.raises(ConfigError):
        run_sweep(Ellipse(1.3, 1.0), [0.02, 0.01], 1.0, 0.48, solver="bessel")


needs_fork = pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                                reason="worker processes are forked only where fork is the default")


def _force_cells(monkeypatch, pooled):
    """Make cell_processes choose two workers (two usable cores, BLAS pinned)
    or one process (two usable cores, BLAS unpinned), on any number of
    cores the suite runs on."""
    for var in report._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(report, "_usable_cores", lambda: 2)
    if pooled:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@needs_fork
@pytest.mark.parametrize("curve", [Circle(1.0), Ellipse(1.3, 1.0)], ids=["circle", "ellipse"])
def test_fem_sweep_pooled_matches_serial(monkeypatch, curve):
    # the ellipse crosses the process boundary with its arclength tables
    sweeps = {}
    for pooled in (False, True):
        _force_cells(monkeypatch, pooled)
        sweeps[pooled] = run_sweep(curve, [0.03, 0.02], 1.0, 0.48,
                                   h_list=[0.08, 0.06], solver="fem")
        assert multiprocessing.active_children() == []
    assert (sweeps[True].processes, sweeps[True].serial_reason) == (2, None)
    assert (sweeps[False].processes, sweeps[False].serial_reason) == \
        (1, "BLAS threads not pinned to 1")
    assert sweeps[True].to_csv() == sweeps[False].to_csv()
    assert sweeps[True].fits_csv() == sweeps[False].fits_csv()
    # what the CSVs leave out crosses the process boundary too
    for sweep in sweeps.values():
        assert sweep.est0 > 0.0
        assert 0.0 < sweep.max_residual <= 1e-12
    assert (sweeps[True].est0, sweeps[True].max_residual) == \
        (sweeps[False].est0, sweeps[False].max_residual)


def _once_per_process(processes):
    """A call that waits on one fork-context barrier of processes parties
    the first time each process makes it: called from a patched _fem_cell,
    every process of a pulled solve then holds a cell before any goes on."""
    barrier = multiprocessing.get_context("fork").Barrier(processes, timeout=30)
    waited = set()

    def wait():
        if os.getpid() not in waited:
            waited.add(os.getpid())
            barrier.wait()
    return wait


@needs_fork
@pytest.mark.parametrize("in_helper", [True, False], ids=["helper", "parent"])
def test_fem_sweep_cell_error_stops_every_process(monkeypatch, in_helper):
    # both processes take a cell; only the chosen side's cells raise.  A
    # helper's typed error crosses back; an error in this process's own
    # cell terminates the helper, which may still be running
    parent, solve, wait = os.getpid(), report._fem_cell, _once_per_process(2)

    def failing(curve, layer, h):
        wait()
        if (os.getpid() != parent) == in_helper:
            raise NoRootFound("no real pencil eigenvalue")
        return solve(curve, layer, h)

    monkeypatch.setattr(report, "_fem_cell", failing)
    _force_cells(monkeypatch, pooled=True)
    with pytest.raises(NoRootFound) as raised:
        run_sweep(Circle(1.0), [0.03, 0.02], 1.0, 0.48, h_list=[0.1, 0.08], solver="fem")
    assert ("raised in a cell helper" in str(raised.value.__cause__)) == in_helper
    assert multiprocessing.active_children() == []


def _alarm(signum, frame):
    raise TimeoutError("the sweep waited for a helper that had exited")


@needs_fork
def test_fem_sweep_helper_exit_raises(monkeypatch):
    # a helper that exits without sending its results is an error, not a wait
    parent, solve, wait = os.getpid(), report._fem_cell, _once_per_process(2)

    def exiting(curve, layer, h):
        wait()
        if os.getpid() != parent:
            os._exit(3)
        return solve(curve, layer, h)

    monkeypatch.setattr(report, "_fem_cell", exiting)
    _force_cells(monkeypatch, pooled=True)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_sweep(Circle(1.0), [0.03, 0.02], 1.0, 0.48, h_list=[0.1, 0.08], solver="fem")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


_CELLS = [(LayerConfig(delta, 1.0, 0.48), h) for delta in (0.04, 0.02, 0.01)
                for h in (0.15, 0.075)]


@needs_fork
@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("with_alongside", [False, True], ids=["bare", "alongside"])
def test_solve_cells_returns_input_order(monkeypatch, processes, with_alongside):
    # a cell names itself and the process that solved it
    wait = _once_per_process(processes)

    def naming(curve, layer, h):
        wait()
        return layer.delta0, h, os.getpid()

    monkeypatch.setattr(report, "_fem_cell", naming)
    alongside = (lambda: "side") if with_alongside else None
    solved, side = report.solve_cells(Circle(1.0), _CELLS, processes, alongside)
    assert [cell[:2] for cell in solved] == [(layer.delta0, h) for layer, h in _CELLS]
    assert len({cell[2] for cell in solved}) == processes
    assert side == ("side" if with_alongside else None)
    assert multiprocessing.active_children() == []


@needs_fork
def test_solve_cells_pulls_finest_first(monkeypatch):
    # this process waits in alongside() until the helper has solved every
    # cell, so the helper's calls come in the order the cells are pulled
    cells = [(LayerConfig(delta, 1.0, 0.48), h) for delta, h in
             ((0.04, 0.15), (0.02, 0.075), (0.04, 0.1), (0.01, 0.075), (0.02, 0.15))]
    calls = multiprocessing.get_context("fork").Queue()

    def recording(curve, layer, h):
        calls.put((layer.delta0, h))
        return layer.delta0, h, os.getpid()

    monkeypatch.setattr(report, "_fem_cell", recording)
    solved, pulled = report.solve_cells(Circle(1.0), cells, 2,
                                        lambda: [calls.get(timeout=30) for _ in cells])
    # finest mesh first, input order among equal sizes
    assert pulled == [(0.02, 0.075), (0.01, 0.075), (0.04, 0.1), (0.04, 0.15), (0.02, 0.15)]
    assert [cell[:2] for cell in solved] == [(layer.delta0, h) for layer, h in cells]
    assert os.getpid() not in {cell[2] for cell in solved}
    assert multiprocessing.active_children() == []


@needs_fork
def test_solve_cells_takes_each_cell_once(monkeypatch):
    # four processes (twice the cores of a 2-core runner) pull from one
    # counter; a lost update of it would hand one cell to two processes
    cells = [(LayerConfig(0.04, 1.0, 0.48), h) for h in (0.15, 0.1, 0.075) * 16]
    calls = multiprocessing.get_context("fork").Value("i", 0)

    def counting(curve, layer, h):
        with calls.get_lock():
            calls.value += 1
        return h, os.getpid()

    monkeypatch.setattr(report, "_fem_cell", counting)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(60)
    try:
        solved, _ = report.solve_cells(Circle(1.0), cells, 4)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert calls.value == len(cells)
    assert [h for h, _ in solved] == [h for _, h in cells]
    assert multiprocessing.active_children() == []


# at h = [0.07, 0.05] three estimates of lambda_eroded's mesh error are
# about 3e-3 of lambda, so a cell 1e-3 above lambda_eroded still passes there
_CORRUPTED_CELLS = [pytest.param(h_list, end, eps,
                                 id=f"h{h_list[0]:g},{h_list[1]:g}-{end}-{eps:g}")
                    for h_list in ([0.07, 0.05], [0.04, 0.02])
                    for end in ("above_lambda_eroded", "below_lambda0")
                    for eps in (1e-3, 1e-2, 1e-1)
                    if (h_list[0], end, eps) != (0.07, "above_lambda_eroded", 1e-3)]


@pytest.mark.parametrize("h_list, end, eps", _CORRUPTED_CELLS)
def test_fem_sweep_row_flags_a_corrupted_cell(monkeypatch, h_list, end, eps):
    """A finest-mesh eigenvalue moved eps relative beyond a corridor end
    fails the row's sandwich test: each end may miss by three estimates of
    its own mesh error, which the moved eigenvalue does not feed."""
    solve = report.first_te

    def corrupted(curve, layer, h):
        te = solve(curve, layer, h)
        if h != h_list[1]:
            return te
        lam = (te.lambda_eroded * (1 + eps) if end == "above_lambda_eroded"
               else te.lambda0 * (1 - eps))
        return dataclasses.replace(te, lam=lam)

    monkeypatch.setattr(report, "first_te", corrupted)
    _force_cells(monkeypatch, pooled=False)
    sweep = run_sweep(Circle(1.0), [0.02], 1.0, 0.48, h_list=h_list, solver="fem")
    assert [row.sandwich_ok for row in sweep.rows] == [False]


@pytest.mark.parametrize("h_list", [[0.1], [0.15, 0.12, 0.1]], ids=["one", "three"])
def test_fem_sweep_takes_exactly_two_mesh_sizes(h_list):
    with pytest.raises(ConfigError, match="exactly two mesh sizes"):
        run_sweep(Circle(1.0), [0.02], 1.0, 0.48, h_list=h_list, solver="fem")


def test_fem_sweep_rejects_two_sizes_of_one_ring_count():
    # 0.15 and 0.149 both give 8 rings on this ellipse: nothing to extrapolate
    with pytest.raises(ConfigError, match="0.15 and 0.149 both give 8 rings") as raised:
        run_sweep(Ellipse(1.3, 1.0), [0.02], 1.0, 0.48, h_list=[0.15, 0.149], solver="fem")
    assert raised.value.field == "mesh.h"


@needs_fork
@pytest.mark.parametrize("geometry", [{"kind": "circle", "radius": 1.0},
                                      {"kind": "ellipse", "a": 1.3, "b": 1.0}],
                         ids=["circle", "ellipse"])
def test_cli_direct_pooled_matches_serial(monkeypatch, tmp_path, geometry):
    cfg = _write_config(tmp_path, geometry=geometry, mesh={"h": [0.08, 0.06]},
                        layer={"delta0": [0.03, 0.02], "n": 0.48})
    used = []
    solve = cli.solve_cells

    def recording(curve, cells, processes, alongside=None):
        used.append(processes)
        return solve(curve, cells, processes, alongside)

    monkeypatch.setattr(cli, "solve_cells", recording)
    out = {}
    for pooled in (False, True):
        _force_cells(monkeypatch, pooled)
        out[pooled] = tmp_path / f"pooled{int(pooled)}"
        assert main(["direct", "--config", cfg, "--out", str(out[pooled])]) == 0
        assert multiprocessing.active_children() == []
    assert used == [1, 2]
    assert (out[True] / "direct.csv").read_bytes() == (out[False] / "direct.csv").read_bytes()


@pytest.mark.parametrize("env, cores, expected", [
    ({}, 2, (1, "BLAS threads not pinned to 1")),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2,
     (1, "BLAS threads not pinned to 1")),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, (1, "one usable core")),
    # OpenBLAS skips a variable that holds no positive count
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4,
     (3, None)),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, (2, None)),
], ids=["unpinned", "openblas-first", "one-core", "omp", "goto"])
def test_cell_process_rule(monkeypatch, env, cores, expected):
    for var in report._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(report, "_usable_cores", lambda: cores)
    if expected[0] > 1 and multiprocessing.get_all_start_methods()[0] != "fork":
        expected = (1, f"start method {multiprocessing.get_all_start_methods()[0]}")
    assert report.cell_processes(3) == expected


def test_fem_sweep_records_fallback_cells(monkeypatch, ellipse_sweep_report):
    # a floor that clears nothing sends every Dirichlet solve down the
    # two-pair route, so every cell and every coefficient mesh falls back
    monkeypatch.setattr(fem, "second_eigenvalue_floor", lambda vertices: 0.0)
    sweep = run_sweep(Circle(1.0), [0.04, 0.02], 1.0, 0.48, h_list=[0.15, 0.1],
                      solver="fem")
    assert sweep.fallbacks == [(delta, h, "ground two-pair, eroded two-pair")
                               for delta in (0.04, 0.02) for h in (0.15, 0.1)] \
        + [(None, h, "two-pair") for h in (0.15, 0.1)]
    assert "two-pair" not in sweep.to_csv() + sweep.fits_csv()
    assert ellipse_sweep_report[0].fallbacks == []


def _float_hex_rows(sweep):
    return [[v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row)]
            for row in sweep.rows]


@pytest.fixture(scope="module")
def callable_g_sweeps():
    """The same finite element sweep with a callable thickness profile, its
    cells split over two processes and forced onto one."""
    sweeps = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for pooled in (False, True):
            _force_cells(monkeypatch, pooled)
            sweeps[pooled] = run_sweep(Circle(1.0), [0.03, 0.02], lambda s: 1.0 + 0.0 * s, 0.48,
                                       h_list=[0.08, 0.06], solver="fem")
            assert multiprocessing.active_children() == []
    return sweeps


def test_sweep_records_why_it_ran_serially(disk_sweep_report, callable_g_sweeps):
    # the semi-analytic leg has no Richardson lambda0 and no pencil residual
    assert (disk_sweep_report.est0, disk_sweep_report.max_residual) == (None, None)
    assert (disk_sweep_report.processes, disk_sweep_report.serial_reason) == \
        (1, "semi-analytic solver")
    # a callable thickness profile splits like a constant one
    method = multiprocessing.get_all_start_methods()[0]
    expected = (2, None) if method == "fork" else (1, f"start method {method}")
    assert (callable_g_sweeps[True].processes, callable_g_sweeps[True].serial_reason) == expected
    assert (callable_g_sweeps[False].processes, callable_g_sweeps[False].serial_reason) == \
        (1, "BLAS threads not pinned to 1")


@needs_fork
def test_fem_sweep_with_callable_g_split_matches_one_process(callable_g_sweeps):
    """A helper forks with its cells in memory and sends back numbers, so a
    callable g splits, and every row keeps its bits."""
    assert callable_g_sweeps[True].processes == 2
    assert _float_hex_rows(callable_g_sweeps[True]) == _float_hex_rows(callable_g_sweeps[False])


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _write_config(tmp_path, **overrides):
    cfg = {
        "schema": "thinspec/1",
        "geometry": {"kind": "circle", "radius": 1.0},
        "layer": {"delta0": [0.04, 0.02, 0.01, 0.005],
                  "g": {"kind": "const", "value": 1.0}, "n": 0.48},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_sweep_ok(tmp_path):
    cfg = _write_config(tmp_path, require={"slope1_min": 1.9, "slope2_min": 2.7})
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "sweep_fits.csv").exists()
    assert (tmp_path / "sweep.svg").exists()


def test_cli_sweep_determinism(tmp_path):
    cfg = _write_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_cli_unmet_requirement(tmp_path):
    cfg = _write_config(tmp_path, require={"slope2_min": 5.0})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_cli_empty_delta_list(tmp_path):
    cfg = _write_config(tmp_path, layer={"delta0": [], "n": 0.48})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_cli_unknown_key(tmp_path):
    cfg = _write_config(tmp_path, typo_key=1)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_cli_bad_schema(tmp_path):
    cfg = _write_config(tmp_path, schema="thinspec/99")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_cli_increasing_deltas(tmp_path):
    cfg = _write_config(tmp_path, layer={"delta0": [0.01, 0.02], "n": 0.48})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3


_LAYER = {"delta0": [0.02, 0.01], "n": 0.48}


@pytest.mark.parametrize("field, overrides", [
    ("layer.delta0", {"layer": {"delta0": ["0.02", 0.01], "n": 0.48}}),
    ("mesh.h", {"mesh": {"h": [None]}}),
    ("layer.g.value", {"layer": dict(_LAYER, g={"kind": "const", "value": "a"})}),
    ("require.slope1_min", {"require": {"slope1_min": "x"}}),
    ("layer.n", {"layer": {"delta0": [0.02, 0.01], "n": "0.48"}}),
    ("solver", {"solver": None}),
    ("geometry.radius", {"geometry": {"kind": "circle", "radius": "1"}}),
    ("geometry.a", {"geometry": {"kind": "ellipse", "a": "1.3", "b": 1.0}}),
    ("geometry.modes", {"geometry": {"kind": "fourier", "modes": 0.1}}),
    ("geometry.kind", {"geometry": {"kind": ["circle"], "radius": 1.0}}),
    ("output", {"output": 5}),
])
def test_cli_malformed_value_is_config_error(tmp_path, capsys, field, overrides):
    cfg = _write_config(tmp_path, **overrides)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert f"[{field}]" in capsys.readouterr().err


def test_cli_task_mismatch(tmp_path):
    cfg = _write_config(tmp_path, task="coeffs")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_cli_disk_oracle(tmp_path, goldens):
    cfg = _write_config(tmp_path)
    assert main(["disk-oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "disk_oracle.csv").read_text().splitlines()
    assert lines[0] == "lambda0,lambda1,lambda2,flux0,flux1"
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[0] == pytest.approx(goldens["lambda0"], rel=1e-12)
    assert vals[1] == pytest.approx(goldens["lambda1"], rel=1e-12)
    assert vals[2] == pytest.approx(goldens["lambda2"], rel=1e-13)
    assert vals[4] == pytest.approx(goldens["flux1"], rel=1e-13)


def test_cli_coeffs_task(tmp_path):
    cfg = _write_config(tmp_path, mesh={"h": [0.08, 0.05]},
                        layer={"delta0": [0.01], "n": 0.48})
    assert main(["coeffs", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "coefficients.csv").read_text().splitlines()
    assert lines[0] == "h,lambda0,lambda1,lambda2,multiplier"
    assert len(lines) == 4  # two mesh sizes + extrapolated row
    records = [p for p in os.listdir(tmp_path) if p.startswith("coefficients_")]
    assert len(records) == 2


def test_cli_direct_task(tmp_path):
    cfg = _write_config(tmp_path, mesh={"h": [0.07]},
                        layer={"delta0": [0.02], "n": 0.48})
    assert main(["direct", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "direct.csv").read_text().splitlines()
    assert lines[0] == "delta,h,lambda_direct,lambda0,lambda_dirichlet_eroded,residual"
    assert len(lines) == 2
    assert 0.0 <= float(lines[1].split(",")[-1]) <= 1e-10


@pytest.mark.parametrize("task", ["sweep", "direct"])
def test_cli_prints_one_line_per_fallback_cell(monkeypatch, tmp_path, capsys, task):
    cfg = _write_config(tmp_path, mesh={"h": [0.15, 0.1]}, solver="fem",
                        layer={"delta0": [0.04, 0.02], "n": 0.48})
    monkeypatch.setattr(fem, "second_eigenvalue_floor", lambda vertices: 0.0)
    main([task, "--config", cfg, "--out", str(tmp_path)])
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "fell back" in ln]
    coefficients = [f"sweep: coefficients h {h:g} fell back: two-pair" for h in (0.15, 0.1)]
    assert lines == [f"{task}: cell delta {delta:g} h {h:g} fell back: "
                     "ground two-pair, eroded two-pair"
                     for delta in (0.04, 0.02) for h in (0.15, 0.1)] \
        + (coefficients if task == "sweep" else [])


_TWO_PAIR_LINES = {
    "validate": [f"validate: cell delta 0.02 h {h:g} fell back: ground two-pair, eroded two-pair"
                 for h in (0.09, 0.06)],
    "coeffs": [f"coeffs: coefficients h {h:g} fell back: two-pair" for h in (0.09, 0.06)],
    "sweep": [f"sweep: cell delta 0.02 h {h:g} fell back: ground two-pair, eroded two-pair"
              for h in (0.09, 0.06)]
             + [f"sweep: coefficients h {h:g} fell back: two-pair" for h in (0.09, 0.06)],
}


@pytest.mark.parametrize("task", sorted(_TWO_PAIR_LINES))
def test_cli_prints_two_pair_fallbacks(tmp_path, capsys, monkeypatch, task):
    """With a floor that clears nothing, every ground state and eroded
    eigensolve falls back to two pairs, and each task says so."""
    monkeypatch.setattr(fem, "second_eigenvalue_floor", lambda vertices: 0.0)
    cfg = _write_config(tmp_path, mesh={"h": [0.09, 0.06]}, solver="fem",
                        layer={"delta0": [0.02], "n": 0.48})
    main([task, "--config", cfg, "--out", str(tmp_path)])
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "fell back" in ln]
    assert lines == _TWO_PAIR_LINES[task]


@pytest.mark.parametrize("task", ["direct", "sweep"])
def test_cli_prints_the_pivoted_pencil_fallback(tmp_path, capsys, monkeypatch, task):
    """With a backward-error guard of 0 every cell factors its pencil again
    with partial pivoting, and the task says so for each cell."""
    monkeypatch.setattr(transmission, "_BACKWARD_TOL", 0.0)
    cfg = _write_config(tmp_path, mesh={"h": [0.09, 0.06]}, solver="fem",
                        layer={"delta0": [0.02], "n": 0.48})
    assert main([task, "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "fell back" in ln]
    assert lines == [f"{task}: cell delta 0.02 h {h:g} fell back: pivoted pencil"
                     for h in (0.09, 0.06)]


def test_cli_direct_rejects_scan_block(tmp_path):
    cfg = _write_config(tmp_path, mesh={"h": [0.07]},
                        layer={"delta0": [0.02], "n": 0.48}, scan={"steps": 64})
    assert main(["direct", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "direct.csv").exists()


def test_cli_rejects_tolerances_block(tmp_path, capsys):
    # the corridor slack and the sandwich factor are fixed constants, so a
    # tolerances block is an unknown key
    cfg = _write_config(tmp_path, tolerances={"upper_slack": 5e-3})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "unknown keys ['tolerances']" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_validate_task(tmp_path):
    cfg = _write_config(tmp_path, mesh={"h": [0.07, 0.05]},
                        layer={"delta0": [0.02], "n": 0.48})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "validate.csv").read_text().splitlines()
    assert lines[0] == "check,delta,value,ok"
    assert all(ln.endswith(",1") for ln in lines[1:])


def test_cli_validate_extrapolates_over_ring_spacing(tmp_path):
    # h = 0.09 and 0.06 build 12 and 17 rings on the unit disk, not 1.5 apart
    cfg = _write_config(tmp_path, mesh={"h": [0.09, 0.06]},
                        layer={"delta0": [0.02], "n": 0.48})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    row = (tmp_path / "validate.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "cross_validation"
    layer = LayerConfig(0.02, 1.0, 0.48)
    te_coarse, te_fine = (first_te(Circle(1.0), layer, h) for h in (0.09, 0.06))
    assert (te_coarse.mesh.n_rings, te_fine.mesh.n_rings) == (12, 17)
    lam_fem = richardson(te_coarse.lam, te_fine.lam, 17 / 12)[0]
    oracle = bessel.disk_first_tes(1.0, [0.02], 0.48)[0]
    assert float(row[2]) == abs(lam_fem - oracle)


@pytest.mark.parametrize("eps", [1e-3, 1e-2, 1e-1])
@pytest.mark.parametrize("end", ["above_lambda_eroded", "below_lambda0"])
def test_cli_validate_flags_a_lambda_outside_the_corridor(tmp_path, monkeypatch, end, eps):
    """A finest-mesh eigenvalue moved eps relative beyond a corridor end lies
    outside three Richardson error estimates of that end, which the moved
    eigenvalue does not feed."""
    finest = 0.02

    def corrupted(curve, layer, h):
        te = first_te(curve, layer, h)
        if h != finest:
            return te
        lam = (te.lambda_eroded * (1 + eps) if end == "above_lambda_eroded"
               else te.lambda0 * (1 - eps))
        return dataclasses.replace(te, lam=lam)

    monkeypatch.setattr(cli, "first_te", corrupted)
    cfg = _write_config(tmp_path, mesh={"h": [0.04, finest]},
                        layer={"delta0": [0.02], "n": 0.48})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    rows = [line.split(",") for line in (tmp_path / "validate.csv").read_text().splitlines()]
    assert [row[3] for row in rows if row[0] == "sandwich"] == ["0"]


def test_cli_validate_cross_validation_flags_a_corrupted_lambda(tmp_path, monkeypatch):
    """A finest lambda 1 % high puts the extrapolated lambda 0.12 off the
    oracle.  The check allows three estimates of lambda_eroded's mesh error
    (0.018 here), which the corrupted lambda does not feed; its own
    Richardson estimate would have allowed 0.17."""
    def corrupted(curve, layer, h):
        te = first_te(curve, layer, h)
        return dataclasses.replace(te, lam=1.01 * te.lam) if h == 0.05 else te

    monkeypatch.setattr(cli, "first_te", corrupted)
    cfg = _write_config(tmp_path, mesh={"h": [0.07, 0.05]},
                        layer={"delta0": [0.02], "n": 0.48})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 2
    rows = [line.split(",") for line in (tmp_path / "validate.csv").read_text().splitlines()]
    assert [row[3] for row in rows if row[0] == "cross_validation"] == ["0"]


@pytest.mark.parametrize("task", ["sweep", "validate"])
def test_cli_two_mesh_tasks_reject_three_sizes(tmp_path, capsys, task):
    cfg = _write_config(tmp_path, mesh={"h": [0.15, 0.12, 0.1]}, solver="fem",
                        layer={"delta0": [0.02], "n": 0.48})
    assert main([task, "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "exactly two mesh sizes" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("task, geometry, rings", [
    ("sweep", {"kind": "ellipse", "a": 1.3, "b": 1.0}, 8),
    ("coeffs", {"kind": "ellipse", "a": 1.3, "b": 1.0}, 8),
    ("validate", {"kind": "circle", "radius": 1.0}, 7),
])
def test_cli_rejects_two_sizes_of_one_ring_count(tmp_path, capsys, task, geometry, rings):
    # a config error before any cell is solved, so no file is written
    cfg = _write_config(tmp_path, geometry=geometry, mesh={"h": [0.15, 0.149]},
                        layer={"delta0": [0.02], "n": 0.48})
    out = tmp_path / "out"
    assert main([task, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error [mesh.h]: ")
    assert f"0.15 and 0.149 both give {rings} rings" in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("task, csv, rows", [("coeffs", "coefficients.csv", 4),
                                             ("direct", "direct.csv", 3)])
def test_cli_coeffs_and_direct_take_three_sizes(tmp_path, task, csv, rows):
    # coeffs adds the extrapolated row of its two finest meshes
    cfg = _write_config(tmp_path, mesh={"h": [0.15, 0.12, 0.1]},
                        layer={"delta0": [0.02], "n": 0.48})
    assert main([task, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len((tmp_path / csv).read_text().splitlines()) == 1 + rows


@pytest.mark.parametrize("geometry, references", [
    ({"kind": "circle", "radius": 1.0}, [1.0, 2.0, 3.0]),
    ({"kind": "ellipse", "a": 1.3, "b": 1.0}, [None]),
], ids=["circle", "ellipse"])
def test_cli_coeffs_extrapolates_over_ring_spacing(tmp_path, geometry, references):
    # h = 0.02 and 0.01 build 52 and 105 rings on the unit disk and 60 and
    # 121 on the ellipse, so extrapolating with the nominal ratio 2 leaves a
    # bias far above the O(h^4) remainder.  The references are the disk
    # closed forms j01^2, 2 j01^2, 3 j01^2 and the Mathieu value of the
    # ellipse's lambda0; extrapolating over the ring spacing must bring each
    # at least 10x closer than the nominal ratio does
    j01_sq = bessel.bessel_j_zero(0, 1) ** 2
    exact = [4.593976334146151 if r is None else r * j01_sq for r in references]
    cfg = _write_config(tmp_path, geometry=geometry, mesh={"h": [0.02, 0.01]},
                        layer={"delta0": [0.01], "n": 0.48})
    assert main(["coeffs", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in (tmp_path / "coefficients.csv").read_text().splitlines()[1:]]
    (_, *coarse), (_, *fine), (_, *extrap) = rows
    for value, c, f, ref in zip(extrap, coarse, fine, exact):
        nominal = richardson(c, f, 2.0)[0]
        assert abs(value - ref) <= 2.5e-7 * ref
        assert 10.0 * abs(value - ref) <= abs(nominal - ref)


def test_validate_identity_bound_can_fail(disk_te):
    # the identity holds to rounding for the computed pair, and a relative
    # eigenvalue error of 1e-6 breaks it by far more than validate allows
    assert rayleigh_identity_residual(disk_te.lam, disk_te.v, disk_te.w, 0.48,
                                      disk_te.mesh, disk_te.K, disk_te.M) <= _IDENTITY_TOL
    assert rayleigh_identity_residual(disk_te.lam * (1 + 1e-6), disk_te.v, disk_te.w, 0.48,
                                      disk_te.mesh, disk_te.K, disk_te.M) > _IDENTITY_TOL
