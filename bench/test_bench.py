"""Self-tests of the benchmark: its checks must reject wrong results, and its
tracer must survive functions that a later change deletes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

The package's own test run does not collect this file (testpaths = tests).
The fixtures run one real round of each workload (about 30 s in all) and
the tests corrupt copies of those outputs.
"""

import copy
import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import identity
from scipy.sparse.linalg import splu

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from thinspec.fem import FemField  # noqa: E402


def _real_round(name):
    wl = workloads.WORKLOADS[name]
    inp = wl.inputs(0)
    return wl, inp, wl.references(inp), [thunk() for _, thunk in wl.calls(inp)]


@pytest.fixture(scope="module")
def disk():
    return _real_round("disk_sweep")


@pytest.fixture(scope="module")
def expansion():
    return _real_round("expansion_fine")


@pytest.fixture(scope="module")
def ellipse():
    return _real_round("ellipse_sweep")


def failed_ops(case, results):
    wl, inp, refs, _ = case
    return [i for i, ok in enumerate(wl.check(inp, results, refs)) if not ok]


def test_real_outputs_pass(disk, expansion, ellipse):
    for case in (disk, expansion, ellipse):
        assert failed_ops(case, case[3]) == []


# disk_sweep: 3 sweeps (n = 0.2, 0.48, 0.8) of 4 rows each

def test_disk_lambda_off_by_1e8_fails_its_row(disk):
    bad = copy.deepcopy(disk[3])
    bad[1].rows[2].lambda_direct *= 1.0 + 1e-8
    assert failed_ops(disk, bad) == [6]


def test_disk_lambda2_off_fails_its_sweep(disk):
    bad = copy.deepcopy(disk[3])
    bad[0].lambda2 *= 1.0 + 1e-7
    assert failed_ops(disk, bad) == [0, 1, 2, 3]


def test_disk_order2_slope_checked_at_middle_index_only(disk):
    bad = copy.deepcopy(disk[3])
    for sweep in (bad[0], bad[1]):
        sweep.fits[2] = dataclasses.replace(sweep.fits[2], slope=2.6)
    assert failed_ops(disk, bad) == [4, 5, 6, 7]


def test_disk_raising_call_fails_its_operations(disk):
    bad = list(disk[3])
    bad[2] = None
    assert failed_ops(disk, bad) == [8, 9, 10, 11]


# expansion_fine: circle at 3 mesh sizes, then ellipse at 3 mesh sizes

def test_expansion_ellipse_lambda0_shift_fails(expansion):
    bad = list(expansion[3])
    bad[5] = dataclasses.replace(bad[5], lambda0=bad[5].lambda0 + 1e-3)
    assert failed_ops(expansion, bad) == [3, 4, 5]


def test_expansion_disk_lambda2_off_fails(expansion):
    bad = list(expansion[3])
    bad[0] = dataclasses.replace(bad[0], lambda2=bad[0].lambda2 * 1.03)
    assert failed_ops(expansion, bad) == [0]


def test_expansion_disk_order_in_h_checked(expansion):
    lam0 = expansion[2]["j01"] ** 2
    bad = list(expansion[3])
    bad[0] = dataclasses.replace(bad[0], lambda0=lam0 + 2.0 * (bad[0].lambda0 - lam0))
    assert failed_ops(expansion, bad) == [0, 1, 2]


def test_expansion_multiplier_and_orthogonality_checked(expansion):
    bad = list(expansion[3])
    bad[1] = dataclasses.replace(bad[1], multiplier=1e-3)
    co = bad[4]
    bad[4] = dataclasses.replace(co, v1=FemField(co.mesh, co.v1.values + 1e-6 * co.v0.values))
    # the group checks (order in h, Richardson) need every call of the group
    assert failed_ops(expansion, bad) == [1, 4]


# ellipse_sweep: one sweep of 3 rows

def test_ellipse_lambda0_off_fails_every_row(ellipse):
    bad = copy.deepcopy(ellipse[3])
    est = min(r.mesh_est for r in bad[0].rows)
    bad[0].lambda0 += 3.5 * est
    assert failed_ops(ellipse, bad) == [0, 1, 2]


def test_ellipse_row_checks(ellipse):
    bad = copy.deepcopy(ellipse[3])
    bad[0].rows[0].sandwich_ok = False
    bad[0].rows[2].err2 = bad[0].rows[2].err1
    assert failed_ops(ellipse, bad) == [0, 2]


def test_ellipse_order1_slope_checked(ellipse):
    bad = copy.deepcopy(ellipse[3])
    bad[0].fits[1] = dataclasses.replace(bad[0].fits[1], slope=1.6)
    assert failed_ops(ellipse, bad) == [0, 1, 2]


def _raise():
    raise RuntimeError("solver failed")


def test_run_round_counts_raising_calls_and_reports_plain_ints():
    wl = workloads.Workload(
        inputs=None, references=None,
        calls=lambda inp: [(2, lambda: 1.0), (1, _raise)],
        check=lambda inp, res, refs: [np.bool_(True), np.float64(res[0]) == 1.0,
                                      res[1] is not None])
    loops = []
    wall, attempted, failed = run.run_round(wl, {}, {}, loops)
    assert (attempted, failed) == (3, 1) and len(wall) == 2 and min(wall) >= 0.0
    assert len(loops) == 2 * run.LOOP_SAMPLES and min(loops) > 0.0
    assert json.loads(json.dumps({"attempted": attempted, "failed": failed})) == {
        "attempted": 3, "failed": 1}


def test_round_time_sums_fastest_calls_after_warm_up():
    assert run.round_time([[9.0, 9.0], [1.0, 3.0], [2.0, 2.0]]) == 3.0
    assert run.round_time([[4.0, 5.0]]) == 9.0
    loops = [[9.0] * 10, [1.0] * 9 + [5.0], [1.0] * 10]
    assert run.loop_quartile(loops) == 1.0


# seeds

def test_seed_zero_is_nominal_and_seeds_repeat():
    inp = workloads.WORKLOADS["disk_sweep"].inputs(0)
    assert inp["ns"] == [0.2, 0.48, 0.8] and inp["deltas"] == [0.04, 0.02, 0.01, 0.005]
    assert workloads.draw(7) == workloads.draw(7) != workloads.draw(8)
    shift, scale = workloads.draw(123)
    assert abs(shift) <= 0.04 and 0.9 <= scale <= 1.1


# tracer

def _fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.layer")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.02)\n"
        "def leaf():\n    return 1\n"
        "def outer():\n    time.sleep(0.01)\n    inner()\n    return leaf() + leaf()\n"
        "def factor(a):\n    lu = splu(a)\n    lu.solve(a.diagonal())\n    return lu\n",
        mod.__dict__,
    )
    mod.splu = splu
    pkg.outer = mod.outer  # a re-export, as thinspec/__init__ does
    return {"fakepkg": pkg, "fakepkg.layer": mod}


def test_tracer_self_time_counts_and_restore(monkeypatch):
    mods = _fake_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    layer = mods["fakepkg.layer"]
    original = layer.outer
    tr = tracer.Tracer(spans={("layer", "outer"): "l.outer", ("layer", "inner"): "l.inner",
                              ("layer", "deleted_function"): "l.gone"},
                       counts={("layer", "leaf"): "l.leaf"}, package="fakepkg")
    tr.install()
    try:
        assert mods["fakepkg"].outer() == 2
        layer.factor(identity(4, format="csc"))
    finally:
        tr.uninstall()
    assert layer.outer is original and layer.splu is splu
    s = tr.summary()
    assert s["l.outer"]["calls"] == 1 and s["l.inner"]["calls"] == 1 and "l.gone" not in s
    assert s["l.outer"]["self_s"] == pytest.approx(
        s["l.outer"]["total_s"] - s["l.inner"]["total_s"])
    assert 0.005 < s["l.outer"]["self_s"] < s["l.inner"]["self_s"]
    assert tr.counts["l.leaf"] == 2
    assert tr.counts["layer.factorizations"] == 1 and tr.counts["layer.lu_solves"] == 1


def test_layer_metrics_tolerate_missing_functions():
    tr = tracer.Tracer(spans={("transmission", "no_such_function"): "transmission.scan"},
                       counts={("bessel", "no_such_series"): "bessel.series_calls"})
    tr.install()
    tr.uninstall()
    metrics = tracer.layer_metrics(tr)
    assert metrics["transmission.scan_s"] == (0, "s")
    assert metrics["bessel.det_evals_per_solve"] == (0.0, "ratio")
    assert all(np.isfinite(v) for v, _ in metrics.values())
