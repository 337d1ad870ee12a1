"""The benchmark workloads: inputs drawn from a seed, one round of calls into
thinspec, and the checks that judge every operation of the round.

A round is a fixed list of calls; each call carries a known number of
operations (a sweep row or one compute_coefficients call). A call that
raises fails all of its operations, and an operation whose output misses a
check fails too, so every round attempts the same operations whatever the
seed.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from thinspec import asymptotics, report
from thinspec.geometry import Circle, Ellipse, LayerConfig

import references

ELLIPSE_AXES = (1.3, 1.0)
SWEEP_DELTAS = (0.04, 0.02, 0.01)
SWEEP_H = (0.15, 0.075)
EXPANSION_DELTA = 0.02
EXPANSION_H = (0.04, 0.02, 0.01)
DISK_DELTAS = (0.04, 0.02, 0.01, 0.005)
DISK_NS = (0.2, 0.48, 0.8)
N_NOMINAL = 0.48


def draw(seed):
    """(index shift, thickness scale) of a seed; seed 0 gives the nominal
    inputs. The ranges keep every check of every workload satisfied."""
    if seed == 0:
        return 0.0, 1.0
    rng = np.random.default_rng(seed)
    return float(rng.uniform(-0.04, 0.04)), float(rng.uniform(0.9, 1.1))


@dataclass
class Workload:
    inputs: Callable      # seed -> dict of program inputs
    calls: Callable       # inputs -> [(operations, thunk)]
    references: Callable  # inputs -> dict of independent reference values
    check: Callable       # (inputs, results, refs) -> [bool] per operation


# ---------------------------------------------------------------------------
# ellipse_sweep: the FEM sweep users run on general geometry
# ---------------------------------------------------------------------------

def _ellipse_inputs(seed):
    shift, scale = draw(seed)
    return {"curve": Ellipse(*ELLIPSE_AXES), "n": N_NOMINAL + shift,
            "deltas": [scale * d for d in SWEEP_DELTAS], "h_list": list(SWEEP_H)}


def _ellipse_calls(inp):
    def sweep():
        return report.run_sweep(inp["curve"], inp["deltas"], 1.0, inp["n"],
                                h_list=inp["h_list"], solver="fem")
    return [(len(inp["deltas"]), sweep)]


def _ellipse_refs(inp):
    return {"lambda0": references.ellipse_lambda0(*ELLIPSE_AXES)}


def _ellipse_check(inp, results, refs):
    sweep = results[0]
    ops = len(inp["deltas"])
    if sweep is None or [r.delta for r in sweep.rows] != inp["deltas"]:
        return [False] * ops
    est = min(r.mesh_est for r in sweep.rows)
    fit1 = sweep.fits.get(1)
    sweep_ok = (fit1 is not None and fit1.n_used >= 3 and fit1.slope >= 1.7
                and abs(sweep.lambda0 - refs["lambda0"]) <= 3.0 * est)
    return [sweep_ok and r.sandwich_ok and r.err2 < r.err1 for r in sweep.rows]


# ---------------------------------------------------------------------------
# expansion_fine: the coefficient pipeline on fine meshes
# ---------------------------------------------------------------------------

def _expansion_inputs(seed):
    shift, scale = draw(seed)
    layer = LayerConfig(scale * EXPANSION_DELTA, 1.0, N_NOMINAL + shift)
    return {"curves": [Circle(1.0), Ellipse(*ELLIPSE_AXES)], "layer": layer,
            "h_list": list(EXPANSION_H)}


def _expansion_calls(inp):
    return [(1, lambda c=c, h=h: asymptotics.compute_coefficients(c, inp["layer"], h))
            for c in inp["curves"] for h in inp["h_list"]]


def _expansion_refs(inp):
    return {"j01": references.j01(),
            "ellipse_lambda0": references.ellipse_lambda0(*ELLIPSE_AXES)}


def _pipeline_ok(co):
    """v1 is M-orthogonal to v0 and the solvability multiplier vanishes."""
    M = co.M.tocsr()
    v0, v1 = co.v0.values, co.v1.values
    v1_norm = math.sqrt(float(v1 @ (M @ v1)))
    return (abs(float(v1 @ (M @ v0))) <= 1e-8 * v1_norm
            and abs(co.multiplier) <= 1e-6 * abs(co.lambda1))


def _expansion_check(inp, results, refs):
    hs = inp["h_list"]
    nh = len(hs)
    disk, ellipse = results[:nh], results[nh:]
    lam0 = refs["j01"] ** 2
    ok = [co is not None and _pipeline_ok(co) for co in results]
    # disk: closed forms j01^2, 2 j01^2, 3 j01^2 and second order in h
    for i, co in enumerate(disk):
        ok[i] = ok[i] and (abs(co.lambda0 / lam0 - 1.0) <= 0.005
                           and abs(co.lambda1 / (2.0 * lam0) - 1.0) <= 0.01
                           and abs(co.lambda2 / (3.0 * lam0) - 1.0) <= 0.02)
    if all(ok[:nh]):
        errs = [abs(co.lambda0 - lam0) for co in disk]
        order_ok = (all(e > 0 for e in errs)
                    and abs(float(np.polyfit(np.log(hs), np.log(errs), 1)[0]) - 2.0) <= 0.3)
        ok[:nh] = [order_ok] * nh
    # ellipse: Richardson lambda0 of the two finest meshes against Mathieu
    if all(ok[nh:]):
        coarse, fine = ellipse[-2].lambda0, ellipse[-1].lambda0
        extrap = fine + (fine - coarse) / ((hs[-2] / hs[-1]) ** 2 - 1.0)
        est = abs(extrap - fine)
        ok[nh:] = [abs(extrap - refs["ellipse_lambda0"]) <= 3.0 * est] * nh
    return ok


# ---------------------------------------------------------------------------
# disk_sweep: the semi-analytic leg, no FEM
# ---------------------------------------------------------------------------

def _disk_inputs(seed):
    shift, scale = draw(seed)
    return {"curve": Circle(1.0), "ns": [n + shift for n in DISK_NS],
            "deltas": [scale * d for d in DISK_DELTAS]}


def _disk_calls(inp):
    return [(len(inp["deltas"]),
             lambda n=n: report.run_sweep(inp["curve"], inp["deltas"], 1.0, n, solver="bessel"))
            for n in inp["ns"]]


def _disk_refs(inp):
    return {"j01": references.j01(),
            "roots": [[references.coated_disk_first_te(1.0, d, n) for d in inp["deltas"]]
                      for n in inp["ns"]]}


def _disk_check(inp, results, refs):
    lam0 = refs["j01"] ** 2
    ok = []
    for i, sweep in enumerate(results):
        ops = len(inp["deltas"])
        if sweep is None or [r.delta for r in sweep.rows] != inp["deltas"]:
            ok += [False] * ops
            continue
        slopes = [f.slope if f is not None else -math.inf
                  for f in (sweep.fits.get(k) for k in (0, 1, 2))]
        # order 2 is checked at the middle index only: at n = 0.2 the
        # third-order term still bends the fit (slope 2.695)
        sweep_ok = (slopes[0] >= 0.9 and slopes[1] >= 1.9
                    and (i != len(results) // 2 or slopes[2] >= 2.7)
                    and abs(sweep.lambda2 / (3.0 * lam0) - 1.0) <= 1e-8)
        for row, ref in zip(sweep.rows, refs["roots"][i]):
            ok.append(sweep_ok
                      and abs(row.lambda_direct / ref - 1.0) <= 1e-10
                      and lam0 <= row.lambda_direct <= lam0 / (1.0 - row.delta) ** 2)
    return ok


WORKLOADS = {
    "ellipse_sweep": Workload(_ellipse_inputs, _ellipse_calls, _ellipse_refs, _ellipse_check),
    "expansion_fine": Workload(_expansion_inputs, _expansion_calls, _expansion_refs,
                               _expansion_check),
    "disk_sweep": Workload(_disk_inputs, _disk_calls, _disk_refs, _disk_check),
}
