"""Batch front door: `thinspec <task> --config <file> [--out <dir>]`.

Tasks: coeffs (expansion coefficients per mesh size), direct (coupled-pencil
eigenvalues per thickness and mesh size, with the backward error of each
eigenpair), sweep (thickness sweep with order fits, CSV + SVG), disk-oracle
(semi-analytic disk coefficients), validate (disk cross-checks between the
two solver legs).  Exit codes: 0 success, 1 solver error, 2 validation
failure, 3 configuration error.
"""

import argparse
import json
import os
import sys

from . import bessel
from .asymptotics import compute_coefficients, format_coefficients
from .errors import ConfigError, ThinspecError
from .geometry import Circle, LayerConfig, config_number, curve_from_config
from .report import (cell_processes, check_ring_counts, extrapolate_coefficients,
                     fallback_cells, in_corridor, richardson, run_sweep, solve_cells, sweep_svg,
                     write_atomic)
from .transmission import first_te, rayleigh_identity_residual

_SCHEMA = "thinspec/1"
# discrete eigenpairs satisfy the energy identity exactly, so validate allows
# its relative defect rounding error only
_IDENTITY_TOL = 1e-10

_TOP_KEYS = {"schema", "task", "geometry", "layer", "mesh", "solver", "output", "require"}
_LAYER_KEYS = {"delta0", "g", "n"}
_MESH_KEYS = {"h"}
_REQUIRE_KEYS = {"slope0_min", "slope1_min", "slope2_min"}


def _fail(msg, fieldname=None):
    raise ConfigError(msg, field=fieldname)


def _check_keys(block, allowed, where):
    if not isinstance(block, dict):
        _fail(f"{where} must be an object", where)
    extra = set(block) - allowed
    if extra:
        _fail(f"unknown keys {sorted(extra)} in {where}", where)


def load_config(path, task):
    """Parse and validate a run configuration file for a task."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        _fail(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        _fail(f"config is not valid JSON: {exc}")
    _check_keys(raw, _TOP_KEYS, "config")
    if raw.get("schema") != _SCHEMA:
        _fail(f"schema must be {_SCHEMA!r}, got {raw.get('schema')!r}", "schema")
    if "task" in raw and raw["task"] != task:
        _fail(f"config task {raw['task']!r} does not match requested {task!r}", "task")
    if "geometry" not in raw:
        _fail("missing geometry block", "geometry")
    curve = curve_from_config(raw["geometry"])

    cfg = {"curve": curve, "task": task, "output": raw.get("output", ".")}
    if not isinstance(cfg["output"], str):
        _fail("output must be a directory path", "output")

    layer_block = raw.get("layer")
    if task in ("sweep", "direct", "validate"):
        if layer_block is None:
            _fail("missing layer block", "layer")
    if layer_block is not None:
        _check_keys(layer_block, _LAYER_KEYS, "layer")
        deltas = layer_block.get("delta0")
        if not isinstance(deltas, list) or not deltas:
            _fail("layer.delta0 must be a non-empty list", "layer.delta0")
        if any(config_number(d, "layer.delta0") <= 0 for d in deltas):
            _fail("layer.delta0 values must be positive", "layer.delta0")
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            _fail("layer.delta0 values must be strictly decreasing", "layer.delta0")
        g_spec = layer_block.get("g", {"kind": "const", "value": 1.0})
        _check_keys(g_spec, {"kind", "value"}, "layer.g")
        if g_spec.get("kind") != "const":
            _fail("only constant thickness profiles are expressible in config", "layer.g")
        g_value = config_number(g_spec.get("value", 1.0), "layer.g.value")
        if g_value <= 0:
            _fail("layer.g value must be positive", "layer.g")
        n = layer_block.get("n")
        if not isinstance(n, (int, float)) or not (0.0 < float(n) < 1.0):
            _fail("layer.n must be a number in (0, 1)", "layer.n")
        cfg.update(deltas=[float(d) for d in deltas], g=g_value, n=float(n))

    mesh_block = raw.get("mesh")
    if mesh_block is not None:
        _check_keys(mesh_block, _MESH_KEYS, "mesh")
        hs = mesh_block.get("h")
        if not isinstance(hs, list) or not hs or any(config_number(h, "mesh.h") <= 0 for h in hs):
            _fail("mesh.h must be a non-empty list of positive sizes", "mesh.h")
        if any(b >= a for a, b in zip(hs, hs[1:])):
            _fail("mesh.h values must be strictly decreasing", "mesh.h")
        cfg["h_list"] = [float(h) for h in hs]
    elif task in ("coeffs", "direct", "validate"):
        _fail("missing mesh block", "mesh")

    cfg["solver"] = raw.get("solver", "auto")
    if cfg["solver"] not in ("auto", "bessel", "fem"):
        _fail("solver must be auto, bessel or fem", "solver")

    require = raw.get("require", {})
    _check_keys(require, _REQUIRE_KEYS, "require")
    cfg["require"] = {k: config_number(v, f"require.{k}") for k, v in require.items()}
    return cfg


def _task_disk_oracle(cfg, outdir):
    curve = cfg["curve"]
    if not isinstance(curve, Circle):
        _fail("disk-oracle requires circle geometry", "geometry.kind")
    c = bessel.disk_asymptotic_coeffs(curve.radius)
    lines = ["lambda0,lambda1,lambda2,flux0,flux1"]
    lines.append(",".join(f"{v:.17g}" for v in
                          (c.lambda0, c.lambda1, c.lambda2, c.flux0, c.flux1)))
    write_atomic(os.path.join(outdir, "disk_oracle.csv"), "\n".join(lines) + "\n")
    return 0


def _task_coeffs(cfg, outdir):
    curve = cfg["curve"]
    layer = LayerConfig(cfg["deltas"][0], cfg["g"], cfg["n"]) if "deltas" in cfg \
        else LayerConfig(0.01, 1.0, 0.5)
    if len(cfg["h_list"]) >= 2:
        check_ring_counts(curve, *cfg["h_list"][-2:])
    lines = ["h,lambda0,lambda1,lambda2,multiplier"]
    computed = []
    for h in cfg["h_list"]:
        co = compute_coefficients(curve, layer, h)
        computed.append(co)
        lines.append(",".join(f"{v:.17g}" for v in
                              (h, *co.lambdas, co.multiplier)))
        write_atomic(os.path.join(outdir, f"coefficients_{co.geometry_hash}_h{h:g}.txt"),
                     format_coefficients(co))
    _print_fallbacks("coeffs", [(None, h, co.fallback)
                                for h, co in zip(cfg["h_list"], computed) if co.fallback])
    if len(computed) >= 2:
        lambdas, _ = extrapolate_coefficients(*computed[-2:])
        lines.append(",".join(f"{v:.17g}" for v in (0.0, *lambdas, 0.0)))
    write_atomic(os.path.join(outdir, "coefficients.csv"), "\n".join(lines) + "\n")
    return 0


def _print_fallbacks(task, fallbacks):
    """One stderr line per (delta, h, fallback); delta None marks the
    expansion coefficients of mesh size h."""
    for delta, h, fallback in fallbacks:
        where = "coefficients" if delta is None else f"cell delta {delta:g}"
        print(f"{task}: {where} h {h:g} fell back: {fallback}", file=sys.stderr)


def _task_direct(cfg, outdir):
    curve = cfg["curve"]
    cells = [(LayerConfig(delta, cfg["g"], cfg["n"]), h)
             for delta in cfg["deltas"] for h in cfg["h_list"]]
    processes, _ = cell_processes(len(cells))
    solved, _ = solve_cells(curve, cells, processes)
    _print_fallbacks("direct", fallback_cells(cells, solved))
    lines = ["delta,h,lambda_direct,lambda0,lambda_dirichlet_eroded,residual"]
    for (layer, h), values in zip(cells, solved):
        lines.append(",".join(f"{v:.17g}" for v in (layer.delta0, h, *values[:4])))
    write_atomic(os.path.join(outdir, "direct.csv"), "\n".join(lines) + "\n")
    return 0


def _task_sweep(cfg, outdir):
    report = run_sweep(cfg["curve"], cfg["deltas"], cfg["g"], cfg["n"],
                       h_list=cfg.get("h_list"), solver=cfg["solver"])
    _print_fallbacks("sweep", report.fallbacks)
    write_atomic(os.path.join(outdir, "sweep.csv"), report.to_csv())
    write_atomic(os.path.join(outdir, "sweep_fits.csv"), report.fits_csv())
    sweep_svg(report, path=os.path.join(outdir, "sweep.svg"))
    if report.sandwich_violations():
        print(f"sweep: {len(report.sandwich_violations())} sandwich violation(s)",
              file=sys.stderr)
        return 2
    for order in (0, 1, 2):
        key = f"slope{order}_min"
        if key in cfg["require"]:
            fit = report.fits.get(order)
            if fit is None or fit.slope < cfg["require"][key]:
                got = "none" if fit is None else f"{fit.slope:.3f}"
                print(f"sweep: order-{order} slope {got} below required "
                      f"{cfg['require'][key]}", file=sys.stderr)
                return 2
    return 0


def _task_validate(cfg, outdir):
    curve = cfg["curve"]
    if not isinstance(curve, Circle):
        _fail("validate requires circle geometry", "geometry.kind")
    if len(cfg["h_list"]) != 2:
        _fail("validate needs exactly two mesh sizes", "mesh.h")
    check_ring_counts(curve, *cfg["h_list"])
    checks = []
    deltas = cfg["deltas"][:2]
    for delta, lam_oracle in zip(deltas, bessel.disk_first_tes(curve.radius, deltas, cfg["n"])):
        layer = LayerConfig(delta, cfg["g"], cfg["n"])
        tec, tef = (first_te(curve, layer, h) for h in cfg["h_list"])
        _print_fallbacks("validate", [(delta, h, te.fallback)
                                      for h, te in zip(cfg["h_list"], (tec, tef)) if te.fallback])
        ratio = tef.mesh.n_rings / tec.mesh.n_rings
        lam_fem, _ = richardson(tec.lam, tef.lam, ratio)
        _, est0 = richardson(tec.lambda0, tef.lambda0, ratio)
        _, est_ero = richardson(tec.lambda_eroded, tef.lambda_eroded, ratio)
        # the oracle is exact: both ends sit on it, with the mesh error of
        # lambda_eroded, which the checked eigenvalue does not feed
        oracle = (lam_oracle, max(est_ero, 1e-12))
        checks.append(("cross_validation", delta, abs(lam_fem - lam_oracle),
                       in_corridor(lam_fem, oracle, oracle)))
        checks.append(("sandwich", delta, tef.lam,
                       in_corridor(tef.lam, (tef.lambda0, est0), (tef.lambda_eroded, est_ero))))
        resid = rayleigh_identity_residual(tef.lam, tef.v, tef.w, cfg["n"], tef.mesh,
                                           tef.K, tef.M)
        checks.append(("rayleigh_identity", delta, resid, resid <= _IDENTITY_TOL))
    lines = ["check,delta,value,ok"]
    for name, delta, value, ok in checks:
        lines.append(f"{name},{delta:.17g},{value:.17g},{int(ok)}")
    write_atomic(os.path.join(outdir, "validate.csv"), "\n".join(lines) + "\n")
    return 0 if all(ok for _, _, _, ok in checks) else 2


_TASKS = {"coeffs": _task_coeffs, "direct": _task_direct, "sweep": _task_sweep,
          "disk-oracle": _task_disk_oracle, "validate": _task_validate}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="thinspec",
        description="thickness expansion and direct transmission-eigenvalue runs",
    )
    parser.add_argument("task", choices=_TASKS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.task)
        outdir = args.out if args.out is not None else cfg["output"]
        os.makedirs(outdir, exist_ok=True)
        return _TASKS[args.task](cfg, outdir)
    except ConfigError as exc:
        where = f" [{exc.field}]" if exc.field else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 3
    except ThinspecError as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
