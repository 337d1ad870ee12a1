"""Sweep harness: thickness sweeps with convergence-order fits, Richardson
mesh-error control, thickness recovery, and deterministic CSV/SVG emission.

A sweep row compares the directly computed first transmission eigenvalue
against the expansion predictions at orders 0..2, carries the Max-Min
sandwich flag of `in_corridor` (each corridor end may miss by
SANDWICH_FACTOR times its own error estimate), and a mesh-guard flag that
admits the row into order fits only when the estimated mesh error is at
most a third of the model error it would be fitted against.  Both solver
legs build their rows with one row function, whose predictions are
`evaluate_expansion`'s.  Disks are swept with the semi-analytic solver;
general geometries run the coupled finite element pencil on exactly two
mesh sizes and Richardson-extrapolate over their ring spacing, the
expansion coefficients with `extrapolate_coefficients`.  Their (thickness,
mesh size) cells are pulled, finest mesh first, from one shared counter by
this process, once it has computed the expansion coefficients, and by one
forked helper per further usable core (`solve_cells`); every helper ends
before the sweep returns.
"""

import math
import multiprocessing
import os
import traceback
from dataclasses import dataclass, field

from . import bessel
from .asymptotics import compute_coefficients, evaluate_expansion, geometry_hash
from .errors import BelowLambda0, ConfigError, InsufficientData
from .geometry import Circle, LayerConfig
from .mesh import ring_count
from .transmission import first_te

_VERSION = "thinspec-0.1.0"
# multiple of its own error estimate by which each end of the Max-Min
# sandwich lambda0 <= lambda <= lambda_eroded may be missed (`in_corridor`)
SANDWICH_FACTOR = 3.0


@dataclass
class FitResult:
    slope: float
    intercept: float
    r2: float
    n_used: int
    note: str = ""


def fit_order(deltas, errors):
    """Least-squares slope of log(error) against log(delta).

    The centred line in closed form, in plain floats: slope Sxy/Sxx and
    r2 = Sxy^2/(Sxx Syy) from the sums of squares about the means.  Zero
    error rows are dropped with a note; fewer than three surviving pairs, or
    a single distinct thickness among them, raises InsufficientData.
    """
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise InsufficientData("fit_order: thickness values must be positive")
    pairs = [(math.log(d), math.log(e)) for d, e in zip(deltas, map(float, errors), strict=True)
             if e > 0.0]
    dropped = len(deltas) - len(pairs)
    note = f"dropped {dropped} zero-error row(s)" if dropped else ""
    count = len(pairs)
    if count < 3:
        raise InsufficientData(f"fit_order: need >= 3 positive pairs, have {count}")
    x_mean = sum(x for x, _ in pairs) / count
    y_mean = sum(y for _, y in pairs) / count
    sxx = sum((x - x_mean) ** 2 for x, _ in pairs)
    if sxx == 0.0:
        raise InsufficientData("fit_order: need two distinct thickness values")
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in pairs)
    syy = sum((y - y_mean) ** 2 for _, y in pairs)
    slope = sxy / sxx
    r2 = sxy * sxy / (sxx * syy) if syy > 0 else 1.0
    return FitResult(slope, y_mean - slope * x_mean, r2, count, note)


@dataclass
class ThicknessEstimate:
    first_order: float
    quadratic: float = None


def estimate_thickness(lam_measured, coeffs):
    """Recover the coating thickness from a measured first transmission
    eigenvalue and the expansion coefficients.

    The first-order estimate is (lam - lambda0)/lambda1; the quadratic
    refinement is the smaller positive root of lambda2*d^2 + lambda1*d = gap,
    gap = lam - lambda0, when it is real.  That root is
    2*gap/(lambda1 + sqrt(lambda1^2 + 4*lambda2*gap)) for either sign of
    lambda2 and for lambda2 = 0, where it equals the first-order estimate;
    this form adds two positive terms, so a small gap loses no digits.
    """
    gap = lam_measured - coeffs.lambda0
    if gap < 0:
        raise BelowLambda0(
            f"measured eigenvalue {lam_measured} below lambda0 {coeffs.lambda0}"
        )
    if gap == 0.0:
        return ThicknessEstimate(0.0, 0.0)
    if coeffs.lambda1 <= 0:
        raise BelowLambda0("thickness recovery needs lambda1 > 0")
    disc = coeffs.lambda1**2 + 4.0 * coeffs.lambda2 * gap
    quad = 2.0 * gap / (coeffs.lambda1 + math.sqrt(disc)) if disc >= 0.0 else None
    return ThicknessEstimate(gap / coeffs.lambda1, quad)


def richardson(v_coarse, v_fine, refinement):
    """Eliminate the leading O(h^2) error from two mesh levels whose spacings
    differ by the factor refinement = h_coarse/h_fine.  For meshes from
    `generate_mesh` that is n_rings fine / n_rings coarse: the ring count is
    round(s0/(6h)), so the nominal sizes h give the spacing ratio only when
    both round alike.

    Returns (extrapolated value, error estimate of the fine-level value,
    taken as its distance to the extrapolated value)."""
    extrap = v_fine + (v_fine - v_coarse) / (refinement**2 - 1.0)
    return extrap, abs(extrap - v_fine)


def check_ring_counts(curve, h_coarse, h_fine):
    """Raise ConfigError (field mesh.h) when both mesh sizes give one
    `ring_count`, which leaves `richardson` no refinement to divide by."""
    rings = ring_count(curve, h_coarse)
    if ring_count(curve, h_fine) == rings:
        raise ConfigError(f"mesh sizes {h_coarse:g} and {h_fine:g} both give {rings} rings, "
                          "so Richardson extrapolation has no refinement", field="mesh.h")


def extrapolate_coefficients(coarse, fine):
    """`richardson` of each expansion coefficient of two meshes from
    `compute_coefficients` over their ring ratio.

    Returns (extrapolated lambdas triple, error estimate of fine.lambda0)."""
    refine = fine.mesh.n_rings / coarse.mesh.n_rings
    pairs = [richardson(c, f, refine) for c, f in zip(coarse.lambdas, fine.lambdas)]
    return tuple(value for value, _ in pairs), pairs[0][1]


def in_corridor(lam, lower, upper):
    """Whether lam lies in the Max-Min corridor between lower and upper,
    each a (value, est) pair whose value may be missed by SANDWICH_FACTOR
    times its own error estimate est.  The estimate of lam never enters, so
    a wrong lam cannot widen the corridor it is checked against."""
    (lo, est_lo), (hi, est_hi) = lower, upper
    return bool(lo - SANDWICH_FACTOR * est_lo <= lam <= hi + SANDWICH_FACTOR * est_hi)


@dataclass
class SweepRow:
    delta: float
    lambda_direct: float
    lambda_eroded: float
    pred0: float
    pred1: float
    pred2: float
    err0: float
    err1: float
    err2: float
    sandwich_ok: bool
    mesh_guard_ok: bool
    mesh_est: float = 0.0
    guard2_ok: bool = True


@dataclass
class SweepReport:
    """Rows, fits and Richardson coefficients of a sweep.  processes is how
    many processes took part in its cells (one may take none), the caller's
    and processes - 1 forked helpers (`solve_cells`), serial_reason why that
    was one (None when it was more), fallbacks the (delta, h, fallback) of
    each finite element cell whose `first_te` fell back and the (None, h,
    fallback) of each mesh size whose expansion coefficients did.  est0 is
    the Richardson error estimate of lambda0 alone and max_residual the
    largest `first_te` backward error over the finite element cells; both
    are None on the semi-analytic leg.  None of these is written to the
    CSVs."""

    rows: list
    fits: dict
    provenance: dict
    lambda0: float
    lambda1: float
    lambda2: float
    processes: int = 1
    serial_reason: str = None
    fallbacks: list = field(default_factory=list)
    est0: float = None
    max_residual: float = None

    def sandwich_violations(self):
        return [r for r in self.rows if not r.sandwich_ok]

    def to_csv(self):
        lines = [f"# {k} {v}" for k, v in sorted(self.provenance.items())]
        lines.append(
            "delta,lambda_direct,lambda_dirichlet_eroded,pred0,pred1,pred2,"
            "err0,err1,err2,sandwich_ok,mesh_guard_ok"
        )
        for r in self.rows:
            vals = [r.delta, r.lambda_direct, r.lambda_eroded, r.pred0, r.pred1,
                    r.pred2, r.err0, r.err1, r.err2]
            lines.append(
                ",".join(f"{v:.17g}" for v in vals)
                + f",{int(r.sandwich_ok)},{int(r.mesh_guard_ok)}"
            )
        return "\n".join(lines) + "\n"

    def fits_csv(self):
        lines = ["order,slope,intercept,r2,n_used,note"]
        for order in sorted(self.fits):
            f = self.fits[order]
            if f is None:
                lines.append(f"{order},,,,0,insufficient data")
            else:
                lines.append(
                    f"{order},{f.slope:.17g},{f.intercept:.17g},{f.r2:.17g},"
                    f"{f.n_used},{f.note}"
                )
        return "\n".join(lines) + "\n"


def _rows_to_fits(rows):
    fits = {}
    for order in (0, 1, 2):
        if order <= 1:
            usable = [r for r in rows if r.mesh_guard_ok]
        else:
            usable = [r for r in rows if r.guard2_ok]
        try:
            fits[order] = fit_order(
                [r.delta for r in usable],
                [getattr(r, f"err{order}") for r in usable],
            )
        except InsufficientData:
            fits[order] = None
    return fits


def _sweep_row(delta, lam, lambdas, lower, upper, fine=None):
    """SweepRow of thickness delta for the eigenvalue lam, with the
    `evaluate_expansion` predictions of lambdas at orders 0..2.

    The row passes the sandwich test when `in_corridor(lam, lower, upper)`;
    lower = (lambda0, est) and upper = (lambda_eroded, est) are the corridor
    ends with their own error estimates.  fine = (eigenvalue, lambdas,
    mesh_est) of the finest single mesh marks a row extrapolated over
    meshes: its order-1 and order-2 guards pass only when the same error
    measured on the fine mesh differs from the row's by at most a third of
    it, i.e. little mesh error survives in the modelled error.  Without
    fine, mesh_est is 0 and both guards pass.
    """
    preds = [evaluate_expansion(lambdas, delta, order) for order in (0, 1, 2)]
    errs = [abs(lam - pred) for pred in preds]
    mesh_est, guards = 0.0, (True, True)
    if fine is not None:
        lam_fine, fine_lambdas, mesh_est = fine
        fine_errs = [abs(lam_fine - evaluate_expansion(fine_lambdas, delta, k)) for k in (1, 2)]
        guards = [bool(err > 0 and abs(fine_err - err) <= err / 3.0)
                  for err, fine_err in zip(errs[1:], fine_errs)]
    return SweepRow(delta, lam, upper[0], *preds, *errs,
                    sandwich_ok=in_corridor(lam, lower, upper),
                    mesh_guard_ok=guards[0], mesh_est=mesh_est, guard2_ok=guards[1])


def _sweep_disk(curve, deltas, g, n):
    if not isinstance(curve, Circle):
        raise ConfigError("semi-analytic sweep requires circle geometry")
    if callable(g) or float(g) != 1.0:
        raise ConfigError("semi-analytic sweep requires unit thickness profile")
    R = curve.radius
    coeffs = bessel.disk_asymptotic_coeffs(R)
    lambdas = (coeffs.lambda0, coeffs.lambda1, coeffs.lambda2)
    j01 = bessel.bessel_j_zero(0, 1)
    est = 1e-9 * coeffs.lambda0  # root-refinement scale, at both ends
    rows = [_sweep_row(delta, lam, lambdas, (lambdas[0], est), ((j01 / (R - delta)) ** 2, est))
            for delta, lam in zip(deltas, bessel.disk_first_tes(R, deltas, n))]
    return rows, lambdas


# BLAS thread variables in OpenBLAS's order of precedence
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_pinned():
    """Whether BLAS runs one thread: the first of _BLAS_THREAD_VARS that
    holds a positive integer is 1, which is how OpenBLAS reads them."""
    for var in _BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


def cell_processes(n_cells):
    """(processes, reason) for solving n_cells finite element cells: the
    caller's process and processes - 1 helpers forked by `solve_cells`.

    More than one process only when more than one core is usable, new
    processes fork (a spawned helper would import the package again) and
    BLAS is pinned to one thread (several threads per process would contend
    for the same cores); reason names the rule that chose one process, else
    it is None.  A helper forks with its cells, callable g included, in
    memory."""
    if n_cells < 2:
        return 1, "one cell"
    cores = _usable_cores()
    if cores < 2:
        return 1, "one usable core"
    if not _blas_pinned():
        return 1, "BLAS threads not pinned to 1"
    method = multiprocessing.get_start_method(allow_none=True) \
        or multiprocessing.get_all_start_methods()[0]
    if method != "fork":
        return 1, f"start method {method}"
    return min(cores, n_cells), None


def _fem_cell(curve, layer, h):
    """One (thickness, mesh size) cell: first_te's (lam, lambda0,
    lambda_eroded, residual), the ring count of its mesh and first_te's
    fallback."""
    te = first_te(curve, layer, h)
    return te.lam, te.lambda0, te.lambda_eroded, te.residual, te.mesh.n_rings, te.fallback


def fallback_cells(cells, solved):
    """(delta, h, fallback) of each (layer, h) cell whose solve fell back."""
    return [(layer.delta0, h, out[-1]) for (layer, h), out in zip(cells, solved) if out[-1]]


def _pull_cells(curve, queue, counter):
    """Yield (index, _fem_cell) of each (index, cell) of queue this process
    takes, at the position the shared counter holds, until none is left."""
    while True:
        with counter.get_lock():
            taken, counter.value = counter.value, counter.value + 1
        if taken >= len(queue):
            return
        i, (layer, h) = queue[taken]
        yield i, _fem_cell(curve, layer, h)


def _solve_pulled(curve, queue, counter, conn):
    """Body of a forked helper: send (True, its `_pull_cells` pairs) or (False,
    (the exception that stopped it, its formatted traceback)) through conn."""
    try:
        out = True, list(_pull_cells(curve, queue, counter))
    except Exception as exc:
        out = False, (exc, traceback.format_exc())
    conn.send(out)
    conn.close()


def solve_cells(curve, cells, processes, alongside=None):
    """_fem_cell of every (layer, h) in cells, in input order, with the result
    of alongside() (None without it).

    With more than one process, processes - 1 daemonic helpers are forked,
    each sending its results back through a one-way pipe, and this process
    runs alongside() first.  Then every process takes the next cell from one
    shared counter until none is left, finest mesh first and in input order
    among equal sizes, so a process may take no cell.  A helper's exception
    is raised here with its own type, from a RuntimeError that holds the
    helper's traceback, and a helper that exits without sending raises
    RuntimeError.  If anything raises here, the helpers still running are
    terminated; every helper is joined before this returns.  Each cell is
    computed the same way wherever it runs, so the results are the same
    bits."""
    if processes == 1:
        side = alongside() if alongside else None
        return [_fem_cell(curve, layer, h) for layer, h in cells], side
    queue = sorted(enumerate(cells), key=lambda item: item[1][1])
    context = multiprocessing.get_context("fork")
    counter = context.Value("i", 0)
    helpers = []
    try:
        for _ in range(processes - 1):
            recv, send = context.Pipe(duplex=False)
            proc = context.Process(target=_solve_pulled, daemon=True,
                                   args=(curve, queue, counter, send))
            proc.start()
            send.close()  # the helper holds the only write end: its exit is EOF here
            helpers.append((proc, recv))
        side = alongside() if alongside else None
        solved = dict(_pull_cells(curve, queue, counter))
        for proc, recv in helpers:
            try:
                ok, out = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a cell helper exited with code {proc.exitcode} "
                                   "before sending its results") from None
            if not ok:
                exc, trace = out
                raise exc from RuntimeError(f"raised in a cell helper:\n{trace}")
            solved.update(out)
        return [solved[i] for i in range(len(cells))], side
    except BaseException:
        for proc, _ in helpers:
            proc.terminate()
        raise
    finally:
        for proc, recv in helpers:
            proc.join()
            recv.close()


def _sweep_fem(curve, deltas, g, n, h_list):
    if h_list is None or len(h_list) != 2:
        raise ConfigError("finite element sweep needs exactly two mesh sizes", field="mesh.h")
    check_ring_counts(curve, *h_list)
    cells = [(LayerConfig(delta, g, n), h) for delta in deltas for h in h_list]
    processes, reason = cell_processes(len(cells))
    # expansion coefficients per mesh size, then Richardson in h
    coeff_layer = LayerConfig(max(deltas), g, n)
    solved, coeff_by_h = solve_cells(
        curve, cells, processes,
        alongside=lambda: [compute_coefficients(curve, coeff_layer, h) for h in h_list])
    lambdas, est0 = extrapolate_coefficients(*coeff_by_h)

    rows = []
    # the coarse and the fine cell of each thickness are consecutive
    for delta, (lam_c, _, ero_c, _, rings_c, _), (lam_f, _, ero_f, _, rings_f, _) in \
            zip(deltas, solved[::2], solved[1::2]):
        lam_direct, est_direct = richardson(lam_c, lam_f, rings_f / rings_c)
        lam_eroded, est_eroded = richardson(ero_c, ero_f, rings_f / rings_c)
        # the corridor ends carry their own estimates; mesh_est adds lam's
        rows.append(_sweep_row(delta, lam_direct, lambdas, (lambdas[0], est0),
                               (lam_eroded, est_eroded),
                               fine=(lam_f, coeff_by_h[1].lambdas,
                                     max(est_direct, est_eroded, est0))))
    fallbacks = fallback_cells(cells, solved)
    fallbacks += [(None, h, c.fallback) for h, c in zip(h_list, coeff_by_h) if c.fallback]
    max_residual = max(residual for _, _, _, residual, _, _ in solved)
    return rows, lambdas, processes, reason, fallbacks, est0, max_residual


def run_sweep(curve, deltas, g, n, h_list=None, solver="auto"):
    """Sweep coating thicknesses and fit the convergence orders.

    solver 'bessel' uses the semi-analytic disk determinant (circle geometry
    only), 'fem' the coupled pencil on the two mesh sizes of h_list with
    Richardson extrapolation (any other count raises ConfigError), 'auto'
    picks by geometry.  The finite element cells run on as many processes as
    `cell_processes` derives.  Each row's sandwich flag is `in_corridor`'s,
    each end with its own error estimate.
    """
    deltas = [float(d) for d in deltas]
    if solver == "auto":
        solver = "bessel" if isinstance(curve, Circle) and not callable(g) and float(g) == 1.0 else "fem"
    if solver == "bessel":
        rows, lambdas = _sweep_disk(curve, deltas, g, n)
        processes, reason, fallbacks = 1, "semi-analytic solver", []
        est0 = max_residual = None
    elif solver == "fem":
        rows, lambdas, processes, reason, fallbacks, est0, max_residual = _sweep_fem(
            curve, deltas, g, n, h_list)
    else:
        raise ConfigError(f"unknown solver {solver!r}", field="solver")
    fits = _rows_to_fits(rows)
    provenance = {
        "geometry": geometry_hash(curve),
        "solver": solver,
        "h_list": "none" if h_list is None else ";".join(f"{h:g}" for h in h_list),
        "n": f"{n:g}",
        "version": _VERSION,
    }
    return SweepReport(rows=rows, fits=fits, provenance=provenance,
                       lambda0=lambdas[0], lambda1=lambdas[1], lambda2=lambdas[2],
                       processes=processes, serial_reason=reason, fallbacks=fallbacks,
                       est0=est0, max_residual=max_residual)


# ---------------------------------------------------------------------------
# deterministic file emission
# ---------------------------------------------------------------------------

def write_atomic(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def svg_loglog(series, path=None, title=""):
    """Minimal hand-emitted 640 x 480 log-log chart.

    series: list of (label, deltas, errors, fit or None).  Returns the SVG
    text; writes it when a path is given.
    """
    width, height = 640, 480
    pts_all = [(d, e) for _, ds, es, _ in series for d, e in zip(ds, es) if e > 0]
    if not pts_all:
        raise InsufficientData("svg_loglog: nothing to plot")
    lx = [math.log10(d) for d, _ in pts_all]
    ly = [math.log10(e) for _, e in pts_all]
    x0, x1 = min(lx) - 0.15, max(lx) + 0.15
    y0, y1 = min(ly) - 0.3, max(ly) + 0.3
    mleft, mright, mtop, mbot = 60, 20, 30, 45

    def sx(v):
        return mleft + (v - x0) / (x1 - x0) * (width - mleft - mright)

    def sy(v):
        return height - mbot - (v - y0) / (y1 - y0) * (height - mbot - mtop)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{mleft}" y1="{height-mbot}" x2="{width-mright}" y2="{height-mbot}" stroke="black"/>',
        f'<line x1="{mleft}" y1="{mtop}" x2="{mleft}" y2="{height-mbot}" stroke="black"/>',
    ]
    for px in range(math.ceil(x0), math.floor(x1) + 1):
        out.append(
            f'<line x1="{sx(px):.1f}" y1="{height-mbot}" x2="{sx(px):.1f}" y2="{mtop}" stroke="#ddd"/>'
            f'<text x="{sx(px):.1f}" y="{height-mbot+16}" text-anchor="middle" font-size="11">1e{px}</text>'
        )
    for py in range(math.ceil(y0), math.floor(y1) + 1):
        out.append(
            f'<line x1="{mleft}" y1="{sy(py):.1f}" x2="{width-mright}" y2="{sy(py):.1f}" stroke="#ddd"/>'
            f'<text x="{mleft-6}" y="{sy(py)+4:.1f}" text-anchor="end" font-size="11">1e{py}</text>'
        )
    for i, (label, ds, es, fit) in enumerate(series):
        color = colors[i % len(colors)]
        for d, e in zip(ds, es):
            if e > 0:
                out.append(
                    f'<circle cx="{sx(math.log10(d)):.1f}" cy="{sy(math.log10(e)):.1f}" r="3.5" fill="{color}"/>'
                )
        if fit is not None:
            xs = [min(math.log10(d) for d in ds), max(math.log10(d) for d in ds)]
            ln10 = math.log(10.0)
            ys = [(fit.slope * x * ln10 + fit.intercept) / ln10 for x in xs]
            out.append(
                f'<line x1="{sx(xs[0]):.1f}" y1="{sy(ys[0]):.1f}" x2="{sx(xs[1]):.1f}" '
                f'y2="{sy(ys[1]):.1f}" stroke="{color}" stroke-dasharray="5,3"/>'
            )
        out.append(
            f'<text x="{width-mright-6}" y="{mtop+16*(i+1)}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}'
            + (f" (slope {fit.slope:.2f})" if fit is not None else "")
            + "</text>"
        )
    out.append(
        f'<text x="{width/2:.0f}" y="{height-10}" text-anchor="middle" font-size="12">coating thickness</text>'
    )
    out.append("</svg>")
    text = "\n".join(out) + "\n"
    if path is not None:
        write_atomic(path, text)
    return text


def sweep_svg(report, path=None):
    series = []
    for order in (0, 1, 2):
        ds = [r.delta for r in report.rows]
        es = [getattr(r, f"err{order}") for r in report.rows]
        series.append((f"order {order} error", ds, es, report.fits.get(order)))
    return svg_loglog(series, path=path, title="expansion error against coating thickness")
